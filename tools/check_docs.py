"""Docs integrity checker: every link and code reference must resolve.

Scans ``docs/*.md`` and ``README.md`` for

* **relative markdown links** -- ``[text](path)`` targets that are not
  absolute URLs must point at files that exist (fragments are stripped;
  pure in-page ``#anchor`` links are skipped), and
* **code references** -- backticked ``path/to/file.py:Symbol`` tokens whose
  path lies inside the repo (``src/``, ``tests/``, ``benchmarks/``,
  ``tools/``, ``examples/``) must name an existing file *and* a symbol
  defined in it.  Dotted symbols (``Class.method``) resolve through the
  class body: methods, nested classes, class-level assignments, ``__slots__``
  entries, and ``self.attr`` assignments inside methods all count.

It also scans ``src/**/*.py`` for Sphinx-role references in docstrings --
``:class:``/``:meth:``/``:attr:``/``:func:``/``:data:``/``:mod:`` whose
target is a dotted ``repro.`` path, with or without the ``~`` prefix.  The
longest prefix naming a module under ``src/`` is the module; the rest
resolves like a code reference, where names a package ``__init__``
re-exports count as defined (and dotted tails follow the import).

Exit status is non-zero when anything dangles, with one line per problem --
this is the CI docs job (see ``.github/workflows/ci.yml``).

Run it directly::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Only backticked file:symbol references under these roots are checked;
#: anything else (e.g. the ``path/to/file.py:Symbol`` convention placeholder)
#: is treated as illustrative.
CHECKED_PREFIXES = ("src/", "tests/", "benchmarks/", "tools/", "examples/")

MARKDOWN_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_REFERENCE = re.compile(r"`([\w./-]+\.py):([A-Za-z_][\w.]*)`")
ROLE_REFERENCE = re.compile(r":(?:class|meth|attr|func|data|mod):`~?(repro(?:\.\w+)*)`")
SRC_ROOT = REPO_ROOT / "src"


def doc_files() -> List[Path]:
    docs = sorted((REPO_ROOT / "docs").glob("*.md"))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        docs.append(readme)
    return docs


def iter_links(text: str) -> Iterator[str]:
    for match in MARKDOWN_LINK.finditer(text):
        yield match.group(1)


def iter_code_references(text: str) -> Iterator[Tuple[str, str]]:
    for match in CODE_REFERENCE.finditer(text):
        yield match.group(1), match.group(2)


def check_link(doc: Path, target: str) -> Optional[str]:
    if target.startswith(("http://", "https://", "mailto:")):
        return None
    path, _, _fragment = target.partition("#")
    if not path:  # in-page anchor
        return None
    resolved = (doc.parent / path).resolve()
    if not resolved.exists():
        return f"{doc.relative_to(REPO_ROOT)}: broken link -> {target}"
    return None


def _class_member_names(node: ast.ClassDef) -> Set[str]:
    """Every name a ``Class.member`` reference may legitimately use."""
    names: Set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__":
                        names.update(_slot_strings(item.value))
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            names.add(item.target.id)
    # self.attr assignments in the class's *own* methods (not in nested
    # classes' methods, whose attributes belong to the nested class).
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names.add(target.attr)
    return names


def _slot_strings(value: ast.expr) -> Set[str]:
    names: Set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
    return names


def _top_level_names(tree: ast.Module, reexports: bool) -> Dict[str, ast.AST]:
    """Module-level defs and assignments (plus ``from`` imports when the
    module is a package ``__init__``, whose re-exports count as defined)."""
    top: Dict[str, ast.AST] = {}
    for item in tree.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top[item.name] = item
    for item in tree.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    top.setdefault(target.id, item)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            top.setdefault(item.target.id, item)
        elif reexports and isinstance(item, ast.ImportFrom):
            for alias in item.names:
                top.setdefault(alias.asname or alias.name, item)
    return top


def _imported_from(item: ast.ImportFrom, name: str) -> Optional[str]:
    """The dotted origin of ``name`` if ``item`` binds it (``src/`` uses
    absolute imports only)."""
    for alias in item.names:
        if (alias.asname or alias.name) == name:
            return f"{item.module}.{alias.name}"
    return None


def _module_file(module: str) -> Path:
    path = SRC_ROOT.joinpath(*module.split("."))
    package = path / "__init__.py"
    return package if package.exists() else path.with_suffix(".py")


def _resolve_in_module(
    tree: ast.Module, parts: List[str], reexports: bool = False
) -> Optional[str]:
    """``None`` when ``parts`` (a dotted symbol) is defined in ``tree``, else
    what is missing.  With ``reexports`` (a package ``__init__``), imported
    names count too and resolve through their origin."""
    top = _top_level_names(tree, reexports)
    head = top.get(parts[0])
    if head is None:
        return f"no top-level symbol {parts[0]!r}"
    if isinstance(head, ast.ImportFrom):
        origin = _imported_from(head, parts[0])
        return check_dotted_target(".".join([origin] + parts[1:]))
    if len(parts) == 1:
        return None
    if not isinstance(head, ast.ClassDef):
        return f"{parts[0]!r} is not a class, cannot hold {parts[1]!r}"
    # Resolve the dotted tail one level at a time (nested classes supported).
    node: ast.ClassDef = head
    for depth, part in enumerate(parts[1:], start=1):
        members = _class_member_names(node)
        if part not in members:
            owner = ".".join(parts[:depth])
            return f"{owner!r} has no member {part!r}"
        nested = next(
            (
                item
                for item in node.body
                if isinstance(item, ast.ClassDef) and item.name == part
            ),
            None,
        )
        if nested is None:
            if depth != len(parts) - 1:
                owner = ".".join(parts[: depth + 1])
                return f"{owner!r} is not a nested class"
            break
        node = nested
    return None


def check_code_reference(doc: Path, path: str, symbol: str) -> Optional[str]:
    if not path.startswith(CHECKED_PREFIXES):
        return None
    where = f"{doc.relative_to(REPO_ROOT)}: `{path}:{symbol}`"
    source = REPO_ROOT / path
    if not source.exists():
        return f"{where} -- file does not exist"
    try:
        tree = ast.parse(source.read_text())
    except SyntaxError as error:  # pragma: no cover - tree is CI-tested code
        return f"{where} -- file failed to parse: {error}"
    problem = _resolve_in_module(tree, symbol.split("."))
    return f"{where} -- {problem}" if problem else None


def check_dotted_target(target: str) -> Optional[str]:
    """``None`` when the dotted ``repro.`` path names a module under ``src/``
    or a symbol in one, else what is missing."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        module = ".".join(parts[:split])
        source = _module_file(module)
        if source.exists():
            if split == len(parts):
                return None
            tree = ast.parse(source.read_text())
            problem = _resolve_in_module(
                tree, parts[split:], reexports=source.name == "__init__.py"
            )
            return f"{module}: {problem}" if problem else None
    return f"no module {parts[0]!r} under src/"


def iter_role_references(text: str) -> Iterator[Tuple[int, str]]:
    for match in ROLE_REFERENCE.finditer(text):
        yield text.count("\n", 0, match.start()) + 1, match.group(1)


def main() -> int:
    docs = doc_files()
    if not (REPO_ROOT / "docs").is_dir():
        print("FAIL: docs/ directory is missing", file=sys.stderr)
        return 1
    problems: List[str] = []
    links = refs = 0
    for doc in docs:
        text = doc.read_text()
        for target in iter_links(text):
            links += 1
            problem = check_link(doc, target)
            if problem:
                problems.append(problem)
        for path, symbol in iter_code_references(text):
            refs += 1
            problem = check_code_reference(doc, path, symbol)
            if problem:
                problems.append(problem)
    roles = 0
    for source in sorted(SRC_ROOT.rglob("*.py")):
        for line, target in iter_role_references(source.read_text()):
            roles += 1
            problem = check_dotted_target(target)
            if problem:
                where = f"{source.relative_to(REPO_ROOT)}:{line}: {target}"
                problems.append(f"{where} -- {problem}")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(
        f"checked {len(docs)} docs, {links} links, {refs} code references, "
        f"{roles} docstring references: {len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
