"""Lazy package re-exports (PEP 562).

Every package ``__init__`` of :mod:`repro` lists its re-exports in one
literal ``_EXPORTS`` table -- public name -> the module it is taken from --
and installs the ``__getattr__`` / ``__dir__`` pair :func:`lazy_exports`
returns.  A name's module is imported the first time the name is read and
the value is then bound on the package, so ``import repro.x.y`` runs only
``repro.x.y`` and what it imports itself, never every subpackage.

A table entry whose module is the package's own submodule of that name
(``"theory": "repro.analysis.theory"`` in :mod:`repro.analysis`) re-exports
the submodule itself.  ``tools/check_docs.py`` reads the same tables from
the AST, so docs may reference ``repro.Name`` for any table entry.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str], public: Sequence[str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``."""

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(source)
        value = module if source == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__
