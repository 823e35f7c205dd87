"""Tests for the content-addressed result store (repro.scenarios.store).

Covers the keying contract (what invalidates a cached trial and what
deliberately does not), the on-disk robustness guarantees (corrupt lines
skipped with a warning, concurrent writers never lose rows, ``gc``
compaction), cache-hit byte identity across every trace mode, the
``run(store=...)`` integration, and the single shared per-trial seed helper
(:func:`repro.analysis.sweep.derive_trial_seed`).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import warnings

import pytest

from repro.analysis.sweep import TRIAL_SEED_POLICIES, derive_point_seed, derive_trial_seed
from repro.scenarios import (
    AlgorithmSpec,
    EngineConfig,
    EnvironmentSpec,
    MetricSpec,
    ResultStore,
    RunPolicy,
    ScenarioSpec,
    SchedulerSpec,
    TopologySpec,
    metrics_signature,
    run,
    trial_key,
)
from repro.scenarios.cli import main as cli_main


def store_scenario(
    name="stored",
    seed=7,
    trials=1,
    trace_mode="auto",
    metrics=("counters",),
    rounds=40,
    seed_policy="fixed",
    master_seed=None,
    **engine_kwargs,
):
    return ScenarioSpec(
        name=name,
        topology=TopologySpec("line", {"n": 5}),
        algorithm=AlgorithmSpec("lbalg", {"preset": "small"}),
        scheduler=SchedulerSpec("iid", {"probability": 0.5, "seed": seed}),
        environment=EnvironmentSpec("saturating", {"senders": [0]}),
        engine=EngineConfig(trace_mode=trace_mode, **engine_kwargs),
        run=RunPolicy(
            rounds=rounds,
            rounds_unit="rounds",
            trials=trials,
            master_seed=seed if master_seed is None else master_seed,
            seed_policy=seed_policy,
        ),
        metrics=tuple(MetricSpec(m) for m in metrics),
    )


class TestKeying:
    def test_key_ignores_labels_and_engine_lanes(self):
        """The key addresses *content*: renaming a spec or switching engine
        lanes (which are trace-identical by contract) must hit the same
        record."""
        base = store_scenario(name="a")
        renamed = dataclasses.replace(base, name="b", description="relabeled")
        lane = dataclasses.replace(
            base, engine=EngineConfig(fast_path=False, batch_path=False, trace_mode="auto")
        )
        assert trial_key(base, 0) == trial_key(renamed, 0)
        assert trial_key(base, 0) == trial_key(lane, 0)

    def test_key_changes_with_metrics_trace_mode_seed_and_rounds(self):
        base = store_scenario()
        assert trial_key(base, 0) != trial_key(
            dataclasses.replace(base, metrics=(MetricSpec("counters"), MetricSpec("ack_delay"))), 0
        )
        assert trial_key(store_scenario(trace_mode="full"), 0) != trial_key(
            store_scenario(trace_mode="counters"), 0
        )
        assert trial_key(base, 0) != trial_key(store_scenario(seed=8), 0)
        assert trial_key(base, 0) != trial_key(store_scenario(rounds=41), 0)

    def test_key_tracks_the_resolved_trial_seed_not_the_index(self):
        """Trial bookkeeping matters only through the resolved seed: trial i
        of a sequential-seed spec equals trial 0 of the spec pinned at that
        seed, so the two share one stored record."""
        sequential = store_scenario(seed=7, trials=4, seed_policy="sequential")
        pinned = store_scenario(seed=7, trials=1, seed_policy="fixed", master_seed=9)
        assert trial_key(sequential, 2) == trial_key(pinned, 0)
        # fixed policy: every trial is the same content
        fixed = store_scenario(seed=7, trials=4, seed_policy="fixed")
        assert trial_key(fixed, 0) == trial_key(fixed, 3)

    def test_metrics_signature_resolves_auto_trace_mode(self):
        """auto that resolves to COUNTERS signs like an explicit counters
        spec -- the signature covers what was *recorded*, not the spelling."""
        auto = store_scenario(trace_mode="auto", metrics=("counters",))
        explicit = store_scenario(trace_mode="counters", metrics=("counters",))
        assert metrics_signature(auto) == metrics_signature(explicit)


class TestRoundTrip:
    def test_put_get_round_trips_and_patches_trial_index(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = store_scenario(seed=7, trials=4, seed_policy="sequential")
        record = {"trial_index": 2, "metric_row": {"counters.rounds": 40}, "counters": {}}
        store.put(spec, 2, record)
        # same content, different bookkeeping: trial 0 of the pinned spec
        pinned = store_scenario(seed=7, trials=1, seed_policy="fixed", master_seed=9)
        hit = store.get(pinned, 0)
        assert hit is not None
        assert hit["trial_index"] == 0  # patched to the requested index
        assert hit["metric_row"] == record["metric_row"]
        assert store.get(store_scenario(seed=100), 0) is None
        assert (store.hits, store.misses) == (1, 1)

    def test_coerce_accepts_none_path_and_instance(self, tmp_path):
        assert ResultStore.coerce(None) is None
        store = ResultStore.coerce(str(tmp_path))
        assert isinstance(store, ResultStore)
        assert ResultStore.coerce(store) is store
        with pytest.raises(TypeError, match="store must be"):
            ResultStore.coerce(42)


def _bucket_writer(args):
    """Top-level worker: append records into one shared store root."""
    root, worker, count = args
    store = ResultStore(root)
    for i in range(count):
        # identical first-2-hex prefix forces every write into one bucket
        store.put_entry(f"aa{worker:02d}{i:04d}", {"worker": worker, "i": i})
    return worker


class TestRobustness:
    def test_corrupt_lines_skipped_with_warning_and_gc_compacts(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put_entry("aa" + "0" * 30, {"v": 1})
        store.put_entry("aa" + "1" * 30, {"v": 2})
        store.put_entry("aa" + "0" * 30, {"v": 3})  # supersedes the first
        bucket = os.path.join(root, "objects", "aa.jsonl")
        with open(bucket, "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa' + "2" * 30 + '", "record": {"v":')  # truncated
        fresh = ResultStore(root)
        with pytest.warns(RuntimeWarning, match="corrupted/truncated"):
            entry = fresh.get_entry("aa" + "0" * 30)
        assert entry["record"] == {"v": 3}  # last write wins, corruption skipped
        stats = fresh.stats()
        assert stats["entries"] == 2 and stats["corrupt_lines_seen"] == 1

        summary = ResultStore(root).gc()
        assert summary == {
            "kept": 2,
            "dropped_corrupt": 1,
            "dropped_superseded": 1,
            "dropped_evicted": 0,
        }
        compacted = ResultStore(root)
        assert compacted.get_entry("aa" + "0" * 30)["record"] == {"v": 3}
        assert compacted.stats()["lines"] == 2

    def test_get_stats_and_gc_agree_on_corrupt_lines(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put_entry("aa" + "0" * 30, {"v": 1})
        bucket = os.path.join(root, "objects", "aa.jsonl")
        with open(bucket, "a", encoding="utf-8") as handle:
            handle.write('{"key": "aa' + "1" * 30 + '", "record": 5}\n')
            handle.write('{"key": 7, "record": {"v": 2}}\n')
            handle.write('["aa' + "2" * 30 + '"]\n')
        fresh = ResultStore(root)
        with pytest.warns(RuntimeWarning, match="skipped 3 corrupted"):
            assert fresh.get_entry("aa" + "1" * 30) is None
        stats = fresh.stats()
        assert stats["corrupt_lines"] == stats["corrupt_lines_seen"] == 3
        assert (stats["lines"], stats["entries"]) == (4, 1)
        assert cli_main(["store", "stats", root]) == 0
        assert "corrupt    : 3 line(s)" in capsys.readouterr().out

        assert ResultStore(root).gc()["dropped_corrupt"] == 3
        compacted = ResultStore(root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compacted.get_entry("aa" + "0" * 30)["record"] == {"v": 1}
        stats = compacted.stats()
        assert (stats["lines"], stats["entries"], stats["corrupt_lines"]) == (1, 1, 0)
        assert stats["corrupt_lines_seen"] == 0

    def test_gc_dry_run_reports_without_rewriting(self, tmp_path):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.put_entry("aa" + "0" * 30, {"v": 1})
        store.put_entry("aa" + "0" * 30, {"v": 2})
        before = ResultStore(root).stats()["lines"]
        summary = ResultStore(root).gc(dry_run=True)
        assert summary["dropped_superseded"] == 1
        assert ResultStore(root).stats()["lines"] == before  # untouched

    def test_gc_drop_fingerprint_evicts_records(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec_a, spec_b = store_scenario(seed=7), store_scenario(seed=8)
        record = {"trial_index": 0, "metric_row": {}, "counters": {}}
        store.put(spec_a, 0, record)
        store.put(spec_b, 0, record)
        summary = store.gc(drop_fingerprints=(spec_a.fingerprint(),))
        assert summary["dropped_evicted"] == 1 and summary["kept"] == 1
        fresh = ResultStore(store.root)
        assert fresh.get(spec_a, 0) is None
        assert fresh.get(spec_b, 0) is not None

    def test_gc_keeps_a_line_whose_spec_is_not_a_string(self, tmp_path):
        root = str(tmp_path / "store")
        key = "aa" + "1" * 30
        ResultStore(root).put_entry("aa" + "0" * 30, {"v": 1})
        bucket = os.path.join(root, "objects", "aa.jsonl")
        with open(bucket, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "spec": [1], "record": {"v": 2}}) + "\n")
        summary = ResultStore(root).gc(drop_fingerprints=("f" * 16,))
        assert (summary["kept"], summary["dropped_evicted"]) == (2, 0)
        assert ResultStore(root).get_entry(key)["record"] == {"v": 2}

    def test_concurrent_writers_lose_no_rows(self, tmp_path):
        """Four processes appending into the *same* bucket file: O_APPEND
        line-granular writes mean every row survives."""
        root = str(tmp_path / "store")
        workers, per_worker = 4, 25
        with multiprocessing.Pool(workers) as pool:
            pool.map(_bucket_writer, [(root, w, per_worker) for w in range(workers)])
        store = ResultStore(root)
        assert store.stats()["entries"] == workers * per_worker
        for worker in range(workers):
            for i in range(per_worker):
                entry = store.get_entry(f"aa{worker:02d}{i:04d}")
                assert entry["record"] == {"worker": worker, "i": i}

    def test_stats_and_gc_race_concurrent_writer(self, tmp_path):
        """Regression: ``stats()``/``gc()`` looping against a live appender.

        Before the bucket file locks, ``gc``'s read-then-``os.replace`` could
        drop a row appended between the read and the replace, and ``stats``
        could observe (and miscount) a half-written line.  Now the writer
        blocks on the exclusive bucket lock and re-opens when it finds its
        handle pointing at a replaced inode, so every row survives an
        arbitrary interleaving.
        """
        import threading

        root = str(tmp_path / "store")
        store = ResultStore(root)
        total = 300
        failures: list = []

        def writer():
            try:
                for i in range(total):
                    # One shared bucket (same 2-hex prefix) maximizes contention.
                    store.put_entry(f"ab{i:06d}", {"i": i})
            except Exception as exc:  # pragma: no cover - the regression itself
                failures.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        scans = 0
        while thread.is_alive():
            reader = ResultStore(root)
            stats = reader.stats()
            assert stats["corrupt_lines"] == 0, "scan saw a torn line"
            summary = reader.gc()
            assert summary["dropped_corrupt"] == 0
            scans += 1
        thread.join(timeout=60)
        assert not failures
        assert scans > 0

        final = ResultStore(root)
        assert final.stats()["entries"] == total
        for i in range(total):
            assert final.get_entry(f"ab{i:06d}")["record"] == {"i": i}


class TestWarmIdentity:
    @pytest.mark.parametrize("trace_mode", ["full", "events", "counters"])
    def test_cache_hit_round_trips_byte_identically(self, tmp_path, trace_mode):
        """A warm run serves records verbatim: the trial results -- metric
        rows, counters, even per-trial timings -- serialize byte-identically
        to the cold run's, in every trace mode."""
        root = str(tmp_path / "store")
        spec = store_scenario(trace_mode=trace_mode, trials=2, seed_policy="sequential")
        cold_store = ResultStore(root)
        cold = run(spec, keep=False, store=cold_store)
        warm_store = ResultStore(root)
        warm = run(spec, keep=False, store=warm_store)
        assert warm_store.misses == 0 and warm_store.hits == 2
        blob = lambda result: json.dumps(  # noqa: E731
            [t.to_dict() for t in result.trials], sort_keys=True
        )
        assert blob(cold) == blob(warm)
        assert cold.metric_rows == warm.metric_rows

    def test_record_without_rounds_skipped_still_absorbs(self, tmp_path):
        """A v2 record written before ``perf_stats`` gained
        ``rounds_skipped`` is served as is: same metric rows, and the merged
        ``perf_stats`` counts only the trials that report skips."""
        from repro.scenarios.runtime import trial_record

        root = str(tmp_path / "store")
        spec = store_scenario(trials=2, seed_policy="sequential")
        store = ResultStore(root)
        old = trial_record(spec, 0)
        del old["perf_stats"]["rounds_skipped"]
        store.put(spec, 0, old)
        cold = run(spec, keep=False)
        warm_store = ResultStore(root)
        warm = run(spec, keep=False, store=warm_store)
        assert warm_store.hits == 1 and warm_store.misses == 1
        assert warm.metric_rows == cold.metric_rows
        assert "rounds_skipped" not in warm.trials[0].perf_stats
        assert warm.perf_stats["rounds_skipped"] == warm.trials[1].perf_stats["rounds_skipped"]

    def test_pooled_run_shares_the_store(self, tmp_path):
        root = str(tmp_path / "store")
        spec = store_scenario(trials=3, seed_policy="sequential")
        serial = run(spec, keep=False, store=root)
        warm_store = ResultStore(root)
        pooled = run(spec, keep=False, jobs=2, store=warm_store)
        assert warm_store.misses == 0  # the pool path consulted the cache too
        assert serial.metric_rows == pooled.metric_rows


class TestTrialSeedHelper:
    def test_policies_match_run_policy_delegation(self):
        for policy in TRIAL_SEED_POLICIES:
            run_policy = RunPolicy(
                rounds=1, trials=4, master_seed=7, seed_policy=policy
            )
            for trial in range(4):
                assert run_policy.trial_seed(trial) == derive_trial_seed(7, trial, policy)

    def test_policy_semantics(self):
        assert derive_trial_seed(7, 3, "fixed") == 7
        assert derive_trial_seed(7, 3, "sequential") == 10
        assert derive_trial_seed(7, 3, "derived") == derive_point_seed(7, 3)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="seed_policy"):
            derive_trial_seed(7, 0, "chaotic")
