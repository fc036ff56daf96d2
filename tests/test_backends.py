"""Tests for the backend registry and the five built-in backends."""

import dataclasses
import re

import pytest

from repro import backends
from repro.backends import Workload, algorithms_for, create, describe, names, register
from repro.backends.base import canonical_json
from repro.errors import ConfigurationError

BUILTINS = ("cluster-model", "mta-engine", "mta-model", "smp-engine", "smp-model")


class TestRegistry:
    def test_all_five_builtins_registered(self):
        assert set(BUILTINS) <= set(names())

    def test_names_sorted(self):
        assert names() == sorted(names())

    def test_create_unknown_raises_with_candidates(self):
        with pytest.raises(ConfigurationError) as exc:
            create("mta-mode")
        assert "mta-mode" in str(exc.value)
        assert "mta-model" in str(exc.value)  # lists what IS registered

    def test_describe_rows(self):
        rows = {r["name"]: r for r in describe()}
        assert rows["smp-model"]["level"] == "model"
        assert rows["smp-engine"]["level"] == "engine"
        assert "rank" in rows["cluster-model"]["kinds"]
        assert rows["mta-model"]["description"]

    def test_duplicate_register_raises(self):
        with pytest.raises(ConfigurationError):
            register("smp-model", lambda: None)

    def test_mta_next_engine_row(self):
        from repro.sim import HOOK_EVENTS

        row = next(r for r in describe() if r["name"] == "mta-next-engine")
        assert row["level"] == "engine"
        assert row["kinds"] == ["rank", "cc", "chase"]
        assert row["machine"] == "mta-next"
        assert row["hooks"] == list(HOOK_EVENTS)
        assert row["tiers"] == ["interpreted"]
        assert row["checkpoint"] and row["shardable"]

    def test_register_model_engine_backend(self):
        """Adding an interleaved machine is one register() call."""
        from repro.backends.engine import ModelEngineBackend
        from repro.sim import MTAEngine

        register(
            "toy-mta-engine",
            lambda: ModelEngineBackend(name="toy-mta-engine",
                                       engine_factory=MTAEngine),
            level="engine", kinds=("chase",), machine="toy-mta",
        )
        try:
            row = next(r for r in describe() if r["name"] == "toy-mta-engine")
            assert row["machine"] == "toy-mta"
            w = Workload("chase", 2, 0, {"chasers": 4},
                         {"steps": 4, "streams_per_proc": 8})
            summary = create("toy-mta-engine").run(w)
            assert summary.detail["backend"] == "toy-mta-engine"
            assert summary.cycles == create("mta-engine").run(w).cycles
        finally:
            backends.registry._REGISTRY.pop("toy-mta-engine", None)

    def test_replace_allows_reregistration(self):
        sentinel = object()
        register("test-backend", lambda: sentinel, description="v1")
        try:
            register("test-backend", lambda: sentinel, replace=True, description="v2")
            assert create("test-backend") is sentinel
        finally:
            backends.registry._REGISTRY.pop("test-backend", None)


class TestWorkload:
    def test_canonical_round_trip(self):
        w = Workload("rank", 4, 7, {"n": 100, "list": "random"}, {"algorithm": "wyllie"})
        assert Workload.from_dict(w.canonical()) == w

    def test_canonical_is_json_stable(self):
        a = Workload("cc", params={"n": 10, "m": 20})
        b = Workload("cc", params={"m": 20, "n": 10})
        assert canonical_json(a.canonical()) == canonical_json(b.canonical())
        assert a.digest() == b.digest()

    def test_digest_changes_with_options(self):
        a = Workload("rank", params={"n": 64})
        b = Workload("rank", params={"n": 64}, options={"algorithm": "wyllie"})
        assert a.digest() != b.digest()

    def test_unsupported_kind_raises(self):
        with pytest.raises(ConfigurationError) as exc:
            create("smp-engine").run(Workload("tree", params={"leaves": 8}))
        assert "does not support" in str(exc.value)

    def test_algorithms_for_lists_registered_kernels(self):
        assert "helman-jaja" in algorithms_for("rank")
        assert "sv-smp" in algorithms_for("cc")


class TestEveryBackendRuns:
    """Every workload kind runs on every compatible backend through
    Backend.run and produces a well-formed RunSummary."""

    CASES = [
        ("smp-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("mta-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("cluster-model", Workload("rank", 2, 1, {"n": 512, "list": "random"})),
        ("smp-engine", Workload("rank", 2, 1, {"n": 96, "list": "random"}, {"s": 8})),
        (
            "mta-engine",
            Workload("rank", 2, 1, {"n": 128, "list": "random"},
                     {"streams_per_proc": 8, "nodes_per_walk": 4}),
        ),
        ("smp-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("mta-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("cluster-model", Workload("cc", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        (
            "smp-engine",
            Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128},
                     {"max_iter": 16}),
        ),
        (
            "mta-engine",
            Workload("cc", 2, 1, {"graph": "random", "n": 48, "m": 128},
                     {"streams_per_proc": 8, "max_iter": 16}),
        ),
        ("smp-model", Workload("bfs", 2, 1, {"graph": "random", "n": 128, "m": 512})),
        ("mta-model", Workload("msf", 2, 1, {"graph": "random", "n": 64, "m": 256})),
        ("cluster-model", Workload("tree", 2, 1, {"leaves": 64})),
        (
            "mta-engine",
            Workload("chase", 1, 0, {"chasers": 4},
                     {"steps": 4, "streams_per_proc": 8}),
        ),
    ]

    @pytest.mark.parametrize(
        "backend_name,workload",
        CASES,
        ids=[f"{b}-{w.kind}" for b, w in CASES],
    )
    def test_runs_and_reports(self, backend_name, workload):
        summary = create(backend_name).run(workload)
        assert summary.cycles > 0
        assert 0.0 <= summary.utilization <= 1.0
        d = summary.to_dict()
        assert d["detail"]["backend"] == backend_name
        # the record survives a canonical JSON round trip (cacheable)
        assert canonical_json(d)

    def test_native_algorithm_defaults(self):
        smp = create("smp-model").run(Workload("rank", 2, 1, {"n": 256, "list": "random"}))
        mta = create("mta-model").run(Workload("rank", 2, 1, {"n": 256, "list": "random"}))
        assert smp.detail["algorithm"] == "helman-jaja"
        assert mta.detail["algorithm"] == "mta-walks"


class TestAnalyticConfigOverrides:
    def test_flat_override(self):
        b = create("smp-model", config={"name": "E4500-custom"})
        assert b.config.name == "E4500-custom"

    def test_nested_dataclass_override(self):
        b = create("smp-model", config={"l2": {"size_words": 1 << 18, "line_words": 16}})
        assert b.config.l2.size_words == 1 << 18
        # untouched nested fields keep their defaults
        default_l2 = create("smp-model").config.l2
        changed = {"size_words", "line_words"}
        for f in dataclasses.fields(default_l2):
            if f.name not in changed:
                assert getattr(b.config.l2, f.name) == getattr(default_l2, f.name)

    def test_bad_override_key_raises(self):
        with pytest.raises(ConfigurationError):
            create("smp-model", config={"no_such_field": 1})

    def test_bad_nested_key_raises(self):
        with pytest.raises(ConfigurationError):
            create("smp-model", config={"l2": {"no_such_field": 1}})

    def test_override_changes_timing(self):
        w = Workload("rank", 1, 5, {"n": 1 << 15, "list": "random"})
        base = create("smp-model").run(w)
        tiny_l2 = create("smp-model", config={"l2": {"size_words": 1 << 8}}).run(w)
        assert tiny_l2.cycles > base.cycles

    def test_instances_are_independent(self):
        a = create("smp-model")
        b = create("smp-model", config={"name": "other"})
        assert a.config.name != b.config.name
        assert dataclasses.is_dataclass(a.config)


class TestShardedExecution:
    """The ``shards`` workload option through the backend layer."""

    def _cc(self, **options):
        return Workload(
            "cc", 4, 1, {"graph": "random", "n": 48, "m": 128},
            {"streams_per_proc": 8, "edges_per_chunk": 8, "max_iter": 16,
             "shard_executor": "inline", **options},
        )

    def test_registry_capability_flags(self):
        rows = {r["name"]: r for r in describe()}
        assert rows["mta-engine"]["shardable"]
        assert rows["mta-next-engine"]["shardable"]
        assert not rows["smp-engine"]["shardable"]
        assert not rows["mta-model"]["shardable"]

    def test_cc_sharded_reports_shard_detail(self):
        plain = create("mta-engine").run(self._cc())
        sharded = create("mta-engine").run(self._cc(shards=2))
        assert sharded.detail["shards"] == 2
        assert sharded.detail["shard"]["msgs_sent"] > 0
        assert sharded.detail["shard"]["k"] == 2
        assert sharded.detail["iterations"] >= 1
        # same input description in both summaries
        assert (sharded.detail["n"], sharded.detail["m"]) == (
            plain.detail["n"], plain.detail["m"])

    def test_chase_sharded_matches_unsharded(self):
        w = Workload("chase", 4, 0, {"chasers": 4},
                     {"steps": 4, "streams_per_proc": 8,
                      "shard_executor": "inline"})
        plain = create("mta-engine").run(w)
        ws = Workload("chase", 4, 0, {"chasers": 4},
                      {"steps": 4, "streams_per_proc": 8,
                       "shard_executor": "inline", "shards": 4})
        sharded = create("mta-engine").run(ws)
        # pointer chases are all remote-capable loads; with the default
        # remote latency equal to mem latency the cycles must agree
        assert sharded.cycles == plain.cycles
        assert sharded.detail["shards"] == 4

    @pytest.mark.parametrize("shards", [0, -1])
    def test_nonpositive_shards_rejected(self, shards):
        with pytest.raises(ConfigurationError, match="shards must be >= 1"):
            create("mta-engine").run(self._cc(shards=shards))

    @pytest.mark.parametrize("executor", ["inline", "mp"])
    def test_bad_remote_latency_is_a_configuration_error(self, capfd, executor):
        w = Workload("chase", 4, 0, {"chasers": 4},
                     {"steps": 4, "streams_per_proc": 8, "shards": 2,
                      "shard_executor": executor, "remote_latency": 0})
        with pytest.raises(ConfigurationError, match="remote_latency"):
            create("mta-engine").run(w)
        assert "Traceback" not in capfd.readouterr().err

    def test_sharded_chase_records_match_golden(self):
        """Full canonical records of sharded chase, pinned before the
        facade's sharded mode was replaced by one run_sharded builder:
        mta-engine at k=4 with W=1 and W=4, and mta-next-engine at k=2
        (which must drop its default banks)."""
        import pathlib

        from repro.core.runner import Job, run_jobs

        lines = []
        for backend, k, W in (("mta-engine", 4, 1), ("mta-engine", 4, 4),
                              ("mta-next-engine", 2, None)):
            opts = {"steps": 12, "streams_per_proc": 8, "shards": k,
                    "shard_executor": "inline"}
            if W is not None:
                opts["shard_workers"] = W
            w = Workload("chase", 4, 0, {"chasers": 16}, opts)
            [r] = run_jobs([Job(w, backend)], workers=1, cache=False)
            lines.append(r.jsonl())
        golden = pathlib.Path(__file__).parent / "golden" / "shard_chase.jsonl"
        assert "\n".join(lines) + "\n" == golden.read_text()

    def test_paused_sharded_chase_resumes_to_identical_record(self, tmp_path):
        """Backend checkpoint path: a run paused after its first
        checkpoint and auto-resumed reports the same canonical record
        (shard counters included) as an uninterrupted run."""
        from repro.core.runner import Job, run_jobs
        from repro.errors import RunPaused

        def job(**ckpt):
            opts = {"steps": 40, "streams_per_proc": 8, "shards": 2,
                    "shard_executor": "inline",
                    "checkpoint": {"every": 200, "dir": str(tmp_path), **ckpt}}
            return Job(Workload("chase", 4, 0, {"chasers": 16}, opts),
                       "mta-engine")

        [ref] = run_jobs([job(fresh=True)], workers=1, cache=False)
        with pytest.raises(RunPaused):
            create("mta-engine").run(job(fresh=True, stop_after=1).workload)
        [resumed] = run_jobs([job()], workers=1, cache=False)
        assert resumed.jsonl() == ref.jsonl()
        assert ref.detail["shard"]["checkpoints"] > 1

    def test_smp_engine_rejects_shards(self):
        w = Workload("cc", 4, 1, {"graph": "random", "n": 48, "m": 128},
                     {"shards": 2})
        with pytest.raises(ConfigurationError):
            create("smp-engine").run(w)

    def test_rank_rejects_shards(self):
        w = Workload("rank", 4, 1, {"n": 128, "list": "random"},
                     {"shards": 2, "streams_per_proc": 8})
        with pytest.raises(ConfigurationError):
            create("mta-engine").run(w)

    @pytest.mark.parametrize("engine_kwargs, message", [
        ({"lookahead": -5}, "lookahead must be >= 0"),
        ({"max_outstanding": 0}, "max_outstanding must be >= 1"),
        ({"barrier_latency": -50}, "barrier_latency must be >= 0"),
        ({"clock_hz": 0}, "clock_hz must be > 0"),
        ({"bogus": 1}, "unknown engine_kwargs key(s) 'bogus' for MTAMachine"),
        ("mem_latency=5", "option 'engine_kwargs' must be a mapping"),
        (7, "option 'engine_kwargs' must be a mapping"),
    ])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_bad_engine_kwargs_are_configuration_errors(self, engine_kwargs, message, shards):
        w = self._cc(shards=shards, engine_kwargs=engine_kwargs)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            create("mta-engine").run(w)

    def test_engine_kwargs_checked_against_the_backends_machine(self):
        w = self._cc(engine_kwargs={"n_banks": 0, "mem_latency": 50, "tier": "interpreted"})
        assert create("mta-next-engine").run(w).cycles > 0
        w = self._cc(engine_kwargs={"record": True})
        with pytest.raises(ConfigurationError, match="for MTANextMachine"):
            create("mta-next-engine").run(w)

    def test_check_rejects_shards(self):
        w = self._cc(shards=2, check=True)
        with pytest.raises(ConfigurationError):
            create("mta-engine").run(w)
