"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["info"],
            ["rank", "--n", "100", "--p", "2"],
            ["cc", "--n", "64", "--edge-factor", "3"],
            ["fig1", "--max-n", "4096"],
            ["fig2", "--n", "1024"],
            ["table1", "--nodes-per-proc", "500"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Sun-E4500" in out and "Cray-MTA2" in out

    def test_rank_both_machines(self, capsys):
        assert main(["rank", "--n", "4096", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "SMP Helman-JaJa" in out
        assert "MTA Alg.1 walks" in out

    def test_rank_single_machine(self, capsys):
        assert main(["rank", "--n", "2048", "--machine", "mta"]) == 0
        out = capsys.readouterr().out
        assert "MTA" in out and "Helman-JaJa" not in out

    def test_rank_ordered(self, capsys):
        assert main(["rank", "--n", "2048", "--list", "ordered"]) == 0
        assert "ordered list" in capsys.readouterr().out

    @pytest.mark.parametrize("graph", ["random", "rmat", "mesh"])
    def test_cc_graph_families(self, graph, capsys):
        assert main(["cc", "--n", "1024", "--edge-factor", "4", "--graph", graph]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "Shiloach-Vishkin" in out

    def test_fig1_plots(self, capsys):
        assert main(["fig1", "--max-n", "8192"]) == 0
        out = capsys.readouterr().out
        assert "log-log" in out
        assert "smp-rand" in out

    def test_fig2_table(self, capsys):
        assert main(["fig2", "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out

    def test_table1(self, capsys):
        assert main(["table1", "--nodes-per-proc", "500"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out

    def test_workload_error_exit_code(self, capsys):
        # p = 0 is a configuration error surfaced as exit code 2
        assert main(["rank", "--n", "16", "--p", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_trace_parses(self):
        args = build_parser().parse_args(
            ["trace", "rank-mta", "--n", "256", "--p", "2", "--level", "op"]
        )
        assert args.command == "trace" and args.workload == "rank-mta"

    def test_trace_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "sort"])

    @pytest.mark.parametrize("workload", ["rank-mta", "rank-smp", "cc-mta", "cc-smp"])
    def test_trace_chrome_output(self, workload, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert (
            main(
                [
                    "trace", workload,
                    "--n", "256", "--p", "2",
                    "--streams", "8",
                    "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "utilization" in text and "Perfetto" in text

        import json

        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # Perfetto-loadable: every event carries the required keys
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert "dur" in e
        # per-phase cycle totals sum to the engine's total cycles
        spans = [e for e in events if e.get("cat") == "phase"]
        total_dur = sum(e["dur"] for e in spans)
        end = max(e["ts"] + e["dur"] for e in spans)
        assert total_dur == pytest.approx(end)

    def test_trace_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "trace", "rank-smp",
                    "--n", "256", "--p", "2",
                    "--format", "jsonl", "--level", "op",
                    "--out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.obs import read_jsonl

        events = read_jsonl(out)
        assert any(e.ph == "X" for e in events)

    def test_trace_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "rank-smp", "--n", "128", "--p", "2"]) == 0
        capsys.readouterr()
        assert (tmp_path / "trace-rank-smp.json").exists()


class TestBackendsCommand:
    def test_lists_all_five(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in (
            "smp-model", "mta-model", "cluster-model", "smp-engine", "mta-engine"
        ):
            assert name in out

    def test_json_output(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} >= {
            "smp-model", "mta-model", "cluster-model", "smp-engine", "mta-engine"
        }
        assert all({"name", "level", "kinds", "description"} <= set(r) for r in rows)


class TestRunCommand:
    def test_run_rank_on_model(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-model",
             "--n", "512", "--p", "2", "--param", "list=ordered", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "rank on smp-model (fresh)" in out
        assert "utilization" in out

    def test_run_on_engine_with_opts(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "mta-engine",
             "--n", "128", "--p", "2",
             "--opt", "streams_per_proc=8", "--opt", "nodes_per_walk=4",
             "--no-cache"]
        ) == 0
        assert "mta-engine" in capsys.readouterr().out

    def test_run_json_record(self, capsys):
        import json

        assert main(
            ["run", "--workload", "cc", "--backend", "mta-model",
             "--n", "128", "--param", "m=512", "--param", "graph=random",
             "--json", "--no-cache"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["backend"] == "mta-model"
        assert record["summary"]["detail"]["algorithm"] == "sv-mta"

    def test_run_cached_second_time(self, tmp_path, capsys):
        argv = ["run", "--workload", "rank", "--backend", "smp-model",
                "--n", "256", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "(fresh)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_run_unknown_backend_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "nope", "--n", "64",
             "--no-cache"]
        ) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_bad_kv_pair_is_config_error(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-model",
             "--n", "64", "--param", "listordered", "--no-cache"]
        ) == 2
        assert "expected K=V" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_sweep_runs_and_reruns_byte_identical(self, tmp_path, capsys):
        argv = ["sweep", "--spec", "fig1-tiny", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        # stdout is byte-identical; only the stderr cache stats differ
        assert first.out == second.out
        assert "0/" in first.err.split("cache:")[1]  # cold: no hits
        assert "hits" in second.err

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "1", "--no-cache"]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "2", "--no-cache"]
        ) == 0
        pooled = capsys.readouterr().out
        assert serial == pooled

    def test_jsonl_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "rows.jsonl"
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--no-cache", "--jsonl", str(out)]
        ) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            assert {"workload", "backend", "summary"} <= set(record)

    def test_unknown_spec_is_config_error(self, capsys):
        assert main(["sweep", "--spec", "fig9", "--no-cache"]) == 2
        assert "unknown sweep" in capsys.readouterr().err


class TestFlagValidation:
    """Count-valued flags reject values < 1 with a structured CLI error."""

    def test_run_shards_must_be_positive(self, capsys):
        assert main(
            ["run", "--workload", "cc", "--backend", "mta-engine",
             "--n", "64", "--shards", "0", "--no-cache"]
        ) == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_sweep_workers_must_be_positive(self, capsys):
        assert main(
            ["sweep", "--spec", "fig1-tiny", "--workers", "0", "--no-cache"]
        ) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_run_checkpoint_every_must_be_positive(self, capsys):
        assert main(
            ["run", "--workload", "rank", "--backend", "mta-engine",
             "--n", "64", "--checkpoint-every", "0", "--no-cache"]
        ) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err


class TestShardedRun:
    def test_backends_table_shows_shard_capability(self, capsys):
        import json

        assert main(["backends", "--json"]) == 0
        rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["mta-engine"]["shardable"]
        assert rows["mta-next-engine"]["shardable"]
        assert not rows["smp-engine"]["shardable"]
        assert main(["backends"]) == 0
        assert "shard" in capsys.readouterr().out

    def test_run_cc_sharded(self, capsys):
        import json

        assert main(
            ["run", "--workload", "cc", "--backend", "mta-engine",
             "--n", "64", "--p", "4", "--param", "m=192",
             "--shards", "2", "--opt", "shard_executor=inline",
             "--opt", "streams_per_proc=8", "--opt", "edges_per_chunk=8",
             "--json", "--no-cache"]
        ) == 0
        record = json.loads(capsys.readouterr().out)
        detail = record["summary"]["detail"]
        assert detail["shards"] == 2
        assert detail["shard"]["msgs_sent"] > 0
        assert record["workload"]["options"]["shards"] == 2


def _subcommands(parser):
    import argparse

    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCommandTable:
    """Every subcommand is declared once, with its handler."""

    def test_every_command_has_help_and_a_handler(self, capsys):
        parser = build_parser()
        commands = _subcommands(parser)
        assert len(commands) == 17
        for name, sub in commands.items():
            assert callable(sub.get_default("func")), name
            argvs = [[name, "--help"]]
            if name == "checkpoint":
                argvs += [[name, ck, "--help"] for ck in _subcommands(sub)]
            for argv in argvs:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 0, argv
                assert "usage: repro" in capsys.readouterr().out


class _FakeClient:
    """Stands in for ServiceClient: records the body ``submit`` posts."""

    bodies: list = []

    def __init__(self, host, port):
        pass

    def submit(self, body):
        self.bodies.append(body)
        return {"id": "job-1", "state": "queued"}


class TestSubmitParity:
    """``submit`` posts exactly the job ``run`` executes."""

    @pytest.fixture
    def posted(self, monkeypatch):
        import repro.service

        monkeypatch.setattr(_FakeClient, "bodies", [])
        monkeypatch.setattr(repro.service, "ServiceClient", _FakeClient)
        return _FakeClient.bodies

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workload", "rank", "--backend", "smp-model", "--n", "256",
             "--p", "2", "--param", "list=ordered", "--opt", "algorithm=wyllie"],
            ["--workload", "tree", "--backend", "mta-model", "--n", "64", "--seed", "3"],
            ["--workload", "cc", "--backend", "smp-model", "--n", "128",
             "--param", "m=512"],
        ],
    )
    def test_same_job_key_as_run(self, flags, posted, tmp_path, capsys):
        from repro.core import SweepCache
        from repro.service.protocol import parse_submission

        assert main(["submit", *flags, "--no-wait"]) == 0
        assert capsys.readouterr().out == "job-1 queued\n"
        [body] = posted
        key = parse_submission(body).jobs[0].key()
        assert main(["run", *flags, "--cache-dir", str(tmp_path)]) == 0
        [(path, _, _)] = SweepCache(tmp_path).entries()
        assert path.stem == key

    def test_checkpoint_flags_parse_as_before(self, posted, capsys):
        from repro.service.protocol import parse_submission

        assert main(
            ["submit", "--workload", "rank", "--backend", "smp-engine", "--n", "64",
             "--checkpoint-every", "500", "--resume-from", "abc123", "--no-wait"]
        ) == 0
        [body] = posted
        # the shape the CLI posted before: every in checkpoint, resume_from beside it
        before = dict(body, checkpoint={"every": 500}, resume_from="abc123")
        parsed = parse_submission(body).checkpoint
        assert parsed == parse_submission(before).checkpoint
        assert parsed == {"every": 500, "resume": "abc123"}

    def test_plain_submission_has_no_checkpoint(self, posted, capsys):
        assert main(["submit", "--spec", "fig1-tiny", "--no-wait"]) == 0
        assert posted == [{"spec": "fig1-tiny"}]


class TestMalformedNumbers:
    """Bad integer params/options, malformed or out of range, are
    structured errors, never tracebacks."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workload", "rank", "--backend", "smp-model", "--param", "n=abc"],
             "param 'n' must be an integer, got 'abc'"),
            (["--workload", "rank", "--backend", "smp-model", "--param", "n=true"],
             "param 'n' must be an integer, got True"),
            (["--workload", "cc", "--backend", "smp-model", "--n", "64",
              "--param", "m=x"],
             "param 'm' must be an integer"),
            (["--workload", "tree", "--backend", "smp-model", "--param", "leaves=1.5"],
             "param 'leaves' must be an integer, got 1.5"),
            (["--workload", "cc", "--backend", "smp-model"],
             "missing param 'n'"),
            (["--workload", "rank", "--backend", "smp-engine", "--n", "64",
              "--opt", "s=abc"],
             "option 's' must be an integer"),
            (["--workload", "rank", "--backend", "mta-engine", "--n", "64",
              "--opt", "streams_per_proc=x"],
             "option 'streams_per_proc' must be an integer"),
            # out of range: a zero edge chunk used to hang the unsharded
            # MTA CC, and the sharded path silently ran it as 1
            (["--workload", "cc", "--backend", "mta-engine", "--n", "64", "--p", "2",
              "--opt", "edges_per_chunk=0"],
             "edges_per_chunk must be >= 1, got 0"),
            (["--workload", "cc", "--backend", "mta-engine", "--n", "64", "--p", "2",
              "--opt", "edges_per_chunk=-4"],
             "edges_per_chunk must be >= 1, got -4"),
            (["--workload", "cc", "--backend", "mta-engine", "--n", "64", "--p", "2",
              "--shards", "2", "--opt", "shard_executor=inline",
              "--opt", "edges_per_chunk=0"],
             "edges_per_chunk must be >= 1, got 0"),
            (["--workload", "cc", "--backend", "mta-engine", "--n", "64", "--p", "2",
              "--opt", "streams_per_proc=0"],
             "streams_per_proc must be >= 1, got 0"),
            (["--workload", "rank", "--backend", "mta-engine", "--n", "64",
              "--opt", "nodes_per_walk=0"],
             "nodes_per_walk must be >= 1, got 0"),
            (["--workload", "rank", "--backend", "mta-engine", "--n", "64",
              "--opt", "nodes_per_walk=-3"],
             "nodes_per_walk must be >= 1, got -3"),
            (["--workload", "rank", "--backend", "smp-engine", "--n", "64",
              "--opt", "s=0"],
             "s must be >= 1, got 0"),
            (["--workload", "rank", "--backend", "smp-engine", "--n", "64",
              "--opt", "s=-1"],
             "s must be >= 1, got -1"),
            (["--workload", "chase", "--backend", "mta-engine", "--opt", "steps=-1"],
             "steps must be >= 1, got -1"),
            (["--workload", "chase", "--backend", "mta-engine", "--shards", "2",
              "--opt", "shard_executor=inline", "--opt", "steps=0"],
             "steps must be >= 1, got 0"),
            (["--workload", "chase", "--backend", "mta-engine", "--opt", "lookahead=-1"],
             "lookahead must be >= 0, got -1"),
            (["--workload", "cc", "--backend", "mta-engine", "--n", "64",
              "--opt", "engine_kwargs=lookahead"],
             "option 'engine_kwargs' must be a mapping"),
            # negative graph sizes used to reach numpy and exit 1
            (["--workload", "cc", "--backend", "smp-model", "--n", "16",
              "--param", "m=-3"],
             "m must be >= 0, got -3"),
            (["--workload", "cc", "--backend", "smp-model", "--n", "-4"],
             "n must be >= 0, got -4"),
            (["--workload", "cc", "--backend", "smp-model", "--param", "graph=rmat",
              "--param", "scale=4", "--param", "edge_factor=-2"],
             "edge_factor must be >= 1, got -2"),
            (["--workload", "cc", "--backend", "smp-model", "--param", "graph=rmat",
              "--param", "scale=4", "--param", "edge_factor=0"],
             "edge_factor must be >= 1, got 0"),
        ],
    )
    def test_exit_2_with_an_error_line(self, flags, message, capsys):
        assert main(["run", *flags, "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestCheckpointRoot:
    def test_artifacts_land_under_the_cache_in_use(self, tmp_path, monkeypatch, capsys):
        from repro.core import SweepCache

        monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cache_dir = tmp_path / "D"
        assert main(
            ["run", "--workload", "rank", "--backend", "smp-engine", "--n", "400",
             "--p", "2", "--checkpoint-every", "200", "--cache-dir", str(cache_dir)]
        ) == 0
        assert not (tmp_path / ".repro-cache").exists()
        count = len(SweepCache(cache_dir).checkpoint_entries())
        assert count >= 1
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        assert f": {count} artifact(s)" in capsys.readouterr().out
        assert main(
            ["cache", "--cache-dir", str(cache_dir), "--prune", "--max-checkpoints", "0"]
        ) == 0
        assert f"pruned {count} checkpoint artifact(s)" in capsys.readouterr().out
