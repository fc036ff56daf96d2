"""Checkpoint/resume of sharded runs: coordinated consistent cuts.

A killed (paused) sharded run must resume from its per-shard snapshots
plus the coordinator manifest to the byte-identical result, for either
executor; stale or mismatched manifests must be rejected before any
state is touched.
"""

import pytest

from repro.errors import CheckpointError, ConfigurationError, RunPaused
from repro.sim.shard import PartitionPlan, load_manifest, run_sharded

from .shard_helpers import N_WORDS, P, build_cross, canon


def shard(k, W, **kw):
    plan = PartitionPlan(N_WORDS, P, k)
    return run_sharded(plan, workers=W, builder=build_cross,
                       params={"streams_per_proc": 16},
                       remote_latency=100, name="smoke",
                       budget=10_000_000, **kw)


class TestResume:
    @pytest.mark.parametrize("k,W,ex", [
        (4, 4, "inline"),
        (4, 4, "mp"),
        (2, 1, "inline"),
        (1, 1, "inline"),  # single-partition passthrough checkpoints too
    ])
    def test_paused_run_resumes_to_identical_result(self, tmp_path, k, W, ex):
        ref = shard(k, W)
        d = str(tmp_path / "ckpt")
        with pytest.raises(RunPaused):
            shard(k, W, executor=ex,
                  checkpoint={"dir": d, "every": 500, "stop_after": 1})
        res = shard(k, W, executor=ex, resume=d,
                    checkpoint={"dir": d, "every": 500})
        assert canon(res.report) == canon(ref.report)
        assert res.detail["checkpoints"] > 0
        # the coordinator's counters continue from the manifest: the
        # resumed run reports what an uninterrupted checkpointed run does
        full = shard(k, W, executor=ex,
                     checkpoint={"dir": str(tmp_path / "full"), "every": 500})
        assert res.detail == full.detail

    def test_manifest_records_plan_and_workers(self, tmp_path):
        d = str(tmp_path / "ckpt")
        with pytest.raises(RunPaused):
            shard(2, 2, checkpoint={"dir": d, "every": 500, "stop_after": 1})
        manifest = load_manifest(d)
        assert manifest["workers"] == 2
        assert manifest["name"] == "smoke"
        assert manifest["cycle"] >= 500


class TestResumeValidation:
    def _pause(self, tmp_path, k=2, W=2):
        d = str(tmp_path / "ckpt")
        with pytest.raises(RunPaused):
            shard(k, W, checkpoint={"dir": d, "every": 500, "stop_after": 1})
        return d

    def test_wrong_plan_rejected(self, tmp_path):
        d = self._pause(tmp_path, k=2, W=2)
        with pytest.raises(CheckpointError, match="different partition plan"):
            shard(4, 2, resume=d)

    def test_wrong_worker_count_rejected(self, tmp_path):
        d = self._pause(tmp_path, k=4, W=2)
        with pytest.raises(CheckpointError, match="worker count"):
            shard(4, 4, resume=d)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            shard(2, 2, resume=str(tmp_path / "nope"))

    def test_checkpoint_config_needs_dir_and_every(self, tmp_path):
        with pytest.raises(ConfigurationError):
            shard(2, 2, checkpoint={"every": 500})
        with pytest.raises(ConfigurationError):
            shard(2, 2, checkpoint={"dir": str(tmp_path)})
