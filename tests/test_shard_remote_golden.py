"""Absolute pins for remote shard semantics.

The other shard tests compare runs against each other: sharded against
unsharded on partition-local traffic, or one worker count against
another.  A change that altered owner-side fetch-add, full/empty or
GV/PV semantics the same way on every worker would pass all of them.
This test pins the results themselves:

* the cross-partition fuzz cases (seeds 0-11, k in {2, 4}, one worker):
  merged report plus the canonical hook event stream;
* owner-computes SV-CC on a random and an RMAT graph (k in {2, 4},
  p=4): merged report plus the coordinator's message counters;
* a hand-built case whose remote sync-loads and sync-stores park at
  the owner (the fuzz cases never do) next to local waiters, plus
  contended remote fetch-adds (k in {2, 4}): merged report, event
  stream, and the final value, counter and full/empty words.

``tests/golden/shard_remote.jsonl`` was recorded once, before the MTA
memory rules were shared between the base and the sharded machine, with::

    PYTHONPATH=src python -m tests.test_shard_remote_golden

It is never regenerated to make a refactor pass: a diff here is a
semantic change to remote traffic.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.graphs import random_graph, rmat_graph
from repro.graphs.shard_programs import simulate_sharded_cc
from repro.sim import isa
from repro.sim.shard import PartitionPlan, run_sharded

from .shard_helpers import N_WORDS, P, canon
from .test_sim_fuzz import _report_blob, _run_shard_fuzz_sharded

GOLDEN = pathlib.Path(__file__).parent / "golden" / "shard_remote.jsonl"

FUZZ_CASES = [(seed, k) for seed in range(12) for k in (2, 4)]
CC_CASES = [(gname, k) for gname in ("random", "rmat") for k in (2, 4)]
WAIT_CASES = [2, 4]

# owned by the last partition at k=2 and k=4; proc 3 is its owner's
# local processor, proc 2 is local at k=2 only, procs 0-1 are remote
WORD_A, WORD_B, CELL = 3950, 3960, 3970


def _reader(addr, tag, delay, out):
    yield isa.compute(delay)
    v = yield (tag, addr)
    yield isa.put_value(out, v)


def _writer(addr, value, delay):
    yield isa.compute(delay)
    yield isa.sync_store(addr, value)


def _adder(delay):
    yield isa.compute(delay)
    for i in range(3):
        old = yield isa.fetch_add(CELL, i + 1)
        yield isa.put_value(CELL + 10 + delay, old)


def build_remote_waits(ctx):
    """Remote sync-loads (peek then consume) park on an Empty word
    before a local and a remote producer fill it; a remote sync-store
    parks on a Full word until a local consumer drains it; remote and
    local fetch-adds contend on one cell."""
    for proc, tag in ((1, isa.SYNC_LOAD_FULL), (0, isa.SYNC_LOAD_EMPTY),
                      (2, isa.SYNC_LOAD_EMPTY), (3, isa.SYNC_LOAD_EMPTY)):
        out = 100 + proc
        ctx.set_value(out, -1)
        ctx.spawn(_reader(WORD_A, tag, 1 + proc, out), proc)
    ctx.spawn(_writer(WORD_A, 7, 200), 3)
    ctx.spawn(_writer(WORD_A, 8, 220), 0)
    ctx.spawn(_writer(WORD_A, 9, 240), 1)
    ctx.spawn(_writer(WORD_A, 10, 260), 2)
    ctx.set_full(WORD_B, 1)
    ctx.spawn(_writer(WORD_B, 5, 1), 0)
    ctx.spawn(_writer(WORD_B, 6, 2), 1)
    for proc, delay in ((3, 300), (2, 320), (3, 500)):
        ctx.set_value(200 + delay, -1)
        ctx.spawn(_reader(WORD_B, isa.SYNC_LOAD_EMPTY, delay, 200 + delay), proc)
    ctx.set_counter(CELL, 0)
    for proc in range(P):
        for delay in (proc + 1, proc + 5):
            ctx.set_value(CELL + 10 + delay, -1)
            ctx.spawn(_adder(delay), proc)


def _graph(gname):
    if gname == "random":
        return random_graph(300, 1200, rng=1)
    return rmat_graph(8, 8, rng=2)


def fuzz_line(seed: int, k: int) -> str:
    blob, events = _run_shard_fuzz_sharded(seed, k, 1, cross=True, events=True)
    return json.dumps({"case": f"fuzz-cross seed={seed} k={k}",
                       "report": json.loads(blob), "events": events},
                      sort_keys=True)


def cc_line(gname: str, k: int) -> str:
    sim = simulate_sharded_cc(_graph(gname), p=4, shards=k, workers=1,
                              streams_per_proc=8, edges_per_chunk=8)
    return json.dumps({"case": f"cc {gname} k={k}",
                       "report": json.loads(canon(sim.report)),
                       "shard_detail": sim.shard_detail},
                      sort_keys=True)


def wait_line(k: int) -> str:
    res = run_sharded(PartitionPlan(N_WORDS, P, k), workers=1,
                      builder=build_remote_waits,
                      params={"streams_per_proc": 16, "mem_latency": 20},
                      name="waits", budget=10_000_000, collect_events=True)
    words = {kind: {str(a): v for a, v in sorted(d.items())}
             for kind, d in (("values", res.values), ("counters", res.counters),
                             ("full", res.full))}
    return json.dumps({"case": f"remote-waits k={k}",
                       "report": json.loads(_report_blob(res.report)),
                       "events": res.events, "words": words,
                       "msgs_sent": res.detail["msgs_sent"]},
                      sort_keys=True)


def _golden() -> dict:
    lines = GOLDEN.read_text().splitlines()
    return {json.loads(line)["case"]: line for line in lines}


@pytest.mark.parametrize("seed,k", FUZZ_CASES)
def test_cross_traffic_fuzz_matches_golden(seed, k):
    line = fuzz_line(seed, k)
    assert line == _golden()[json.loads(line)["case"]], (
        f"remote shard semantics changed at fuzz seed={seed} k={k}"
    )


@pytest.mark.parametrize("gname,k", CC_CASES)
def test_sharded_cc_matches_golden(gname, k):
    line = cc_line(gname, k)
    assert line == _golden()[json.loads(line)["case"]], (
        f"remote shard semantics changed on sharded CC {gname} k={k}"
    )


@pytest.mark.parametrize("k", WAIT_CASES)
def test_remote_waiters_match_golden(k):
    line = wait_line(k)
    assert line == _golden()[json.loads(line)["case"]], (
        f"remote full/empty or fetch-add semantics changed at k={k}"
    )


def test_golden_covers_every_case():
    assert len(_golden()) == len(FUZZ_CASES) + len(CC_CASES) + len(WAIT_CASES)


if __name__ == "__main__":
    out = [fuzz_line(s, k) for s, k in FUZZ_CASES]
    out += [cc_line(g, k) for g, k in CC_CASES]
    out += [wait_line(k) for k in WAIT_CASES]
    GOLDEN.write_text("\n".join(out) + "\n")
