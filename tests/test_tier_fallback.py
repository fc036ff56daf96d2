"""The kernel's single execution path, at the edges the tier tests guarded.

The kernel once chose between an interpreted and a vectorized tier per
run.  It now has one path, and the tests that pinned the tier boundaries
pin what replaced them:

* asking any engine for a tier is an error, never silently ignored;
* no machine publishes a vector profile, no backend row lists tiers,
  and ``window_stats`` (read only by perfbench) stays zero;
* a ``run_block`` is macro-expanded: an ``on_op`` subscriber sees each
  op inside it, and synchronizing ops between blocks run per op with
  results byte-identical to the flat program;
* a hook subscribed *mid-run* receives events from the next scheduling
  boundary on, without dropping or duplicating any (the Hypothesis
  property below covers every :data:`~repro.sim.HOOK_EVENTS` entry);
* ``repro analyze`` observes every op, whatever tier a stale workload
  still names.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ConcurrencyChecker
from repro.obs import Tracer
from repro.sim import HOOK_EVENTS, MTAEngine, MTAMachine, SMPEngine, SimKernel, isa

from .test_sim_fuzz import _report_blob, flat_ops

# ---------------------------------------------------------------------------
# The tier knob is gone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine_cls", [MTAEngine, SMPEngine])
def test_explicit_vector_with_checker_raises(engine_cls):
    with pytest.raises(TypeError, match="tier"):
        engine_cls(p=1, check=ConcurrencyChecker(), tier="vector")
    eng = engine_cls(p=1, check=ConcurrencyChecker())
    attach = eng.spawn if engine_cls is MTAEngine else eng.attach
    attach(_gen([isa.compute(1)]))
    with pytest.raises(TypeError, match="tier"):
        eng.run("t", tier="vector")
    with pytest.raises(TypeError, match="tier"):
        SimKernel(eng.model, tier="vector")


def test_explicit_vector_with_op_tracer_raises():
    with pytest.raises(TypeError, match="tier"):
        MTAEngine(p=1, tracer=Tracer(level="op"), tier="vector")


def test_auto_with_checker_runs_interpreted():
    """A checked run takes the one per-op path: the checker analyses
    every op of a run block, and ``window_stats`` — kept only for
    perfbench's traced mode — reports that nothing was batch-executed."""
    check = ConcurrencyChecker()
    eng = MTAEngine(p=1, check=check)
    eng.spawn(_gen([isa.run_block([isa.load_dep(8 * i) for i in range(16)])]))
    report = eng.run("t")
    assert report.total_issued == 16
    summary = check.report().summary_dict()
    assert summary["errors"] == summary["warnings"] == 0
    assert summary["stats"]["ops"] == 16
    assert eng.kernel.window_stats == {"windows": 0, "ops": 0}


def test_banked_memory_publishes_no_vector_profile():
    """No machine declares a vector profile, banked or not, and a run
    block on banked memory simulates exactly like its flat form."""
    for model in (MTAMachine(1, n_banks=16), MTAMachine(1), SMPEngine(p=1).model):
        assert not hasattr(model, "vector_profile")
    walk = [isa.run_block([isa.load_dep(8 * i) for i in range(16)])]
    blobs = []
    for ops in (walk, flat_ops(walk)):
        eng = MTAEngine(p=1, n_banks=16)
        eng.spawn(_gen(ops))
        blobs.append(_report_blob(eng.run("t")))
    assert blobs[0] == blobs[1]


def test_mta_next_backend_is_interpreted_only():
    """Every backend runs the one path, so no row advertises tiers."""
    from repro.backends import describe

    rows = describe()
    assert {"mta-engine", "smp-engine", "mta-next-engine"} <= {r["name"] for r in rows}
    assert all("tiers" not in r for r in rows)


# ---------------------------------------------------------------------------
# Mid-run subscription: events from the next boundary, none dropped or doubled
# ---------------------------------------------------------------------------


def _gen(ops):
    def g():
        for op in ops:
            result = yield op
            del result

    return g()


def _canon_arg(a):
    if isinstance(a, (int, float, str, bool, type(None))):
        return a
    if isinstance(a, (list, tuple)):
        return [_canon_arg(x) for x in a]
    if hasattr(a, "cycles") and hasattr(a, "issued"):  # SimReport
        return _report_blob(a)
    if hasattr(a, "item"):  # numpy scalar
        return a.item()
    return type(a).__name__


def _probe(event, log):
    """A hook implementing exactly one bus event, recording every call."""

    def record(*args):
        log.append((event, [_canon_arg(a) for a in args]))

    return type("Probe", (), {event: staticmethod(record)})()


class _SubscribeOnTrigger:
    """Attaches ``probe`` to the bus at the first ``trigger`` phase."""

    def __init__(self, probe):
        self.probe = probe
        self.bus = None
        self.fired = False

    def hook_bus(self, bus):  # wired manually below
        self.bus = bus

    def on_phase(self, tid, name):
        if name == "trigger" and not self.fired:
            self.fired = True
            self.bus.add(self.probe)


def _mk_programs(seed):
    """Stream programs with a ``trigger`` phase early and, after it, at
    least one of everything an event could observe: plain ops, LD run
    blocks, fetch-adds, a matched sync pair, phases, and a barrier."""
    rng = np.random.default_rng(seed)

    def ld_block():
        return isa.run_block(
            [isa.load_dep(int(a))
             for a in rng.integers(0, 200, int(rng.integers(4, 40)))]
        )

    lead = [
        isa.compute(int(rng.integers(1, 4))),
        isa.phase("trigger"),
        ld_block(),
        isa.fetch_add(0, 1),
        isa.sync_load_consume(900),
        ld_block(),
        isa.phase("after"),
        isa.barrier("z"),
    ]
    partner = [
        ld_block(),
        isa.sync_store(900, 7),
        isa.fetch_add(0, 1),
        isa.barrier("z"),
    ]
    progs = [lead, partner]
    for _ in range(int(rng.integers(0, 3))):
        progs.append([ld_block(), isa.compute(int(rng.integers(1, 4))),
                      isa.fetch_add(0, 1), isa.barrier("z")])
    return progs


def _run_programs(progs, hooks=()):
    eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=12, hooks=hooks)
    eng.set_counter(0, 0)
    eng.register_barrier("z", len(progs))
    for ops in progs:
        eng.spawn(_gen(ops))
    return eng, _report_blob(eng.run("t", 5_000_000))


def _run_with_midrun_probe(progs, event):
    log = []
    trigger = _SubscribeOnTrigger(_probe(event, log))
    eng = MTAEngine(p=2, streams_per_proc=8, mem_latency=12, hooks=(trigger,))
    trigger.hook_bus(eng.kernel.bus)
    eng.set_counter(0, 0)
    eng.register_barrier("z", len(progs))
    for ops in progs:
        eng.spawn(_gen(ops))
    return _report_blob(eng.run("t", 5_000_000)), log


@settings(max_examples=60, deadline=None)
@given(event=st.sampled_from(HOOK_EVENTS),
       seed=st.integers(min_value=0, max_value=2**31))
def test_midrun_subscription_transitions_exactly(event, seed):
    """Subscribing any bus event mid-run: the late subscriber sees
    exactly the tail of what a subscriber attached from the start sees —
    nothing dropped, nothing duplicated — the SimReport is unchanged,
    and all of it holds identically when the run blocks are flattened."""
    progs = _mk_programs(seed)
    blob_ref = _run_programs(progs)[1]
    late_logs = []
    for form in (progs, [flat_ops(ops) for ops in progs]):
        blob, late = _run_with_midrun_probe(form, event)
        full = []
        _run_programs(form, hooks=(_probe(event, full),))
        assert blob == blob_ref
        assert late == full[len(full) - len(late):]
        late_logs.append(late)
    assert late_logs[0] == late_logs[1]
    if event == "on_op":
        # the lead stream still has ops in flight at the trigger, so a
        # boundary that dropped or replayed ops could not match
        assert late_logs[0], "probe subscribed but observed no ops"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_nonvectorizable_ops_fall_back_per_op(seed):
    """FA, sync words, barriers, and phases interleaved with LD run
    blocks execute per op between the blocks, with results
    byte-identical to the same programs with every block flattened."""
    progs = _mk_programs(seed)
    _, blocks = _run_programs(progs)
    _, flat = _run_programs([flat_ops(ops) for ops in progs])
    assert blocks == flat


def test_run_block_expansion_visible_per_op():
    """A ``run_block`` is macro-expanded: an ``on_op`` subscriber (what a
    checker attaches) sees every op inside the block individually, in
    program order."""
    seen = []
    probe = _probe("on_op", seen)
    block = [isa.load_dep(8 * i) for i in range(10)] + [isa.compute(2)]
    eng = MTAEngine(p=1, check=ConcurrencyChecker(), hooks=(probe,))
    eng.spawn(_gen([isa.run_block(block), isa.store(4)]))
    eng.run("t")
    ops = [args[1] for _event, args in seen]
    assert ops == [_canon_arg(op) for op in block + [isa.store(4)]]


# ---------------------------------------------------------------------------
# ``repro analyze``: analysis observes every op
# ---------------------------------------------------------------------------


def test_analyze_forces_interpreted_tier(monkeypatch):
    """``repro analyze`` (the ``analyze_workload`` driver behind both
    ``--workload`` and ``--all``) runs every kernel with a per-op
    subscriber attached, even for a workload that still names the
    removed vector tier; the stale option changes nothing."""
    from repro.analysis import analyze_workload
    from repro.backends import Workload

    subscribed = []
    orig = SimKernel.run

    def spy(self, *args, **kwargs):
        subscribed.append(self.bus.listeners("on_op") is not None)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(SimKernel, "run", spy)
    stale = analyze_workload(
        Workload("rank", 2, 0, {"n": 200}, {"tier": "vector"}), "mta-engine"
    )
    assert subscribed and all(subscribed)
    plain = analyze_workload(Workload("rank", 2, 0, {"n": 200}), "mta-engine")
    stale, plain = stale.summary_dict(), plain.summary_dict()
    assert stale["stats"].pop("workload")["options"] == {"tier": "vector"}
    assert plain["stats"].pop("workload")["options"] == {}
    assert stale == plain
