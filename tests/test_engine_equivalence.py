"""Golden-equivalence suite: the kernel refactor is behavior-preserving.

Every registered paper program (``repro.workloads.paper_programs``) runs
end to end on its cycle-engine backend and the resulting
:class:`~repro.obs.RunSummary` — cycles, per-phase slices, op counts,
and the engine's full contention ``detail`` dict — is compared **byte
for byte** against a golden JSON snapshot under ``tests/golden/``.  A
second set of snapshots pins the Chrome-trace export of phase-level
traced runs, so the tracer integration (span boundaries, timeline
offsets, process naming) is covered too.  Each snapshot is checked
twice: with the programs as written, and with every plain op they yield
delivered to the kernel as a one-op ``VR`` run block — the run-block
macro must leave every byte of output unchanged.

The snapshots were generated from the pre-kernel engines (the
hand-rolled ``SMPEngine`` / ``MTAEngine`` interpreter loops), so any
behavioural drift introduced by the unified simulation kernel — a
scheduling change, a cost-model change, a phase-slice boundary shift —
fails here with a JSON diff rather than a silent cycle-count change.

To regenerate after an *intended* engine change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_engine_equivalence.py

then review the diff like any other code change.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.backends import create
from repro.obs import Tracer, chrome_trace_json
from repro.sim.kernel import SimKernel
from repro.workloads import paper_programs

from .test_sim_fuzz import as_run_blocks

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

PROGRAMS = {name.replace("/", "_"): (w, b) for name, w, b in paper_programs()}


def _canon(obj):
    """JSON-ready deep copy: numpy scalars to Python, dict keys to str."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    return obj


def _check_bytes(name: str, text: str, *, regen_write: bool = True) -> None:
    path = GOLDEN_DIR / name
    if REGEN and regen_write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
    assert path.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 ({path})"
    )
    assert text == path.read_text(), (
        f"{name}: engine output deviates from the golden snapshot; if the "
        "change is intended, regenerate with REPRO_REGEN_GOLDEN=1 and review "
        "the diff"
    )


def _deliver_as_run_blocks(monkeypatch):
    """Make every kernel wrap its programs in :func:`as_run_blocks`."""
    add_thread = SimKernel.add_thread

    def wrapped(self, gen, proc=None):
        return add_thread(self, as_run_blocks(gen), proc)

    monkeypatch.setattr(SimKernel, "add_thread", wrapped)


#: The second row of each golden test runs the programs with every
#: plain op delivered as a one-op ``VR`` run block; it compares against
#: the same snapshot and never writes on REGEN.  The id is that of the
#: execution tier this row took over from.
_FORMS = [None, "vector"]


@pytest.mark.parametrize("tier", _FORMS)
@pytest.mark.parametrize("slug", sorted(PROGRAMS))
def test_paper_program_report_golden(slug, tier, monkeypatch):
    """SimReport-derived summaries are byte-identical across the refactor
    — and whether or not the programs' ops travel through ``VR`` run
    blocks (the ``"vector"`` rows), so the run-block macro is pinned to
    the plain per-op output on every paper program."""
    workload, backend_name = PROGRAMS[slug]
    if tier is not None:
        _deliver_as_run_blocks(monkeypatch)
    backend = create(backend_name)
    summary = backend.execute(backend.prepare(workload))
    text = json.dumps(_canon(summary.to_dict()), sort_keys=True, indent=1) + "\n"
    _check_bytes(f"equiv_{slug}.json", text, regen_write=tier is None)


#: Programs re-run under a phase-level tracer; their Chrome-trace export
#: (spans, offsets, metadata) is snapshotted as well.  Sync kwargs with
#: the matching ``paper_programs`` entries.
_TRACED = sorted(
    s for s in PROGRAMS if PROGRAMS[s][1] in ("mta-engine", "smp-engine")
    and PROGRAMS[s][0].kind in ("rank", "cc")
)


@pytest.mark.parametrize("tier", _FORMS)
@pytest.mark.parametrize("slug", _TRACED)
def test_paper_program_chrome_trace_golden(slug, tier, monkeypatch):
    """Phase-level traces are identical too when the ops travel through
    ``VR`` run blocks (same span boundaries, same offsets)."""
    workload, backend_name = PROGRAMS[slug]
    tracer = Tracer(level="phase")
    opt = workload.options
    data = create(backend_name).prepare(workload).data
    if tier is not None:
        _deliver_as_run_blocks(monkeypatch)
    if backend_name == "mta-engine":
        kw = {"streams_per_proc": int(opt.get("streams_per_proc", 100))}
        if workload.kind == "rank":
            from repro.lists.programs import simulate_mta_list_ranking

            simulate_mta_list_ranking(data, p=workload.p, tracer=tracer, **kw)
        else:
            from repro.graphs.programs import simulate_mta_cc

            simulate_mta_cc(data, p=workload.p, tracer=tracer, **kw)
    else:
        if workload.kind == "rank":
            from repro.lists.programs import simulate_smp_list_ranking

            simulate_smp_list_ranking(data, p=workload.p, rng=workload.seed,
                                      tracer=tracer)
        else:
            from repro.graphs.programs import simulate_smp_cc

            simulate_smp_cc(data, p=workload.p, tracer=tracer)
    _check_bytes(f"equiv_trace_{slug}.json", chrome_trace_json(tracer.events) + "\n",
                 regen_write=tier is None)
