"""Orchestration: run both stacks on one workload and pair the phases.

:func:`run_xval` is the subsystem's entry point.  Given a declarative
:class:`~repro.backends.base.Workload` (the same record the sweep
runner hashes and caches), it

1. resolves the machine family and variant from the workload options,
2. prepares the input once through the engine backend's memoized
   ``prepare`` (both stacks must see the identical graph),
3. builds the analytic counterpart's per-phase predictions,
4. executes the cycle engine, and
5. pairs the two into a :class:`~repro.xval.divergence.DivergenceReport`.

Configuration errors — no analytic counterpart, variants on the MTA —
raise :class:`~repro.errors.ConfigurationError` *before* the engine
runs, so ``repro xval`` fails fast with a structured message.

:func:`branch_separation` is the paper-facing ablation: the same graph
run branchy and branch-avoiding on the branch-aware SMP model, with
both stacks' branch costs compared for magnitude and sign.
"""

from __future__ import annotations

from ..backends import create
from ..backends.base import Workload
from ..errors import ConfigurationError
from .counterpart import cc_options, counterpart_predictions, float_option, has_counterpart
from .divergence import DivergenceReport

__all__ = ["DEFAULT_PENALTY", "run_xval", "branch_separation"]

#: Default mispredict penalty in cycles.  A four-cycle refetch bubble is
#: the order of the UltraSPARC II's front-end redirect; docs/MODELS.md
#: derives the expected-mispredict term it multiplies.
DEFAULT_PENALTY = 4.0

#: Options consumed by run_xval itself; everything else passes through
#: to the engine workload untouched (streams_per_proc, max_iter, ...).
_XVAL_OPTIONS = ("machine", "variant", "penalty")


def run_xval(workload: Workload):
    """Cross-validate one workload; returns ``(report, summary)``.

    Workload options understood here:

    ``machine``
        ``"smp"`` (default) or ``"mta"``.
    ``variant``
        SMP only: ``"branchy"`` (default on the SMP) or
        ``"branch-avoiding"``.
    ``penalty``
        SMP mispredict penalty in cycles (default
        :data:`DEFAULT_PENALTY`); applied identically to the analytic
        model and the engine config.

    Remaining options (``max_iter``, ``streams_per_proc``,
    ``edges_per_chunk``, ...) pass through to the engine workload.
    """
    kind = workload.kind
    machine = str(workload.option("machine", "smp"))
    if not has_counterpart(kind, machine):
        # Delegate so the structured error message lives in one place.
        counterpart_predictions(kind, machine, None, workload.p, {})
    variant = workload.option("variant")
    penalty = float_option(workload.options, "penalty", DEFAULT_PENALTY)
    knobs = cc_options(workload.options)

    passthrough = {
        k: v for k, v in workload.options.items() if k not in _XVAL_OPTIONS
    }
    if machine == "smp":
        if variant is None:
            variant = "branchy"
        eng = create("smp-engine", config={"mispredict_penalty_cycles": penalty})
        eng_options = dict(passthrough, variant=variant)
        pred_options = {"variant": variant, "penalty": penalty, "max_iter": knobs["max_iter"]}
    elif machine == "mta":
        if variant is not None:
            raise ConfigurationError(
                "branch variants are SMP-only: the MTA hides branch latency"
                " behind stream interleaving, so there is nothing to separate"
            )
        eng = create("mta-engine")
        eng_options = dict(passthrough)
        pred_options = dict(knobs, variant=None)
    else:
        raise ConfigurationError(
            f"unknown xval machine {machine!r}; expected 'smp' or 'mta'"
        )

    ework = Workload(
        kind=kind,
        p=workload.p,
        seed=workload.seed,
        params=dict(workload.params),
        options=eng_options,
    )
    handle = eng.prepare(ework)
    predictions = counterpart_predictions(
        kind, machine, handle.data, workload.p, pred_options
    )
    summary = eng.execute(handle)
    report = DivergenceReport.build(
        workload=kind,
        machine=machine,
        variant=variant,
        p=workload.p,
        predictions=predictions,
        summary=summary,
    )
    return report, summary


def branch_separation(
    *,
    n: int = 192,
    m: int = 384,
    p: int = 4,
    seed: int = 1,
    penalty: float = DEFAULT_PENALTY,
    max_iter: int = 64,
) -> dict:
    """Branchy vs branch-avoiding CC on the branch-aware SMP model.

    Runs both variants on the identical random graph and reports the
    branch cost each stack charges, the gap, and whether the two stacks
    agree on its sign — the paper's separation claim in one dict.
    """
    out: dict = {"n": n, "m": m, "p": p, "seed": seed, "penalty": penalty}
    reports = {}
    for variant in ("branchy", "branch-avoiding"):
        workload = Workload(
            kind="cc",
            p=p,
            seed=seed,
            params={"graph": "random", "n": n, "m": m},
            options={
                "machine": "smp",
                "variant": variant,
                "penalty": penalty,
                "max_iter": max_iter,
            },
        )
        report, _ = run_xval(workload)
        reports[variant] = report
        out[variant] = {
            "predicted_branch_cycles": report.predicted_branch_cycles,
            "simulated_branch_cycles": report.simulated_branch_cycles,
            "predicted_total_cycles": report.predicted_total_cycles,
            "simulated_total_cycles": report.simulated_total_cycles,
        }
    branchy, avoiding = reports["branchy"], reports["branch-avoiding"]
    pred_gap = branchy.predicted_branch_cycles - avoiding.predicted_branch_cycles
    sim_gap = branchy.simulated_branch_cycles - avoiding.simulated_branch_cycles
    out["separation"] = {
        "predicted_gap_cycles": pred_gap,
        "simulated_gap_cycles": sim_gap,
        "avoiding_lower_predicted": pred_gap > 0.0,
        "avoiding_lower_simulated": sim_gap > 0.0,
        "sign_agreement": (pred_gap > 0.0) == (sim_gap > 0.0),
    }
    return out
