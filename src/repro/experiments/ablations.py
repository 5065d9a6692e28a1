"""Ablation studies beyond the paper's headline figures.

Four design-choice sweeps DESIGN.md calls out:

* **technique** — PBS vs CFD vs predication cycle counts on the
  benchmarks where all (or both) apply, quantifying §II-B's argument that
  the prior techniques pay instruction overhead where PBS does not;
* **inflight depth** — bootstrap length vs hit rate and accuracy;
* **capacity** — Prob-BTB entries vs hit rate on the 3-branch Greeks;
* **context support** — §V-C1's context tracking on vs off.

Every simulation goes through :class:`repro.sim.Session`; only the
predication/CFD program variants take an executor from the default
engine directly (they run transformed programs, not registered
workloads).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..branch import Tournament
from ..core import PBSConfig
from ..engines import create_engine
from ..pipeline import OoOCore, four_wide
from ..sim import Session, get_workload
from ..transforms import build_cfd, build_predicated, cfd_applicable
from .common import DEFAULT_SCALE, DEFAULT_SEED, ExperimentResult

TECH_TITLE = "Ablation: PBS vs CFD vs predication (cycles, 4-wide, tournament)"
DEPTH_TITLE = "Ablation: PBS in-flight depth"
CAPACITY_TITLE = "Ablation: Prob-BTB capacity (greeks: 3 prob branches)"
CONTEXT_TITLE = "Ablation: context support on/off"
HISTORY_TITLE = "Ablation: PBS history insertion on/off"

#: The predictor-quality spectrum of :func:`predictor_sweep`, worst to
#: best (all resolved through the repro.sim predictor registry).
PREDICTOR_SPECTRUM = (
    "bimodal", "gshare", "local", "perceptron", "tournament", "tage-sc-l",
)


def _timed_cycles(name: str, scale: float, seed: int, pbs: bool = False) -> int:
    """Cycle count of one benchmark on the 4-wide tournament core."""
    session = Session(name, scale=scale, seed=seed)
    session.predictors("tournament").timing(four_wide)
    if pbs:
        session.pbs()
    return session.run().core("tournament").cycles


def technique_comparison(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    result = ExperimentResult(
        TECH_TITLE,
        columns=[
            "benchmark", "baseline_cycles", "predication_cycles",
            "cfd_cycles", "pbs_cycles", "pbs_speedup",
        ],
        paper_claim=(
            "CFD incurs loop and push/pop overhead over PBS; predication "
            "trades the branch for data dependences (§II-B, §IV)"
        ),
    )
    for name in names or cfd_applicable():
        baseline = _timed_cycles(name, scale, seed)

        try:
            program = build_predicated(name, scale=scale)
            pred_core = OoOCore(four_wide(), Tournament())
            create_engine().executor(program, seed=seed).run(sink=pred_core)
            predication = pred_core.finalize().cycles
        except KeyError:
            predication = "n/a"

        cfd = build_cfd(name, scale=scale)
        cfd_core = OoOCore(
            four_wide(), Tournament(), oracle_pcs=cfd.queue_branch_pcs
        )
        create_engine().executor(cfd.program, seed=seed).run(sink=cfd_core)
        cfd_cycles = cfd_core.finalize().cycles

        pbs_cycles = _timed_cycles(name, scale, seed, pbs=True)

        result.add_row(
            benchmark=name,
            baseline_cycles=baseline,
            predication_cycles=predication,
            cfd_cycles=cfd_cycles,
            pbs_cycles=pbs_cycles,
            pbs_speedup=baseline / pbs_cycles,
        )
    return result


def inflight_depth_sweep(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    name: str = "pi",
    depths: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    result = ExperimentResult(
        DEPTH_TITLE,
        columns=["depth", "hit_rate", "bootstraps", "accuracy_error"],
        paper_claim=(
            "the paper evaluates 4 outstanding in-flight branches; deeper "
            "queues lengthen bootstrap and the replay lag"
        ),
    )
    workload = get_workload(name)
    baseline = Session(name, scale=scale, seed=seed).run().outputs
    for depth in depths:
        run = (
            Session(name, scale=scale, seed=seed)
            .pbs(PBSConfig(inflight_depth=depth))
            .run()
        )
        result.add_row(
            depth=depth,
            hit_rate=run.pbs_stats.hit_rate,
            bootstraps=run.pbs_stats.bootstraps,
            accuracy_error=workload.accuracy_error(baseline, run.outputs),
        )
    result.add_note(f"benchmark: {name}")
    return result


def capacity_sweep(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    name: str = "greeks",
    capacities: Sequence[int] = (1, 2, 3, 4, 8),
) -> ExperimentResult:
    result = ExperimentResult(
        CAPACITY_TITLE,
        columns=["prob_btb_entries", "hit_rate", "capacity_rejects", "evictions_ok"],
        paper_claim=(
            "four Prob-BTB entries suffice for all studied benchmarks "
            "(§V-C2); fewer entries force fallback to regular prediction"
        ),
    )
    for capacity in capacities:
        config = PBSConfig(num_branches=capacity, swap_entries=max(capacity, 1))
        stats = (
            Session(name, scale=scale, seed=seed).pbs(config).run().pbs_stats
        )
        result.add_row(
            prob_btb_entries=capacity,
            hit_rate=stats.hit_rate,
            capacity_rejects=stats.capacity_rejects,
            evictions_ok="yes" if stats.hit_rate > 0 else "no",
        )
    result.add_note(f"benchmark: {name}")
    return result


def context_support(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Sequence[str] = ("genetic", "photon", "bandit"),
) -> ExperimentResult:
    result = ExperimentResult(
        CONTEXT_TITLE,
        columns=["benchmark", "hit_rate_with", "hit_rate_without",
                 "flushes_with"],
        paper_claim=(
            "context tracking scopes entries to the two innermost loops "
            "and flushes on loop exit (§V-C1); disabling it removes "
            "re-bootstraps but risks cross-context value reuse"
        ),
    )
    for name in names:
        with_ctx = (
            Session(name, scale=scale, seed=seed)
            .pbs(PBSConfig(context_support=True))
            .run()
        )
        without_ctx = (
            Session(name, scale=scale, seed=seed)
            .pbs(PBSConfig(context_support=False))
            .run()
        )
        result.add_row(
            benchmark=name,
            hit_rate_with=with_ctx.pbs_stats.hit_rate,
            hit_rate_without=without_ctx.pbs_stats.hit_rate,
            flushes_with=with_ctx.pbs_stats.loop_flushes,
        )
    return result


def predictor_sweep(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    name: str = "photon",
) -> ExperimentResult:
    """PBS benefit across the whole predictor quality spectrum.

    The paper's observation that "as modern predictors improve ...
    probabilistic branches become even more critical" implies PBS's
    *relative* value is orthogonal to predictor quality: no amount of
    prediction hardware reaches the entropy floor PBS removes.
    """
    result = ExperimentResult(
        "Ablation: predictor sweep (MPKI with/without PBS)",
        columns=["predictor", "mpki_base", "mpki_pbs", "reduction_%"],
        paper_claim=(
            "probabilistic misses survive every predictor (Figure 1's "
            "trend); PBS removes them regardless of baseline quality"
        ),
    )
    # One base pass and one PBS pass, each fanning the trace out to all
    # six predictors at once (harnesses are independent consumers).
    base = (
        Session(name, scale=scale, seed=seed)
        .predictors(*PREDICTOR_SPECTRUM)
        .run()
    )
    pbs = (
        Session(name, scale=scale, seed=seed)
        .predictors(*PREDICTOR_SPECTRUM)
        .pbs()
        .run()
    )
    for label in PREDICTOR_SPECTRUM:
        base_mpki = base.predictor(label).mpki
        pbs_mpki = pbs.predictor(label).mpki
        result.add_row(
            predictor=label,
            mpki_base=base_mpki,
            mpki_pbs=pbs_mpki,
            **{"reduction_%": 100.0 * (base_mpki - pbs_mpki) / base_mpki
               if base_mpki else 0.0},
        )
    result.add_note(f"benchmark: {name}")
    return result


def history_insertion(
    scale: float = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Sequence[str] = ("bandit", "genetic", "swaptions"),
) -> ExperimentResult:
    """Our extension beyond the paper: PBS-known directions can be
    shifted into the predictor's global history for free.  Without it,
    regular branches that correlate with a probabilistic branch lose
    their history signal and PBS's MPKI win shrinks or inverts."""
    result = ExperimentResult(
        HISTORY_TITLE,
        columns=[
            "benchmark", "base_mpki",
            "pbs_mpki_with_insert", "pbs_mpki_without_insert",
        ],
        paper_claim=(
            "not in the paper: history insertion preserves the "
            "correlation signal probabilistic branches feed into "
            "history-based predictors"
        ),
    )
    for name in names:
        base = (
            Session(name, scale=scale, seed=seed)
            .predictors("tage-sc-l")
            .run()
        )
        pbs = (
            Session(name, scale=scale, seed=seed)
            .predictor("tage-sc-l", label="with", pbs_inserts_history=True)
            .predictor("tage-sc-l", label="without", pbs_inserts_history=False)
            .pbs()
            .run()
        )
        result.add_row(
            benchmark=name,
            base_mpki=base.predictor("tage-sc-l").mpki,
            pbs_mpki_with_insert=pbs.predictor("with").mpki,
            pbs_mpki_without_insert=pbs.predictor("without").mpki,
        )
    return result


def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED):
    """All six ablations, as a list of ExperimentResults."""
    return [
        technique_comparison(scale, seed),
        inflight_depth_sweep(scale, seed),
        capacity_sweep(scale, seed),
        context_support(scale, seed),
        history_insertion(scale, seed),
        predictor_sweep(scale, seed),
    ]


def main(scale: float = DEFAULT_SCALE) -> None:
    for result in run(scale=scale):
        print(result.render())
        print()
