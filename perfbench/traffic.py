"""The four workloads: the public calls each paper artefact issues.

An *operation* is one public call into ``repro.sim``: a ``Session.run()``
(``mpki``, ``ipc``, ``accuracy``) or one ``Sweep.run()`` grid
(``sweep``).  A *pass* is the fixed list of operations that regenerates
the workload's artefacts once; every pass of a run repeats the same
operations with the same seeds, so every pass must simulate identical
statistics.  Session seeds derive from the benchmark's ``--seed``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

WORKLOADS = ("mpki", "ipc", "accuracy", "sweep")

#: Run length per workload.  ``tail_pct`` is fixed per workload so that
#: ``op_ms_tail`` names the same percentile on every run; a run keeps
#: going past ``--seconds`` until at least ten operations lie beyond it.
SIZES = {
    "full": {
        "mpki": {"scale": 0.05, "seeds": 2, "tail_pct": 90},
        "ipc": {"scale": 0.05, "seeds": 1, "tail_pct": 90},
        "accuracy": {"scale": 0.25, "seeds": 2, "tail_pct": 95},
        "sweep": {"scale": 0.1, "seeds": 2, "tail_pct": 75},
    },
    # Self-test size: two kernels, one seed, seconds per run.
    "tiny": {
        "mpki": {"scale": 0.05, "seeds": 1, "tail_pct": 50},
        "ipc": {"scale": 0.05, "seeds": 1, "tail_pct": 50},
        "accuracy": {"scale": 0.05, "seeds": 1, "tail_pct": 50},
        "sweep": {"scale": 0.05, "seeds": 1, "tail_pct": 50},
    },
}
TINY_KERNELS = ("pi", "genetic")

PREDICTORS = ("tournament", "tage-sc-l")
#: Table III's rows: the uniform-controlled benchmarks.
TABLE3_KERNELS = ("swaptions", "genetic", "photon", "mc-integ", "pi", "bandit")
#: §VII-D's noise floor: the same kernel under an unrelated seed.
NOISE_SEED_OFFSET = 7919
#: §VII-D runs genetic at no less than this scale.
GENETIC_MIN_SCALE = 1.0


@dataclass
class Op:
    """One public call: ``call()`` returns the run results it produced
    and any extra deterministic output (e.g. a battery summary)."""

    label: str
    call: Callable[[], Tuple[list, object]]
    #: For ``sweep`` grids: the grid, so the gate can rerun its specs
    #: through in-process Sessions.
    grid: object = None


def session_seeds(seed: int, count: int) -> List[int]:
    """The Session seeds a workload uses for benchmark seed ``seed``."""
    return [seed * 100 + k for k in range(count)]


def kernels(size: str) -> List[str]:
    from repro.sim import paper_workload_names

    names = paper_workload_names()
    if size == "tiny":
        return [name for name in names if name in TINY_KERNELS]
    return names


def _session_op(label, make, battery=False):
    def call():
        result = make().run()
        extra = None
        if battery:
            from repro import stats

            extra = stats.summarize(stats.run_battery(result.consumed_values))
        return [result], extra

    return Op(label, call)


def mpki_ops(size: str, seed: int) -> List[Op]:
    """Figures 6 and 9: predictor-only Sessions, base and PBS, plus the
    ``filter_probabilistic`` twins."""
    from repro.sim import Session

    cfg = SIZES[size]["mpki"]
    scale = cfg["scale"]
    ops = []
    for s in session_seeds(seed, cfg["seeds"]):
        for name in kernels(size):
            for mode in ("base", "pbs"):
                def make(name=name, s=s, mode=mode):
                    session = Session(name, scale=scale, seed=s)
                    session.predictors(*PREDICTORS)
                    return session.pbs() if mode == "pbs" else session
                ops.append(_session_op(f"fig6/{name}/{s}/{mode}", make))

            def twins(name=name, s=s):
                session = Session(name, scale=scale, seed=s)
                for predictor in PREDICTORS:
                    session.predictor(predictor, label=predictor)
                    session.predictor(
                        predictor, label=f"{predictor}:filtered",
                        filter_probabilistic=True,
                    )
                return session
            ops.append(_session_op(f"fig9/{name}/{s}", twins))
    return ops


def ipc_ops(size: str, seed: int) -> List[Op]:
    """Figures 7 and 8: both predictors inside the 4-wide and the 8-wide
    out-of-order core, base and PBS."""
    from repro.pipeline import eight_wide, four_wide
    from repro.sim import Session

    cfg = SIZES[size]["ipc"]
    scale = cfg["scale"]
    ops = []
    for s in session_seeds(seed, cfg["seeds"]):
        for name in kernels(size):
            for figure, core in (("fig7", four_wide), ("fig8", eight_wide)):
                for mode in ("base", "pbs"):
                    def make(name=name, s=s, core=core, mode=mode):
                        session = Session(name, scale=scale, seed=s)
                        session.predictors(*PREDICTORS).timing(core)
                        return session.pbs() if mode == "pbs" else session
                    ops.append(
                        _session_op(f"{figure}/{name}/{s}/{mode}", make)
                    )
    return ops


def accuracy_ops(size: str, seed: int) -> List[Op]:
    """§VII-D (base, PBS and noise-floor outputs; genetic at scale >= 1)
    and Table III (consumed values through the randomness battery)."""
    from repro.sim import Session

    cfg = SIZES[size]["accuracy"]
    scale = cfg["scale"]
    names = kernels(size)
    ops = []
    for s in session_seeds(seed, cfg["seeds"]):
        for name in names:
            if name == "genetic":
                runs = [(max(scale, GENETIC_MIN_SCALE), s, "base"),
                        (max(scale, GENETIC_MIN_SCALE), s, "pbs")]
            else:
                runs = [(scale, s, "base"), (scale, s, "pbs"),
                        (scale, s + NOISE_SEED_OFFSET, "base")]
            for run_scale, run_seed, mode in runs:
                def make(name=name, run_scale=run_scale, run_seed=run_seed,
                         mode=mode):
                    session = Session(name, scale=run_scale, seed=run_seed)
                    return session.pbs() if mode == "pbs" else session
                ops.append(_session_op(
                    f"acc/{name}/{run_scale}/{run_seed}/{mode}", make
                ))
        for name in names:
            if name not in TABLE3_KERNELS:
                continue
            for mode in ("base", "pbs"):
                def make(name=name, s=s, mode=mode):
                    session = Session(name, scale=scale, seed=s)
                    session.record_consumed()
                    return session.pbs() if mode == "pbs" else session
                ops.append(_session_op(
                    f"table3/{name}/{s}/{mode}", make, battery=True
                ))
    return ops


class SweepTraffic:
    """Cold ``Sweep.run()`` grids on one persistent 2-worker pool.

    Each grid is one kernel x one seed x {base, pbs} x the two
    predictors, split per predictor, with a fresh ``trace_dir`` and
    ``cache_dir``: every trace group is interpreted and captured once,
    replayed for the other predictor, and written to the result cache.
    """

    WORKERS = 2

    def __init__(self, size: str, seed: int, workdir: str):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.executor = None

    def open(self):
        """Spawn the pool (set-up, outside any timed pass)."""
        from repro.sim import WorkerPoolExecutor

        self.executor = WorkerPoolExecutor(self.WORKERS)
        # Touch every worker so the pool is fully up before timing.
        self.executor.pool.map(abs, range(self.WORKERS))
        return self

    def worker_pids(self) -> List[int]:
        pool = self.executor._pool if self.executor else None
        return [proc.pid for proc in getattr(pool, "_pool", None) or []]

    def close(self):
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def clear(self):
        """Remove the grids' trace and cache directories."""
        for entry in os.listdir(self.workdir):
            shutil.rmtree(os.path.join(self.workdir, entry))

    def ops(self) -> List[Op]:
        from repro.sim import Sweep

        cfg = SIZES[self.size]["sweep"]
        ops = []
        for s in session_seeds(self.seed, cfg["seeds"]):
            for name in kernels(self.size):
                grid = dict(workloads=[name], scales=(cfg["scale"],),
                            seeds=(s,), predictors=PREDICTORS,
                            split_predictors=True)

                def call(name=name, grid=grid):
                    fresh = tempfile.mkdtemp(prefix=f"{name}-",
                                             dir=self.workdir)
                    sweep = Sweep(
                        **grid,
                        trace_dir=os.path.join(fresh, "traces"),
                        cache_dir=os.path.join(fresh, "cache"),
                    )
                    return list(sweep.run(executor=self.executor)), None

                ops.append(Op(f"grid/{name}/{s}", call, grid=Sweep(**grid)))
        return ops


def build_ops(workload: str, size: str, seed: int,
              sweep: Optional[SweepTraffic] = None) -> List[Op]:
    if workload == "mpki":
        return mpki_ops(size, seed)
    if workload == "ipc":
        return ipc_ops(size, seed)
    if workload == "accuracy":
        return accuracy_ops(size, seed)
    if workload == "sweep":
        return sweep.ops()
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def programs(workload: str, size: str) -> List[Tuple[str, float]]:
    """The ``(kernel, scale)`` programs a workload builds."""
    scale = SIZES[size][workload]["scale"]
    pairs = [(name, scale) for name in kernels(size)]
    if workload == "accuracy" and "genetic" in kernels(size):
        pairs.append(("genetic", max(scale, GENETIC_MIN_SCALE)))
    return pairs
