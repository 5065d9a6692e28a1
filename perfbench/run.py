#!/usr/bin/env python3
"""Benchmark of the PBS reproduction on the paper's own artefact traffic.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mpki --seed 1 --seconds 16 --trace 0

``--workload`` is one of ``mpki``, ``ipc``, ``accuracy``, ``sweep`` (see
``README.md`` beside this file).  One closed-loop driving process issues
the workload's operations, pass after pass, for ``--seconds`` (and until
the tail percentile has ten operations beyond it), checks every result
(``gate.py``), and prints the metrics one per line, then one JSON line.
``--trace 0`` reports the end-to-end metrics, their times corrected to a
reference host speed (``speed_corrected``); ``--trace 1`` runs the same
passes untraced and then traced and reports the per-layer ledger
(``ledger.py``).  A failed check exits with status 1 after the report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The benchmark's modules load from beside this file even when the
# interpreter leaves the script's directory off sys.path (PYTHONSAFEPATH).
sys.path.insert(0, str(HERE))
DEFAULT_SEED = 1
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Iterations of the host-speed reference loop (``reference_s``), and
#: its typical time on a 2.1 GHz Xeon vCPU.
REFERENCE_LOOPS = 3000
REFERENCE_NOMINAL_S = 0.0005
#: A set-up is timed once, not hundreds of times like the operations,
#: so the reference around it is the median of this many loops.
SETUP_REFERENCE_LOOPS = 25

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("minstr_per_s", "Minstr/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
PREDICTOR_KEYS = ("tournament", "tage-sc-l")
#: Self-time metrics: with ``bench.unattributed_s`` they add up to the
#: traced ``pass_s``.
SELF_TIMES = {
    "workloads.build_s": "workloads.build",
    "engines.executor_s": "engines.executor",
    "functional.run_self_s": "functional.run",
    "functional.explode_s": "functional.explode",
    "core.transact_s": "core.transact",
    "core.observe_s": "core.observe",
    **{f"branch.{p}.consume_s": f"branch.{p}.consume" for p in PREDICTOR_KEYS},
    "pipeline.feed_s": "pipeline.feed",
    "pipeline.finalize_s": "pipeline.finalize",
    "memory.access_s": "memory.access",
    "trace.capture_s": "trace.capture",
    "trace.replay_self_s": "trace.replay",
    "sim.sweep_s": "sim.sweep",
    "sim.map_s": "sim.map",
    "sim.cache_get_s": "sim.cache_get",
    "sim.cache_put_s": "sim.cache_put",
    "stats.battery_s": "stats.battery",
}


@dataclass
class Pass:
    seconds: float
    latencies: List[float]
    #: ``latencies`` at the reference host speed (``speed_corrected``).
    corrected: List[float]
    instructions: int
    results: list = field(repr=False)


class _Counter:
    def __init__(self):
        self.value = 0

    def step(self, i: int) -> int:
        self.value = (self.value + i) & 1023
        return self.value


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now.

    The loop does what the simulator's interpreter does most: integer
    arithmetic, small-dict stores and bound-method calls.  It allocates
    one dict per call and nothing else the garbage collector tracks, so
    it measures the host's speed, not the program's state.
    """
    started = perf_counter()
    acc, slots, step = 0, {}, _Counter().step
    for i in range(REFERENCE_LOOPS):
        acc = (acc + i * 7) % 10007
        slots[i & 255] = acc
        step(i)
    return perf_counter() - started


def speed_corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference host speed.

    The host is shared, and its speed drifts by tens of percent over
    seconds to minutes.  The reference loop, timed just ``before`` and
    ``after`` a measured interval, slows down with it, so the ratio of
    its nominal to its measured time cancels the drift.  The loop runs
    no code of the program, so a change to the program still moves the
    corrected time in full."""
    return seconds * REFERENCE_NOMINAL_S / ((before + after) / 2.0)


def fail_without_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        sys.exit(2)


def tail_rank(count: int, pct: float) -> int:
    """Nearest-rank index (1-based) of percentile ``pct`` of ``count``."""
    return max(1, math.ceil(pct / 100.0 * count))


def min_ops_for_tail(pct: float) -> int:
    """Fewest operations that leave ten beyond percentile ``pct``."""
    count = 11
    while count - tail_rank(count, pct) < 10:
        count += 1
    return count


def measure_setup(workload: str, size: str) -> List[tuple]:
    """Seconds from spawning a fresh interpreter to the probe's *ready*:
    imports, first program builds and (``sweep``) the worker pool; one
    ``(raw, speed-corrected)`` pair per sample."""
    def reference() -> float:
        return statistics.median(
            reference_s() for _ in range(SETUP_REFERENCE_LOOPS)
        )

    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference()
        started = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, size],
            stdout=subprocess.PIPE, stdin=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline()
            ready = perf_counter() - started
            probe.stdin.close()
            if probe.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        samples.append((ready, speed_corrected(ready, before, reference())))
    return samples


def run_passes(ops, gate, seconds: float, min_ops: int, first_pass: int,
               tamper: Optional[Callable], after_pass: Callable) -> List[Pass]:
    """Closed loop: whole passes until ``seconds`` are spent and at least
    ``min_ops`` operations ran.  Only the public calls are timed; the
    reference loop runs just before and after each."""
    passes: List[Pass] = []
    started = perf_counter()
    pass_index = first_pass
    while True:
        latencies, corrected, instructions, kept = [], [], 0, []
        for op_index, op in enumerate(ops):
            before = reference_s()
            begun = perf_counter()
            error = None
            try:
                results, extra = op.call()
                if tamper is not None:
                    tamper(pass_index, op_index, results)
            except Exception as raised:
                error = raised
            elapsed = perf_counter() - begun
            latencies.append(elapsed)
            corrected.append(speed_corrected(elapsed, before, reference_s()))
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                gate.raised(pass_index, op_index, op.label, error)
                continue
            gate.record(pass_index, op_index, op.label, results, extra)
            instructions += sum(r.instructions for r in results)
            kept.extend(results)
        if passes:
            # Only the last pass's results are read; holding every pass's
            # would make peak memory grow with the host's speed.
            passes[-1].results = []
        passes.append(Pass(sum(latencies), latencies, corrected,
                           instructions, kept))
        after_pass()
        pass_index += 1
        done = len(passes) * len(ops)
        if perf_counter() - started >= seconds and done >= min_ops:
            return passes


def peak_rss_mb(worker_pids: List[int]) -> float:
    """Peak resident memory of the driving process or any pool worker."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024.0


def end_to_end(passes: List[Pass], tail_pct: float, setup: List[tuple],
               rss_mb: float, corrected: bool = True) -> Dict[str, float]:
    """The end-to-end metrics, from speed-corrected times (``corrected``)
    or from raw wall times."""
    pick = 1 if corrected else 0
    seconds = [sum(p.corrected) if corrected else p.seconds for p in passes]
    latencies = sorted(x for p in passes
                       for x in (p.corrected if corrected else p.latencies))
    rank = tail_rank(len(latencies), tail_pct)
    return {
        "setup_s": statistics.median(s[pick] for s in setup),
        "pass_s": statistics.median(seconds),
        "minstr_per_s": statistics.median(
            p.instructions / s / 1e6 for p, s in zip(passes, seconds)
        ),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_tail": 1000.0 * latencies[rank - 1],
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(tracer, traced: List[Pass], untraced: List[Pass],
                  workers: int) -> Dict[str, float]:
    """Per-layer figures per pass, from the traced passes' ledger."""
    from ledger import WORKER_SPAN
    from repro.pipeline import eight_wide, four_wide

    n = len(traced)
    wall, busy, counts, spans = (tracer.wall, tracer.busy, tracer.counts,
                                 tracer.spans)

    def per_pass(value):
        return value / n

    def ns(seconds, units):
        return 1e9 * seconds / units if units else 0.0

    m: Dict[str, float] = {
        name: per_pass(wall.get(key, 0.0)) for name, key in SELF_TIMES.items()
    }
    results = traced[-1].results
    instr = counts.get("functional.instructions", 0)
    m.update({
        "workloads.builds": per_pass(counts.get("workloads.build.calls", 0)),
        "engines.compiled_hits": sum(
            1 for r in results if getattr(r, "compiled_hit", False)
        ),
        "functional.instructions": per_pass(instr),
        "functional.ns_per_instr": ns(busy.get("functional.run", 0.0), instr),
        "functional.batches": sum(
            getattr(r, "sink_batches", 0) for r in results
            if getattr(r, "trace_origin", None) != "replay"
        ),
        "functional.exploded_events": per_pass(
            counts.get("functional.exploded_events", 0)
        ),
        "core.transacts": per_pass(counts.get("core.transact.calls", 0)),
        "core.observes": per_pass(counts.get("core.observe.calls", 0)),
        "core.hit_rate": _ratio(counts.get("core.hits", 0),
                                counts.get("core.transact.calls", 0)),
    })
    for p in PREDICTOR_KEYS:
        branches = counts.get(f"branch.{p}.cond_branches", 0)
        m[f"branch.{p}.cond_branches"] = per_pass(branches)
        m[f"branch.{p}.mispredicts"] = per_pass(
            counts.get(f"branch.{p}.mispredicts", 0)
        )
        m[f"branch.{p}.ns_per_branch"] = ns(
            busy.get(f"branch.{p}.consume", 0.0), branches
        )
    events = counts.get("pipeline.feed.calls", 0)
    accesses = counts.get("memory.access.calls", 0)
    map_wall = spans.get("sim.map", 0.0)
    m.update({
        "pipeline.events": per_pass(events),
        "pipeline.ns_per_event": ns(busy.get("pipeline.feed", 0.0), events),
        "pipeline.cycles": sum(c.cycles for r in results
                               for c in r.cores.values()),
        "memory.accesses": per_pass(accesses),
        "memory.miss_rate": _ratio(counts.get("memory.l1_misses", 0),
                                   accesses),
        "trace.bytes_written": per_pass(counts.get("trace.bytes_written", 0)),
        "trace.captures": per_pass(counts.get("trace.captures", 0)),
        "trace.replays": per_pass(counts.get("trace.replay.calls", 0)),
        "sim.worker_busy_s": per_pass(tracer.worker_busy),
        "sim.worker_util": _ratio(tracer.worker_busy, map_wall * workers),
        "sim.cache_hits": per_pass(counts.get("sim.cache_hits", 0)),
        "sim.specs": per_pass(counts.get("sim.specs", 0)),
        "stats.values_tested": per_pass(counts.get("stats.values_tested", 0)),
    })
    # Modelled-design statistics (simulated, not host time).
    for p in PREDICTOR_KEYS:
        m[f"branch.{p}.mpki"] = _mpki(results, p)
    core_names = {four_wide().name: "ipc_4w", eight_wide().name: "ipc_8w"}
    for name, key in core_names.items():
        cores = [c for r in results for c in r.cores.values() if c.core == name]
        m[f"pipeline.{key}"] = _ratio(sum(c.instructions for c in cores),
                                      sum(c.cycles for c in cores))
    traced_s = sum(p.seconds for p in traced) / n
    untraced_s = sum(p.seconds for p in untraced) / len(untraced)
    # Time inside the operations that no layer span covers, plus the
    # worker-side Session glue (charged like other worker time).
    m["bench.unattributed_s"] = (
        traced_s - per_pass(tracer.covered)
        + per_pass(wall.get(WORKER_SPAN, 0.0))
    )
    m["bench.traced_pass_s"] = traced_s
    m["bench.tracing_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    residual = traced_s - sum(m[k] for k in SELF_TIMES) - m["bench.unattributed_s"]
    stray = set(wall) - set(SELF_TIMES.values()) - {WORKER_SPAN}
    if abs(residual) > 1e-6 * max(1.0, traced_s) or any(wall[k] for k in stray):
        raise RuntimeError(f"ledger does not add up: residual {residual!r}, "
                           f"unreported spans {sorted(stray)}")
    return m


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _mpki(results, predictor: str) -> float:
    """MPKI of ``predictor`` over the pass's unfiltered runs, whether it
    ran in a harness or inside a timing core."""
    mispredicts = instructions = 0
    for r in results:
        for label, metrics in r.predictors.items():
            if label == predictor:
                mispredicts += metrics.mispredicts
                instructions += metrics.instructions
        for label, core in r.cores.items():
            if label == predictor:
                mispredicts += core.branches.mispredicts
                instructions += core.instructions
    return _ratio(1000.0 * mispredicts, instructions)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_rate", "_util")):
        return "ratio"
    if name.endswith(".bytes_written"):
        return "B"
    if name.endswith(".mpki"):
        return "miss/kinstr"
    if ".ipc_" in name:
        return "instr/cycle"
    return "count"


def run_workload(workload: str, seed: int = DEFAULT_SEED,
                 seconds: float = 10.0, trace: bool = False,
                 size: str = "full", tamper: Optional[Callable] = None,
                 write_pins: bool = False) -> Dict:
    """Run one workload; returns the report the command prints.

    ``tamper(pass_index, op_index, results)`` runs after every
    operation, inside its failure accounting (the self-tests use it to
    perturb a result or raise).
    """
    import gate as gates
    import traffic
    from ledger import Tracer

    cfg = traffic.SIZES[size][workload]
    setup = [] if trace else measure_setup(workload, size)

    from repro.sim import create_predictor, get_workload

    for name, scale in traffic.programs(workload, size):
        get_workload(name).build(scale)
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    sweep = None
    if workload == "sweep":
        workdir.mkdir(parents=True, exist_ok=True)
        sweep = traffic.SweepTraffic(size, seed, str(workdir))
    gate = gates.Gate()
    ops = traffic.build_ops(workload, size, seed, sweep)
    tail_pct = cfg["tail_pct"]
    after_pass = sweep.clear if sweep else (lambda: None)
    tracer = Tracer({create_predictor(p).name: p for p in PREDICTOR_KEYS})
    report: Dict = {"workload": workload, "tail_pct": tail_pct}
    try:
        if sweep:
            sweep.open()
        window = seconds / 2 if trace else seconds
        min_ops = 1 if trace else min_ops_for_tail(tail_pct)
        untraced = run_passes(ops, gate, window, min_ops, 0, tamper,
                              after_pass)
        if trace:
            if sweep:
                sweep.close()   # its workers were forked without proxies
            tracer.install()
            try:
                if sweep:
                    sweep.open()
                tracer.reset()
                traced = run_passes(ops, gate, window, 1, len(untraced),
                                    tamper, after_pass)
                report["layers"] = layer_metrics(
                    tracer, traced, untraced, traffic.SweepTraffic.WORKERS
                )
            finally:
                tracer.uninstall()
        else:
            rss_mb = peak_rss_mb(sweep.worker_pids() if sweep else [])
            report["metrics"] = end_to_end(untraced, tail_pct, setup, rss_mb)
            report["raw_metrics"] = end_to_end(untraced, tail_pct, setup,
                                               rss_mb, corrected=False)
            report["tail_n"] = sum(len(p.latencies) for p in untraced)
            report["setup_samples"] = setup
        report["passes"] = len(untraced) + (len(traced) if trace else 0)
    finally:
        if sweep:
            sweep.close()
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    gate.check_repeats()
    gate.check_references()
    for op_index, op in enumerate(ops):
        if op.grid is not None:
            gate.check_grid(op_index,
                            [spec.session().run() for spec in op.grid.specs()])
    if write_pins:
        gates.write_pins(size, workload, {
            gate.labels[i]: digest for i, digest in gate.first_digests().items()
        })
    elif seed == DEFAULT_SEED:
        gate.check_pins(gates.load_pins(size, workload))
    report["attempted"] = len(gate.digests)
    report["failed"] = len(gate.failed)
    report["gate"] = gate
    return report


def emit(report: Dict, trace: bool) -> None:
    """Print the report: one metric per line, then the JSON result."""
    out = sys.stdout
    attempted, failed = report["attempted"], report["failed"]
    name = report["workload"]
    print(f"# workload {name}: {report['passes']} passes, {attempted} "
          f"operations, {failed} failed", file=out)
    metrics = {}
    if trace:
        for key, value in report["layers"].items():
            metrics[key] = {"value": value, "unit": layer_unit(key)}
        print("# model: simulated statistics of the modelled design "
              "(branch.*.mpki, pipeline.ipc_*, pipeline.cycles, "
              "core.hit_rate); the model is unvalidated against hardware, "
              "so no error figure is given", file=out)
    else:
        units = dict(END_TO_END)
        for key, value in report["metrics"].items():
            metrics[key] = {"value": value, "unit": units[key]}
        print(f"# op_ms_tail is p{report['tail_pct']} of "
              f"n={report['tail_n']} operations; setup_s is the median of "
              f"{len(report['setup_samples'])} fresh-process set-ups", file=out)
        print("# times are corrected to the reference host speed; "
              "raw wall-clock figures:", file=out)
        for key, value in report["raw_metrics"].items():
            print(f"#   {key} {value:.6g} {units[key]}", file=out)
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}", file=out)
    print(f"failed_frac {failed / attempted:.6g} ratio", file=out)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), file=out, flush=True)


def main(argv=None) -> int:
    import traffic

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=traffic.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(traffic.SIZES),
                        default="full", help="tiny is for the self-tests")
    parser.add_argument("--write-pins", action="store_true",
                        help="record this run's digests in pins.json")
    args = parser.parse_args(argv)
    fail_without_source()
    sys.path.insert(0, str(SRC))
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.size,
                          write_pins=args.write_pins)
    report["gate"].report()
    emit(report, bool(args.trace))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
