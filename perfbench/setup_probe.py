"""One benchmark set-up in a fresh interpreter, timed by ``run.py``.

Imports the package, builds the workload's programs and, for ``sweep``,
spawns the worker pool; then prints ``ready`` and waits for stdin to
close before tearing down (teardown is not part of set-up).

    python3 perfbench/setup_probe.py WORKLOAD SIZE
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import traffic  # noqa: E402


def main() -> None:
    workload, size = sys.argv[1:3]
    from repro.sim import get_workload

    sweep = None
    if workload == "sweep":
        # The probe builds the grids but never runs them: no directory.
        sweep = traffic.SweepTraffic(size, 0, workdir=None).open()
    try:
        traffic.build_ops(workload, size, 0, sweep)
        for name, scale in traffic.programs(workload, size):
            get_workload(name).build(scale)
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        if sweep is not None:
            sweep.close()


if __name__ == "__main__":
    main()
