"""The correctness gate: every operation's simulated result is checked.

An operation *instance* (one operation in one pass) fails when

* its call raised;
* its digest differs from the first instance of the same operation
  (passes repeat identical work, and the traced passes of a ``--trace 1``
  run repeat the untraced ones, so any drift is a defect);
* a base-mode (no PBS) result's outputs differ from
  ``Workload.reference(scale, seed)`` by more than ``REFERENCE_ABS_TOL``;
* a ``sweep`` grid's results differ from the same specs run through
  in-process Sessions;
* at the default seed, its digest differs from the one pinned in
  ``pins.json``.

A digest covers everything a run simulated -- the ``RunResult`` JSON
without its host ``wall_time`` -- plus any extra output of the call.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

PINS = Path(__file__).with_name("pins.json")
#: How far a base-mode output may lie from ``Workload.reference``: the
#: tolerance of the repository's own cross-validation test
#: (``tests/test_workloads.py``).  The simulator and the pure-Python
#: reference can round the last bits of a float differently; greeks at
#: scale 0.25 and seed 9720 gives a delta 8e-16 away from its reference.
REFERENCE_ABS_TOL = 1e-9


def result_digest(result) -> str:
    data = result.to_dict()
    data.pop("wall_time", None)
    return _sha(data)


def _sha(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def op_digest(results, extra) -> str:
    return _sha([[result_digest(r) for r in results], extra])


def matches_reference(outputs, reference) -> bool:
    return set(reference) <= set(outputs) and all(
        abs(outputs[key] - want) <= REFERENCE_ABS_TOL
        for key, want in reference.items()
    )


def load_pins(size: str, workload: str) -> Dict[str, str]:
    try:
        pins = json.loads(PINS.read_text())
    except FileNotFoundError:
        return {}
    return pins.get(size, {}).get(workload, {})


def write_pins(size: str, workload: str, digests: Dict[str, str]) -> None:
    try:
        pins = json.loads(PINS.read_text())
    except FileNotFoundError:
        pins = {}
    pins.setdefault(size, {})[workload] = digests
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


class Gate:
    """Collects operation instances and decides which ones failed."""

    def __init__(self):
        #: (pass, op index) -> digest, or None when the call raised.
        self.digests: Dict[Tuple[int, int], Optional[str]] = {}
        self.labels: Dict[int, str] = {}
        self.failed: Set[Tuple[int, int]] = set()
        self.reasons: List[str] = []
        #: (kernel, scale, seed) -> outputs of every base-mode result,
        #: with the instances that produced them.
        self._base: Dict[tuple, List[tuple]] = {}

    def record(self, pass_index: int, op_index: int, label: str,
               results, extra) -> str:
        key = (pass_index, op_index)
        self.labels[op_index] = label
        digest = op_digest(results, extra)
        self.digests[key] = digest
        for result in results:
            if not result.pbs:
                self._base.setdefault(
                    (result.workload, result.scale, result.seed), []
                ).append((key, dict(result.outputs)))
        return digest

    def raised(self, pass_index: int, op_index: int, label: str,
               error: BaseException) -> None:
        key = (pass_index, op_index)
        self.labels[op_index] = label
        self.digests[key] = None
        self.fail([key], f"{label}: raised {error!r}")

    def fail(self, keys, reason: str) -> None:
        self.failed.update(keys)
        self.reasons.append(reason)

    def instances(self, op_index: int) -> List[Tuple[int, int]]:
        return sorted(k for k in self.digests if k[1] == op_index)

    def first_digests(self) -> Dict[int, str]:
        """Each operation's digest in the earliest pass it succeeded."""
        first: Dict[int, str] = {}
        for (pass_index, op_index), digest in sorted(self.digests.items()):
            if digest is not None and op_index not in first:
                first[op_index] = digest
        return first

    def check_repeats(self) -> None:
        first = self.first_digests()
        for key, digest in sorted(self.digests.items()):
            expected = first.get(key[1])
            if digest is not None and digest != expected:
                self.fail([key], f"{self.labels[key[1]]}: pass {key[0]} "
                                 f"simulated different statistics")

    def check_references(self) -> None:
        from repro.sim import get_workload

        for (name, scale, seed), seen in sorted(self._base.items()):
            reference = get_workload(name).reference(scale, seed)
            bad = [key for key, outputs in seen
                   if not matches_reference(outputs, reference)]
            if bad:
                self.fail(bad, f"{name} scale={scale} seed={seed}: base "
                               f"outputs differ from Workload.reference")

    def check_grid(self, op_index: int, results) -> None:
        """Rerun a sweep grid's specs through in-process Sessions."""
        expected = op_digest(results, None)
        for key, digest in self.digests.items():
            if key[1] == op_index and digest is not None and digest != expected:
                self.fail([key], f"{self.labels[op_index]}: grid differs "
                                 f"from in-process Sessions")

    def check_pins(self, pins: Dict[str, str]) -> None:
        first = self.first_digests()
        for op_index, digest in first.items():
            label = self.labels[op_index]
            if pins.get(label) != digest:
                self.fail(self.instances(op_index),
                          f"{label}: digest differs from pins.json")

    def report(self, stream=sys.stderr) -> None:
        for reason in self.reasons:
            print(f"gate: {reason}", file=stream)
