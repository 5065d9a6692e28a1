"""Single-step lockstep co-execution: drive tiers together, report the
first divergence as a structured delta.

:func:`diff_tiers` advances every tier to the same retired-instruction
barrier (default stride 1) and compares the full architectural state at
each barrier: halt status, program counter, registers, memory, RNG
cursor and output channels.  The first mismatch is returned as a
:class:`Divergence` pinpointing the retired index, the per-tier PCs,
the differing state cells, and the decoded instruction that committed
the diverging step.

With ``pbs=`` (a :class:`~repro.core.PBSConfig`) every tier drives its
own PBS engine and the barrier comparison adds the engines'
``PBSStats`` counters and their ``save_state()`` tables.

Coarser strides (``stride > 1``) trade pinpointing for speed; when a
coarse pass trips, the harness re-runs the program at stride 1 so the
reported divergence is always step-exact.

Exceptions are part of the contract: tiers must fault *identically*
(same exception type, same message) or the difference is itself
reported as a ``kind="exception"`` divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core import PBSConfig
from ..functional.executor import ExecutionError, ExecutionLimitExceeded
from ..isa.disassembler import disassemble_instruction
from ..isa.program import Program
from .steppers import DIFF_MAX_INSTRUCTIONS, STEPPERS, Stepper

#: State-cell delta cap: past this many differing cells the report is
#: about the first few anyway, and full register files add noise.
MAX_DELTAS = 16


@dataclass
class Divergence:
    """The first point where two tiers disagree, as a structured delta.

    Attributes:
        kind: ``"state"`` (same control flow, different values),
            ``"control"`` (different halt/retired/pc), or
            ``"exception"`` (tiers fault differently).
        retired: retired-instruction barrier at which the disagreement
            was observed; the diverging instruction is the ``retired``-th
            one committed (1-based).
        program: name of the diverging program.
        seed: RNG seed of the diverging run.
        tiers: tier names in comparison order (first is the reference).
        pcs: per-tier program counter at the barrier.
        halted: per-tier halt flag at the barrier.
        retired_counts: per-tier retired count at the barrier.
        deltas: differing state cells, each ``{"field", "index",
            "values": {tier: repr}}``; capped at :data:`MAX_DELTAS`.
        errors: per-tier fault string (``"Type: message"``) or ``None``.
        instruction: disassembly of the instruction that committed the
            diverging step, or ``None`` when it cannot be attributed
            (e.g. divergence at barrier 0).
        instruction_pc: PC of that instruction.
    """

    kind: str
    retired: int
    program: str
    seed: int
    tiers: List[str]
    pcs: Dict[str, int] = field(default_factory=dict)
    halted: Dict[str, bool] = field(default_factory=dict)
    retired_counts: Dict[str, int] = field(default_factory=dict)
    deltas: List[Dict] = field(default_factory=list)
    errors: Dict[str, Optional[str]] = field(default_factory=dict)
    instruction: Optional[str] = None
    instruction_pc: Optional[int] = None

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "retired": self.retired,
            "program": self.program,
            "seed": self.seed,
            "tiers": list(self.tiers),
            "pcs": dict(self.pcs),
            "halted": dict(self.halted),
            "retired_counts": dict(self.retired_counts),
            "deltas": [dict(d) for d in self.deltas],
            "errors": dict(self.errors),
            "instruction": self.instruction,
            "instruction_pc": self.instruction_pc,
        }

    def summary(self) -> str:
        """One-line human rendering for logs and CLI output."""
        at = f"@retired={self.retired}"
        if self.instruction is not None:
            at += f" pc={self.instruction_pc} `{self.instruction}`"
        if self.kind == "exception":
            faults = ", ".join(
                f"{t}={e or 'ok'}" for t, e in self.errors.items()
            )
            return f"{self.program}: exception divergence {at}: {faults}"
        if self.kind == "control":
            where = ", ".join(
                f"{t}: pc={self.pcs.get(t)} retired="
                f"{self.retired_counts.get(t)} halted={self.halted.get(t)}"
                for t in self.tiers
            )
            return f"{self.program}: control divergence {at}: {where}"
        cells = "; ".join(
            f"{d['field']}[{d['index']}] "
            + " vs ".join(f"{t}={v}" for t, v in d["values"].items())
            for d in self.deltas[:3]
        )
        return f"{self.program}: state divergence {at}: {cells}"


def _values_equal(a, b) -> bool:
    """Bit-identity comparison that treats NaN as equal to NaN."""
    # 1 == 1.0 in Python, but an int where a float belongs is a real
    # tier bug — compare kinds first.
    if isinstance(a, float) != isinstance(b, float):
        return False
    if a == b:
        return True
    return a != a and b != b  # both NaN


def _fault_string(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _diverging_instruction(program: Program, pc: Optional[int]):
    if pc is None or not (0 <= pc < len(program)):
        return None, None
    text = disassemble_instruction(program[pc], program, {})
    return text, pc


def _compare_at_barrier(
    program: Program,
    seed: int,
    steppers: Sequence[Stepper],
    barrier: int,
    last_pc: Optional[int],
) -> Optional[Divergence]:
    """Compare all tiers' state at one retired-count barrier."""
    names = [s.name for s in steppers]
    reference = steppers[0]

    def base(kind: str) -> Divergence:
        text, pc = _diverging_instruction(program, last_pc)
        return Divergence(
            kind=kind,
            retired=reference.retired,
            program=program.name,
            seed=seed,
            tiers=names,
            pcs={s.name: s.pc for s in steppers},
            halted={s.name: s.halted for s in steppers},
            retired_counts={s.name: s.retired for s in steppers},
            errors={s.name: None for s in steppers},
            instruction=text,
            instruction_pc=pc,
        )

    # Control flow: everyone must agree on how far they got and whether
    # they are done.  PCs are only comparable between live tiers — a
    # halted tier's resting PC is an implementation detail.
    for stepper in steppers[1:]:
        if (
            stepper.retired != reference.retired
            or stepper.halted != reference.halted
            or (
                not reference.halted
                and not stepper.halted
                and stepper.pc != reference.pc
            )
        ):
            return base("control")

    # Architectural state, field by field.
    deltas: List[Dict] = []

    def collect(kind: str, ref_values, values_of) -> None:
        for stepper in steppers[1:]:
            if len(deltas) >= MAX_DELTAS:
                return
            theirs = values_of(stepper)
            for index, (a, b) in enumerate(zip(ref_values, theirs)):
                if not _values_equal(a, b):
                    deltas.append(
                        {
                            "field": kind,
                            "index": index,
                            "values": {
                                reference.name: repr(a),
                                stepper.name: repr(b),
                            },
                        }
                    )
                    if len(deltas) >= MAX_DELTAS:
                        return

    comparing_regs = [s for s in steppers if s.compares_registers]
    if len(comparing_regs) > 1 and comparing_regs[0] is reference:
        ref_regs = reference.regs()
        collect(
            "reg",
            ref_regs,
            lambda s: s.regs() if s.compares_registers else ref_regs,
        )
    comparing_mem = [s for s in steppers if s.compares_memory]
    if len(comparing_mem) > 1 and comparing_mem[0] is reference:
        ref_mem = reference.memory()
        collect(
            "mem",
            ref_mem,
            lambda s: s.memory() if s.compares_memory else ref_mem,
        )
    comparing_rng = [s for s in steppers if s.compares_rng]
    if len(comparing_rng) > 1 and comparing_rng[0] is reference:
        ref_rng = [reference.rng_state()]
        collect(
            "rng",
            ref_rng,
            lambda s: [s.rng_state()] if s.compares_rng else ref_rng,
        )

    # Sink-attached mode: each tier fed a fresh predictor harness, so
    # the batch pipeline itself is under the lockstep contract — every
    # tally counter must agree at every barrier.
    ref_sink = reference.sink_stats()
    if ref_sink is not None:
        for stepper in steppers[1:]:
            if len(deltas) >= MAX_DELTAS:
                break
            theirs = stepper.sink_stats()
            if theirs is None:
                continue
            for key in ref_sink:
                if ref_sink[key] != theirs.get(key):
                    deltas.append(
                        {
                            "field": "sink",
                            "index": key,
                            "values": {
                                reference.name: repr(ref_sink[key]),
                                stepper.name: repr(theirs.get(key)),
                            },
                        }
                    )
                    if len(deltas) >= MAX_DELTAS:
                        break

    # PBS-attached mode: each tier drives its own engine, whose counters
    # and saved tables (the §V-C2 context-switch state) must agree.
    for field_name, observe in (("pbs-stats", Stepper.pbs_stats),
                                ("pbs-state", Stepper.pbs_state)):
        ours = observe(reference)
        if ours is None:
            continue
        for stepper in steppers[1:]:
            theirs = observe(stepper)
            for key in ours:
                if len(deltas) < MAX_DELTAS and ours[key] != theirs[key]:
                    deltas.append(
                        {
                            "field": field_name,
                            "index": key,
                            "values": {
                                reference.name: str(ours[key]),
                                stepper.name: str(theirs[key]),
                            },
                        }
                    )

    # Output channels: compare as flattened (channel, position) cells.
    ref_out = reference.outputs()
    for stepper in steppers[1:]:
        if len(deltas) >= MAX_DELTAS:
            break
        if not (stepper.compares_outputs and reference.compares_outputs):
            continue
        theirs = stepper.outputs()
        for channel in sorted(set(ref_out) | set(theirs)):
            ours_ch = ref_out.get(channel, [])
            theirs_ch = theirs.get(channel, [])
            if len(ours_ch) != len(theirs_ch):
                deltas.append(
                    {
                        "field": "out",
                        "index": channel,
                        "values": {
                            reference.name: f"len={len(ours_ch)}",
                            stepper.name: f"len={len(theirs_ch)}",
                        },
                    }
                )
                continue
            for position, (a, b) in enumerate(zip(ours_ch, theirs_ch)):
                if not _values_equal(a, b):
                    deltas.append(
                        {
                            "field": "out",
                            "index": f"{channel}:{position}",
                            "values": {
                                reference.name: repr(a),
                                stepper.name: repr(b),
                            },
                        }
                    )
                    break

    if deltas:
        divergence = base("state")
        divergence.deltas = deltas
        return divergence
    return None


def diff_tiers(
    program: Program,
    tiers: Sequence[str] = ("interp", "compiled"),
    seed: int = 0,
    max_instructions: int = DIFF_MAX_INSTRUCTIONS,
    stride: int = 1,
    predictor: Optional[str] = None,
    pbs: Optional[PBSConfig] = None,
) -> Optional[Divergence]:
    """Co-execute ``program`` on every tier in ``tiers`` and return the
    first divergence, or ``None`` when all tiers agree to completion.

    The first tier is the reference the others are compared against
    (conventionally ``"interp"``).  Tier names resolve through
    :data:`~repro.diff.steppers.STEPPERS`.

    ``predictor`` names a registered branch predictor to ride every
    tier as an attached sink (a fresh
    :class:`~repro.branch.PredictorHarness` each): the batch-fed tally
    counters are then compared at every barrier, putting the columnar
    event pipeline itself under the lockstep contract.  Only
    sink-capable tiers (``interp``, ``compiled``) may be combined with
    it.

    ``pbs`` attaches a fresh :class:`~repro.core.PBSEngine` with this
    config to every tier and compares the engines' ``PBSStats`` and a
    view of their ``save_state()`` at every barrier (see
    :func:`~repro.diff.steppers.pbs_state_view`).

    A consistent fault — every tier raising the same exception type with
    the same message at the same retired count — is agreement, not a
    divergence: the error contract is part of the bit-identity contract.
    """
    if len(tiers) < 2:
        raise ValueError("diff_tiers needs at least two tiers")
    unknown = [t for t in tiers if t not in STEPPERS]
    if unknown:
        raise ValueError(
            f"unknown tiers {unknown}; known: {sorted(STEPPERS)}"
        )
    if stride < 1:
        raise ValueError("stride must be >= 1")

    if predictor is not None:
        from ..branch import PredictorHarness
        from ..sim.registry import create_predictor

        sinkless = [t for t in tiers if not STEPPERS[t].supports_sink]
        if sinkless:
            raise ValueError(
                f"tiers {sinkless} cannot carry an attached sink; "
                f"sink-attached lockstep needs sink-capable tiers only"
            )
        steppers = [
            STEPPERS[t](
                program, seed=seed, max_instructions=max_instructions,
                sink=PredictorHarness(create_predictor(predictor)), pbs=pbs,
            )
            for t in tiers
        ]
    else:
        steppers = [
            STEPPERS[t](program, seed=seed, max_instructions=max_instructions,
                        pbs=pbs)
            for t in tiers
        ]
    reference = steppers[0]

    barrier = 0
    last_pc: Optional[int] = 0  # execution starts at pc 0
    while True:
        barrier += stride
        errors: Dict[str, Optional[str]] = {}
        for stepper in steppers:
            try:
                stepper.step_to(barrier)
                errors[stepper.name] = None
            except (ExecutionError, ExecutionLimitExceeded) as exc:
                errors[stepper.name] = _fault_string(exc)

        if any(e is not None for e in errors.values()):
            distinct = set(errors.values())
            retired = {s.name: s.retired for s in steppers}
            if len(distinct) == 1 and len(set(retired.values())) == 1:
                return None  # consistent fault on every tier: agreement
            if stride > 1:
                return diff_tiers(
                    program,
                    tiers,
                    seed=seed,
                    max_instructions=max_instructions,
                    stride=1,
                    predictor=predictor,
                    pbs=pbs,
                )
            text, pc = _diverging_instruction(program, last_pc)
            return Divergence(
                kind="exception",
                retired=reference.retired,
                program=program.name,
                seed=seed,
                tiers=list(tiers),
                pcs={s.name: s.pc for s in steppers},
                halted={s.name: s.halted for s in steppers},
                retired_counts=retired,
                errors=errors,
                instruction=text,
                instruction_pc=pc,
            )

        divergence = _compare_at_barrier(
            program, seed, steppers, barrier, last_pc
        )
        if divergence is not None:
            if stride > 1:
                return diff_tiers(
                    program,
                    tiers,
                    seed=seed,
                    max_instructions=max_instructions,
                    stride=1,
                    predictor=predictor,
                    pbs=pbs,
                )
            return divergence

        if all(s.halted for s in steppers):
            return None
        # The instruction the *next* step will commit first: where the
        # reference is pointing now.  At stride 1 this attributes the
        # diverging step exactly.
        last_pc = reference.pc
