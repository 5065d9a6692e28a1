"""Tests for the predictor harness / MPKI accounting."""

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    BranchStats,
    PerfectPredictor,
    measure_mpki,
)
from repro.functional.trace import ProbMode, TraceEvent
from repro.isa import Op, OpClass


def alu_event(pc=0):
    return TraceEvent(pc, Op.ADD, OpClass.IALU, 1, (2, 3), next_pc=pc + 1)


def branch_event(pc, taken, prob_mode=ProbMode.NOT_PROB):
    return TraceEvent(
        pc,
        Op.BLT,
        OpClass.BRANCH,
        -1,
        (1, 2),
        is_cond_branch=True,
        taken=taken,
        target=0,
        next_pc=0 if taken else pc + 1,
        prob_mode=prob_mode,
    )


class TestBranchStats:
    def test_mpki_math(self):
        stats = BranchStats()
        stats.instructions = 2000
        stats.regular_mispredicts = 3
        stats.prob_mispredicts = 1
        assert stats.mpki == 2.0
        assert stats.regular_mpki == 1.5
        assert stats.prob_mpki == 0.5

    def test_zero_instructions_no_division_error(self):
        assert BranchStats().mpki == 0.0


class TestHarnessCounting:
    def test_counts_instructions_and_branches(self):
        events = [alu_event(), branch_event(10, True), alu_event(2)]
        stats = measure_mpki(events, AlwaysTaken())
        assert stats.instructions == 3
        assert stats.regular_branches == 1
        assert stats.mispredicts == 0

    def test_counts_mispredicts(self):
        events = [branch_event(10, False)] * 5
        stats = measure_mpki(events, AlwaysTaken())
        assert stats.regular_mispredicts == 5

    def test_probabilistic_branches_counted_separately(self):
        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(20, True),
        ]
        stats = measure_mpki(events, AlwaysNotTaken())
        assert stats.prob_branches == 1
        assert stats.regular_branches == 1
        assert stats.prob_mispredicts == 1
        assert stats.regular_mispredicts == 1


class TestPbsBypass:
    def test_pbs_hits_never_touch_predictor(self):
        class Boom(AlwaysTaken):
            def predict(self, pc):
                raise AssertionError("predictor consulted for a PBS hit")

            def update(self, pc, taken):
                raise AssertionError("predictor updated for a PBS hit")

        events = [branch_event(10, True, ProbMode.PBS_HIT)] * 3
        stats = measure_mpki(events, Boom())
        assert stats.pbs_hits == 3
        assert stats.mispredicts == 0

    def test_pbs_hits_counted_in_total_branches(self):
        events = [
            branch_event(10, True, ProbMode.PBS_HIT),
            branch_event(20, True),
        ]
        stats = measure_mpki(events, AlwaysTaken())
        assert stats.branches == 2


class TestFiltering:
    """The Figure 9 interference experiment mode."""

    def test_filtered_prob_branches_do_not_update_predictor(self):
        calls = []

        class Spy(AlwaysTaken):
            # Its update is not a no-op, so it may not declare a
            # static prediction: the branch step must call it.
            static_prediction = None

            def update(self, pc, taken):
                calls.append(pc)

        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(20, True),
        ]
        measure_mpki(events, Spy(), filter_probabilistic=True)
        assert calls == [20]

    def test_filtered_prob_branches_statically_predicted(self):
        events = [
            branch_event(10, True, ProbMode.PREDICTED),
            branch_event(10, False, ProbMode.PREDICTED),
        ]
        stats = measure_mpki(events, AlwaysTaken(), filter_probabilistic=True)
        # Static not-taken: the taken instance mispredicts, the other not.
        assert stats.prob_mispredicts == 1

    def test_regular_branches_unaffected_by_filtering(self):
        events = [branch_event(20, True)] * 4
        stats = measure_mpki(events, AlwaysTaken(), filter_probabilistic=True)
        assert stats.regular_mispredicts == 0
        assert stats.regular_branches == 4


class TestPerfectShortCircuit:
    def test_perfect_counts_but_never_misses(self):
        events = [branch_event(10, True), branch_event(10, False)]
        stats = measure_mpki(events, PerfectPredictor())
        assert stats.regular_branches == 2
        assert stats.mispredicts == 0
