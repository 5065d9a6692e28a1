"""Tests for the simple predictors, folded history and loop predictor."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    FoldedHistory,
    GShare,
    LoopPredictor,
    StatisticalCorrector,
    Tage,
    TageSCL,
    TwoLevelLocal,
    saturating_update,
)
from repro.branch.corrector import sc_plan
from repro.branch.tage import tage_plan


class TestSaturatingCounter:
    def test_increments_to_max(self):
        counter = 0
        for _ in range(10):
            counter = saturating_update(counter, True, 3)
        assert counter == 3

    def test_decrements_to_zero(self):
        counter = 3
        for _ in range(10):
            counter = saturating_update(counter, False, 3)
        assert counter == 0

    @given(st.integers(0, 3), st.booleans())
    def test_stays_in_range(self, counter, taken):
        assert 0 <= saturating_update(counter, taken, 3) <= 3


class TestStaticPredictors:
    def test_always_taken(self):
        p = AlwaysTaken()
        assert p.predict(100) is True
        p.update(100, False)
        assert p.predict(100) is True
        assert p.storage_bits() == 0

    def test_always_not_taken(self):
        p = AlwaysNotTaken()
        assert p.predict(100) is False


class TestBimodal:
    def test_learns_bias(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, True)
        assert p.predict(5) is True
        for _ in range(10):
            p.update(5, False)
        assert p.predict(5) is False

    def test_hysteresis(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, True)
        p.update(5, False)  # one anomaly must not flip a saturated counter
        assert p.predict(5) is True

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Bimodal(entries=100)

    def test_storage_bits(self):
        assert Bimodal(entries=1024).storage_bits() == 2048

    def test_reset(self):
        p = Bimodal(entries=64)
        for _ in range(10):
            p.update(5, False)
        p.reset()
        assert p.predict(5) is True  # back to weakly taken


class TestGShare:
    def test_learns_history_correlation(self):
        # Branch at pc=8 alternates T/NT: bimodal cannot learn this but
        # gshare separates the two history contexts.
        p = GShare(entries=256, history_bits=4)
        outcome = True
        for _ in range(100):
            p.predict(8)
            p.update(8, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(20):
            if p.predict(8) == outcome:
                hits += 1
            p.update(8, outcome)
            outcome = not outcome
        assert hits == 20

    def test_storage_includes_history(self):
        assert GShare(entries=256, history_bits=4).storage_bits() == 256 * 2 + 4


class TestTwoLevelLocal:
    def test_learns_per_branch_pattern(self):
        p = TwoLevelLocal(history_entries=64, history_bits=6, pattern_entries=256)
        pattern = [True, True, False]
        for step in range(300):
            p.update(9, pattern[step % 3])
        hits = 0
        for step in range(30):
            want = pattern[step % 3]
            if p.predict(9) == want:
                hits += 1
            p.update(9, want)
        assert hits >= 28


class TestFoldedHistory:
    @given(
        st.integers(min_value=2, max_value=160),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_incremental_matches_recompute(self, olen, clen, seed):
        fold = FoldedHistory(olen, clen)
        rng = random.Random(seed)
        history = 0
        for _ in range(min(3 * olen, 300)):
            bit = rng.getrandbits(1)
            history = (history << 1) | bit
            fold.update(history, bit)
        assert fold.comp == fold.recompute(history)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            FoldedHistory(0, 4)
        with pytest.raises(ValueError):
            FoldedHistory(4, 0)

    def test_reset(self):
        fold = FoldedHistory(8, 4)
        fold.update(1, 1)
        fold.reset()
        assert fold.comp == 0

    @staticmethod
    def assert_plan_matches_oracle(plan, history, folds):
        values = plan.values(history, folds)
        assert values == {
            (length, width): FoldedHistory(length, width).recompute(history)
            for length, width in plan.pairs
        }

    @given(
        st.sampled_from([4, 64, 256, 512, 1024]),
        st.integers(min_value=3, max_value=12),
        st.lists(st.integers(min_value=1, max_value=160), min_size=1,
                 max_size=7, unique=True),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_folds_match_recompute(self, entries, tag_bits, lengths, seed):
        # Every fold a TAGE-SC-L kernel keeps incrementally or reads as a
        # mask equals the reference fold of the history it ended with,
        # after a random mix of trained branches and inserted history.
        predictor = TageSCL(
            tage=Tage(table_entries=entries, tag_bits=tag_bits,
                      history_lengths=sorted(lengths)),
            corrector=StatisticalCorrector(history_lengths=sorted(lengths)[:3]),
        )
        rng = random.Random(seed)
        for _ in range(rng.randrange(1, 400)):
            pc, taken = rng.randrange(1 << 12), rng.random() < 0.6
            if rng.random() < 0.3:
                predictor.insert_history(pc, taken)
            else:
                predictor.predict(pc)
                predictor.update(pc, taken)
        for component, plan in ((predictor.tage, tage_plan(predictor.tage.geometry)),
                                (predictor.corrector,
                                 sc_plan(predictor.corrector.geometry))):
            self.assert_plan_matches_oracle(plan, component._history,
                                            component._folds)
        index_bits = entries.bit_length() - 1
        assert set(tage_plan(predictor.tage.geometry).pairs) == {
            (length, width) for length in lengths
            for width in (index_bits, tag_bits, tag_bits - 1)
        }

    def test_default_geometry_shares_and_masks_folds(self):
        tage = tage_plan(Tage().geometry)
        corrector = sc_plan(StatisticalCorrector().geometry)
        # The 9-bit index fold and the 9-bit first tag fold are one fold.
        assert len(tage.pairs) == 12  # 18 (length, width) reads
        # Lengths 2/4/8 against 9 and 8 bits (and the corrector's length
        # 4 against 8) are masks: 8 incremental folds remain of 21.
        assert tage.kept == ((16, 9), (16, 8), (32, 9), (32, 8), (64, 9), (64, 8))
        assert corrector.kept == ((10, 8), (16, 8))
        assert tage.expr(8, 9, "h", "f") == tage.expr(8, 8, "h", "f") == "(h & 255)"
        source = TageSCL()._kernel.source
        update = source[source.index("def update"):source.index("def insert_history")]
        assert update.count("<< 1) | b) ^") == 8


class TestLoopPredictor:
    def run_loop(self, predictor, trip_count, executions, pc=64):
        mispredicts = 0
        total = 0
        for _ in range(executions):
            for i in range(trip_count):
                taken = i < trip_count - 1  # exit on the last iteration
                prediction = predictor.predict(pc)
                confident = predictor.hit(pc)
                predictor.update(pc, taken)
                total += 1
                if confident and prediction != taken:
                    mispredicts += 1
        return mispredicts, total

    @pytest.mark.parametrize("trip", [3, 7, 20])
    def test_perfect_after_warmup(self, trip):
        predictor = LoopPredictor(entries=16)
        self.run_loop(predictor, trip, executions=6)  # warmup
        mispredicts, _ = self.run_loop(predictor, trip, executions=20)
        assert mispredicts == 0

    def test_not_confident_for_varying_trip_counts(self):
        predictor = LoopPredictor(entries=16)
        rng = random.Random(3)
        for _ in range(50):
            trip = rng.randint(2, 10)
            for i in range(trip):
                predictor.predict(77)
                predictor.update(77, i < trip - 1)
        assert not predictor.hit(77)

    def test_storage_bits_positive(self):
        assert LoopPredictor(entries=32).storage_bits() > 0
