"""Direct unit tests for the PBS hardware tables.

``PBSEngine.transact`` reads and updates the tables directly (Prob-BTB
lookup and LRU touch, in-flight push and pull), so the in-flight queue
tests drive it through the engine.
"""

from repro.core import (
    PBSConfig,
    PBSEngine,
    ProbBTB,
    SwapTable,
)

KEY_A = (100, 0, 0)
KEY_B = (200, 0, 0)
KEY_C = (300, 1, 0)


class TestProbBTB:
    def test_lookup_miss(self):
        assert ProbBTB(4).entries.get(KEY_A) is None

    def test_allocate_and_lookup(self):
        btb = ProbBTB(4)
        entry = btb.allocate(KEY_A, target=5, const_val=0.5, num_values=1)
        assert btb.entries[KEY_A] is entry
        assert entry.const_val == 0.5
        assert not entry.valid  # no record pulled yet

    def test_entry_valid_once_record_present(self):
        btb = ProbBTB(4)
        entry = btb.allocate(KEY_A, 0, 0.5, 1)
        entry.record = (True, [0.3])
        assert entry.valid

    def test_capacity(self):
        btb = ProbBTB(2)
        assert btb.allocate(KEY_A, 0, 0.5, 1) is not None
        assert btb.allocate(KEY_B, 0, 0.5, 1) is not None
        assert btb.full
        assert btb.allocate(KEY_C, 0, 0.5, 1) is None

    def test_invalidate_frees_space(self):
        btb = ProbBTB(1)
        btb.allocate(KEY_A, 0, 0.5, 1)
        btb.invalidate(KEY_A)
        assert not btb.full
        assert KEY_A not in btb.entries

    def test_invalidate_missing_key_is_noop(self):
        ProbBTB(1).invalidate(KEY_A)  # must not raise

    def test_flush_loop_slot(self):
        btb = ProbBTB(4)
        btb.allocate(KEY_A, 0, 0.5, 1)   # slot 0
        btb.allocate(KEY_C, 0, 0.5, 1)   # slot 1
        victims = btb.flush_loop_slot(0)
        assert victims == [KEY_A]
        assert btb.keys() == [KEY_C]

    def test_evict_candidate_prefers_lru_outside_active_slot(self):
        engine = PBSEngine(PBSConfig(num_branches=2,
                                     context_support=False))
        btb = engine.btb
        engine.transact(100, True, 0.5, [40], [0.1])
        engine.transact(300, True, 0.5, [40], [0.1])
        engine.transact(100, True, 0.5, [40], [0.1])  # 100 becomes MRU
        # Active slot 7: both entries are candidates, 300 is LRU.
        assert btb.evict_candidate(active_slot=7) == (300, -1, 0)

    def test_evict_candidate_never_picks_active_slot(self):
        btb = ProbBTB(1)
        btb.allocate(KEY_C, 0, 0.5, 1)  # slot 1
        assert btb.evict_candidate(active_slot=1) is None
        assert btb.evict_candidate(active_slot=0) == KEY_C


class TestSwapTable:
    def test_zero_allocation_always_succeeds(self):
        table = SwapTable(0)
        assert table.allocate(KEY_A, 0)

    def test_capacity_enforced(self):
        table = SwapTable(2)
        assert table.allocate(KEY_A, 2)
        assert not table.allocate(KEY_B, 1)

    def test_release_returns_capacity(self):
        table = SwapTable(2)
        table.allocate(KEY_A, 2)
        table.release(KEY_A)
        assert table.free == 2
        assert table.allocate(KEY_B, 2)

    def test_release_unknown_key_is_noop(self):
        SwapTable(2).release(KEY_A)

    def test_used_accounting(self):
        table = SwapTable(4)
        table.allocate(KEY_A, 1)
        table.allocate(KEY_B, 2)
        assert table.used == 3
        assert table.free == 1


def transact(engine, key, taken=True, value=0.1):
    return engine.transact(key[0], taken, 0.5, [40], [value])


class TestProbInFlightTable:
    def test_pull_requires_depth_records(self):
        engine = PBSEngine(PBSConfig(inflight_depth=3,
                                     context_support=False))
        for value in (0.1, 0.2):
            transact(engine, KEY_A, value=value)
        assert engine.btb.entries[(100, -1, 0)].record is None
        transact(engine, KEY_A, value=0.3)
        # FIFO: the oldest record is pulled first.
        assert engine.btb.entries[(100, -1, 0)].record == (True, [0.1])

    def test_queues_are_per_key(self):
        engine = PBSEngine(PBSConfig(inflight_depth=1,
                                     context_support=False))
        transact(engine, KEY_A, value=0.1)
        assert engine.btb.entries[(100, -1, 0)].record == (True, [0.1])
        assert (200, -1, 0) not in engine.inflight.queues
        assert transact(engine, KEY_B).mode == "boot"

    def test_occupancy(self):
        engine = PBSEngine(PBSConfig(inflight_depth=4,
                                     context_support=False))
        table = engine.inflight
        assert table.occupancy((100, -1, 0)) == 0
        transact(engine, KEY_A)
        assert table.occupancy((100, -1, 0)) == 1

    def test_release_clears_queue(self):
        engine = PBSEngine(PBSConfig(inflight_depth=2,
                                     context_support=False))
        transact(engine, KEY_A)
        engine.inflight.release((100, -1, 0))
        assert engine.inflight.occupancy((100, -1, 0)) == 0
        transact(engine, KEY_A)
        assert engine.btb.entries[(100, -1, 0)].record is None
