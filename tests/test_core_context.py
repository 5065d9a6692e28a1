"""Tests for the Context-Table (loop detection, termination, calls).

``active`` (the newest live slot) and ``loops`` (Loop-PC -> entry) are
the table's cached views; every test checks them against the slots.
"""

from repro.core import ContextTable, PBSEngine


def make_table(flushes=None, **kwargs):
    flushes = flushes if flushes is not None else []
    return ContextTable(on_flush=flushes.append, **kwargs), flushes


def no_loop(table):
    return table.active == -1 and not table.loops


def active_entry(table):
    entry = table.slots[table.active]
    assert table.loops[entry.loop_pc] is entry
    return entry


class TestLoopDetection:
    def test_no_loop_initially(self):
        table, _ = make_table()
        assert no_loop(table)

    def test_taken_backward_branch_allocates_loop(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        assert table.active >= 0
        assert active_entry(table).loop_pc == 10
        assert active_entry(table).function_pc == 0
        assert table.loops_detected == 1

    def test_forward_branch_ignored(self):
        table, _ = make_table()
        table.observe_branch(pc=10, taken=True, target=50)
        assert no_loop(table)

    def test_not_taken_backward_branch_without_entry_ignored(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=False, target=10)
        assert no_loop(table)

    def test_last_pc_grows_with_larger_backward_branch(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        table.observe_branch(pc=60, taken=True, target=10)  # same loop
        entry = active_entry(table)
        assert entry.last_pc == 60
        assert table.loops_detected == 1

    def test_first_loop_flushes_no_loop_context(self):
        table, flushes = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        assert flushes == [-1]


class TestLoopTermination:
    def test_not_taken_backward_at_last_pc_terminates(self):
        table, flushes = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        slot = table.active
        table.observe_branch(pc=50, taken=False, target=10)
        assert no_loop(table)
        assert slot in flushes
        assert table.loops_terminated == 1

    def test_not_taken_before_last_pc_does_not_terminate(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        table.observe_branch(pc=60, taken=True, target=10)  # last_pc = 60
        # An early-exit backward branch below last_pc (e.g. a continue).
        table.observe_branch(pc=50, taken=False, target=10)
        assert active_entry(table).loop_pc == 10

    def test_reexecution_is_a_new_context(self):
        table, _ = make_table()
        table.observe_branch(pc=50, taken=True, target=10)
        first = active_entry(table).sequence
        table.observe_branch(pc=50, taken=False, target=10)
        table.observe_branch(pc=50, taken=True, target=10)
        second = active_entry(table).sequence
        assert second > first

    def test_older_termination_erases_both(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)    # outer
        table.observe_branch(pc=50, taken=True, target=30)   # inner
        # Outer (older) terminates while inner entry still live.
        table.observe_branch(pc=90, taken=False, target=5)
        assert no_loop(table)
        assert table.loops_terminated == 2
        assert len(flushes) >= 2


class TestNestedLoops:
    def test_inner_loop_becomes_active(self):
        table, _ = make_table()
        table.observe_branch(pc=90, taken=True, target=5)    # outer
        outer_slot = table.active
        table.observe_branch(pc=50, taken=True, target=30)   # inner
        inner_slot = table.active
        assert inner_slot != outer_slot
        assert active_entry(table).loop_pc == 30
        assert sorted(table.loops) == [5, 30]

    def test_inner_termination_restores_outer(self):
        table, _ = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        outer_slot = table.active
        table.observe_branch(pc=50, taken=True, target=30)
        table.observe_branch(pc=50, taken=False, target=30)
        assert table.active == outer_slot
        assert sorted(table.loops) == [5]

    def test_third_loop_evicts_oldest(self):
        table, flushes = make_table(entries=2)
        table.observe_branch(pc=90, taken=True, target=5)
        oldest_slot = table.active
        table.observe_branch(pc=50, taken=True, target=30)
        table.observe_branch(pc=70, taken=True, target=60)
        assert table.evictions == 1
        assert oldest_slot in flushes
        assert table.active == oldest_slot
        assert sorted(table.loops) == [30, 60]


def branch_key(engine):
    """The Prob-BTB key a probabilistic branch at PC 100 gets now, or
    ``None`` when PBS declines it for call depth."""
    before = engine.stats.deep_call_rejects
    engine.transact(100, True, 0.5, [40], [0.1])
    if engine.stats.deep_call_rejects > before:
        return None
    (key,) = [key for key in engine.btb.keys() if key[0] == 100]
    engine.btb.invalidate(key)
    return key


class TestFunctionCalls:
    def setup_loop(self):
        engine = PBSEngine()
        engine.observe_branch(pc=90, taken=True, target=5)
        return engine.context, engine

    def test_call_within_loop_sets_function_pc(self):
        table, engine = self.setup_loop()
        table.observe_call(pc=42)
        assert active_entry(table).function_pc == 42
        assert branch_key(engine) == (100, table.active, 42)

    def test_return_clears_function_pc(self):
        table, engine = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_return(pc=99)
        assert active_entry(table).function_pc == 0
        assert branch_key(engine) == (100, table.active, 0)

    def test_depth_two_untracked(self):
        table, engine = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_call(pc=43)
        assert active_entry(table).counter == 2
        assert branch_key(engine) is None

    def test_depth_recovers_after_inner_return(self):
        table, engine = self.setup_loop()
        table.observe_call(pc=42)
        table.observe_call(pc=43)
        table.observe_return(pc=99)
        assert branch_key(engine) == (100, table.active, 42)

    def test_calls_without_loop_ignored(self):
        engine = PBSEngine()
        engine.observe_call(pc=42)
        assert no_loop(engine.context)
        assert branch_key(engine) == (100, -1, 0)

    def test_different_call_sites_distinct_contexts(self):
        table, engine = self.setup_loop()
        table.observe_call(pc=42)
        first = branch_key(engine)
        table.observe_return(pc=99)
        table.observe_call(pc=77)
        second = branch_key(engine)
        assert first != second


class TestReset:
    def test_reset_clears_everything(self):
        table, flushes = make_table()
        table.observe_branch(pc=90, taken=True, target=5)
        table.reset()
        assert no_loop(table)
        assert all(slot is None for slot in table.slots)
