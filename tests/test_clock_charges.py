"""Batched charges equal the same events charged one by one -- exactly.

Simulated time is an integer tick count, so ``charge_run(p, n)`` (one
multiply) and ``charge_batch(pattern, n)`` (one multiply on the clock, one
bump per distinct meter) must leave *exactly* the clock value and *exactly*
the per-label ``(count, ticks)`` of the same events issued one at a time
through the scalar :meth:`~repro.simclock.SimClock.charge` -- which is the
reference: there is no flag and no second implementation to compare with.
The property is checked on seeded random patterns and cycle counts, up to
a million cycles, and under any permutation or chunking of the events.
"""

from __future__ import annotations

import random

import pytest

from repro.simclock import CostModel, SimClock

PRIMITIVES = ["sql_statement_base", "row_write", "row_read", "log_write",
              "lock_acquire", "token_generate", "daemon_dispatch",
              "disk_seek"]
SCALES = [1.0, 0.1, 0.37]
LABELS = [None, "scoped.a", "scoped.b"]


def _state(clock: SimClock) -> tuple:
    return clock.ticks, clock.stats.ledger()


def _random_events(rng: random.Random, length: int) -> list:
    return [(rng.choice(PRIMITIVES), rng.choice(SCALES), rng.choice(LABELS))
            for _ in range(length)]


def _charge_one_by_one(clock: SimClock, events) -> None:
    for primitive, scale, label in events:
        clock.charge(primitive, scale=scale, label=label)


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("seed", [7, 20260807, 424242])
    def test_charge_run_is_n_scalar_charges(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            primitive, scale, label = _random_events(rng, 1)[0]
            times = rng.randrange(0, 50)
            batched, scalar = SimClock(), SimClock()
            batched.charge_run(primitive, times, scale=scale, label=label)
            _charge_one_by_one(scalar, [(primitive, scale, label)] * times)
            assert _state(batched) == _state(scalar)

    @pytest.mark.parametrize("seed", [11, 1999, 31337])
    def test_charge_batch_is_the_pattern_replayed_in_order(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            events = _random_events(rng, rng.randrange(1, 6))
            cycles = rng.randrange(0, 30)
            batched, scalar = SimClock(), SimClock()
            batched.charge_batch(batched.compile_charges(events), cycles)
            _charge_one_by_one(scalar, events * cycles)
            assert _state(batched) == _state(scalar)

    def test_a_million_cycles_is_one_multiply(self):
        events = [("lock_acquire", 0.1, "dlfm.lock_acquire"),
                  ("row_read", 0.1, "dlfm.row_read"),
                  ("lock_acquire", 0.1, "dlfm.lock_acquire")]
        cycles = 10 ** 6
        clock = SimClock()
        clock.charge_batch(clock.compile_charges(events), cycles)
        clock.charge_run("disk_seek", cycles, scale=0.37)
        # The oracle is the scalar charge's own amount, multiplied out.
        one = SimClock()
        _charge_one_by_one(one, events + [("disk_seek", 0.37, None)])
        assert clock.ticks == one.ticks * cycles
        assert clock.stats.ledger() == {
            label: (count * cycles, ticks * cycles)
            for label, (count, ticks) in one.stats.ledger().items()}

    @pytest.mark.parametrize("seed", [3, 2001, 777])
    def test_any_permutation_or_chunking_of_the_events(self, seed):
        """The events of ``pattern x cycles`` in any order, cut into runs,
        batches and scalar charges at random, land on the same state."""

        rng = random.Random(seed)
        events = _random_events(rng, rng.randrange(2, 6))
        cycles = rng.randrange(2, 12)
        reference = SimClock()
        _charge_one_by_one(reference, events * cycles)

        shuffled = events * cycles
        rng.shuffle(shuffled)
        clock = SimClock()
        position = 0
        while position < len(shuffled):
            chunk = shuffled[position:position + rng.randrange(1, 7)]
            position += len(chunk)
            style = rng.randrange(3)
            if style == 0:
                _charge_one_by_one(clock, chunk)
            elif style == 1:
                clock.charge_batch(clock.compile_charges(chunk), 1)
            else:
                for event in set(chunk):
                    primitive, scale, label = event
                    clock.charge_run(primitive, chunk.count(event),
                                     scale=scale, label=label)
        assert _state(clock) == _state(reference)

    def test_inline_meter_site_is_one_scalar_charge(self):
        """What the hand-inlined sites do (``SimClock.meter``)."""

        inline, scalar = SimClock(), SimClock()
        ticks, meter = inline.meter("row_write", 0.1, "dlfm.row_write")
        for _ in range(5):
            inline.ticks += ticks
            meter[0] += 1
            scalar.charge("row_write", scale=0.1, label="dlfm.row_write")
        assert _state(inline) == _state(scalar)

    def test_scaled_model_and_zero_model(self):
        for factor in (0.0, 0.37, 2.0):
            model = CostModel().scaled(factor)
            batched, scalar = SimClock(model), SimClock(model)
            batched.charge_run("row_read", 1000, scale=0.1)
            _charge_one_by_one(scalar, [("row_read", 0.1, None)] * 1000)
            assert _state(batched) == _state(scalar)
