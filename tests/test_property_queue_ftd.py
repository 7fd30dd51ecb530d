"""Property-based tests (Hypothesis) for the paper's core state machines.

Three structures carry the protocol's correctness burden and get
randomized coverage here:

* the FTD-sorted queue (Sec. 3.1.2) must preserve every structural
  invariant under arbitrary insert/pop/remove/reinsert sequences — we
  reuse the runtime checker's :func:`check_queue_invariants` as the
  oracle after every single operation — and must answer every query
  exactly as a plain list-scan reference queue does;
* the FTD algebra (Eq. 2-3) must map probabilities to probabilities;
* the delivery-probability estimator (Eq. 1) must keep xi in [0, 1]
  under any interleaving of transmission updates and decay timeouts.
"""

import bisect
import math
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checks.invariants import check_queue_invariants
from repro.core.delivery import DeliveryProbabilityEstimator
from repro.core.ftd import (
    combined_delivery_probability,
    receiver_copy_ftd,
    sender_ftd_after_multicast,
)
from repro.core.message import DataMessage, MessageCopy, fresh_message_id
from repro.core.params import ProtocolParameters
from repro.core.queue import FtdQueue, QueueStats
from repro.des.scheduler import EventScheduler

probability = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: One queue operation: ("insert", ftd) | ("pop",) | ("remove", idx) |
#: ("reinsert", ftd).  Indices/FTDs are reinterpreted against the live
#: queue state when the sequence is executed.
queue_op = st.one_of(
    st.tuples(st.just("insert"), probability),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("reinsert"), probability),
)


def fresh_copy(ftd):
    msg = DataMessage(fresh_message_id(), origin=0, created_at=0.0)
    return MessageCopy(msg, ftd=ftd)


class TestQueueProperties:
    @given(st.lists(queue_op, max_size=60),
           st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_any_operation_sequence_preserves_invariants(
            self, ops, capacity, drop_threshold):
        q = FtdQueue(capacity, drop_threshold=drop_threshold)
        for op in ops:
            if op[0] == "insert":
                q.insert(fresh_copy(op[1]))
            elif op[0] == "pop" and len(q):
                q.pop()
            elif op[0] == "remove" and len(q):
                target = list(q)[op[1] % len(q)].message_id
                q.remove(target)
            elif op[0] == "reinsert" and len(q):
                head = q.pop()
                # Eq. 3 only ever raises the sender's FTD.
                q.reinsert_with_ftd(head, min(1.0, head.ftd + op[1]))
            check_queue_invariants(q)

    @given(st.lists(probability, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_head_is_always_a_minimum(self, ftds):
        q = FtdQueue(capacity=50)
        for ftd in ftds:
            q.insert(fresh_copy(ftd))
        if len(q):
            head = q.peek()
            assert all(head.ftd <= c.ftd for c in q)

    @given(st.lists(probability, min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_equal_ftds_drain_in_fifo_order(self, ftds):
        q = FtdQueue(capacity=50)
        ids = []
        for _ in ftds:
            copy = fresh_copy(0.5)
            ids.append(copy.message_id)
            q.insert(copy)
        drained = [q.pop().message_id for _ in range(len(q))]
        assert drained == ids


class ListScanQueue:
    """Reference FTD queue that finds and counts copies by linear scans.

    It restates the Sec. 3.1.2 rules in the most direct form — every
    lookup walks the list, every count sums over it — so the indexed
    :class:`FtdQueue` can be checked against it op by op.
    """

    def __init__(self, capacity, drop_threshold):
        self.capacity = capacity
        self.drop_threshold = drop_threshold
        self.keys = []
        self.copies = []
        self.seq = 0
        self.stats = QueueStats()

    def __len__(self):
        return len(self.copies)

    def __iter__(self):
        return iter(list(self.copies))

    def __contains__(self, message_id):
        return any(c.message_id == message_id for c in self.copies)

    def find(self, message_id):
        for i, c in enumerate(self.copies):
            if c.message_id == message_id:
                return i
        return None

    def insort(self, copy):
        key = (copy.ftd, self.seq)
        self.seq += 1
        idx = bisect.bisect_left(self.keys, key)
        self.keys.insert(idx, key)
        self.copies.insert(idx, copy)

    def pop_index(self, idx):
        self.keys.pop(idx)
        return self.copies.pop(idx)

    def insert(self, copy):
        if copy.ftd >= self.drop_threshold:
            self.stats.drops_threshold += 1
            return False
        existing = self.find(copy.message_id)
        if existing is not None:
            self.stats.duplicates_merged += 1
            if copy.ftd < self.copies[existing].ftd:
                old = self.pop_index(existing)
                self.insort(MessageCopy(
                    old.message, ftd=copy.ftd, hops=min(old.hops, copy.hops),
                    received_at=old.received_at))
            return True
        self.insort(copy)
        self.stats.inserted += 1
        if len(self.copies) > self.capacity:
            self.pop_index(len(self.copies) - 1)
            self.stats.drops_overflow += 1
            return self.find(copy.message_id) is not None
        return True

    def pop(self):
        self.stats.popped += 1
        return self.pop_index(0)

    def remove(self, message_id):
        idx = self.find(message_id)
        if idx is None:
            return None
        self.stats.removed_delivered += 1
        return self.pop_index(idx)

    def reinsert_with_ftd(self, copy, new_ftd):
        updated = MessageCopy(copy.message, ftd=min(1.0, new_ftd),
                              hops=copy.hops, received_at=copy.received_at)
        if updated.ftd >= self.drop_threshold:
            self.stats.drops_threshold += 1
            return False
        self.insort(updated)
        self.stats.reinserted += 1
        if len(self.copies) > self.capacity:
            self.pop_index(len(self.copies) - 1)
            self.stats.drops_overflow += 1
            return self.find(updated.message_id) is not None
        return True

    def purge(self):
        purged = len(self.copies)
        self.stats.purged += purged
        self.copies.clear()
        self.keys.clear()
        return purged

    def available_slots_for(self, ftd):
        return (self.capacity - len(self.copies)
                + sum(1 for c in self.copies if c.ftd > ftd))

    def count_more_important_than(self, ftd_bound):
        return sum(1 for c in self.copies if c.ftd < ftd_bound)


def copy_fields(copy):
    """Everything observable about a copy (merges build new objects)."""
    if copy is None:
        return None
    return (copy.message_id, copy.ftd, copy.hops, copy.received_at)


#: FTDs rich in ties, both zeros and values at/near the drop thresholds.
tie_ftd = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.875, 0.9, 1.0]), probability)

#: One differential op.  Message slots index a small per-example pool,
#: so inserts hit fresh and already-queued ids alike (the merge path)
#: and removes hit present and absent ids.
diff_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 7), tie_ftd,
              st.integers(0, 3)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("reinsert"), tie_ftd),
    st.tuples(st.just("purge")),
)


def run_against_reference(ops, capacity, drop_threshold):
    """Apply ``ops`` to an :class:`FtdQueue` and a :class:`ListScanQueue`,
    asserting identical answers after every op; returns the set of
    queue paths the sequence exercised."""
    q = FtdQueue(capacity, drop_threshold=drop_threshold)
    ref = ListScanQueue(capacity, drop_threshold)
    pool = [DataMessage(fresh_message_id(), origin=0, created_at=0.0)
            for _ in range(8)]
    never_queued = fresh_message_id()
    paths = set()
    for op in ops:
        if op[0] == "insert":
            _, slot, ftd, hops = op
            mid = pool[slot].message_id
            if ftd < drop_threshold and mid in ref:
                held = ref.copies[ref.find(mid)].ftd
                paths.add("merge_lower" if ftd < held else "merge_higher")
            out = q.insert(MessageCopy(pool[slot], ftd=ftd, hops=hops))
            expected = ref.insert(MessageCopy(pool[slot], ftd=ftd, hops=hops))
            if not expected and ftd < drop_threshold:
                paths.add("overflow_self")
        elif op[0] == "pop":
            if not len(ref):
                with pytest.raises(IndexError):
                    q.pop()
                continue
            paths.add("pop")
            out, expected = copy_fields(q.pop()), copy_fields(ref.pop())
        elif op[0] == "remove":
            mid = pool[op[1]].message_id
            if mid not in ref:
                paths.add("remove_absent")
            out = copy_fields(q.remove(mid))
            expected = copy_fields(ref.remove(mid))
        elif op[0] == "reinsert":
            if not len(ref):
                continue
            paths.add("reinsert")
            out = q.reinsert_with_ftd(q.pop(), op[1])
            expected = ref.reinsert_with_ftd(ref.pop(), op[1])
        else:
            paths.add("purge")
            out, expected = q.purge(), ref.purge()
        assert out == expected, op

        for msg in pool:
            assert (msg.message_id in q) == (msg.message_id in ref)
        assert never_queued not in q
        assert len(q) == len(ref)
        assert [copy_fields(c) for c in q] == [copy_fields(c) for c in ref]
        assert copy_fields(q.peek()) == copy_fields(
            ref.copies[0] if ref.copies else None)
        bounds = [c.ftd for c in ref] + [0.0, -0.0, 0.5, 0.9, 1.0, math.nan]
        for bound in bounds:
            assert (q.available_slots_for(bound)
                    == ref.available_slots_for(bound)), bound
            assert (q.count_more_important_than(bound)
                    == ref.count_more_important_than(bound)), bound
        assert astuple(q.stats) == astuple(ref.stats)
        check_queue_invariants(q)
    return paths


#: A scripted sequence that walks every path the differential test names.
EVERY_PATH = [
    ("insert", 0, 0.5, 2), ("insert", 0, 0.25, 1),   # merge, lower FTD
    ("insert", 0, 0.75, 0),                          # merge, higher FTD
    ("insert", 1, 0.5, 0), ("insert", 2, 0.0, 0),
    ("insert", 3, 0.8, 0),                           # overflow drops itself
    ("remove", 7, ),                                 # absent id
    ("pop",), ("reinsert", 0.125), ("purge",), ("pop",),
]


class TestQueueMatchesListScanReference:
    @given(st.lists(diff_op, max_size=60),
           st.integers(min_value=1, max_value=5),
           st.sampled_from([0.5, 0.875, 0.9, 1.0]))
    @example(EVERY_PATH, 3, 0.9)
    @settings(max_examples=200, deadline=None)
    def test_every_answer_matches_the_reference(self, ops, capacity,
                                                drop_threshold):
        run_against_reference(ops, capacity, drop_threshold)

    def test_scripted_sequence_covers_every_path(self):
        paths = run_against_reference(EVERY_PATH, 3, 0.9)
        assert paths == {"merge_lower", "merge_higher", "overflow_self",
                         "remove_absent", "pop", "reinsert", "purge"}



class TestFtdAlgebraProperties:
    @given(probability, probability,
           st.lists(probability, min_size=1, max_size=6),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_receiver_ftd_is_a_probability(self, f, xi, xis, data):
        j = data.draw(st.integers(min_value=0, max_value=len(xis) - 1))
        out = receiver_copy_ftd(f, xi, xis, j)
        assert 0.0 <= out <= 1.0

    @given(probability, st.lists(probability, min_size=0, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_sender_ftd_is_a_probability_and_never_decreases(self, f, xis):
        out = sender_ftd_after_multicast(f, xis)
        assert 0.0 <= out <= 1.0
        # Multicasting only adds redundancy (Eq. 3 is monotone in F).
        assert out >= f - 1e-12

    @given(probability, st.lists(probability, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_combined_matches_closed_form(self, f, xis):
        # isclose, not ==: the implementation folds the product in a
        # different association order, so the last bit can differ (the
        # exact trap lint rule FLT001 exists for).
        expected = 1.0 - (1.0 - f) * math.prod(1.0 - x for x in xis)
        assert math.isclose(combined_delivery_probability(f, xis),
                            min(1.0, max(0.0, expected)),
                            rel_tol=1e-12, abs_tol=1e-12)


class TestDeliveryEstimatorProperties:
    @given(probability,
           st.lists(st.tuples(
               st.booleans(),
               st.lists(probability, min_size=1, max_size=4)),
               max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_xi_stays_in_unit_interval(self, initial, steps):
        params = ProtocolParameters()
        est = DeliveryProbabilityEstimator(params, EventScheduler(),
                                           initial_xi=initial)
        for is_timeout, xis in steps:
            if is_timeout:
                est._on_timeout()  # the Eq. 1 decay branch
            else:
                est.on_transmission(xis)
            assert 0.0 <= est.xi <= 1.0

    @given(probability, st.lists(probability, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_sink_contact_pulls_xi_up(self, initial, xis):
        params = ProtocolParameters()
        est = DeliveryProbabilityEstimator(params, EventScheduler(),
                                           initial_xi=initial)
        before = est.xi
        est.on_transmission(list(xis) + [1.0])  # a sink acknowledged
        # The "best" rule folds in max xi = 1: xi' = xi + alpha*(1 - xi).
        # Strict increase only holds away from 1, where alpha*(1 - xi)
        # is still representable (at xi = 1 - ulp it rounds away).
        assert est.xi >= before
        if before < 0.999:
            assert est.xi > before
