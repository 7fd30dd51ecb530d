"""Differential tests of the contact exchange loop's futile-round skip.

``ContactSimulation._on_contact_end`` fast-forwards runs of *futile
rounds* (an offer refused for threshold, then no offer back) once two in
a row have read only inside the policies' stability window.  The
reference below is the plain loop that plays every round; both run on
deep copies of the same two FAD policies, and everything observable
must come out identical: transfers and their instants, queue contents
and ledgers, estimator state, and sink deliveries.
"""

import copy
import dataclasses
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.data.regen_contact_goldens import build_configs

from repro.contact.detector import Contact
from repro.contact.policies import ContactPolicy, FadPolicy
from repro.contact.simulator import ContactSimConfig, ContactSimulation
from repro.core.message import DataMessage, MessageCopy
from repro.metrics.collector import MetricsCollector


def reference_exchange(policies: Dict[int, ContactPolicy],
                       collector: MetricsCollector, a: int, b: int,
                       start: float, end: float, budget: int) -> Tuple[int, int]:
    """The exchange loop playing every round; returns (transfers, used)."""
    transfers = 0
    if budget <= 0:
        return transfers, 0
    pa, pb = policies[a], policies[b]
    slot = (end - start) / max(budget, 1)
    used = 0
    stalled = 0
    direction = 0
    while used < budget and stalled < 2:
        src, dst = (pa, pb) if direction == 0 else (pb, pa)
        direction ^= 1
        offered = src.wants_to_send(dst, start + used * slot)
        if offered is None:
            stalled += 1
            continue
        floor = max(offered.message.created_at, offered.received_at)
        if floor > end:
            stalled += 1
            continue
        stalled = 0
        when = max(start + (used + 0.5) * slot, floor)
        if when > end:
            when = end
        stored = dst.accept(offered, src, when)
        used += 1
        if stored is None:
            continue
        src.after_transfer(offered, dst, when)
        transfers += 1
        if dst.is_sink:
            collector.record_delivery(offered, dst.node_id, when)
    return transfers, used


def policy_state(policy: ContactPolicy) -> tuple:
    """Everything the exchange can change about one policy."""
    queue = policy.queue
    return (
        [(c.message_id, c.ftd, c.hops, c.received_at) for c in queue],
        queue.sort_keys(), queue._seq, dataclasses.asdict(queue.stats),
        policy.estimator._xi, policy.estimator._last_event,
        sorted(policy.delivered_seen), policy.transfers_in,
        policy.transfers_out, getattr(policy, "sent", None),
    )


class RecordingFad(FadPolicy):
    """FAD that logs every completed transfer it sends."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sent: List[tuple] = []

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        self.sent.append((copy.message_id, peer.node_id, now))
        super().after_transfer(copy, peer, now)


def exchange_sim() -> ContactSimulation:
    """A minimal simulation whose policies a test swaps out."""
    return ContactSimulation(ContactSimConfig(n_sensors=1, n_sinks=1,
                                              duration_s=1.0))


def assert_same_exchange(policies: Dict[int, ContactPolicy], a: int, b: int,
                         start: float, end: float,
                         rate_bps: Optional[float] = None) -> None:
    """Run both loops on deep copies of ``policies`` and compare."""
    sim = exchange_sim()
    sim.policies = copy.deepcopy(policies)
    budget = sim._contact_capacity(Contact(a, b, start, end), rate_bps)
    ref_policies = copy.deepcopy(policies)
    ref_collector = MetricsCollector()
    ref_transfers, ref_used = reference_exchange(
        ref_policies, ref_collector, a, b, start, end, budget)

    sim._on_contact_end(a, b, start, end, rate_bps)

    assert sim.transfers == ref_transfers
    assert sim.usable_contacts == (1 if ref_used else 0)
    assert sim.collector.deliveries == ref_collector.deliveries
    assert sim.collector.duplicate_deliveries == ref_collector.duplicate_deliveries
    for nid in (a, b):
        assert policy_state(sim.policies[nid]) == policy_state(ref_policies[nid])


# ----------------------------------------------------------------------
# randomized pairs
# ----------------------------------------------------------------------
_xi = st.one_of(st.floats(min_value=0.5, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0))


@st.composite
def fad_pair(draw):
    """Two FAD policies around one contact, with the contact window."""
    start = draw(st.floats(min_value=0.0, max_value=500.0))
    end = start + draw(st.floats(min_value=0.5, max_value=60.0))
    rate = draw(st.sampled_from([2_000.0, 10_000.0, 40_000.0]))
    timeout = draw(st.sampled_from([5.0, 20.0, 60.0]))
    alpha = draw(st.sampled_from([0.1, 0.3, 0.6]))
    # Shared message pool, so the two queues can hold duplicates.
    n_messages = draw(st.integers(min_value=1, max_value=8))
    messages = []
    for mid in range(n_messages):
        created = draw(st.floats(min_value=start - 100.0, max_value=end + 5.0))
        messages.append(DataMessage(message_id=1_000_000 + mid, origin=2,
                                    created_at=created))
    policies: Dict[int, ContactPolicy] = {}
    for nid, may_be_sink in ((0, False), (1, True)):
        is_sink = may_be_sink and draw(st.integers(0, 4)) == 0
        policy = RecordingFad(nid, capacity=draw(st.integers(1, 6)),
                              drop_threshold=draw(st.sampled_from(
                                  [0.5, 0.9, 0.95])),
                              alpha=alpha, xi_timeout_s=timeout,
                              is_sink=is_sink)
        if not is_sink:
            policy.estimator._xi = draw(_xi)
            # Some estimators last changed mid-contact (a transfer earlier
            # in the same tick), so a read can precede ``_last_event``.
            policy.estimator._last_event = draw(st.floats(
                min_value=start - 2 * timeout, max_value=end))
            picked = draw(st.lists(st.sampled_from(messages), max_size=6,
                                   unique_by=lambda m: m.message_id))
            for message in picked:
                # Arrivals may land inside the contact, past a decay
                # boundary, or (rarely) after the window closes.
                received = draw(st.floats(
                    min_value=message.created_at,
                    max_value=max(message.created_at, end + 2.0)))
                ftd = draw(st.one_of(st.floats(min_value=0.0, max_value=0.94),
                                     st.floats(min_value=0.6, max_value=0.89)))
                policy.queue.insert(MessageCopy(message, ftd=ftd,
                                                received_at=received))
        policies[nid] = policy
    low, high = policies[0].estimator, policies[1].estimator
    if not policies[1].is_sink and draw(st.booleans()):
        # Half the time, point node 0 at the better node 1, the setting in
        # which threshold refusals repeat.
        if low._xi > high._xi:
            low._xi, high._xi = high._xi, low._xi
    return policies, start, end, rate


@given(fad_pair())
@settings(max_examples=300, deadline=None)
def test_exchange_matches_the_every_round_reference(case):
    policies, start, end, rate = case
    assert_same_exchange(policies, 0, 1, start, end, rate)


# ----------------------------------------------------------------------
# constructed and recorded cases
# ----------------------------------------------------------------------
def refusal_pair(last_event: float) -> Dict[int, ContactPolicy]:
    """Sender 0 offers a head copy that receiver 1 must refuse (Eq. 2
    puts it at the threshold) until sender 0's xi decays."""
    sender = RecordingFad(0, xi_timeout_s=60.0)
    receiver = RecordingFad(1, xi_timeout_s=60.0)
    sender.estimator._xi, sender.estimator._last_event = 0.6, last_event
    receiver.estimator._xi = 0.9
    receiver.estimator._last_event = last_event + 5.0
    message = DataMessage(message_id=2_000_000, origin=0, created_at=0.0)
    sender.queue.insert(MessageCopy(message, ftd=0.8, received_at=0.0))
    return {0: sender, 1: receiver}


def test_long_futile_contact_is_skipped_and_tallied():
    # 40 s at 10 kb/s is 200 slots, all refused: the skip must still
    # book every refusal and leave the estimators untouched.
    policies = refusal_pair(last_event=90.0)
    assert_same_exchange(policies, 0, 1, 100.0, 140.0)
    sim = exchange_sim()
    sim.policies = policies
    sim._on_contact_end(0, 1, 100.0, 140.0)
    assert policies[1].queue.stats.drops_threshold == 200
    assert policies[0].estimator._last_event == 90.0


def test_decay_boundary_inside_a_skipped_run_is_replayed():
    # The sender's xi decays at 150 s, mid-contact: rounds after the
    # boundary are played, and the decayed xi lets the copy through.
    policies = refusal_pair(last_event=90.0)
    assert_same_exchange(policies, 0, 1, 130.0, 170.0)
    sim = exchange_sim()
    sim.policies = policies
    sim._on_contact_end(0, 1, 130.0, 170.0)
    assert [round(t, 1) for _, _, t in policies[0].sent] == [150.1]


def test_contact_geo_regression_pair_matches_reference(monkeypatch):
    """Sensors 6 and 175 meet over 117-123 s in contact-geo seed 101
    member 0.  Sender 6's xi decays at 118.1 s, inside the contact, and
    turns the refusals before it into a transfer at 118.3 s; a check
    of one futile round alone would have skipped past that."""
    config = dataclasses.replace(build_configs()["bench_geo_fad"],
                                 duration_s=124.0)
    sim = ContactSimulation(config)
    exchange = sim._on_contact_end
    seen = []

    def checked(a, b, start, end, rate_bps=None):
        if (a, b, start, end) == (6, 175, 117.0, 123.0):
            pair = {6: sim.policies[6], 175: sim.policies[175]}
            ref = copy.deepcopy(pair)
            budget = sim._contact_capacity(Contact(a, b, start, end))
            accepts: List[tuple] = []
            original_accept = FadPolicy.accept

            def logged(self, offered, sender, now):
                stored = original_accept(self, offered, sender, now)
                accepts.append((round(now, 3), stored is not None))
                return stored
            monkeypatch.setattr(FadPolicy, "accept", logged)
            ref_transfers, _ = reference_exchange(
                ref, MetricsCollector(), a, b, start, end, budget)
            monkeypatch.undo()
            before = sim.transfers
            exchange(a, b, start, end, rate_bps)
            assert sim.transfers - before == ref_transfers == 1
            for nid in (6, 175):
                assert policy_state(pair[nid]) == policy_state(ref[nid])
            assert (118.1, False) in accepts and (118.3, True) in accepts
            seen.append((a, b))
            return
        exchange(a, b, start, end, rate_bps)

    sim._on_contact_end = checked
    sim.run()
    assert seen == [(6, 175)]
