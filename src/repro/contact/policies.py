"""Routing policies for the contact-level simulator.

Each policy owns one node's buffer and forwarding decisions.  The
simulator drives pairwise exchanges at contact granularity; policies
decide what to offer a peer, what to accept, and how local state
(delivery-probability estimates, copy FTDs, spray budgets) updates after
a transfer.

The FAD policy reuses the exact Eq. 1-3 machinery of :mod:`repro.core`,
so the contact-level and packet-level stacks share one source of truth
for the paper's mathematics.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional

from repro.core.ftd import receiver_copy_ftd, sender_ftd_after_multicast
from repro.core.message import DataMessage, MessageCopy
from repro.core.queue import FtdQueue


class LazyXiEstimator:
    """Eq. 1 dynamics without a scheduler: decay is applied lazily.

    Between updates, ``floor((now - last_event) / timeout)`` decay steps
    are applied on read — equivalent to the timer-driven estimator when
    events are processed in time order.

    Stability contract: a read changes state only when it crosses a
    decay boundary, ``last_event + timeout``.  Every read before
    :meth:`stable_until` returns the current estimate and leaves the
    estimator untouched, which lets the contact exchange loop skip
    rounds that would only repeat such reads.
    """

    def __init__(self, alpha: float = 0.3, timeout_s: float = 60.0,
                 initial_xi: float = 0.0) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if not 0.0 <= initial_xi <= 1.0:
            raise ValueError("initial xi must be in [0, 1]")
        self.alpha = alpha
        self.timeout_s = timeout_s
        self._xi = initial_xi
        self._last_event = 0.0

    def xi(self, now: float) -> float:
        """Current estimate, with pending decay applied."""
        self._apply_decay(now)
        return self._xi

    def stable_until(self) -> float:
        """A time before which no read changes the estimator's state.

        The next decay boundary, less a margin that absorbs the rounding
        of ``(now - last_event) / timeout`` in :meth:`_apply_decay`.
        """
        boundary = self._last_event + self.timeout_s
        return boundary - 1e-9 * (abs(self._last_event) + self.timeout_s)

    def on_transmission(self, receiver_xi: float, now: float) -> float:
        """Eq. 1 transmission branch (single receiver)."""
        if not 0.0 <= receiver_xi <= 1.0:
            raise ValueError("receiver xi must be in [0, 1]")
        self._apply_decay(now)
        self._xi = (1.0 - self.alpha) * self._xi + self.alpha * receiver_xi
        self._last_event = now
        return self._xi

    def _apply_decay(self, now: float) -> None:
        if now < self._last_event:
            # Contact exchanges are processed at contact *end*, so reads
            # within one tick can arrive slightly out of order; skip the
            # (sub-timeout) decay rather than reject them.
            return
        steps = int((now - self._last_event) / self.timeout_s)
        if steps > 0:
            self._xi *= (1.0 - self.alpha) ** steps
            self._last_event += steps * self.timeout_s


class ContactPolicy(abc.ABC):
    """One node's buffer + forwarding logic at contact granularity."""

    def __init__(self, node_id: int, capacity: int = 200,
                 drop_threshold: float = 1.0, is_sink: bool = False) -> None:
        self.node_id = node_id
        self.is_sink = is_sink
        self.queue = FtdQueue(capacity, drop_threshold=drop_threshold)
        #: Message ids a sink has already consumed (replication-based
        #: policies use this to stop re-offering delivered messages).
        self.delivered_seen: set = set()
        self.transfers_out = 0
        self.transfers_in = 0

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def metric(self, now: float) -> float:
        """The node's advertised delivery metric (xi / history / 0)."""

    @abc.abstractmethod
    def wants_to_send(self, peer: "ContactPolicy", now: float) -> Optional[MessageCopy]:
        """The next copy to push to ``peer``, or None."""

    @abc.abstractmethod
    def after_transfer(self, copy: MessageCopy, peer: "ContactPolicy",
                       now: float) -> None:
        """Sender-side state update after ``peer`` accepted ``copy``."""

    def metric_stable_until(self, now: float) -> float:
        """A time before which this policy's reads change nothing.

        The promise covers :meth:`metric`, :meth:`wants_to_send`,
        :meth:`incoming_copy` and a threshold refusal in :meth:`accept`:
        called before the returned time, with the node's state otherwise
        unchanged, they return the same answers and alter no state, except
        that a refusal adds one to ``queue.stats.drops_threshold`` (the
        contact level binds no telemetry bus to its queues, so a refusal
        emits nothing).  The exchange loop relies on it to fast-forward
        repeated refusals.  The default, ``now``, promises nothing.
        """
        return now

    def accept(self, copy: MessageCopy, sender: "ContactPolicy",
               now: float) -> Optional[MessageCopy]:
        """Receiver-side: store (or consume) an incoming copy.

        Returns the stored copy (for delay bookkeeping), or None if the
        copy was refused.  Sinks consume everything.
        """
        incoming = self.incoming_copy(copy, sender, now)
        if self.is_sink:
            self.delivered_seen.add(copy.message_id)
            self.transfers_in += 1
            return incoming
        if self.queue.insert(incoming):
            self.transfers_in += 1
            return incoming
        return None

    def incoming_copy(self, copy: MessageCopy, sender: "ContactPolicy",
                      now: float) -> MessageCopy:
        """The copy as stored at this receiver (FTD assignment hook)."""
        return copy.forwarded(0.0, now)

    def enqueue_new(self, message: DataMessage) -> None:
        """A locally sensed message enters the buffer."""
        self.queue.insert(MessageCopy(message, ftd=0.0, hops=0,
                                      received_at=message.created_at))


class FadPolicy(ContactPolicy):
    """The paper's fault-tolerance-based forwarding at contact level.

    Single-receiver specialization of Sec. 3: a peer with strictly
    higher xi (or a sink) receives the lowest-FTD message; Eq. 2 sets
    the transferred copy's FTD, Eq. 3 the local copy's, Eq. 1 the xi.
    """

    def __init__(self, node_id: int, capacity: int = 200,
                 drop_threshold: float = 0.9, alpha: float = 0.3,
                 xi_timeout_s: float = 60.0, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, drop_threshold, is_sink)
        self.estimator = LazyXiEstimator(alpha, xi_timeout_s,
                                         initial_xi=1.0 if is_sink else 0.0)

    def metric(self, now: float) -> float:
        """Eq. 1 delivery probability (1.0 for sinks)."""
        if self.is_sink:
            return 1.0
        return self.estimator.xi(now)

    def metric_stable_until(self, now: float) -> float:
        """Reads are stable until the next decay boundary (forever for
        sinks, whose metric is constant)."""
        if self.is_sink:
            return math.inf
        return self.estimator.stable_until()

    def wants_to_send(self, peer: ContactPolicy, now: float) -> Optional[MessageCopy]:
        """Offer the lowest-FTD message to a strictly better peer."""
        if self.is_sink:
            return None
        if not (peer.is_sink or peer.metric(now) > self.metric(now)):
            return None
        head = self.queue.peek()
        if head is None:
            return None
        if not peer.is_sink:
            if peer.queue.available_slots_for(head.ftd) <= 0:
                return None
        return head

    def incoming_copy(self, copy: MessageCopy, sender: ContactPolicy,
                      now: float) -> MessageCopy:
        """Assign the Eq. 2 FTD to the received copy."""
        sender_xi = sender.metric(now)
        ftd = receiver_copy_ftd(copy.ftd, sender_xi, [self.metric(now)], 0)
        return copy.forwarded(ftd, now)

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Apply Eq. 1 to xi and Eq. 3 to the local copy's FTD."""
        peer_xi = peer.metric(now)
        self.estimator.on_transmission(peer_xi, now)
        new_ftd = sender_ftd_after_multicast(copy.ftd, [peer_xi])
        self.queue.remove(copy.message_id)
        self.queue.reinsert_with_ftd(copy, new_ftd)
        self.transfers_out += 1


class DirectPolicy(ContactPolicy):
    """Source-to-sink only (the low-overhead extreme of [5])."""

    def metric(self, now: float) -> float:
        """Sinks are certain; sensors advertise nothing."""
        return 1.0 if self.is_sink else 0.0

    def wants_to_send(self, peer: ContactPolicy, now: float) -> Optional[MessageCopy]:
        """Only sink encounters trigger a transfer."""
        if self.is_sink or not peer.is_sink:
            return None
        return self.queue.peek()

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """The single copy moved to the sink: forget it."""
        self.queue.remove(copy.message_id)
        self.transfers_out += 1


class EpidemicPolicy(ContactPolicy):
    """Flood to every peer with buffer room (the high-overhead extreme).

    Offers, in FIFO order, messages the peer does not already hold.
    """

    def metric(self, now: float) -> float:
        """Flooding ignores metrics."""
        return 1.0 if self.is_sink else 0.0

    def wants_to_send(self, peer: ContactPolicy, now: float) -> Optional[MessageCopy]:
        """Offer (FIFO) any message the peer does not already hold."""
        if self.is_sink:
            return None
        for copy in self.queue:
            if peer.is_sink:
                if copy.message_id in peer.delivered_seen:
                    # Sink-side immunization: the sink already has it, so
                    # cure this replica instead of wasting contact budget.
                    self.queue.remove(copy.message_id)
                    continue
                return copy
            if copy.message_id not in peer.queue and peer.queue.free_slots > 0:
                return copy
        return None

    def accept(self, copy: MessageCopy, sender: ContactPolicy,
               now: float) -> Optional[MessageCopy]:
        """Store the replica, evicting the oldest on overflow."""
        # Epidemic uses drop-oldest on overflow: with drop-newest the
        # buffer freezes on the oldest 200 messages and fresh traffic
        # never propagates (delivery collapses below even direct
        # transmission).  Dropping the head keeps the flood current.
        if not self.is_sink and self.queue.free_slots == 0:
            if copy.message_id not in self.queue:
                self.queue.pop()
        return super().accept(copy, sender, now)

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Keep replicating; only a sink transfer retires the local copy."""
        self.transfers_out += 1
        if peer.is_sink:
            self.queue.remove(copy.message_id)


class ZbrHistoryPolicy(ContactPolicy):
    """ZebraNet: single-copy custody to strictly better sink history."""

    def __init__(self, node_id: int, capacity: int = 200, alpha: float = 0.3,
                 xi_timeout_s: float = 60.0, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, 1.0, is_sink)
        self.history = LazyXiEstimator(alpha, xi_timeout_s,
                                       initial_xi=1.0 if is_sink else 0.0)

    def metric(self, now: float) -> float:
        """Direct-to-sink success history (1.0 for sinks)."""
        if self.is_sink:
            return 1.0
        return self.history.xi(now)

    def wants_to_send(self, peer: ContactPolicy, now: float) -> Optional[MessageCopy]:
        """Custody transfer toward a strictly better history."""
        if self.is_sink:
            return None
        if not (peer.is_sink or peer.metric(now) > self.metric(now)):
            return None
        if not peer.is_sink and peer.queue.free_slots <= 0:
            return None
        return self.queue.peek()

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Release custody; direct sink contact raises the history."""
        self.queue.remove(copy.message_id)
        self.transfers_out += 1
        if peer.is_sink:
            self.history.on_transmission(1.0, now)


class SprayAndWaitPolicy(ContactPolicy):
    """Binary Spray-and-Wait (Spyropoulos et al.) — a classic DTN
    comparator added as an extension.

    Each message starts with ``initial_copies`` logical copies; on
    contact a carrier holding ``n > 1`` copies hands ``floor(n/2)`` to
    the peer; carriers with one copy wait for a sink.
    """

    def __init__(self, node_id: int, capacity: int = 200,
                 initial_copies: int = 8, is_sink: bool = False) -> None:
        super().__init__(node_id, capacity, 1.0, is_sink)
        if initial_copies < 1:
            raise ValueError("need at least one copy")
        self.initial_copies = initial_copies
        self.copy_budget: Dict[int, int] = {}

    def metric(self, now: float) -> float:
        """Spray-and-wait ignores metrics."""
        return 1.0 if self.is_sink else 0.0

    def enqueue_new(self, message: DataMessage) -> None:
        """New messages start with the full spray budget."""
        super().enqueue_new(message)
        self.copy_budget[message.message_id] = self.initial_copies

    def wants_to_send(self, peer: ContactPolicy, now: float) -> Optional[MessageCopy]:
        """Spray while the budget exceeds one; wait for a sink after."""
        if self.is_sink:
            return None
        for copy in self.queue:
            if peer.is_sink:
                if copy.message_id in peer.delivered_seen:
                    self.queue.remove(copy.message_id)
                    self.copy_budget.pop(copy.message_id, None)
                    continue
                return copy
            budget = self.copy_budget.get(copy.message_id, 1)
            if (budget > 1 and copy.message_id not in peer.queue
                    and peer.queue.free_slots > 0):
                return copy
        return None

    def after_transfer(self, copy: MessageCopy, peer: ContactPolicy,
                       now: float) -> None:
        """Binary split: hand half the remaining copy budget to the peer."""
        self.transfers_out += 1
        if peer.is_sink:
            self.queue.remove(copy.message_id)
            self.copy_budget.pop(copy.message_id, None)
            return
        budget = self.copy_budget.get(copy.message_id, 1)
        given = budget // 2
        self.copy_budget[copy.message_id] = budget - given
        if isinstance(peer, SprayAndWaitPolicy):
            peer.copy_budget[copy.message_id] = max(
                given, peer.copy_budget.get(copy.message_id, 0))
