"""Wrap each layer's public functions in spans, from outside ``src/``.

:class:`Probes` patches class attributes (and one module function) with
:class:`~spans.SpanRecorder` wrappers, and :meth:`Probes.uninstall` puts
every original back.  Scheduled callbacks are wrapped as they are handed
to ``EventScheduler.schedule``/``schedule_at`` and named after the layer
their ``__module__`` belongs to, so packet-level event time lands in the
layer whose code runs.  The radio hooks a MAC agent installs on its
transceiver (``on_frame`` and friends) are instance attributes and are
wrapped per simulation by :meth:`Probes.wrap_radio_hooks`.

:data:`PER_LAYER` names every per-layer metric; :meth:`Probes.metrics`
computes them from the recorder after a traced run.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

#: Module prefix -> layer, first match wins.  Unlisted modules (network,
#: traffic, metrics, checks) are ``other``.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.des", "des"),
    ("repro.mobility", "mobility"),
    ("repro.radio", "radio"),
    ("repro.energy", "energy"),
    ("repro.core", "core"),
    ("repro.protocols", "core"),
    ("repro.baselines", "core"),
    ("repro.contact", "contact"),
    ("repro.scenario", "scenario"),
    ("repro.obs", "obs"),
    ("repro.trace", "obs"),
)

LAYERS = ("des", "mobility", "radio", "energy", "core", "contact",
          "scenario", "obs", "other")

#: Every per-layer metric: name -> (unit, which direction is better).
#: Work counts are "lower": the same result from less work.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "des.events": ("count", "lower"),
    "des.scheduled": ("count", "lower"),
    "des.cancelled_ratio": ("ratio", "lower"),
    "des.self_s": ("s", "lower"),
    "mobility.steps": ("count", "lower"),
    "mobility.step_s": ("s", "lower"),
    "mobility.queries": ("count", "lower"),
    "mobility.query_s": ("s", "lower"),
    "mobility.memo_hit_ratio": ("ratio", "higher"),
    "mobility.self_s": ("s", "lower"),
    "radio.transmissions": ("count", "lower"),
    "radio.tx_s": ("s", "lower"),
    "radio.carrier_sense": ("count", "lower"),
    "radio.carrier_sense_s": ("s", "lower"),
    "radio.corrupt_ratio": ("ratio", "lower"),
    "radio.self_s": ("s", "lower"),
    "energy.transitions": ("count", "lower"),
    "energy.self_s": ("s", "lower"),
    "energy.avg_power_mw": ("mW", "lower"),
    "core.self_s": ("s", "lower"),
    "core.handshake_success_ratio": ("ratio", "higher"),
    "core.queue_ops": ("count", "lower"),
    "core.queue_s": ("s", "lower"),
    "core.queue_membership_calls": ("count", "lower"),
    "contact.scans": ("count", "lower"),
    "contact.scan_s": ("s", "lower"),
    "contact.usable_ratio": ("ratio", "higher"),
    "contact.offers": ("count", "lower"),
    "contact.offer_s": ("s", "lower"),
    "contact.accepts": ("count", "lower"),
    "contact.accept_s": ("s", "lower"),
    "contact.transfer_ratio": ("ratio", "higher"),
    "contact.xi_reads": ("count", "lower"),
    "contact.xi_s": ("s", "lower"),
    "contact.self_s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "scenario.self_s": ("s", "lower"),
    "obs.emits": ("count", "lower"),
    "obs.emit_s": ("s", "lower"),
    "obs.write_s": ("s", "lower"),
    "obs.self_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "trace.run_cpu_s": ("s", "lower"),
    "trace.untraced_cpu_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
}

#: Public ``FtdQueue`` methods (plus the ``free_slots`` property).
_QUEUE_METHODS = ("insert", "peek", "pop", "remove", "reinsert_with_ftd",
                  "purge", "sort_keys", "available_slots_for",
                  "count_more_important_than", "importance_fraction",
                  "__len__", "__iter__")

#: Transceiver entry points; ``transmit`` is wrapped separately.
_RADIO_METHODS = ("sleep", "wake", "channel_busy", "deliver",
                  "notify_collision", "lpl_wake")

#: Callback attributes a protocol agent sets on its transceiver.
_RADIO_HOOKS = ("on_frame", "on_collision", "on_lpl_wake")

_MISSING = object()


def layer_of_module(module: str) -> str:
    """The layer a module belongs to."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Probes:
    """The installed wrappers of one traced run."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        # (owner, attribute, original, owner had its own attribute)
        self._patched: List[Tuple[Any, str, Any, bool]] = []
        self._layer_cache: Dict[str, str] = {}
        self._seen_this_tick: set = set()
        self._timer_cls: Optional[type] = None

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original, own))
        wrapper = make(original)
        if not isinstance(wrapper, property):
            # Keep the original's module, so a patched method handed to
            # the scheduler is still charged to its own layer.
            functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every probed function (idempotence is not supported)."""
        from repro.contact.detector import ContactTracer
        from repro.contact.policies import ContactPolicy, LazyXiEstimator
        from repro.contact.simulator import ContactSimulation
        from repro.core.queue import FtdQueue
        from repro.des.scheduler import EventScheduler
        from repro.des.timer import Timer
        from repro.energy.model import EnergyMeter
        from repro.mobility.manager import MobilityManager
        from repro.network.simulation import Simulation
        from repro.obs.bus import TelemetryBus
        from repro.obs.export import CsvTraceWriter, JsonlTraceWriter
        from repro.radio.medium import WirelessMedium
        from repro.radio.transceiver import Transceiver
        importlib.import_module("repro.protocols")  # registers every policy

        rec = self.recorder
        wrap = rec.wrap
        self._timer_cls = Timer

        # des: the loop, scheduling, and every scheduled callback.
        self._patch(EventScheduler, "run_until",
                    lambda f: wrap("des.run_until", f, record=True))
        self._patch(EventScheduler, "schedule", self._schedule_probe)
        self._patch(EventScheduler, "schedule_at", self._schedule_probe)

        # mobility
        self._patch(MobilityManager, "step", self._step_probe)
        query_group = [0]
        for attr in ("neighbors_of", "neighbor_set", "in_range"):
            self._patch(MobilityManager, attr,
                        lambda f: self._query_probe(f, query_group))

        # radio
        self._patch(WirelessMedium, "begin_transmission",
                    lambda f: wrap("radio.tx", f))
        self._patch(WirelessMedium, "channel_busy",
                    lambda f: wrap("radio.carrier_sense", f))
        self._patch(Transceiver, "transmit", self._transmit_probe)
        for attr in _RADIO_METHODS:
            self._patch(Transceiver, attr,
                        lambda f: wrap("radio.transceiver", f))

        # energy
        self._patch(EnergyMeter, "transition",
                    lambda f: wrap("energy.transition", f))
        self._patch(EnergyMeter, "add_energy",
                    lambda f: wrap("energy.add_energy", f))

        # core: the FTD queue's public surface
        queue_group = [0]
        for attr in _QUEUE_METHODS:
            self._patch(FtdQueue, attr, lambda f: rec.wrap_outermost(
                "core.queue", f, queue_group))
        self._patch(FtdQueue, "__contains__", lambda f: rec.wrap_outermost(
            "core.queue_contains", f, queue_group))
        self._patch(FtdQueue, "free_slots", lambda p: property(
            rec.wrap_outermost("core.queue", p.fget, queue_group)))

        # contact
        self._patch(ContactTracer, "scan", lambda f: wrap("contact.scan", f))
        # The exchange is private: without it, its time stays with the
        # span that triggered it (the bus emit, or run() when replaying).
        if hasattr(ContactSimulation, "_on_contact_end"):
            self._patch(ContactSimulation, "_on_contact_end",
                        lambda f: wrap("contact.exchange", f))
        self._patch(LazyXiEstimator, "xi", lambda f: wrap("contact.xi", f))
        offer_group, accept_group = [0], [0]
        for cls in _subclasses(ContactPolicy):
            if "wants_to_send" in vars(cls):
                self._patch(cls, "wants_to_send", lambda f: rec.wrap_outermost(
                    "contact.offer", f, offer_group))
            if "accept" in vars(cls):
                self._patch(cls, "accept", lambda f: rec.wrap_outermost(
                    "contact.accept", f, accept_group))

        # scenario: the plan parser, looked up as a module global by
        # load_contact_plan and resolve_plan.
        plan_module = importlib.import_module("repro.scenario.plan")
        self._patch(plan_module, "parse_contact_plan",
                    lambda f: wrap("scenario.parse", f, record=True))

        # obs
        self._patch(TelemetryBus, "emit", lambda f: wrap("obs.emit", f))
        for writer in (JsonlTraceWriter, CsvTraceWriter):
            self._patch(writer, "write", lambda f: wrap("obs.write", f))

        # roots
        self._patch(Simulation, "run",
                    lambda f: wrap("other.run", f, record=True))
        self._patch(ContactSimulation, "run",
                    lambda f: wrap("contact.run", f, record=True))

    def uninstall(self) -> List[str]:
        """Put every original back, newest patch first.

        Returns the attributes that do not hold their original afterwards
        (empty when the restore is complete).
        """
        undone, self._patched = self._patched[::-1], []
        for owner, attr, original, own in undone:
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original, own in undone
                if vars(owner).get(attr, _MISSING)
                is not (original if own else _MISSING)]

    # ------------------------------------------------------------------
    # probes with bookkeeping beyond a span
    # ------------------------------------------------------------------
    def _schedule_probe(self, original: Callable[..., Any]) -> Callable[..., Any]:
        rec = self.recorder
        spanned = rec.wrap("des.schedule", original)
        callback_span = self.callback_span

        def schedule(sched: Any, when: float, callback: Callable[..., Any],
                     *args: Any, **kwargs: Any) -> Any:
            rec.count("des.scheduled")
            return spanned(sched, when, callback_span(callback), *args,
                           **kwargs)
        return schedule

    def callback_span(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """``callback`` wrapped in a ``<layer>.callback`` span.

        The layer is that of the callback's module; a ``Timer`` firing is
        charged to the layer of the callback the timer wraps.
        """
        target = callback
        owner = getattr(callback, "__self__", None)
        if self._timer_cls is not None and isinstance(owner, self._timer_cls):
            target = getattr(owner, "_callback", callback)
        module = getattr(target, "__module__", None) or ""
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return self.recorder.wrap(f"{layer}.callback", callback)

    def _step_probe(self, original: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self.recorder.wrap("mobility.step", original)
        seen = self._seen_this_tick

        def step(manager: Any, dt: float) -> Any:
            seen.clear()
            return spanned(manager, dt)
        return step

    def _query_probe(self, original: Callable[..., Any],
                     group: List[int]) -> Callable[..., Any]:
        rec = self.recorder
        spanned = rec.wrap_outermost("mobility.query", original, group)
        seen = self._seen_this_tick

        def query(manager: Any, node: int, *args: Any) -> Any:
            if not group[0]:
                key = (id(manager), node)
                if key in seen:
                    rec.count("mobility.memo_hits")
                else:
                    seen.add(key)
            return spanned(manager, node, *args)
        return query

    def _transmit_probe(self, original: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self.recorder.wrap("radio.transceiver", original)
        callback_span = self.callback_span

        def transmit(radio: Any, frame: Any, on_done: Any = None) -> Any:
            if on_done is not None:
                on_done = callback_span(on_done)
            return spanned(radio, frame, on_done)
        return transmit

    def wrap_radio_hooks(self, sim: Any) -> None:
        """Wrap the agent callbacks installed on each node's transceiver.

        Instance attributes of one simulation: they die with it, so there
        is nothing to restore.
        """
        for node in list(sim.sinks) + list(sim.sensors):
            radio = node.radio
            for attr in _RADIO_HOOKS:
                hook = getattr(radio, attr, None)
                if hook is not None:
                    setattr(radio, attr, self.callback_span(hook))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """The span-derived part of :data:`PER_LAYER` (run phase only);
        the traced run adds the metrics read off the simulation result."""
        agg = self.recorder.aggregates
        cnt = self.recorder.counters

        def calls(name: str) -> int:
            return int(agg[name][0]) if name in agg else 0

        def total(name: str) -> float:
            return agg[name][1] if name in agg else 0.0

        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                cell[2] for name, cell in agg.items()
                if name.split(".", 1)[0] == layer)
        queries = calls("mobility.query")
        out.update({
            "des.scheduled": cnt.get("des.scheduled", 0),
            "mobility.steps": calls("mobility.step"),
            "mobility.step_s": total("mobility.step"),
            "mobility.queries": queries,
            "mobility.query_s": total("mobility.query"),
            "mobility.memo_hit_ratio": cnt.get("mobility.memo_hits", 0) / queries if queries else 0.0,
            "radio.transmissions": calls("radio.tx"),
            "radio.tx_s": total("radio.tx"),
            "radio.carrier_sense": calls("radio.carrier_sense"),
            "radio.carrier_sense_s": total("radio.carrier_sense"),
            "energy.transitions": calls("energy.transition"),
            "core.queue_ops": calls("core.queue") + calls("core.queue_contains"),
            "core.queue_s": total("core.queue") + total("core.queue_contains"),
            "core.queue_membership_calls": calls("core.queue_contains"),
            "contact.scans": calls("contact.scan"),
            "contact.scan_s": total("contact.scan"),
            "contact.offers": calls("contact.offer"),
            "contact.offer_s": total("contact.offer"),
            "contact.accepts": calls("contact.accept"),
            "contact.accept_s": total("contact.accept"),
            "contact.xi_reads": calls("contact.xi"),
            "contact.xi_s": total("contact.xi"),
            "obs.emits": calls("obs.emit"),
            "obs.emit_s": total("obs.emit"),
            "obs.write_s": total("obs.write"),
        })
        return out



def _subclasses(cls: type) -> List[type]:
    """``cls`` and every class derived from it, in a stable order."""
    out = {cls}
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in out:
                out.add(sub)
                stack.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))
