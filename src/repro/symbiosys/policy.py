"""In-situ policy-driven dynamic reconfiguration, the paper's future
work: a :class:`Policy` is a monitor detector bound to one Margo
instance.  Each tick it records the live values its rule needs; when a
full window calls for a reconfiguration (and the cooldown has elapsed)
it returns a :class:`Finding` naming it and defers the reconfiguration
onto the simulator queue at the same simulated time, so the tick stays
a pure observer.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .monitor import AnomalyDetector, Finding

__all__ = ["Policy", "RaiseOfiMaxEvents", "DedicateProgressES", "GrowHandlerPool"]


class Policy(AnomalyDetector):
    """Base rule: :meth:`observe` returns one history entry; :meth:`decide`
    maps a full window to None or a reconfiguration, as its description
    and the call that performs it."""

    def __init__(self, mi, *, window: int = 4, cooldown: float = 1e-3):
        if window < 1:
            raise ValueError("window must be positive")
        self.mi = mi
        self.name = type(self).__name__
        #: Minimum simulated seconds between two firings of this rule.
        self.cooldown = cooldown
        self.history: deque = deque(maxlen=window)
        self.last_fired = float("-inf")
        # A policy is a PVAR-interface client, like any external tool.
        mi.hg.pvars_enabled = True
        self._pvars = mi.hg.pvar_session_init()

    def observe(self) -> tuple:
        raise NotImplementedError

    def decide(self, history) -> Optional[tuple]:
        raise NotImplementedError

    def on_sample(self, t: float, monitor) -> list[Finding]:
        self.history.append(self.observe())
        if len(self.history) < self.history.maxlen or t - self.last_fired < self.cooldown:
            return []
        action = self.decide(self.history)
        if action is None:
            return []
        self.last_fired = t
        description, perform = action
        self.mi.sim.call_at(t, perform)
        return [Finding(t, self.name, self.mi.addr, description)]


class RaiseOfiMaxEvents(Policy):
    """The OFI read batch keeps hitting the cap, so the event queue is
    backed up (Figure 12's C5 signature): raise the cap by ``factor``."""

    def __init__(self, mi, *, pegged_fraction: float = 0.75,
                 factor: int = 2, max_cap: int = 256, **kw):
        super().__init__(mi, **kw)
        if not 0 < pegged_fraction <= 1 or factor < 2 or max_cap < 2:
            raise ValueError("need 0 < pegged_fraction <= 1, factor >= 2, max_cap >= 2")
        self.pegged_fraction = pegged_fraction
        self.factor = factor
        self.max_cap = max_cap
        self._read_ofi_events = self._pvars.reader("num_ofi_events_read")

    def observe(self) -> tuple[int, int]:
        return self._read_ofi_events(), self.mi.hg.ofi_max_events

    def decide(self, history) -> Optional[tuple]:
        cap = history[-1][1]
        pegged = sum(1 for read, _ in history if read >= cap)
        if cap >= self.max_cap or pegged / len(history) < self.pegged_fraction:
            return None
        new = min(self.max_cap, cap * self.factor)
        return f"OFI_max_events {cap} -> {new}", lambda: self.mi.set_ofi_max_events(new)


class DedicateProgressES(Policy):
    """Deep OFI and Mercury completion queues mean a CPU-starved progress
    ULT (Figure 11's C5/C6 signature): give it its own execution stream."""

    def __init__(self, mi, *, depth_threshold: int = 8, **kw):
        super().__init__(mi, **kw)
        if depth_threshold < 1:
            raise ValueError("depth_threshold must be positive")
        self.depth_threshold = depth_threshold
        self._read_cq_size = self._pvars.reader("completion_queue_size")

    def observe(self) -> tuple[int, int]:
        return self.mi.endpoint.cq_depth, self._read_cq_size()

    def decide(self, history) -> Optional[tuple]:
        mi = self.mi
        deep = sum(1 for cq, hg in history if cq + hg >= self.depth_threshold)
        if mi.progress_pool is not mi.primary_pool or deep < max(1, len(history) // 2):
            return None
        return "progress loop moved to dedicated ES", mi.enable_progress_thread


class GrowHandlerPool(Policy):
    """Handler ULTs keep queueing in the pool, so the target lacks
    execution streams (Figure 9's C1 signature): add one."""

    def __init__(self, mi, *, backlog_per_es: float = 2.0, max_es: int = 64, **kw):
        super().__init__(mi, **kw)
        if backlog_per_es <= 0 or max_es < 1:
            raise ValueError("backlog_per_es and max_es must be positive")
        self.backlog_per_es = backlog_per_es
        self.max_es = max_es

    def observe(self) -> tuple[int, int]:
        """(ULTs queued in a dedicated handler pool, its ES count)."""
        mi = self.mi
        n_es = sum(1 for es in mi.rt.xstreams if es.pool is mi.handler_pool)
        return (0 if mi.handler_pool is mi.primary_pool else len(mi.handler_pool)), n_es

    def decide(self, history) -> Optional[tuple]:
        limit = self.backlog_per_es
        saturated = sum(1 for backlog, n in history if backlog >= limit * max(1, n))
        n_es = history[-1][1]
        if n_es >= self.max_es or saturated < max(1, len(history) // 2):
            return None
        # A shared handler pool is first promoted to a dedicated one.
        n = 1 if self.mi.handler_pool is self.mi.primary_pool else n_es + 1
        return f"handler pool grown to {n} execution streams", self.mi.add_handler_es
