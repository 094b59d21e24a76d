"""Execution streams: the schedulers that run ULTs.

An execution stream (ES) is a simulated OS thread bound to one pool.  It
pops READY ULTs and interprets their effects; while a ULT computes the
ES is busy, and when a ULT blocks the ES immediately picks up the next
one.  ESs with an empty pool park until the next push.

The ES is a callback-driven state machine on the simulator's queues,
not a kernel task: each ``Compute(d > 0)`` and each non-zero context
switch is one ``call_at(now + d, ...)``, made at the instant a kernel
``Timeout`` would have subscribed, and a park registers one callback on
the pool's work event and one on the runtime's shutdown event, exactly
as ``AnyOf([work, shutdown])`` does.  The schedule, the heap sequence
numbers and the simulator's event count are therefore those of a
generator-task ES, without its per-slice frames and waitables.

This is the lower level of the two-level scheduling hierarchy; all the
queueing behaviour the paper measures (target handler time, progress-ULT
starvation) comes out of this loop.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..sim import SimulationError, StopSimulation
from .pool import Pool
from .ult import ULT, Compute, UltState, WaitEventual, YieldNow

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import SimEvent
    from .runtime import AbtRuntime

__all__ = ["ExecutionStream"]

_RUNNING = UltState.RUNNING
_READY = UltState.READY
_BLOCKED = UltState.BLOCKED


class _Park:
    """One park of an ES: the first of the pool's work event and the
    runtime's shutdown event to fire wins, as in ``AnyOf``.

    ``on_work`` is the work-event callback; the park itself is the
    shutdown callback.  A stale one (the park ended with work) stays
    registered until shutdown and then runs as a no-op, so it holds
    nothing but the ES once its work event is spent.
    """

    __slots__ = ("es", "work")

    def __init__(self, es: "ExecutionStream", work: "SimEvent"):
        self.es = es
        #: The pending work event; None once either event has won.
        self.work: Optional["SimEvent"] = work

    def on_work(self, ev: "SimEvent") -> None:
        if self.work is not None:
            self.work = None
            self.es._dispatch()

    def __call__(self, ev: "SimEvent") -> None:
        if self.work is not None:
            self.es.pool.cancel_wait(self.work)
            self.work = None


class ExecutionStream:
    """A simulated OS thread executing ULTs from one pool."""

    def __init__(self, runtime: "AbtRuntime", pool: Pool, name: str = "es"):
        self.runtime = runtime
        self.pool = pool
        self.name = name
        self.current: Optional[ULT] = None
        #: Cumulative simulated seconds spent computing (incl. switch cost).
        self.busy_time = 0.0
        #: ULT being switched in while a context-switch delay elapses.
        self._next: Optional[ULT] = None
        self._slice_start = 0.0
        # The first dispatch runs at the current instant through the
        # same-instant lane, where spawning a kernel task would put it.
        runtime.sim.call_at(runtime.sim.now, self._dispatch)

    # -- dispatch loop -------------------------------------------------------

    def _dispatch(self) -> None:
        """Run slices back to back until one waits on a timer, the pool
        is empty (park) or the runtime is shutting down (exit)."""
        rt = self.runtime
        sim = rt.sim
        pool = self.pool
        while not rt.shutting_down:
            ult = pool.pop()
            if ult is None:
                self._park()
                return
            self._slice_start = sim.now
            cost = rt.ctx_switch_cost
            if cost > 0:
                self._next = ult
                sim.call_at(sim.now + cost, self._switched_in)
                return
            if not self._begin(ult):
                return

    def _park(self) -> None:
        work = self.pool.work_event()
        park = _Park(self, work)
        work.add_callback(park.on_work)
        # One shutdown callback per park: stale ones fire as (no-op)
        # events at shutdown, and the event count includes them.
        self.runtime.shutdown_event.add_callback(park)

    def _switched_in(self) -> None:
        self.busy_time += self.runtime.ctx_switch_cost
        ult, self._next = self._next, None
        if self._begin(ult):
            self._dispatch()

    def _computed(self, duration: float) -> None:
        self.busy_time += duration
        if self._step():
            self._dispatch()

    # -- one slice ----------------------------------------------------------

    def _begin(self, ult: ULT) -> bool:
        if ult.started_at is None:
            ult.started_at = self.runtime.sim.now
        ult.state = _RUNNING
        self.current = ult
        self.runtime.num_running += 1
        return self._step()

    def _step(self) -> bool:
        """Drive the current ULT until it computes for a while (a timer
        is armed; returns False) or its slice ends (returns True)."""
        ult = self.current
        rt = self.runtime
        sim = rt.sim
        try:
            while True:
                rt._current_ult = ult
                try:
                    if ult._throw_exc is not None:
                        exc, ult._throw_exc = ult._throw_exc, None
                        effect = ult.gen.throw(exc)
                    else:
                        effect = ult.gen.send(ult._send_value)
                except StopIteration as stop:
                    rt._finish_ult(ult, stop.value, None)
                    break
                except BaseException as exc:
                    rt._finish_ult(ult, None, exc)
                    if not rt.swallow_ult_errors:
                        raise
                    break
                finally:
                    rt._current_ult = None
                ult._send_value = None

                kind = type(effect)
                if kind is Compute:
                    duration = effect.duration
                    if duration > 0:
                        sim.call_at(sim.now + duration, self._computed, duration)
                        return False
                elif kind is WaitEventual:
                    ev = effect.eventual
                    if ev.is_set:
                        ult._send_value = (
                            (True, ev.value) if effect.timeout is not None else ev.value
                        )
                        continue
                    ult.state = _BLOCKED
                    ult._wait_wrap = effect.timeout is not None
                    rt.num_blocked += 1
                    ev._add_waiter(ult)
                    if effect.timeout is not None:
                        sim.call_after(effect.timeout, rt._wait_timeout, ult, ev)
                    break
                elif kind is YieldNow:
                    ult.state = _READY
                    ult.pool.push(ult)
                    break
                else:
                    raise SimulationError(
                        f"ULT {ult.name!r} yielded non-ABT effect {effect!r}"
                    )
        except BaseException as exc:
            self._end_slice(ult)
            if isinstance(exc, StopSimulation) or not sim.swallow_task_errors:
                raise
            # As a failed kernel task would: this ES stops for good.
            return False
        self._end_slice(ult)
        return True

    def _end_slice(self, ult: ULT) -> None:
        rt = self.runtime
        self.current = None
        rt.num_running -= 1
        for obs in rt._sched_observers:
            obs.on_slice(self, ult, self._slice_start, rt.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        running = self.current.name if self.current else None
        return f"ExecutionStream({self.name!r}, running={running!r})"
