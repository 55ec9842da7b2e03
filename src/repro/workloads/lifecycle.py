"""Failure-aware application lifetimes on the deterministic event loop.

This is the simulation counterpart to the closed forms in
:mod:`repro.workloads.checkpoint`: a generator process on
:class:`~repro.cluster.events.EventLoop` lives through compute segments,
checkpoint writes, failure interrupts, downtime, restart fetches and
rework, emitting an absolute-time :class:`~repro.energy.measurement.Interval`
timeline as it goes.  The timeline feeds
:func:`~repro.energy.measurement.compose_phases`, so the RAPL/PAPI energy
stack integrates the lifetime exactly like it integrates a pipelined write
— downtime becomes zero-core idle phases charged at the power model's idle
watts.

The process hands its statistics back through ``Process.result`` (the
generator's return value), never by mutating shared state, so several
lifetimes can share one loop.  Every random draw comes from the explicit
seed buried in the :class:`~repro.workloads.failures.FailureTimeline`; the
simulation itself contains no randomness, which is what makes repeated runs
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.energy.measurement import Interval
from repro.errors import SimulationError
from repro.obs.trace import active_tracer
from repro.workloads.checkpoint import CheckpointSpec
from repro.workloads.failures import FailureTimeline

if TYPE_CHECKING:
    from repro.cluster.events import EventLoop, Process

__all__ = [
    "LifecycleStats",
    "lifecycle_process",
    "run_lifecycle",
    "compact_intervals",
    "trace_intervals",
]

#: Hard cap on failures per lifetime: a work_s ≫ mttf_s configuration would
#: otherwise loop (almost) forever without ever committing a segment.
MAX_FAILURES = 100_000


@dataclass(frozen=True)
class LifecycleStats:
    """One simulated application lifetime, fully accounted.

    Busy times are integrals over the labelled intervals (partial, aborted
    attempts included), so ``compute_busy_s`` minus the useful work is
    exactly the rework.  ``intervals`` is the absolute-time load timeline —
    ``compose_phases`` turns it into meter-ready phases; downtime windows
    are recorded explicitly as zero-core ``"down"`` intervals so idle power
    is accounted.
    """

    work_s: float
    makespan_s: float
    n_checkpoints: int  # committed
    n_ckpt_attempts: int  # started (committed + failure-aborted)
    n_failures: int
    n_restarts: int  # completed restart fetches
    n_restart_attempts: int
    compute_busy_s: float  # useful work + rework
    ckpt_busy_s: float
    restart_busy_s: float
    downtime_s: float
    intervals: tuple[Interval, ...]
    ckpt_partial_s: float = 0.0  # busy seconds in failure-aborted checkpoints
    restart_partial_s: float = 0.0  # busy seconds in failure-aborted restarts

    @property
    def rework_s(self) -> float:
        return self.compute_busy_s - self.work_s

    @property
    def ckpt_committed_s(self) -> float:
        """Busy seconds inside checkpoints that actually committed."""
        return self.ckpt_busy_s - self.ckpt_partial_s


def compact_intervals(intervals, labels: set[str] | None = None) -> list[Interval]:
    """Re-base selected intervals onto a gapless timeline, order preserved.

    Used to integrate one activity class (e.g. compute + downtime) through
    :func:`~repro.energy.measurement.compose_phases` without the composer
    minting idle phases for the windows other activities occupied.
    """
    out: list[Interval] = []
    t = 0.0
    for iv in sorted(intervals, key=lambda iv: (iv.start_s, iv.end_s)):
        if labels is not None and iv.label not in labels:
            continue
        d = iv.end_s - iv.start_s
        out.append(Interval(t, t + d, iv.active_cores, iv.activity, iv.label))
        t += d
    return out


def trace_intervals(tracer, intervals, track: str, offset_s: float = 0.0) -> None:
    """Emit one virtual span per labelled interval onto ``track``.

    ``offset_s`` re-bases a locally-timed lifecycle (simulated from t=0)
    onto an absolute cluster timeline (the tenant's start time).
    """
    for iv in intervals:
        tracer.add_span(
            iv.label, track, offset_s + iv.start_s, offset_s + iv.end_s,
            active_cores=iv.active_cores, activity=iv.activity,
        )


def lifecycle_process(
    loop: EventLoop,
    spec: CheckpointSpec,
    timeline: FailureTimeline | None,
    compute_cores: int = 1,
    ckpt_cores: int = 1,
    ckpt_activity: float = 1.0,
    restart_cores: int = 1,
    restart_activity: float = 1.0,
):
    """The application generator; spawn it on ``loop``.

    Returns (via ``StopIteration.value`` → ``Process.result``) the
    :class:`LifecycleStats` of this lifetime.
    """
    if timeline is not None and timeline.model.failure_free:
        timeline = None
    intervals: list[Interval] = []
    busy = {"compute": 0.0, "checkpoint": 0.0, "restart": 0.0}
    counts = {
        "failures": 0,
        "checkpoints": 0,
        "ckpt_attempts": 0,
        "restarts": 0,
        "restart_attempts": 0,
    }
    downtime_total = 0.0

    def phase(duration, cores, activity, label):
        """Run one vulnerable phase; returns True iff it completed."""
        if duration <= 0:
            return True
        start = loop.now
        end = start + duration
        cut = timeline.next_after(start) if timeline is not None else None
        if cut is not None and cut < end:
            intervals.append(Interval(start, cut, cores, activity, label))
            busy[label] += cut - start
            yield cut - start
            return False
        intervals.append(Interval(start, end, cores, activity, label))
        busy[label] += duration
        yield duration
        return True

    def fail_and_restart():
        """Downtime then restart attempts until one survives."""
        nonlocal downtime_total
        while True:
            counts["failures"] += 1
            if counts["failures"] > MAX_FAILURES:
                raise SimulationError(
                    f"lifecycle exceeded {MAX_FAILURES} failures; "
                    "work_s is unreachable at this MTTF"
                )
            if spec.downtime_s > 0:
                intervals.append(
                    Interval(loop.now, loop.now + spec.downtime_s, 0, 0.0, "down")
                )
                downtime_total += spec.downtime_s
                yield spec.downtime_s
            counts["restart_attempts"] += 1
            if spec.restart_s <= 0:
                counts["restarts"] += 1
                return
            ok = yield from phase(
                spec.restart_s, restart_cores, restart_activity, "restart"
            )
            if ok:
                counts["restarts"] += 1
                return

    segments = spec.segments
    seg_idx = 0
    while seg_idx < len(segments):
        ok = yield from phase(segments[seg_idx], compute_cores, 1.0, "compute")
        if not ok:
            yield from fail_and_restart()
            continue
        counts["ckpt_attempts"] += 1
        ok = yield from phase(spec.ckpt_s, ckpt_cores, ckpt_activity, "checkpoint")
        if not ok:
            yield from fail_and_restart()
            continue
        counts["checkpoints"] += 1
        seg_idx += 1

    return LifecycleStats(
        work_s=spec.work_s,
        makespan_s=loop.now,
        n_checkpoints=counts["checkpoints"],
        n_ckpt_attempts=counts["ckpt_attempts"],
        n_failures=counts["failures"],
        n_restarts=counts["restarts"],
        n_restart_attempts=counts["restart_attempts"],
        compute_busy_s=busy["compute"],
        ckpt_busy_s=busy["checkpoint"],
        restart_busy_s=busy["restart"],
        downtime_s=downtime_total,
        intervals=tuple(intervals),
        ckpt_partial_s=busy["checkpoint"] - counts["checkpoints"] * spec.ckpt_s,
        restart_partial_s=busy["restart"] - counts["restarts"] * spec.restart_s,
    )


def run_lifecycle(
    spec: CheckpointSpec,
    timeline: FailureTimeline | None = None,
    compute_cores: int = 1,
    ckpt_cores: int = 1,
    ckpt_activity: float = 1.0,
    restart_cores: int = 1,
    restart_activity: float = 1.0,
    loop: EventLoop | None = None,
    trace_track: str | None = None,
) -> LifecycleStats:
    """Simulate one lifetime to completion and return its stats.

    With ``trace_track`` set and a tracer active, the interval timeline is
    emitted as virtual spans on that track after the run (tracing never
    perturbs the simulation).
    """
    if loop is None:
        # Deferred: the repro.cluster package imports this module.
        from repro.cluster.events import EventLoop

        loop = EventLoop()
    proc: Process = loop.spawn(
        lifecycle_process(
            loop,
            spec,
            timeline,
            compute_cores=compute_cores,
            ckpt_cores=ckpt_cores,
            ckpt_activity=ckpt_activity,
            restart_cores=restart_cores,
            restart_activity=restart_activity,
        ),
        name="lifecycle",
    )
    loop.run()
    if not proc.finished:  # pragma: no cover - defensive
        raise SimulationError("lifecycle process did not finish")
    if trace_track is not None:
        tracer = active_tracer()
        if tracer is not None:
            trace_intervals(tracer, proc.result.intervals, trace_track)
    return proc.result
