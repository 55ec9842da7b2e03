"""Reference fair-share solver: one entry per flow, kept as oracle.

This is the per-flow event loop :func:`repro.iolib.pfs.fair_share_schedule`
ran before it learned to solve each distinct ``(arrival, size)`` pair once,
weighted by its multiplicity.  Every flow sits in the active mask on its own,
so it is easy to audit against the max-min fluid model.  The tests hold the
weighted solver to it bit for bit: ``finish.tobytes()`` must be identical,
and bad inputs must raise the same :class:`ConfigurationError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError

__all__ = ["reference_fair_share_schedule"]


def reference_fair_share_schedule(
    arrivals: np.ndarray,
    sizes_bytes: np.ndarray,
    per_flow_cap_mbps: float,
    aggregate_cap_mbps: float,
) -> np.ndarray:
    """Finish times of flows sharing a link, max-min fair.

    Parameters
    ----------
    arrivals, sizes_bytes:
        Per-flow start time (s) and size (bytes).
    per_flow_cap_mbps / aggregate_cap_mbps:
        Individual and shared capacity in MB/s.

    Returns
    -------
    np.ndarray of completion times (s).

    The solver advances between events (arrivals or completions).  Within an
    interval the rate of each active flow is constant:
    ``min(per_flow_cap, aggregate / n_active)`` — with a homogeneous per-flow
    cap, max-min fairness reduces to exactly this.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    sizes = np.asarray(sizes_bytes, dtype=np.float64) / 1e6  # MB
    if arrivals.shape != sizes.shape:
        raise ConfigurationError("arrivals and sizes must align")
    if per_flow_cap_mbps <= 0 or aggregate_cap_mbps <= 0:
        raise ConfigurationError("capacities must be positive")
    n = arrivals.size
    finish = np.full(n, np.inf)
    remaining = sizes.copy()
    order = np.argsort(arrivals, kind="stable")
    next_arrival = 0  # index into `order`
    # The active set is a boolean mask so the per-event work (progress
    # subtraction, minimum remaining, completion harvest) runs as whole-array
    # numpy ops.  This is the cluster hot path: thousands of tenant flows
    # share one solve, and the previous per-flow Python lists made each
    # event O(n) interpreter work plus O(n) `list.remove` calls.  The float
    # arithmetic per flow is unchanged (the same ``x - rate * dt`` per
    # element), so finish times are bit-identical to the scalar solver.
    active = np.zeros(n, dtype=bool)
    n_active = 0
    t = float(arrivals[order[0]]) if n else 0.0

    guard = 0
    while next_arrival < n or n_active:
        guard += 1
        if guard > 10 * n + 100:
            raise SimulationError("fair-share solver failed to converge")
        # Admit all flows that have arrived by t.  Zero-byte flows need no
        # bandwidth: they complete at their arrival instant instead of
        # entering the active set (where each one would force a zero-length
        # solver step and burn guard iterations).
        while next_arrival < n and arrivals[order[next_arrival]] <= t + 1e-12:
            idx = int(order[next_arrival])
            next_arrival += 1
            if remaining[idx] <= 1e-9:
                finish[idx] = float(arrivals[idx])
            else:
                active[idx] = True
                n_active += 1
        if not n_active:
            if next_arrival >= n:
                break
            t = float(arrivals[order[next_arrival]])
            continue
        rate = min(per_flow_cap_mbps, aggregate_cap_mbps / n_active)
        # Time to the next event: earliest completion or next arrival.
        dt_complete = float(remaining[active].min()) / rate
        dt_arrival = (
            float(arrivals[order[next_arrival]]) - t
            if next_arrival < n
            else np.inf
        )
        # A completion that coincides with an arrival is one positive step to
        # the shared event time; the next iteration admits the arrival.  Both
        # candidate steps are strictly positive — active flows have bytes left
        # and pending arrivals are beyond the admission tolerance — so the
        # solver can never stall on a dt == 0 step.
        dt = min(dt_complete, dt_arrival)
        if dt <= 0:
            raise SimulationError("non-positive time step in fair-share solver")
        remaining[active] -= rate * dt
        t += dt
        done = active & (remaining <= 1e-9)
        n_done = int(np.count_nonzero(done))
        if n_done:
            finish[done] = t
            active &= ~done
            n_active -= n_done
    return finish
