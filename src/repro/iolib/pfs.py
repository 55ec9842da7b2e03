"""Lustre-like parallel-file-system model with fair-share contention.

The PFS is modeled at the level that determines the paper's I/O results:

- ``n_osts`` object storage targets, each sustaining ``ost_bw_mbps``;
- files are striped over ``stripe_count`` OSTs, capping a single stream at
  ``stripe_count * ost_bw_mbps``;
- each client node's network link caps it at ``client_bw_mbps``;
- concurrent writers share the aggregate ``n_osts * ost_bw_mbps`` by
  progressive filling (max-min fairness): every active flow gets the same
  share unless its own cap binds — the standard fluid model for shared
  storage backends.

:func:`fair_share_schedule` is an exact event-driven solver for that fluid
model; :class:`PFSModel` packages it with the single-stream cost helpers the
experiment drivers use.  The aggregate saturation is what produces Fig. 12's
jump in uncompressed write energy at 512 cores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.obs.trace import active_tracer

__all__ = ["PFSModel", "fair_share_schedule"]


def fair_share_schedule(
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

    Under an active tracer the call is a wall-clock ``pfs:fair_share`` span
    (arguments ``flows``, ``distinct`` and ``events``), and its distinct
    flows and events count towards the ``iolib.fair_share.distinct_flows``
    and ``iolib.fair_share.events`` metrics.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    sizes = np.asarray(sizes_bytes, dtype=np.float64) / 1e6  # MB
    if arrivals.shape != sizes.shape:
        raise ConfigurationError("arrivals and sizes must align")
    if per_flow_cap_mbps <= 0 or aggregate_cap_mbps <= 0:
        raise ConfigurationError("capacities must be positive")
    flows = (arrivals.ravel(), sizes.ravel(), per_flow_cap_mbps, aggregate_cap_mbps)
    tracer = active_tracer()
    if tracer is None:
        return _solve(*flows)[0]
    t0 = tracer.now()
    finish, distinct, events = _solve(*flows)
    tracer.add_span(
        "pfs:fair_share", "pfs", t0, tracer.now(), clock="wall",
        flows=int(finish.size), distinct=distinct, events=events,
    )
    tracer.metrics.counter("iolib.fair_share.distinct_flows").inc(distinct)
    tracer.metrics.counter("iolib.fair_share.events").inc(events)
    return finish


def _solve(
    arrivals: np.ndarray,
    sizes: np.ndarray,
    per_flow_cap_mbps: float,
    aggregate_cap_mbps: float,
) -> tuple[np.ndarray, int, int]:
    """Event loop of :func:`fair_share_schedule` over 1-D arrivals (s) and
    sizes (MB); returns the finish times, distinct flows and events.

    Flows with bit-identical arrival and size take the same float operations
    at every event (one ``x - rate * dt`` each), so each distinct pair is
    solved once, weighted by its multiplicity, and its finish time is
    scattered back to every flow that shares it.  A cluster tenant's ranks
    are such flows: thousands of flows collapse to one per tenant.  The
    finish times are bit-identical to a solve over every flow.
    """
    n = arrivals.size
    perm = np.lexsort((sizes, arrivals))
    arr_sorted = arrivals[perm]
    size_sorted = sizes[perm]
    # Group heads: runs of bit-identical (arrival, size) in sorted order.
    head = np.ones(n, dtype=bool)
    a_bits = arr_sorted.view(np.int64)
    s_bits = size_sorted.view(np.int64)
    head[1:] = (a_bits[1:] != a_bits[:-1]) | (s_bits[1:] != s_bits[:-1])
    first = np.flatnonzero(head)
    inverse = np.empty(n, dtype=np.intp)
    inverse[perm] = np.cumsum(head) - 1
    weights = np.diff(np.append(first, n))
    arr = arr_sorted[first]  # non-decreasing: groups are admitted in order
    arr_list = arr.tolist()
    size = size_sorted[first]
    m = first.size
    finish = np.full(m, np.inf)

    # The active set is held compactly (remaining MB, weight, group index)
    # so each event costs numpy work over the in-flight flows only.
    rem = np.empty(0)
    w_act = np.empty(0, dtype=np.int64)
    g_act = np.empty(0, dtype=np.intp)
    n_active = 0  # flows, i.e. the sum of the active weights
    next_arrival = 0
    events = 0
    t = arr_list[0] if m else 0.0

    guard = 0
    while next_arrival < m or n_active:
        guard += 1
        if guard > 10 * n + 100:
            raise SimulationError("fair-share solver failed to converge")
        # Admit all flows that have arrived by t.  Zero-byte flows need no
        # bandwidth: they complete at their arrival instant instead of
        # entering the active set (where each one would force a zero-length
        # solver step and burn guard iterations).
        lo = next_arrival
        while next_arrival < m and arr_list[next_arrival] <= t + 1e-12:
            next_arrival += 1
        if next_arrival > lo:
            new = slice(lo, next_arrival)
            zero = size[new] <= 1e-9
            finish[new][zero] = arr[new][zero]
            moving = ~zero
            w_new = weights[new][moving]
            rem = np.concatenate((rem, size[new][moving]))
            w_act = np.concatenate((w_act, w_new))
            g_act = np.concatenate((g_act, np.arange(lo, next_arrival)[moving]))
            n_active += int(w_new.sum())
        if not n_active:
            if next_arrival >= m:
                break
            t = arr_list[next_arrival]
            continue
        rate = min(per_flow_cap_mbps, aggregate_cap_mbps / n_active)
        # Time to the next event: earliest completion or next arrival.
        dt_complete = float(rem.min()) / rate
        dt_arrival = arr_list[next_arrival] - t if next_arrival < m else np.inf
        # A completion that coincides with an arrival is one positive step to
        # the shared event time; the next iteration admits the arrival.  Both
        # candidate steps are strictly positive — active flows have bytes left
        # and pending arrivals are beyond the admission tolerance — so the
        # solver can never stall on a dt == 0 step.
        dt = min(dt_complete, dt_arrival)
        if dt <= 0:
            raise SimulationError("non-positive time step in fair-share solver")
        rem -= rate * dt
        t += dt
        events += 1
        done = rem <= 1e-9
        if done.any():
            finish[g_act[done]] = t
            n_active -= int(w_act[done].sum())
            keep = ~done
            rem = rem[keep]
            w_act = w_act[keep]
            g_act = g_act[keep]
    return finish[inverse], m, events


@dataclass(frozen=True)
class PFSModel:
    """A striped parallel file system shared by all client nodes."""

    n_osts: int = 8
    ost_bw_mbps: float = 500.0
    stripe_count: int = 4
    client_bw_mbps: float = 1000.0
    metadata_latency_s: float = 0.002  # per open/close at the MDS

    def __post_init__(self):
        if self.n_osts < 1 or self.stripe_count < 1:
            raise ConfigurationError("n_osts and stripe_count must be >= 1")
        if self.stripe_count > self.n_osts:
            raise ConfigurationError("stripe_count cannot exceed n_osts")
        if self.ost_bw_mbps <= 0 or self.client_bw_mbps <= 0:
            raise ConfigurationError("bandwidths must be positive")

    @property
    def aggregate_bw_mbps(self) -> float:
        """Backend ceiling shared by all concurrent writers."""
        return self.n_osts * self.ost_bw_mbps

    @property
    def stream_bw_mbps(self) -> float:
        """Best-case bandwidth of one uncontended stream."""
        return min(self.client_bw_mbps, self.stripe_count * self.ost_bw_mbps)

    def single_write_seconds(self, nbytes: int, efficiency: float = 1.0) -> float:
        """Uncontended write time for one file of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        return self.metadata_latency_s + (nbytes / 1e6) / (
            self.stream_bw_mbps * efficiency
        )

    def single_read_seconds(self, nbytes: int, efficiency: float = 1.0) -> float:
        """Uncontended read time (reads skip the write-commit round trips).

        Lustre reads typically sustain ~20 % more per-stream bandwidth than
        writes (no OST commit barrier); the paper's Section VI-A remark that
        compressed reads enjoy the same savings is modeled through this path.
        """
        if nbytes < 0:
            raise ConfigurationError("nbytes must be non-negative")
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        return self.metadata_latency_s + (nbytes / 1e6) / (
            1.2 * self.stream_bw_mbps * efficiency
        )

    def concurrent_write_times(
        self,
        sizes_bytes: np.ndarray,
        efficiency: float = 1.0,
        arrivals: np.ndarray | None = None,
    ) -> np.ndarray:
        """Finish times for concurrent writes (fair-share fluid model)."""
        sizes_bytes = np.asarray(sizes_bytes)
        if arrivals is None:
            arrivals = np.zeros(sizes_bytes.shape)
        finish = fair_share_schedule(
            np.asarray(arrivals) + self.metadata_latency_s,
            sizes_bytes,
            per_flow_cap_mbps=self.stream_bw_mbps * efficiency,
            aggregate_cap_mbps=self.aggregate_bw_mbps * efficiency,
        )
        return finish

    def pipelined_write_times(
        self,
        sizes_bytes: np.ndarray,
        arrivals: np.ndarray,
        efficiency: float = 1.0,
    ) -> np.ndarray:
        """Finish times for one client streaming chunks of a single file.

        The chunk flows all originate from the same client writing the same
        striped file, so the *aggregate* cap is the single-stream bandwidth
        (client link or stripe width, whichever binds) — not the backend
        ceiling shared by a whole cluster.  Staggered chunk arrivals model
        the compress stage feeding the write stage; the MDS open is charged
        once, on the first chunk.
        """
        if not 0 < efficiency <= 1.0:
            raise ConfigurationError("efficiency must be in (0, 1]")
        stream = self.stream_bw_mbps * efficiency
        return fair_share_schedule(
            np.asarray(arrivals, dtype=np.float64) + self.metadata_latency_s,
            np.asarray(sizes_bytes, dtype=np.float64),
            per_flow_cap_mbps=stream,
            aggregate_cap_mbps=stream,
        )
