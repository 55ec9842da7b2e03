"""PAPI-powercap-style sampling monitor over the simulated RAPL zones.

Section IV-B: energy is reported as the discrete sum ``E = Σ P(t_i) Δt`` of
sampled power readings.  :class:`PapiPowercapMonitor` is that measurement
loop, literally: it steps the virtual clock in fixed ``sample_interval``
increments across each workload phase, reading the counters at every tick
(the final partial interval is sampled too, as PAPI's stop() does).

:class:`~repro.energy.measurement.EnergyMeter` does not run this loop; it
integrates each constant-power phase in one pass.  This monitor is the
reference the tests compare the meter against, field for field, and its
tick count is what ``EnergyReport.n_samples`` still reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.energy.rapl import SimulatedRapl
from repro.errors import ConfigurationError

__all__ = ["PapiPowercapMonitor", "PowerSample"]


@dataclass(frozen=True)
class PowerSample:
    """One sampling tick: virtual time and per-zone counter snapshot."""

    time_s: float
    counters_uj: tuple[int, ...]


@dataclass
class PapiPowercapMonitor:
    """Samples RAPL zones while workload phases advance the virtual clock."""

    rapl: SimulatedRapl
    sample_interval: float = 0.010  # 10 ms, a typical powercap polling rate
    samples: list[PowerSample] = field(default_factory=list)
    _started: bool = False
    _start_counters: tuple[int, ...] | None = None

    def start(self) -> None:
        """Snapshot counters and begin recording samples."""
        if self._started:
            raise ConfigurationError("monitor already started")
        self._started = True
        self._start_counters = tuple(self.rapl.read_uj())
        self.samples = [PowerSample(self.rapl.now, self._start_counters)]

    def run_phase(self, duration: float, active_cores: int, activity: float = 1.0) -> None:
        """Advance one workload phase, sampling at the configured interval."""
        if not self._started:
            raise ConfigurationError("monitor not started")
        if duration < 0:
            raise ConfigurationError("phase duration must be non-negative")
        remaining = duration
        # The 1e-12 floor stops float drift from minting a phantom sample.
        while remaining > 1e-12:
            step = min(self.sample_interval, remaining)
            self.rapl.advance(step, active_cores, activity)
            self.samples.append(PowerSample(self.rapl.now, tuple(self.rapl.read_uj())))
            remaining -= step

    def stop(self) -> float:
        """Stop recording; returns total joules over the window (Eq. 6)."""
        if not self._started or self._start_counters is None:
            raise ConfigurationError("monitor not started")
        self._started = False
        end = tuple(self.rapl.read_uj())
        return self.rapl.total_joules_between(list(self._start_counters), list(end))

    @property
    def elapsed(self) -> float:
        """Seconds covered by the recorded samples."""
        if not self.samples:
            return 0.0
        return self.samples[-1].time_s - self.samples[0].time_s
