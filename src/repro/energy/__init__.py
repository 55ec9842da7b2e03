"""Simulated energy-measurement stack (RAPL + PAPI) and the virtual testbed.

The paper measures CPU package energy through Intel RAPL counters sampled via
PAPI's powercap component (Section IV-B), on the three nodes of Table I.
None of that hardware exists here, so this subpackage simulates the whole
stack with the same *interfaces and mechanisms*:

- :mod:`repro.energy.cpus` — the Table I CPU catalogue;
- :mod:`repro.energy.power` — package power as a function of active cores;
- :mod:`repro.energy.rapl` — powercap-style energy counter zones that
  integrate power over a virtual clock;
- :mod:`repro.energy.papi` — a PAPI-like monitor that samples those zones at
  a fixed interval, the paper's discrete sum E = sum P(t_i) dt, kept as the
  reference for the meter;
- :mod:`repro.energy.throughput` — the calibrated codec performance model
  that supplies phase durations (see DESIGN.md for calibration constants);
- :mod:`repro.energy.measurement` — the user-facing
  :class:`~repro.energy.measurement.EnergyMeter`, which integrates each
  constant-power phase in one pass, bit-identical to that discrete sum.
"""

from repro.energy.cpus import CPUS, CPUSpec, get_cpu
from repro.energy.measurement import EnergyMeter, EnergyReport, Phase
from repro.energy.papi import PapiPowercapMonitor
from repro.energy.power import PowerModel
from repro.energy.rapl import SimulatedRapl
from repro.energy.throughput import ThroughputModel

__all__ = [
    "CPUS",
    "CPUSpec",
    "get_cpu",
    "EnergyMeter",
    "EnergyReport",
    "Phase",
    "PapiPowercapMonitor",
    "PowerModel",
    "SimulatedRapl",
    "ThroughputModel",
]
