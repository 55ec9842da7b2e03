"""Energy stack: CPU catalogue, power model, RAPL counters, PAPI sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import (
    CPUS,
    EnergyMeter,
    PapiPowercapMonitor,
    PowerModel,
    SimulatedRapl,
    get_cpu,
)
from repro.energy.cpus import PAPER_CPUS
from repro.energy.measurement import EnergyReport, Phase
from repro.energy.rapl import DEFAULT_MAX_ENERGY_RANGE_UJ, RaplZone
from repro.errors import ConfigurationError


class TestCpus:
    def test_table1_entries(self):
        assert set(PAPER_CPUS) == set(CPUS)
        m = get_cpu("max9480")
        assert m.cores == 112 and m.tdp_w == 350.0
        s = get_cpu("plat8160")
        assert s.cores == 48 and s.tdp_w == 270.0
        p = get_cpu("plat8260m")
        assert p.cores == 96 and p.sockets == 4 and p.tdp_w == 165.0

    def test_cores_per_socket(self):
        assert get_cpu("plat8260m").cores_per_socket == 24

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_cpu("epyc")


class TestPowerModel:
    def test_idle_floor(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        assert pm.node_power(0) == pytest.approx(cpu.sockets * cpu.idle_w)

    def test_full_load_hits_tdp(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        assert pm.node_power(cpu.cores) == pytest.approx(cpu.sockets * cpu.tdp_w)

    def test_monotone_in_cores(self):
        cpu = get_cpu("max9480")
        pm = PowerModel(cpu)
        powers = [pm.node_power(c) for c in range(0, cpu.cores + 1, 8)]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_sublinear_dynamic(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        half = pm.node_power(cpu.cores_per_socket // 2) - pm.node_power(0)
        full = pm.node_power(cpu.cores_per_socket) - pm.node_power(0)
        assert half > 0.5 * full  # alpha < 1 concavity

    def test_socket_filling_order(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        # One core: only package 0 above idle.
        assert pm.package_power(0, 1) > cpu.idle_w
        assert pm.package_power(1, 1) == pytest.approx(cpu.idle_w)

    def test_activity_scales_dynamic_only(self):
        cpu = get_cpu("plat8160")
        pm = PowerModel(cpu)
        idle = pm.node_power(8, activity=0.0)
        assert idle == pytest.approx(cpu.sockets * cpu.idle_w)
        assert pm.node_power(8, activity=0.5) < pm.node_power(8, activity=1.0)

    def test_validation(self):
        pm = PowerModel(get_cpu("plat8160"))
        with pytest.raises(ConfigurationError):
            pm.node_power(-1)
        with pytest.raises(ConfigurationError):
            pm.node_power(9999)
        with pytest.raises(ConfigurationError):
            pm.node_power(1, activity=2.0)
        with pytest.raises(ConfigurationError):
            PowerModel(get_cpu("plat8160"), alpha=0.0)


class TestRapl:
    def test_counters_accumulate(self):
        rapl = SimulatedRapl(get_cpu("plat8160"))
        before = rapl.read_uj()
        rapl.advance(1.0, active_cores=0)
        after = rapl.read_uj()
        joules = rapl.total_joules_between(before, after)
        assert joules == pytest.approx(2 * 55.0, rel=1e-6)  # idle both sockets

    def test_eq6_sums_packages(self):
        rapl = SimulatedRapl(get_cpu("plat8260m"))
        assert len(rapl.zones) == 4
        before = rapl.read_uj()
        rapl.advance(2.0, active_cores=1)
        total = rapl.total_joules_between(before, rapl.read_uj())
        per_zone = [
            RaplZone.delta(b, a)
            for b, a in zip(before, rapl.read_uj())
        ]
        assert total == pytest.approx(sum(per_zone))

    def test_wraparound(self):
        zone = RaplZone("test", max_energy_range_uj=1000)
        zone.deposit(0.0009)  # 900 uJ
        before = zone.energy_uj
        zone.deposit(0.0002)  # wraps past 1000
        assert zone.energy_uj < before
        assert RaplZone.delta(before, zone.energy_uj, 1000) == pytest.approx(
            200 / 1e6
        )

    def test_negative_time_rejected(self):
        rapl = SimulatedRapl(get_cpu("plat8160"))
        with pytest.raises(ConfigurationError):
            rapl.advance(-1.0, 0)


class TestPapiMonitor:
    def test_discrete_sampling_energy(self):
        rapl = SimulatedRapl(get_cpu("plat8160"))
        mon = PapiPowercapMonitor(rapl, sample_interval=0.01)
        mon.start()
        mon.run_phase(0.1, active_cores=48)
        joules = mon.stop()
        # Constant power: discrete sum equals P*t exactly.
        assert joules == pytest.approx(2 * 270.0 * 0.1, rel=1e-9)
        assert mon.elapsed == pytest.approx(0.1, rel=1e-9)
        assert len(mon.samples) == 11  # start + 10 ticks

    def test_partial_final_interval_sampled(self):
        rapl = SimulatedRapl(get_cpu("plat8160"))
        mon = PapiPowercapMonitor(rapl, sample_interval=0.01)
        mon.start()
        mon.run_phase(0.015, active_cores=0)
        joules = mon.stop()
        assert joules == pytest.approx(110.0 * 0.015, rel=1e-9)

    def test_double_start_rejected(self):
        mon = PapiPowercapMonitor(SimulatedRapl(get_cpu("plat8160")))
        mon.start()
        with pytest.raises(ConfigurationError):
            mon.start()

    def test_stop_without_start_rejected(self):
        mon = PapiPowercapMonitor(SimulatedRapl(get_cpu("plat8160")))
        with pytest.raises(ConfigurationError):
            mon.stop()


class TestEnergyMeter:
    @pytest.mark.parametrize("duration", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_phase_rejected(self, duration):
        # Before this check an infinite phase never returned and a NaN one
        # measured 0 J.
        meter = EnergyMeter(get_cpu("plat8160"))
        with pytest.raises(ConfigurationError, match="finite"):
            meter.measure([Phase(0.03, 2), Phase(duration, 2)])

    def test_measure_compute(self):
        meter = EnergyMeter(get_cpu("plat8160"))
        report = meter.measure_compute(1.0, threads=48)
        assert report.energy_j == pytest.approx(540.0, rel=1e-9)
        assert report.avg_power_w == pytest.approx(540.0, rel=1e-9)

    def test_phase_concatenation(self):
        meter = EnergyMeter(get_cpu("plat8160"))
        a = meter.measure([Phase(0.5, 48, 1.0)])
        b = meter.measure([Phase(0.5, 0, 1.0)])
        both = a + b
        assert both.energy_j == pytest.approx(a.energy_j + b.energy_j)
        assert both.runtime_s == pytest.approx(1.0)

    def test_zone_split_matches_total(self):
        meter = EnergyMeter(get_cpu("max9480"))
        report = meter.measure([Phase(0.25, 10, 1.0)])
        assert sum(report.zone_energies_j) == pytest.approx(report.energy_j, rel=1e-6)

    def test_add_rejects_mismatched_zone_counts(self):
        """zip() used to silently truncate the per-zone split on mismatch."""
        from repro.errors import ConfigurationError

        a = EnergyMeter(get_cpu("plat8160")).measure([Phase(0.2, 4, 1.0)])
        b = EnergyMeter(get_cpu("plat8260m")).measure([Phase(0.2, 4, 1.0)])
        assert len(a.zone_energies_j) != len(b.zone_energies_j)
        with pytest.raises(ConfigurationError):
            a + b

    def test_compose_phases_overlays_concurrent_intervals(self):
        from repro.energy.measurement import Interval, compose_phases

        phases = compose_phases(
            [
                Interval(0.0, 2.0, 1, 1.0, "compress"),
                Interval(1.0, 3.0, 1, 0.1, "write"),
            ],
            max_cores=32,
        )
        assert [p.duration_s for p in phases] == pytest.approx([1.0, 1.0, 1.0])
        # Overlapped middle segment: both cores, core-weighted mean activity.
        assert phases[1].active_cores == 2
        assert phases[1].activity == pytest.approx(0.55)
        assert [p.label for p in phases] == ["compress", "compress", "write"]

    def test_compose_phases_clamps_to_cores_and_fills_gaps(self):
        from repro.energy.measurement import Interval, compose_phases

        phases = compose_phases(
            [
                Interval(0.0, 1.0, 3, 1.0, "a"),
                Interval(0.0, 1.0, 3, 1.0, "b"),
                Interval(2.0, 3.0, 1, 0.5, "c"),
            ],
            max_cores=4,
        )
        assert phases[0].active_cores == 4  # 6 requested, clamped
        assert phases[0].activity == 1.0  # load saturates
        assert phases[1].active_cores == 0 and phases[1].label == "idle"
        assert sum(p.duration_s for p in phases) == pytest.approx(3.0)

    def test_composed_timeline_is_measurable(self):
        from repro.energy.measurement import Interval, compose_phases

        cpu = get_cpu("plat8160")
        meter = EnergyMeter(cpu)
        phases = compose_phases(
            [Interval(0.0, 0.5, 2, 1.0, "compress"), Interval(0.3, 0.8, 1, 0.2, "write")],
            max_cores=cpu.cores,
        )
        report = meter.measure(phases)
        assert report.runtime_s == pytest.approx(0.8, rel=1e-9)
        assert report.energy_j > 0

    def test_more_threads_less_energy_for_fixed_work(self):
        """The Fig. 10 mechanism: shorter runtime beats higher power."""
        from repro.energy import ThroughputModel

        cpu = get_cpu("max9480")
        tm = ThroughputModel()
        meter = EnergyMeter(cpu)
        e = {}
        for threads in (1, 64):
            t = tm.runtime("szx", "compress", 10**9, 1e-3, cpu, threads)
            e[threads] = meter.measure_compute(t, threads).energy_j
        assert e[64] < e[1]


class TestComposePhasesConservation:
    """Property: overlaying intervals conserves the core.activity load
    integral — the energy the overlaid timeline deposits equals the sum of
    what the input intervals would deposit alone (no max_cores clamp)."""

    @staticmethod
    def _load_integral_intervals(intervals):
        from repro.energy.measurement import Interval  # noqa: F401

        return sum(
            (iv.end_s - iv.start_s) * iv.active_cores * iv.activity
            for iv in intervals
        )

    @staticmethod
    def _load_integral_phases(phases):
        return sum(p.duration_s * p.active_cores * p.activity for p in phases)

    def test_energy_conserved_under_arbitrary_overlap(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.energy.measurement import Interval, compose_phases

        starts = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
        # Durations include exact zero: zero-length intervals must vanish
        # without contributing energy or phantom segments.
        durations = st.one_of(
            st.just(0.0), st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False)
        )
        interval = st.builds(
            lambda s, d, c, a: Interval(s, s + d, c, a, "x"),
            starts,
            durations,
            st.integers(0, 8),
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
        )

        @settings(max_examples=200, deadline=None)
        @given(st.lists(interval, min_size=0, max_size=12))
        def check(intervals):
            phases = compose_phases(intervals)
            want = self._load_integral_intervals(intervals)
            got = self._load_integral_phases(phases)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-7)
            # The composed timeline spans first start .. last end exactly.
            live = [iv for iv in intervals if iv.end_s - iv.start_s > 1e-12]
            if live:
                span = max(iv.end_s for iv in live) - min(iv.start_s for iv in live)
                assert sum(p.duration_s for p in phases) == pytest.approx(
                    span, rel=1e-9, abs=1e-9
                )
            else:
                assert phases == []

        check()

    def test_zero_length_intervals_drop_out(self):
        from repro.energy.measurement import Interval, compose_phases

        a = Interval(0.0, 1.0, 2, 0.5, "a")
        z = Interval(0.5, 0.5, 7, 1.0, "z")
        assert compose_phases([a, z]) == compose_phases([a])


def sampled_reference(meter: EnergyMeter, phases) -> EnergyReport:
    """The PAPI discrete sum, tick by tick: a fresh RAPL node sampled by the
    powercap monitor every ``meter.sample_interval``.  The meter's one-pass
    integration must equal this in every field."""
    rapl = SimulatedRapl(meter.cpu, meter.power_model)
    monitor = PapiPowercapMonitor(rapl, sample_interval=meter.sample_interval)
    before = rapl.read_uj()
    monitor.start()
    for ph in phases:
        monitor.run_phase(ph.duration_s, ph.active_cores, ph.activity)
    total = monitor.stop()
    after = rapl.read_uj()
    zones = tuple(
        zone.delta(b, a, zone.max_energy_range_uj)
        for zone, b, a in zip(rapl.zones, before, after)
    )
    return EnergyReport(
        runtime_s=monitor.elapsed,
        energy_j=total,
        zone_energies_j=zones,
        n_samples=len(monitor.samples),
    )


#: 10 ms is the testbed default and 20 ms the cluster default; 1 ms is a
#: fine interval and 15 ms one that splits round durations unevenly.
SAMPLE_INTERVALS = (0.001, 0.010, 0.015, 0.020)


@st.composite
def meters(draw, intervals=SAMPLE_INTERVALS):
    """An EnergyMeter over the CPU catalogue, unpinned or pinned at fmin/fmax."""
    cpu = CPUS[draw(st.sampled_from(sorted(CPUS)))]
    freq = draw(st.sampled_from((None, cpu.fmin_ghz, cpu.fmax_ghz)))
    interval = draw(st.sampled_from(intervals))
    return EnergyMeter(cpu, sample_interval=interval, freq_ghz=freq)


@st.composite
def phase_lists(draw, meter: EnergyMeter, max_size: int = 6):
    dt = meter.sample_interval
    duration = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-12),  # below the phantom-tick floor
        st.integers(1, 60).map(lambda k: k * dt),  # exact multiples
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    phase = st.builds(
        Phase,
        duration,
        st.integers(0, meter.cpu.cores),
        st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    return draw(st.lists(phase, max_size=max_size))


class TestMeterMatchesSampledReference:
    """The one-pass meter against the tick-by-tick PAPI discrete sum."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equal_in_every_field(self, data):
        meter = data.draw(meters())
        phases = data.draw(phase_lists(meter))
        assert meter.measure(phases) == sampled_reference(meter, phases)

    @settings(max_examples=3, deadline=None)
    @given(st.data())
    def test_equal_across_counter_wrap(self, data):
        """A full-load phase long enough to wrap every zone counter (the
        reference takes ~50k ticks for it, hence the coarse intervals)."""
        meter = data.draw(meters(intervals=(0.015, 0.020)))
        cpu = meter.cpu
        # All cores busy, so every package draws ``watts``.
        watts = meter.power_model.package_power(0, cpu.cores)
        wrap_s = DEFAULT_MAX_ENERGY_RANGE_UJ / 1e6 / watts
        long = Phase(wrap_s * data.draw(st.floats(1.01, 1.2)), cpu.cores)
        phases = [*data.draw(phase_lists(meter, max_size=2)), long,
                  *data.draw(phase_lists(meter, max_size=2))]
        report = meter.measure(phases)
        assert report == sampled_reference(meter, phases)
        # Every zone wrapped: it reads less than the long phase deposited.
        assert max(report.zone_energies_j) < watts * long.duration_s

    @pytest.mark.parametrize(
        "phase",
        [
            Phase(-0.5, 1),
            Phase(-1e-15, 0),
            Phase(0.05, -1),
            Phase(0.05, 10_000),
            Phase(0.05, 4, -0.1),
            Phase(0.05, 4, 1.5),
            Phase(1e-13, 10_000),  # sub-floor: no tick, so no power read
            Phase(0.0, 4, 1.5),
        ],
    )
    @pytest.mark.parametrize("cpu", sorted(CPUS))
    def test_error_parity(self, phase, cpu):
        meter = EnergyMeter(get_cpu(cpu))
        phases = [Phase(0.03, 2, 0.5), phase]

        def outcome(measure):
            try:
                return measure(phases)
            except ConfigurationError:
                return ConfigurationError

        assert outcome(meter.measure) == outcome(
            lambda ph: sampled_reference(meter, ph)
        )
