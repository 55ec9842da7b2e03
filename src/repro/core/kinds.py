"""The nine built-in experiment kinds, registered as plugins of the registry.

Each kind below is declared with the same :func:`repro.runtime.registry.
register` call that :mod:`repro.cluster.kind` and :mod:`repro.dataset.kind`
use: its record class, its grid expansion, its evaluate callables, its CLI
table and its record invariants.  ``repro.runtime`` imports this module
last, so ``from repro.runtime import SweepSpec`` resolves every built-in
kind, in a fresh interpreter and in process-pool workers alike.

The expansions emit the same ``(op, kwargs)`` pairs the seed
``SweepSpec._points_*`` methods did: those pairs are the content-addressed
store identity of every evaluated point.  The evaluate callables look the
:class:`~repro.core.experiments.Testbed` method up when they are called,
so class-level patches of a method (profiling shims) still take effect.
"""

from __future__ import annotations

import math

from repro.core.experiments import (
    CheckpointPoint,
    DvfsPoint,
    IOPoint,
    PipelinePoint,
    RoundtripRecord,
    SerialPoint,
)
from repro.core.report import format_table, si
from repro.errors import ConfigurationError
from repro.runtime.registry import ExperimentKind, register
from repro.runtime.spec import GridPoint

__all__ = ["CHUNK_META_ALLOWANCE_S"]


# -- grid expansions ----------------------------------------------------------


def _expand_serial(spec) -> list:
    return [
        GridPoint.make(
            "serial_point",
            dataset=ds,
            codec=codec,
            rel_bound=eps,
            cpu_name=cpu,
            threads=spec.threads[0],
        )
        for cpu in spec.cpus
        for ds in spec.datasets
        for codec in spec.codecs
        for eps in spec.bounds
    ]


def _expand_thread(spec) -> list:
    from repro.compressors.capabilities import supported
    from repro.data.registry import get_dataset

    out = []
    for cpu in spec.cpus:
        for ds in spec.datasets:
            ndim = len(get_dataset(ds).paper_shape)
            for codec in spec.codecs:
                if spec.paper_fidelity and not supported(codec, ndim, "openmp"):
                    continue
                for th in spec.threads:
                    out.append(
                        GridPoint.make(
                            "serial_point",
                            dataset=ds,
                            codec=codec,
                            rel_bound=spec.rel_bound,
                            cpu_name=cpu,
                            threads=th,
                        )
                    )
    return out


def _validate_thread(spec) -> None:
    """Fail early — naming each capability reason — when ``paper_fidelity``
    would drop *every* (codec, dataset) combination from a thread sweep.

    Partial drops stay silent (the paper's own figures omit those series);
    an entirely empty grid is a configuration error, and the reasons come
    from :func:`repro.compressors.capabilities.unsupported_reason` instead
    of a bare zero-record sweep.
    """
    if not spec.paper_fidelity:
        return
    from repro.compressors.capabilities import supported, unsupported_reason
    from repro.data.registry import get_dataset

    reasons = []
    for ds in spec.datasets:
        ndim = len(get_dataset(ds).paper_shape)
        for codec in spec.codecs:
            if supported(codec, ndim, "openmp"):
                return  # at least one combination survives the filter
            reasons.append(
                f"{codec} on {ndim}-D {ds}: "
                f"{unsupported_reason(codec, ndim, 'openmp')}"
            )
    if reasons:
        raise ConfigurationError(
            "--paper-fidelity drops every (codec, dataset) combination from "
            "this thread sweep: " + "; ".join(reasons)
        )


def _expand_quality(spec) -> list:
    return [
        GridPoint.make("roundtrip", dataset=ds, codec=codec, rel_bound=eps)
        for ds in spec.datasets
        for eps in spec.bounds
        for codec in spec.codecs
    ]


def _expand_lossless(spec) -> list:
    out = []
    for ds in spec.datasets:
        for codec in spec.lossless_codecs:
            out.append(GridPoint.make("roundtrip", dataset=ds, codec=codec, rel_bound=0.0))
        for codec in spec.codecs:
            out.append(
                GridPoint.make("roundtrip", dataset=ds, codec=codec, rel_bound=spec.rel_bound)
            )
    return out


def _io_grid(spec, op: str, inner=lambda cpu: ({},), **fixed) -> list:
    """The io family's grid: CPU x library x dataset x (the uncompressed
    baseline, then codec x bound), each cell replicated along ``inner(cpu)``
    (extra kwargs, innermost) and carrying the ``fixed`` kwargs."""
    out = []
    for cpu in spec.cpus:
        for lib in spec.io_libraries:
            for ds in spec.datasets:
                cells = [(None, None)] if spec.include_baseline else []
                cells += [(codec, eps) for codec in spec.codecs for eps in spec.bounds]
                for codec, eps in cells:
                    for extra in inner(cpu):
                        out.append(
                            GridPoint.make(
                                op,
                                dataset=ds,
                                codec=codec,
                                rel_bound=eps,
                                io_library=lib,
                                cpu_name=cpu,
                                **fixed,
                                **extra,
                            )
                        )
    return out


def _expand_dvfs(spec) -> list:
    # An empty freqs axis means each CPU's canonical DVFS ladder.
    from repro.energy.cpus import get_cpu

    return _io_grid(
        spec,
        "dvfs_point",
        inner=lambda cpu: (
            {"freq_ghz": float(f)} for f in spec.freqs or get_cpu(cpu).freq_ladder()
        ),
    )


def _expand_checkpoint(spec) -> list:
    # The pipeline (n_chunks/overlap) and scenario fields ride along on
    # every point; the default n_chunks=1 prices checkpoints through the
    # sequential write path, n_chunks>1 through the pipelined one.
    return _io_grid(
        spec,
        "checkpoint_point",
        inner=lambda cpu: ({"mttf_s": float(m)} for m in spec.mttfs),
        work_s=spec.work_s,
        interval=spec.interval,
        n_nodes=spec.n_nodes,
        seed=spec.seed,
        downtime_s=spec.downtime_s,
        n_chunks=spec.n_chunks,
        overlap=spec.overlap,
    )


def _validate_checkpoint(spec) -> None:
    # Validate the whole scenario eagerly: a bad spec must fail at
    # construction (spec-file parse time), not per grid point inside a
    # worker pool.
    if not spec.mttfs:
        raise ConfigurationError("mttfs axis must not be empty")
    if not all(m > 0 for m in spec.mttfs):  # NaN fails too
        raise ConfigurationError("every mttf must be positive")
    if isinstance(spec.interval, str):
        if spec.interval not in ("daly", "young"):
            raise ConfigurationError(
                f"unknown interval policy {spec.interval!r}; expected "
                "'daly', 'young', or a number of seconds"
            )
    elif not spec.interval > 0:
        raise ConfigurationError("explicit interval must be positive")
    if not 0 < spec.work_s < math.inf:
        raise ConfigurationError("work_s must be positive and finite")
    if not 0 <= spec.downtime_s < math.inf:
        raise ConfigurationError("downtime_s must be finite and >= 0")
    if spec.n_nodes < 1:
        raise ConfigurationError("n_nodes must be >= 1")


# -- table renderers ----------------------------------------------------------


def _table_serial(records) -> str:
    headers = ["dataset", "codec", "REL", "cpu", "thr", "t_comp [s]",
               "t_dec [s]", "E_comp [J]", "E_dec [J]", "ratio", "PSNR [dB]"]
    rows = [
        [p.dataset, p.codec, f"{p.rel_bound:.0e}", p.cpu, p.threads,
         f"{p.compress_time_s:.3f}", f"{p.decompress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.decompress_energy_j:.1f}",
         f"{p.roundtrip.ratio:.2f}", f"{p.roundtrip.psnr_db:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_quality(records) -> str:
    headers = ["dataset", "codec", "REL", "ratio", "PSNR [dB]", "max rel err"]
    rows = [
        [r.dataset, r.codec, f"{r.rel_bound:.0e}", f"{r.ratio:.2f}",
         f"{r.psnr_db:.1f}" if r.psnr_db != float("inf") else "inf",
         f"{r.max_rel_err:.2e}"]
        for r in records
    ]
    return format_table(headers, rows)


#: The leading columns of every io-family table, filled by :func:`_io_cells`.
_IO_HEADERS = ["io", "dataset", "codec", "REL"]


def _io_cells(p) -> list:
    return [p.io_library, p.dataset, p.codec or "original",
            "-" if p.rel_bound is None else f"{p.rel_bound:.0e}"]


def _table_io(records) -> str:
    headers = [*_IO_HEADERS, "payload", "t_io [s]", "E_io [J]", "t_codec [s]",
               "E_codec [J]", "E_total [J]"]
    rows = [
        [*_io_cells(p), si(p.bytes_written, "B"), f"{p.write_time_s:.3f}",
         f"{p.write_energy_j:.1f}", f"{p.compress_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_pipeline(records) -> str:
    headers = [*_IO_HEADERS, "chunks", "ovl", "payload", "t_comp [s]",
               "t_write [s]", "t_total [s]", "saved [s]", "E_total [J]"]
    rows = [
        [*_io_cells(p), p.n_chunks, "on" if p.overlap else "off",
         si(p.bytes_written, "B"), f"{p.compress_time_s:.3f}",
         f"{p.write_time_s:.3f}", f"{p.total_time_s:.3f}",
         f"{p.overlap_saving_s:.3f}", f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_dvfs(records) -> str:
    headers = [*_IO_HEADERS, "f [GHz]", "payload", "t_comp [s]", "t_io [s]",
               "E_comp [J]", "E_io [J]", "E_total [J]"]
    rows = [
        [*_io_cells(p), f"{p.freq_ghz:.2f}", si(p.bytes_written, "B"),
         f"{p.compress_time_s:.3f}", f"{p.write_time_s:.3f}",
         f"{p.compress_energy_j:.1f}", f"{p.write_energy_j:.1f}",
         f"{p.total_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


def _table_checkpoint(records) -> str:
    headers = [*_IO_HEADERS, "MTTF [s]", "tau [s]", "ckpts", "fails", "T [s]",
               "E [J]", "E[T] [s]", "E[J]"]
    rows = [
        [*_io_cells(p),
         "inf" if p.mttf_s == float("inf") else f"{p.mttf_s:.0f}",
         "inf" if p.interval_s == float("inf") else f"{p.interval_s:.1f}",
         p.n_checkpoints, p.n_failures,
         f"{p.makespan_s:.1f}", f"{p.total_energy_j:.1f}",
         f"{p.expected_makespan_s:.1f}", f"{p.expected_energy_j:.1f}"]
        for p in records
    ]
    return format_table(headers, rows)


# -- record invariants (checked by tools/check_record_schemas.py) -------------


def _num(value) -> float:
    """A schema-validated number that may be a non-finite repr string."""
    return float(value) if isinstance(value, str) else value


def _negatives(where: str, rec: dict, times, energies=()) -> list:
    """Negative stage-time and negative energy checks over named fields."""
    errors = []
    if min(rec[name] for name in times) < 0:
        errors.append(f"{where}: negative stage time")
    if energies and min(rec[name] for name in energies) < 0:
        errors.append(f"{where}: negative energy")
    return errors


def _codec_nulls(where: str, rec: dict, cost=(), ratio: bool = False) -> list:
    """``codec`` and ``rel_bound`` are null together; the uncompressed
    baseline carries no codec ``cost`` and (with ``ratio``) a ratio of 1.0."""
    errors = []
    if (rec["codec"] is None) != (rec["rel_bound"] is None):
        errors.append(f"{where}: codec/rel_bound nullability mismatch")
    if rec["codec"] is None:
        if any(rec[name] != 0 for name in cost):
            errors.append(f"{where}: uncompressed baseline carries codec cost")
        if ratio and rec["ratio"] != 1.0:
            errors.append(f"{where}: uncompressed baseline ratio != 1.0")
    return errors


def _invariants_roundtrip(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        if rec["compressed_nbytes"] < 1 or rec["original_nbytes"] < 1:
            errors.append(f"{where}: byte counts must be >= 1")
        if rec["max_rel_err"] < 0:
            errors.append(f"{where}: negative max_rel_err")
    return errors


def _invariants_serial(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["threads"] < 1:
            errors.append(f"{where}: threads must be >= 1")
        errors += _negatives(where, rec, ("compress_time_s", "decompress_time_s"),
                             ("compress_energy_j", "decompress_energy_j"))
    return errors


_CODEC_COST = ("compress_time_s", "compress_energy_j")


def _invariants_io(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        errors += _negatives(where, rec, ("write_time_s", "compress_time_s"),
                             ("write_energy_j", "compress_energy_j"))
        errors += _codec_nulls(where, rec, cost=_CODEC_COST)
    return errors


#: Per-chunk slack for the pipeline makespan invariant.  Overlap can only
#: *hide* stage time, but each additional chunk honestly pays its library's
#: chunk_meta_latency_s (<= 3 ms for NetCDF classic), which the sequential
#: stage sum does not include — so a degenerate config (tiny payload, many
#: chunks) may legitimately end slightly above the stage sum.  10 ms/chunk
#: comfortably covers every shipped cost model while still catching real
#: model drift.
CHUNK_META_ALLOWANCE_S = 0.01


def _invariants_pipeline(records) -> list:
    errors = []
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        if rec["n_chunks"] < 1:
            errors.append(f"{where}: n_chunks must be >= 1")
        errors += _negatives(where, rec,
                             ("compress_time_s", "write_time_s", "total_time_s"),
                             ("compress_energy_j", "write_energy_j"))
        stage_sum = rec["compress_time_s"] + rec["write_time_s"]
        allowance = CHUNK_META_ALLOWANCE_S * rec["n_chunks"]
        if rec["total_time_s"] > stage_sum + allowance + 1e-9:
            errors.append(
                f"{where}: overlapped total {rec['total_time_s']} exceeds "
                f"stage sum {stage_sum} + chunk-metadata allowance {allowance}"
            )
        if not rec["overlap"] and abs(rec["total_time_s"] - stage_sum) > 1e-9:
            errors.append(f"{where}: overlap-off control does not sum exactly")
        errors += _codec_nulls(where, rec)
    return errors


def _invariants_dvfs(records) -> list:
    errors = []
    # Compression time must be non-increasing in frequency per configuration.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        if rec["freq_ghz"] <= 0:
            errors.append(f"{where}: freq_ghz must be positive")
        if rec["bytes_written"] < 1:
            errors.append(f"{where}: bytes_written must be >= 1")
        errors += _negatives(where, rec, ("compress_time_s", "write_time_s"))
        if rec["compress_energy_j"] < 0 or rec["write_energy_j"] <= 0:
            errors.append(f"{where}: energy must be positive (idle power alone is)")
        if rec["ratio"] <= 0:
            errors.append(f"{where}: ratio must be positive")
        errors += _codec_nulls(where, rec, cost=_CODEC_COST, ratio=True)
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
        )
        by_config.setdefault(key, []).append(
            (float(rec["freq_ghz"]), float(rec["compress_time_s"]))
        )
    for key, points in by_config.items():
        points.sort()
        for (f_lo, t_lo), (f_hi, t_hi) in zip(points, points[1:]):
            if t_hi > t_lo + 1e-9:
                errors.append(
                    f"config {key}: compress time rose with frequency "
                    f"({t_lo}s @ {f_lo} GHz -> {t_hi}s @ {f_hi} GHz)"
                )
    return errors


def _invariants_checkpoint(records) -> list:
    errors = []
    # Per configuration: the resolved interval must not grow as MTTF drops.
    by_config: dict[tuple, list[tuple[float, float]]] = {}
    for i, rec in enumerate(records):
        where = f"record[{i}]"
        mttf = _num(rec["mttf_s"])
        interval_s = _num(rec["interval_s"])
        if rec["n_checkpoints"] < 1:
            errors.append(f"{where}: at least one checkpoint must commit")
        if rec["makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: makespan undercuts the useful work")
        if rec["expected_makespan_s"] < rec["work_s"]:
            errors.append(f"{where}: expected makespan undercuts the work")
        if rec["rework_s"] < -1e-9 or rec["n_failures"] < 0:
            errors.append(f"{where}: negative rework or failure count")
        for name in (
            "compute_energy_j",
            "checkpoint_energy_j",
            "restart_energy_j",
            "idle_energy_j",
            "expected_energy_j",
        ):
            if rec[name] < 0:
                errors.append(f"{where}.{name}: negative energy")
        errors += _codec_nulls(
            where, rec, cost=("ckpt_compress_time_s", "ckpt_compress_energy_j"),
            ratio=True,
        )
        if math.isinf(mttf):
            if rec["n_failures"] != 0 or rec["rework_s"] != 0:
                errors.append(f"{where}: failure-free lifetime shows failures")
            ff = rec["work_s"] + rec["n_checkpoints"] * rec["ckpt_time_s"]
            if abs(rec["makespan_s"] - ff) > 1e-6 * max(1.0, ff):
                errors.append(
                    f"{where}: failure-free makespan {rec['makespan_s']} != "
                    f"work + checkpoints {ff}"
                )
        key = (
            rec["dataset"],
            rec["codec"],
            rec["rel_bound"],
            rec["io_library"],
            rec["cpu"],
            rec["interval"] if isinstance(rec["interval"], str) else None,
        )
        if isinstance(rec["interval"], str):  # daly/young adapt to the MTTF
            by_config.setdefault(key, []).append((mttf, interval_s))
    for key, points in by_config.items():
        points.sort()
        for (m_lo, tau_lo), (m_hi, tau_hi) in zip(points, points[1:]):
            if tau_lo > tau_hi + 1e-9:
                errors.append(
                    f"config {key}: optimal interval grew as MTTF dropped "
                    f"({tau_lo}s @ MTTF {m_lo}s vs {tau_hi}s @ MTTF {m_hi}s)"
                )
    return errors


# -- registrations ------------------------------------------------------------

# Ops shared by two kinds must map to the same callable (registry rule).
_SERIAL_POINT = {"serial_point": lambda tb, **kw: tb.serial_point(**kw)}
_ROUNDTRIP = {"roundtrip": lambda tb, **kw: tb.roundtrip(**kw)}

_IO_FIELDS = ("datasets", "codecs", "bounds", "cpus", "io_libraries",
              "include_baseline", "compression")

#: Tiny per-kind grids for the conformance battery: fast at scale="tiny",
#: yet covering the uncompressed baseline, a codec point, and (for the
#: checkpoint kind) an ±inf MTTF parameter.
_CONFORMANCE_IO = dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,),
                       io_libraries=("hdf5",), cpus=("max9480",))

register(ExperimentKind(
    name="serial",
    help="per-(dataset, codec, bound) (de)compression profiling (Figs. 5/7)",
    record=SerialPoint,
    expand=_expand_serial,
    evaluate=_SERIAL_POINT,
    spec_fields=("datasets", "codecs", "bounds", "cpus", "threads", "compression"),
    table=_table_serial,
    invariants=_invariants_serial,
    conformance=dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3, 1e-4),
                     cpus=("max9480",), threads=(1,)),
))
register(ExperimentKind(
    name="thread",
    help="OpenMP strong scaling along the thread axis (Fig. 10)",
    record=SerialPoint,
    expand=_expand_thread,
    evaluate=_SERIAL_POINT,
    spec_fields=("datasets", "codecs", "threads", "rel_bound", "cpus",
                 "paper_fidelity", "compression"),
    validate=_validate_thread,
    table=_table_serial,
    invariants=_invariants_serial,
    conformance=dict(datasets=("cesm",), codecs=("szx",), threads=(1, 2),
                     rel_bound=1e-3, cpus=("max9480",)),
))
register(ExperimentKind(
    name="quality",
    help="compression-ratio / PSNR quality grid (Table III)",
    record=RoundtripRecord,
    expand=_expand_quality,
    evaluate=_ROUNDTRIP,
    spec_fields=("datasets", "codecs", "bounds", "compression"),
    table=_table_quality,
    invariants=_invariants_roundtrip,
    conformance=dict(datasets=("cesm",), codecs=("szx",), bounds=(1e-3,)),
))
register(ExperimentKind(
    name="lossless",
    help="lossless vs error-bounded compression ratios (Fig. 1)",
    record=RoundtripRecord,
    expand=_expand_lossless,
    evaluate=_ROUNDTRIP,
    spec_fields=("datasets", "codecs", "lossless_codecs", "rel_bound", "compression"),
    table=_table_quality,
    invariants=_invariants_roundtrip,
    conformance=dict(datasets=("cesm",), codecs=("sz2",), lossless_codecs=("zstd",),
                     rel_bound=1e-2),
))
register(ExperimentKind(
    name="io",
    help="compress-then-write energy vs the uncompressed baseline (Fig. 11)",
    record=IOPoint,
    expand=lambda spec: _io_grid(spec, "io_point"),
    evaluate={"io_point": lambda tb, **kw: tb.io_point(**kw)},
    spec_fields=_IO_FIELDS,
    table=_table_io,
    invariants=_invariants_io,
    conformance=dict(_CONFORMANCE_IO),
))
register(ExperimentKind(
    name="read",
    help="read-path mirror of the io grid: fetch + decompress",
    record=IOPoint,
    expand=lambda spec: _io_grid(spec, "read_point"),
    evaluate={"read_point": lambda tb, **kw: tb.read_point(**kw)},
    spec_fields=_IO_FIELDS,
    table=_table_io,
    invariants=_invariants_io,
    conformance=dict(_CONFORMANCE_IO),
))
register(ExperimentKind(
    name="pipeline",
    help="block-pipelined chunked compress-and-write with stage overlap",
    record=PipelinePoint,
    expand=lambda spec: _io_grid(spec, "pipeline_point", n_chunks=spec.n_chunks,
                                 overlap=spec.overlap),
    evaluate={"pipeline_point": lambda tb, **kw: tb.pipeline_point(**kw)},
    spec_fields=(*_IO_FIELDS, "n_chunks", "overlap"),
    table=_table_pipeline,
    invariants=_invariants_pipeline,
    conformance=dict(_CONFORMANCE_IO, n_chunks=4, overlap=True),
))
register(ExperimentKind(
    name="dvfs",
    help="the compress-and-write grid swept along the DVFS frequency axis",
    record=DvfsPoint,
    expand=_expand_dvfs,
    evaluate={"dvfs_point": lambda tb, **kw: tb.dvfs_point(**kw)},
    spec_fields=(*_IO_FIELDS, "freqs"),
    table=_table_dvfs,
    invariants=_invariants_dvfs,
    conformance=dict(_CONFORMANCE_IO, freqs=(0.8, 1.9)),
))
register(ExperimentKind(
    name="checkpoint",
    help="failure-aware checkpointed application lifetimes (Daly/Young)",
    record=CheckpointPoint,
    expand=_expand_checkpoint,
    evaluate={"checkpoint_point": lambda tb, **kw: tb.checkpoint_point(**kw)},
    spec_fields=(*_IO_FIELDS, "mttfs", "work_s", "interval", "n_nodes",
                 "seed", "downtime_s", "n_chunks", "overlap"),
    validate=_validate_checkpoint,
    table=_table_checkpoint,
    invariants=_invariants_checkpoint,
    conformance=dict(_CONFORMANCE_IO, mttfs=(float("inf"), 14400.0),
                     work_s=900.0, n_nodes=4, seed=0, downtime_s=60.0,
                     interval="daly", n_chunks=1, overlap=False),
))
