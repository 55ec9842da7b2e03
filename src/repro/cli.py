"""Command-line interface: compress, inspect, advise, sweep, list resources.

Usage (after ``pip install -e .``)::

    python -m repro compress INPUT.npy OUTPUT.rpz --codec sz3 --rel-bound 1e-3
    python -m repro decompress OUTPUT.rpz RECON.npy
    python -m repro inspect OUTPUT.rpz
    python -m repro advise --dataset cesm --psnr-min 60 --io hdf5
    python -m repro sweep --kind serial --datasets cesm --codecs sz3,szx
    python -m repro datasets
    python -m repro cpus

Arrays are exchanged as ``.npy`` files; compressed streams carry their own
codec/geometry header, so ``decompress`` and ``inspect`` need no flags.
``sweep`` runs a declarative experiment grid through the parallel,
memoizing :mod:`repro.runtime` engine; every subcommand's flags are
documented in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

import numpy as np

import repro.cluster.kind  # noqa: F401  (registers the `cluster` experiment kind)
import repro.dataset  # noqa: F401  (registers the `dataset` experiment kind)
from repro import __version__
from repro.compressors import available_compressors, get_compressor
from repro.compressors.base import Compressor
from repro.core.report import format_table, si
from repro.runtime import registry

__all__ = ["main", "build_parser"]


_TRACE_HELP = (
    "write an execution trace to PATH on exit: Chrome trace-event JSON "
    "(Perfetto-loadable) by default, a JSONL span log when PATH ends in "
    ".jsonl (see docs/user-guide/observability.md)"
)


@contextmanager
def _maybe_tracing(path: str | None):
    """Activate a tracer for the block when ``path`` is set; write on exit.

    The trace is written even when the command fails — a failing sweep's
    trace is exactly the one worth reading.  ``None`` path = no tracer, no
    overhead (instrumentation sites see ``active_tracer() is None``).
    """
    if not path:
        yield None
        return
    from repro.obs import tracing, write_trace

    with tracing() as tracer:
        try:
            yield tracer
        finally:
            n = write_trace(tracer, path)
            print(f"trace: {n} events -> {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware error-bounded lossy compression toolkit "
        "(reproduction of Wilkins et al., arXiv:2410.23497).",
        epilog=(
            "examples:\n"
            "  repro compress field.npy field.rpz --codec sz3 --rel-bound 1e-3\n"
            "  repro advise --dataset s3d --io netcdf --psnr-min 60\n"
            "  repro advise --dataset cesm --dvfs --freqs 1.0,2.1,3.7\n"
            "  repro advise --dataset nyx --checkpoint --mttf 43200 --n-nodes 64\n"
            "  repro sweep --kind io --datasets cesm,s3d --executor process\n"
            "  repro sweep --kind pipeline --datasets nyx --n-chunks 16\n"
            "  repro sweep --kind dvfs --datasets cesm --cpus plat8160\n"
            "  repro sweep --kind checkpoint --datasets cesm --mttfs inf,86400\n"
            "  repro sweep --spec grid.json --cache-dir .sweep-cache\n\n"
            "`repro sweep` evaluates a whole (dataset x codec x bound x CPU x\n"
            "I/O library) grid in one shot — in parallel and memoized, see\n"
            "docs/cli.md and docs/user-guide/sweeps.md."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a .npy array")
    p.add_argument("input", help="input .npy file (float32/float64)")
    p.add_argument("output", help="output compressed stream")
    p.add_argument("--codec", default="sz3", choices=available_compressors())
    p.add_argument(
        "--rel-bound",
        type=float,
        default=1e-3,
        help="value-range relative error bound (ignored for lossless codecs)",
    )

    p = sub.add_parser("decompress", help="reconstruct a compressed stream")
    p.add_argument("input", help="compressed stream produced by `repro compress`")
    p.add_argument("output", help="output .npy file")

    p = sub.add_parser("inspect", help="print a compressed stream's metadata")
    p.add_argument("input", help="compressed stream")

    p = sub.add_parser(
        "advise", help="recommend a (codec, bound) for a dataset (Section III)"
    )
    p.add_argument("--dataset", default="cesm")
    p.add_argument("--psnr-min", type=float, default=60.0)
    p.add_argument("--io", default="hdf5", choices=("hdf5", "netcdf"))
    p.add_argument("--cpu", default="plat8160")
    p.add_argument(
        "--objective", default="energy", choices=("energy", "ratio", "time")
    )
    p.add_argument(
        "--strict-time",
        action="store_true",
        help="also require the Eq. 3 time benefit (paper's strict criterion)",
    )
    p.add_argument(
        "--scale",
        default="test",
        choices=("tiny", "test", "bench"),
        help="synthetic data scale used for the real compression measurements",
    )
    p.add_argument(
        "--codecs",
        default="sz2,sz3,zfp,qoz,szx",
        help="comma-separated codec grid the advisor searches",
    )
    p.add_argument(
        "--bounds",
        default="1e-1,1e-2,1e-3,1e-4,1e-5",
        help="comma-separated REL error-bound grid the advisor searches",
    )
    p.add_argument(
        "--compression",
        default=None,
        help="compression-spec string overriding --codecs/--bounds: "
        "'lossy,<codec>,rel,<bound>' pins both, 'auto,rel,<floor>' caps "
        "the bound grid at the quality floor (see docs/user-guide/datasets.md)",
    )
    p.add_argument(
        "--dvfs",
        action="store_true",
        help="search the (frequency x codec x bound) space and emit the "
        "energy-optimal compress-or-not advice with its Pareto frontier",
    )
    p.add_argument(
        "--freqs",
        default="",
        help="comma-separated core frequencies in GHz for --dvfs "
        "(default: the CPU's canonical DVFS ladder)",
    )
    p.add_argument(
        "--checkpoint",
        action="store_true",
        help="advise at whole-application scale: periodic checkpointing "
        "under failures with the compression-aware Daly interval",
    )
    p.add_argument(
        "--mttf",
        type=float,
        default=86400.0,
        help="--checkpoint: per-node MTTF in seconds (default: one day)",
    )
    p.add_argument(
        "--n-nodes",
        type=int,
        default=16,
        help="--checkpoint: allocation width (system MTTF = --mttf / nodes)",
    )
    p.add_argument(
        "--work",
        type=float,
        default=3600.0,
        help="--checkpoint: failure-free compute seconds per lifetime",
    )
    p.add_argument(
        "--interval",
        default="daly",
        help="--checkpoint: 'daly', 'young', or an explicit interval in "
        "seconds between checkpoints",
    )
    p.add_argument(
        "--downtime",
        type=float,
        default=60.0,
        help="--checkpoint: node outage seconds per failure (idle power)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="--checkpoint: failure-history seed for the simulated records",
    )

    p = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel, memoizing engine",
        description="Expand a declarative sweep spec into (dataset, codec, "
        "bound, CPU, I/O library) grid points, evaluate them — serially or "
        "on a thread/process pool, memoized in a result store — and print "
        "the records as a table (or JSON).",
    )
    p.add_argument(
        "--spec",
        help="JSON file holding a SweepSpec; overrides all grid axis flags",
    )
    p.add_argument(
        "--kind",
        default="serial",
        help="experiment kind, looked up in the runtime registry "
        f"(registered: {', '.join(registry.kind_names())})",
    )
    # The grid-axis flags are generated from the registry: exactly the axes
    # some registered experiment kind consumes, in the canonical order.  A
    # plugin kind's axes appear here automatically on registration.
    for axis in registry.cli_axes():
        if axis.parse in ("invert", "flag"):
            p.add_argument(axis.flag, action="store_true", help=axis.help)
        elif axis.parse == "float":
            p.add_argument(axis.flag, type=float, default=axis.default, help=axis.help)
        elif axis.parse == "int":
            p.add_argument(axis.flag, type=int, default=axis.default, help=axis.help)
        else:
            p.add_argument(axis.flag, default=axis.default, help=axis.help)
    p.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "thread", "process"),
        help="how grid points are evaluated",
    )
    p.add_argument(
        "--workers", type=int, default=None, help="pool width (default: CPU count)"
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persist evaluated points as JSON under this directory",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="report progress from this sweep's manifest under --cache-dir "
        "before continuing it (completed points answer from the cache)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per grid point after a retryable failure",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point attempt timeout in seconds (thread/process "
        "executors only; the serial loop cannot preempt an attempt)",
    )
    p.add_argument(
        "--on-error",
        default="raise",
        choices=("raise", "collect"),
        help="when a point exhausts its attempts: re-raise (default) or "
        "keep sweeping and report it as a structured failure",
    )
    p.add_argument(
        "--scale",
        default="test",
        choices=("tiny", "test", "bench"),
        help="synthetic data scale for the real compression measurements",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit records as a JSON array instead of a table "
        "(with a trailing __meta__ element carrying engine/store stats)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line (done/total, cache-hit/retry/"
        "failed tallies) on stderr while the sweep runs",
    )
    p.add_argument("--trace", default=None, metavar="PATH", help=_TRACE_HELP)

    p = sub.add_parser(
        "bench",
        help="run repository micro-benchmarks (kernel perf trajectory)",
        description="Time the hot entropy/bitstream kernels on representative "
        "quantizer-code streams, write BENCH_kernels.json, and report the "
        "delta against the previous run.",
    )
    p.add_argument("suite", choices=("kernels",), help="benchmark suite to run")
    p.add_argument(
        "--quick",
        action="store_true",
        help="small inputs, one repeat (CI smoke mode)",
    )
    p.add_argument(
        "--output",
        default="BENCH_kernels.json",
        help="result JSON path (previous contents become the comparison base)",
    )
    p.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset streams (default: cesm,nyx,hacc,synthetic-1m)",
    )
    p.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per kernel (best-of)"
    )
    p.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="PCT",
        help="fail (exit 1) if any kernel runs more than PCT%% slower than "
        "the previous run at equal input size",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="also print the result document as JSON on stdout",
    )
    p.add_argument("--trace", default=None, metavar="PATH", help=_TRACE_HELP)

    p = sub.add_parser(
        "dataset",
        help="write/read/tune datasets through the compression facade",
        description="The enstools-style facade: resolve a compression-spec "
        "string per variable (auto specs search the sweep grid), write the "
        "compressed container, read it back bit-exactly, or just report the "
        "tuning as `dataset`-kind records.",
    )
    dsub = p.add_subparsers(dest="dataset_command", required=True)
    common = dict(
        datasets=("--datasets", dict(
            default="cesm",
            help="comma-separated catalogue names (one variable each)")),
        compression=("--compression", dict(
            default="auto,rel,1e-3",
            help="compression spec or per-variable map, e.g. "
            "'cesm:lossy,sz3,rel,1e-3;auto' (see docs/user-guide/datasets.md)")),
        io=("--io", dict(default="hdf5", choices=("hdf5", "netcdf"))),
        cpu=("--cpu", dict(default="max9480")),
        scale=("--scale", dict(
            default="test", choices=("tiny", "test", "bench"),
            help="synthetic data scale")),
        codecs=("--codecs", dict(
            default="sz2,sz3,zfp,qoz,szx",
            help="codec grid an 'auto' spec searches")),
        bounds=("--bounds", dict(
            default="1e-1,1e-2,1e-3,1e-4,1e-5",
            help="REL bound grid an 'auto' spec searches")),
    )

    w = dsub.add_parser("write", help="compress per spec and write a container")
    w.add_argument("output", help="container file to write")
    for key in ("datasets", "compression", "io", "scale", "codecs", "bounds"):
        flag, kw = common[key]
        w.add_argument(flag, **kw)
    w.add_argument("--n-chunks", type=int, default=1,
                   help="store each variable as this many leading-axis chunks")
    w.add_argument("--trace", default=None, metavar="PATH", help=_TRACE_HELP)

    r = dsub.add_parser("read", help="read a facade container back")
    r.add_argument("input", help="container file written by `repro dataset write`")
    r.add_argument("--out-dir", default=None,
                   help="also dump each variable as OUT_DIR/<name>.npy")

    t = dsub.add_parser(
        "tune",
        help="resolve specs against the sweep grid (dataset-kind records)",
    )
    for key in ("datasets", "compression", "io", "cpu", "scale", "codecs",
                "bounds"):
        flag, kw = common[key]
        t.add_argument(flag, **kw)
    t.add_argument("--json", action="store_true",
                   help="emit the records as a JSON array instead of a table")
    t.add_argument("--trace", default=None, metavar="PATH", help=_TRACE_HELP)

    p = sub.add_parser(
        "cluster",
        help="multi-tenant cluster scenarios (shared-PFS write contention)",
        description="Simulate a declarative multi-tenant scenario — "
        "FIFO+backfill scheduling, per-tenant checkpoint lifecycles, and "
        "one cluster-wide fair-share PFS solve — or search every "
        "per-tenant compression mix for the machine-wide energy optimum.",
    )
    csub = p.add_subparsers(dest="cluster_command", required=True)
    cluster_common = (
        ("--scenario", dict(
            required=True,
            help="scenario string, e.g. 'nodes=8; a=ranks:96,codec:szx; "
            "b=ranks:96,codec:none' (grammar: docs/user-guide/cluster.md)")),
        ("--dataset", dict(
            default="nyx",
            help="catalogue dataset every tenant writes (Fig. 12 payload)")),
        ("--cpu", dict(default="plat8160")),
        ("--io", dict(default="hdf5", choices=("hdf5", "netcdf"))),
        ("--scale", dict(
            default="test", choices=("tiny", "test", "bench"),
            help="synthetic data scale for the compression measurements")),
    )
    cr = csub.add_parser("run", help="simulate one scenario end to end")
    for flag, kw in cluster_common:
        cr.add_argument(flag, **kw)
    cr.add_argument("--json", action="store_true",
                    help="emit the ClusterResult records as a JSON array")
    cr.add_argument("--trace", default=None, metavar="PATH", help=_TRACE_HELP)
    ca = csub.add_parser(
        "advise",
        help="search per-tenant compression mixes for the energy optimum",
    )
    for flag, kw in cluster_common:
        ca.add_argument(flag, **kw)

    p = sub.add_parser(
        "trace",
        help="inspect trace files written by --trace",
        description="Work with the observability traces the --trace flag "
        "writes: summarize renders per-track span counts, busy time, and "
        "recorded metrics for either export format.",
    )
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser("summarize", help="print a per-track summary table")
    ts.add_argument("input", help="trace file (Chrome JSON or JSONL span log)")

    sub.add_parser("datasets", help="list the dataset catalogue (Table II)")
    sub.add_parser("cpus", help="list the CPU catalogue (Table I)")
    sub.add_parser("codecs", help="list registered compressors")
    return parser


def _cmd_compress(args) -> int:
    data = np.load(args.input)
    comp = get_compressor(args.codec)
    buf = comp.compress(data, args.rel_bound if not comp.lossless else 0.0)
    with open(args.output, "wb") as fh:
        fh.write(buf.data)
    print(
        f"{args.input}: {si(buf.original_nbytes, 'B')} -> {si(buf.nbytes, 'B')} "
        f"({buf.ratio:.2f}x, {buf.bitrate:.2f} bits/elem) via {buf.codec}"
    )
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    codec, shape, dtype, rel_bound, _, _, _ = Compressor._unpack_header(stream)
    recon = get_compressor(codec).decompress(stream)
    np.save(args.output, recon)
    print(
        f"{args.input}: {codec} stream -> {args.output} "
        f"{recon.shape} {recon.dtype} (rel_bound {rel_bound:.2e})"
    )
    return 0


def _cmd_inspect(args) -> int:
    with open(args.input, "rb") as fh:
        stream = fh.read()
    codec, shape, dtype, rel_bound, abs_bound, flag, payload = (
        Compressor._unpack_header(stream)
    )
    n_elems = int(np.prod(shape))
    original = n_elems * dtype.itemsize
    rows = [
        ["codec", codec],
        ["shape", "x".join(map(str, shape))],
        ["dtype", str(dtype)],
        ["rel bound", f"{rel_bound:.3e}"],
        ["abs bound (effective)", f"{abs_bound:.3e}"],
        ["stream bytes", si(len(stream), "B")],
        ["original bytes", si(original, "B")],
        ["ratio", f"{original / len(stream):.2f}x"],
        ["storage flag", {0: "normal", 1: "constant", 2: "lossless"}[flag]],
    ]
    print(format_table(["field", "value"], rows, title=args.input))
    return 0


def _cmd_advise(args) -> int:
    from repro.core.advisor import Advisor
    from repro.core.experiments import Testbed
    from repro.core.tradeoff import TradeoffAnalyzer

    if args.dvfs and args.checkpoint:
        print("--dvfs and --checkpoint are separate advisors; pick one",
              file=sys.stderr)
        return 2
    if args.dvfs:
        return _cmd_advise_dvfs(args)
    if args.checkpoint:
        return _cmd_advise_checkpoint(args)
    analyzer = TradeoffAnalyzer(
        Testbed(scale=args.scale), cpu_name=args.cpu, io_library=args.io
    )
    rec = Advisor(analyzer).recommend(
        args.dataset,
        psnr_min_db=args.psnr_min,
        objective=args.objective,
        codecs=_csv_arg(args.codecs),
        bounds=tuple(float(b) for b in _csv_arg(args.bounds)),
        require_time_benefit=args.strict_time,
        compression=args.compression,
    )
    print(rec.rationale)
    if rec.should_compress:
        c = rec.record.conditions
        print(
            f"  Eq.3 time: {c.time_beneficial}  Eq.4 energy: {c.energy_beneficial}  "
            f"Eq.5 quality: {c.quality_acceptable}"
        )
        return 0
    return 1


def _cmd_advise_dvfs(args) -> int:
    """`repro advise --dvfs`: the frequency-aware compress-or-not advisor."""
    from repro.core.advisor import DvfsAdvisor
    from repro.core.experiments import Testbed

    freqs = tuple(float(f) for f in args.freqs.split(",") if f)
    advisor = DvfsAdvisor(
        Testbed(scale=args.scale), cpu_name=args.cpu, io_library=args.io
    )
    advice = advisor.advise(
        args.dataset,
        psnr_min_db=args.psnr_min,
        codecs=_csv_arg(args.codecs),
        bounds=tuple(float(b) for b in _csv_arg(args.bounds)),
        freqs=freqs,
        objective=args.objective,
        require_time_benefit=args.strict_time,
        compression=args.compression,
    )
    print(advice.rationale)
    rows = [
        [
            f"{p.freq_ghz:.2f}",
            p.codec or "original",
            "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
            f"{p.total_time_s:.3f}",
            f"{p.total_energy_j:.1f}",
            f"{p.ratio:.2f}" if p.codec else "-",
        ]
        for p in advice.pareto
    ]
    print(
        format_table(
            ["f [GHz]", "codec", "REL", "t [s]", "E [J]", "ratio"],
            rows,
            title="time/energy Pareto frontier (fastest first)",
        )
    )
    # The race/steady/chosen-deadline verdict is part of advice.rationale,
    # printed above — no second formatting of the same numbers here.
    return 0 if advice.compress else 1


def _csv_arg(text: str) -> tuple[str, ...]:
    """Split a comma-separated flag, dropping empty items."""
    return tuple(part for part in text.split(",") if part)


def _interval_arg(text: str):
    """Parse a checkpoint interval flag: a policy name or seconds."""
    return text if text in ("daly", "young") else float(text)


def _cmd_advise_checkpoint(args) -> int:
    """`repro advise --checkpoint`: the failure-aware Daly advisor."""
    from repro.core.advisor import DalyAdvisor
    from repro.core.experiments import Testbed

    advisor = DalyAdvisor(
        Testbed(scale=args.scale), cpu_name=args.cpu, io_library=args.io
    )
    advice = advisor.advise(
        args.dataset,
        mttf_s=args.mttf,
        n_nodes=args.n_nodes,
        work_s=args.work,
        psnr_min_db=args.psnr_min,
        codecs=_csv_arg(args.codecs),
        bounds=tuple(float(b) for b in _csv_arg(args.bounds)),
        interval=_interval_arg(args.interval),
        seed=args.seed,
        downtime_s=args.downtime,
        compression=args.compression,
    )
    print(advice.rationale)
    ranked = sorted(advice.candidates, key=lambda p: p.expected_energy_j)
    rows = [
        [
            p.codec or "original",
            "-" if p.rel_bound is None else f"{p.rel_bound:.0e}",
            f"{p.interval_s:.1f}",
            p.n_checkpoints,
            f"{p.expected_makespan_s:.0f}",
            f"{p.expected_energy_j:.0f}",
            f"{p.makespan_s:.0f}",
            f"{p.total_energy_j:.0f}",
            p.n_failures,
        ]
        for p in ranked
    ]
    print(
        format_table(
            ["codec", "REL", "tau [s]", "ckpts", "E[T] [s]", "E[J]",
             "sim T [s]", "sim J", "fails"],
            rows,
            title="checkpointed lifetimes, cheapest expected energy first "
            f"(seed {args.seed})",
        )
    )
    return 0 if advice.compress else 1


def _sweep_table(records, kind_name: str | None = None) -> str:
    """Render engine records via the kind's registered table renderer.

    Without a ``kind_name`` (or for a kind that declares no table) the
    renderer is matched by record class; a plugin with neither gets a
    generic one-column repr table.
    """
    if kind_name is not None:
        kind = registry.get_kind(kind_name)
        if kind.table is not None:
            return kind.table(records)
    for kind in registry.all_kinds():
        if kind.table is not None and kind.record is type(records[0]):
            return kind.table(records)
    return format_table(["record"], [[repr(r)] for r in records])


def _failure_table(failures) -> str:
    """Render collected :class:`FailedPoint`s as a diagnostic table."""
    rows = [
        [
            f.op,
            ", ".join(f"{k}={v}" for k, v in f.params) or "-",
            f.reason,
            f.attempts,
            f.error_chain[0] if f.error_chain else "-",
        ]
        for f in failures
    ]
    return format_table(
        ["op", "params", "reason", "tries", "error"],
        rows,
        title=f"{len(failures)} failed grid points",
    )


def _cmd_sweep(args) -> int:
    import json as _json

    from repro.core.experiments import Testbed
    from repro.runtime.engine import SweepEngine
    from repro.runtime.faults import FailedPoint, RetryPolicy, SweepManifest, sweep_id
    from repro.runtime.spec import SweepSpec
    from repro.runtime.store import ResultStore, testbed_fingerprint

    if args.resume and not args.cache_dir:
        print("--resume needs --cache-dir: the manifest lives next to the "
              "cache entries", file=sys.stderr)
        return 2
    if args.spec:
        with open(args.spec) as fh:
            spec = SweepSpec.from_json(fh.read())
    else:
        # Every registry axis flag maps straight onto its SweepSpec field;
        # the spec itself rejects an unknown --kind (naming the known ones)
        # and runs the kind's registered validation.
        axes = {
            axis.field: registry.axis_spec_value(axis, getattr(args, axis.dest))
            for axis in registry.cli_axes()
        }
        spec = SweepSpec(kind=args.kind, **axes)
    testbed = Testbed(scale=args.scale)
    if args.resume:
        progress = SweepManifest.progress(
            args.cache_dir, sweep_id(spec, testbed_fingerprint(testbed))
        )
        if progress is None:
            print("no manifest for this sweep yet; starting fresh",
                  file=sys.stderr)
        else:
            print(f"resuming: {progress[0]}/{progress[1]} unique points "
                  "already complete", file=sys.stderr)
    with _maybe_tracing(args.trace) as tracer:
        from repro.obs import ProgressPrinter, TracerBridge, compose

        engine = SweepEngine(
            testbed=testbed,
            store=ResultStore(cache_dir=args.cache_dir),
            executor=args.executor,
            max_workers=args.workers,
            retry_policy=RetryPolicy(
                max_attempts=args.retries + 1, timeout_s=args.timeout
            ),
            on_error=args.on_error,
            on_event=compose(
                TracerBridge(tracer) if tracer is not None else None,
                ProgressPrinter() if args.progress else None,
            ),
        )
        results = engine.run(spec)
    if not results:
        print("sweep expanded to zero grid points", file=sys.stderr)
        return 1
    failures = [r for r in results if isinstance(r, FailedPoint)]
    records = [r for r in results if not isinstance(r, FailedPoint)]
    if args.json:
        # Lossless round-trips carry psnr_db=inf; registry.to_wire keeps
        # the emitted JSON RFC-valid (json.dumps would print `Infinity`).
        # Failed positions stay in grid order as tagged __failed__ objects.
        # The trailing __meta__ element carries run statistics; record
        # consumers (and the schema checkers) skip it by its tag.
        wire_records = iter(registry.to_wire(records))
        wire = [
            r.to_wire() if isinstance(r, FailedPoint) else next(wire_records)
            for r in results
        ]
        wire.append({
            "__meta__": {
                "engine": engine.stats.snapshot(),
                "store": engine.store.stats,
                "executor": args.executor,
                "kind": spec.kind,
            }
        })
        print(_json.dumps(wire, indent=2))
    else:
        if records:
            print(_sweep_table(records, kind_name=spec.kind))
        if failures:
            print(_failure_table(failures))
        stats = engine.store.stats
        print(
            f"\n{len(results)} points: {engine.stats.computed} computed, "
            f"{engine.stats.cache_hits} cached "
            f"(memory {stats['memory_hits']}, disk {stats['disk_hits']}), "
            f"{engine.stats.retries} retries, {len(failures)} failed "
            f"via {args.executor} executor"
        )
    return 1 if failures else 0


def _cmd_bench(args) -> int:
    import json as _json

    from repro.errors import BenchmarkRegression
    from repro.runtime.benchmark import run_and_report

    datasets = (
        tuple(d for d in args.datasets.split(",") if d) if args.datasets else None
    )
    try:
        with _maybe_tracing(args.trace):
            doc = run_and_report(
                args.output,
                datasets=datasets,
                quick=args.quick,
                repeats=args.repeats,
                max_regression_pct=args.max_regression,
            )
    except BenchmarkRegression as exc:
        print(f"BENCH REGRESSION: {exc}")
        for d in exc.offenders:
            print(
                f"  {d['kernel']}/{d['dataset']}: "
                f"{d['old_seconds_per_call']:.4f}s -> "
                f"{d['new_seconds_per_call']:.4f}s "
                f"({1 / d['speedup']:.2f}x slower)"
            )
        return 1
    if args.json:
        print(_json.dumps(doc, indent=2))
    return 0


def _tuning_table(tuning, title: str) -> str:
    rows = [
        [
            e.variable,
            e.requested,
            e.resolved,
            f"{e.ratio:.2f}",
            f"{e.max_rel_err:.2e}",
            "-" if e.floor is None else f"{e.floor:.0e}",
            e.candidates,
        ]
        for e in tuning
    ]
    return format_table(
        ["variable", "requested", "resolved", "ratio", "max rel err",
         "floor", "cands"],
        rows,
        title=title,
    )


def _cmd_dataset_write(args) -> int:
    from repro.core.experiments import Testbed
    from repro.dataset import AutoTuner, Dataset, write

    ds = Dataset.from_catalog(_csv_arg(args.datasets), scale=args.scale)
    tuner = AutoTuner(
        testbed=Testbed(scale=args.scale),
        codecs=_csv_arg(args.codecs),
        bounds=tuple(float(b) for b in _csv_arg(args.bounds)),
        io_library=args.io,
    )
    with _maybe_tracing(args.trace):
        report = write(
            ds,
            args.output,
            compression=args.compression,
            io_library=args.io,
            n_chunks=args.n_chunks,
            tuner=tuner,
        )
    print(_tuning_table(report.tuning, title=f"wrote {args.output}"))
    print(
        f"{si(report.original_nbytes, 'B')} -> {si(report.bytes_written, 'B')} "
        f"({report.ratio:.2f}x) via {report.io_library}, "
        f"spec {report.compression}"
    )
    return 0


def _cmd_dataset_read(args) -> int:
    import pathlib

    from repro.dataset import read

    ds = read(args.input)
    rows = [
        [
            v.name,
            "x".join(map(str, v.data.shape)),
            str(v.data.dtype),
            si(v.nbytes, "B"),
            ds.attrs.get(f"spec/{v.name}", "-"),
        ]
        for v in ds
    ]
    print(
        format_table(
            ["variable", "shape", "dtype", "size", "stored spec"],
            rows,
            title=f"{args.input} ({ds.attrs.get('io_library', '?')})",
        )
    )
    if args.out_dir:
        out = pathlib.Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for v in ds:
            np.save(out / f"{v.name}.npy", v.data)
        print(f"dumped {len(ds)} arrays under {out}/")
    return 0


def _cmd_dataset_tune(args) -> int:
    import json as _json

    from repro.core.experiments import Testbed
    from repro.runtime.engine import SweepEngine
    from repro.runtime.spec import SweepSpec
    from repro.runtime.store import ResultStore

    spec = SweepSpec(
        kind="dataset",
        datasets=_csv_arg(args.datasets),
        codecs=_csv_arg(args.codecs),
        bounds=tuple(float(b) for b in _csv_arg(args.bounds)),
        cpus=(args.cpu,),
        io_libraries=(args.io,),
        compression=args.compression,
    )
    engine = SweepEngine(
        testbed=Testbed(scale=args.scale), store=ResultStore(), executor="serial"
    )
    with _maybe_tracing(args.trace):
        records = engine.run(spec)
    if args.json:
        print(_json.dumps(registry.to_wire(records), indent=2))
    else:
        print(_sweep_table(records, kind_name="dataset"))
    return 0


def _cmd_dataset(args) -> int:
    return {
        "write": _cmd_dataset_write,
        "read": _cmd_dataset_read,
        "tune": _cmd_dataset_tune,
    }[args.dataset_command](args)


def _tenant_table(result) -> str:
    """Per-tenant schedule/write/energy detail of one ClusterResult."""
    rows = [
        [
            t.name,
            str(t.ranks),
            str(t.nodes),
            t.codec or "none",
            f"{t.submit_s:g}",
            f"{t.start_s:.2f}",
            "yes" if t.backfilled else "-",
            f"{t.pre_s:.1f}",
            f"{t.write_time_s:.2f}",
            f"{t.stretch:.2f}",
            str(t.n_failures),
            f"{t.total_energy_j:.1f}",
        ]
        for t in result.tenants
    ]
    return format_table(
        ["job", "ranks", "nodes", "codec", "submit", "start", "bf",
         "pre [s]", "write [s]", "stretch", "fails", "E [J]"],
        rows,
        title=f"tenants of '{result.scenario}' "
        f"(makespan {result.makespan_s:.2f} s, "
        f"{result.iterations} fixed-point pass(es))",
    )


def _cmd_cluster_run(args) -> int:
    import json as _json

    from repro.core.experiments import Testbed
    from repro.runtime.engine import SweepEngine
    from repro.runtime.spec import SweepSpec
    from repro.runtime.store import ResultStore

    spec = SweepSpec(
        kind="cluster",
        datasets=_csv_arg(args.dataset),
        cpus=(args.cpu,),
        io_libraries=(args.io,),
        scenario=args.scenario,
    )
    engine = SweepEngine(
        testbed=Testbed(scale=args.scale), store=ResultStore(), executor="serial"
    )
    with _maybe_tracing(args.trace):
        records = engine.run(spec)
    if args.json:
        print(_json.dumps(registry.to_wire(records), indent=2))
        return 0
    print(_sweep_table(records, kind_name="cluster"))
    for record in records:
        print(_tenant_table(record))
    return 0


def _cmd_cluster_advise(args) -> int:
    from repro.core.advisor import ClusterAdvisor
    from repro.core.experiments import Testbed

    advisor = ClusterAdvisor(
        Testbed(scale=args.scale), cpu_name=args.cpu, io_library=args.io
    )
    advice = advisor.advise(args.dataset, args.scenario)
    print(advice.rationale)
    rows = [
        [
            "+".join(codec or "none" for _, codec in mix),
            f"{res.makespan_s:.2f}",
            f"{res.max_stretch:.2f}",
            f"{res.total_energy_j:.1f}",
        ]
        for mix, res in advice.mixes
    ]
    print(
        format_table(
            ["mix", "makespan [s]", "stretch", "E [J]"],
            rows,
            title="per-tenant compression mixes, cheapest machine-wide first",
        )
    )
    return 0 if advice.compress else 1


def _cmd_cluster(args) -> int:
    return {
        "run": _cmd_cluster_run,
        "advise": _cmd_cluster_advise,
    }[args.cluster_command](args)


def _cmd_trace_summarize(args) -> int:
    from repro.obs import load_trace, summarize

    try:
        spans, metrics = load_trace(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read trace {args.input}: {exc}", file=sys.stderr)
        return 1
    if not spans:
        print(f"{args.input}: no spans recorded")
        return 0
    print(summarize(spans, metrics), end="")
    return 0


def _cmd_trace(args) -> int:
    return {
        "summarize": _cmd_trace_summarize,
    }[args.trace_command](args)


def _cmd_datasets(args) -> int:
    from repro.data.registry import DATASETS

    rows = [
        [
            s.name,
            s.domain,
            "x".join(map(str, s.paper_shape)),
            f"{s.paper_mb:.1f} MB",
            str(s.dtype),
        ]
        for s in DATASETS.values()
    ]
    print(format_table(["name", "domain", "paper shape", "size", "dtype"], rows))
    return 0


def _cmd_cpus(args) -> int:
    from repro.energy.cpus import CPUS

    rows = [
        [c.name, c.model, c.codename, c.cores, c.sockets, f"{c.tdp_w:.0f} W"]
        for c in CPUS.values()
    ]
    print(
        format_table(["name", "model", "codename", "cores", "sockets", "TDP"], rows)
    )
    return 0


def _cmd_codecs(args) -> int:
    rows = [
        [n, "lossless" if get_compressor(n).lossless else "error-bounded"]
        for n in available_compressors()
    ]
    print(format_table(["codec", "kind"], rows))
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "inspect": _cmd_inspect,
    "advise": _cmd_advise,
    "dataset": _cmd_dataset,
    "cluster": _cmd_cluster,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "datasets": _cmd_datasets,
    "cpus": _cmd_cpus,
    "codecs": _cmd_codecs,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro``."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
