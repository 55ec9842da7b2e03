"""End-to-end benchmark of the ``repro`` package.

Run from the repository root::

    python3 e2e_bench/run.py --workload io-sweep --seed 1 --seconds 30 --trace 0

Workloads: ``io-sweep``, ``cluster-contended``, ``dataset-roundtrip`` (see
``workloads.py`` and ``BENCHMARK.json``).  The load is a closed loop: one
caller in one process runs whole passes back to back, each from empty memo
caches, until ``--seconds`` of passes have run.

``--trace 0`` reports the end-to-end metrics of untraced passes:

- ``setup_s`` — importing the package plus building the inputs (median of
  several builds in the run; the import is timed once per process);
- ``peak_rss_mb`` — the process's peak resident memory;
- ``ops_per_s`` — the median over passes of operations completed per
  second of pass wall time, where an operation is a sweep point
  (io-sweep), a tenant solved (cluster-contended), or a variable written
  and read back (dataset-roundtrip).  The lines before the JSON also give
  its per-workload names (``points_per_s``, ``tenants_per_s``), the
  dataset's write and read MB/s and storage ratio, and ``failed_frac``.

``--trace 1`` alternates untraced and traced passes over the same inputs,
checks that both return identical outputs, and reports per-layer metrics
from the traced passes (timing shims from ``shims.py``), averaged per pass:
inclusive time and calls at each layer's entry points, work counters, each
layer's self time (``<layer>_self_s``) and the part no layer accounts for
(``obs.unattributed_s``), which sum to the traced wall time
(``obs.traced_wall_s``), and the tracing overhead ``obs.overhead_frac``.

Every pass's outputs are checked (see ``workloads.py``).  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when an output check fails, 2 when the package source is missing.
"""

from __future__ import annotations

import time

_T_IMPORT0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / "_work"

#: How many times set-up is repeated for the ``setup_s`` median.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed: int, import_s: float):
    """Build the inputs several times; returns (median setup_s, inputs)."""
    builds = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        builds.append(time.perf_counter() - t0)
    return import_s + statistics.median(builds), inputs


def run_loop(inputs, seconds: float, step):
    """Call ``step(input)`` over the inputs in turn until ``seconds`` pass.

    Stops at the pass boundary nearest the budget: another pass starts only
    if half a mean pass still fits.
    """
    t0 = time.perf_counter()
    n = 0
    while True:
        step(inputs[n % len(inputs)])
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / n >= seconds:
            return n


class Tally:
    """Failure and correctness accounting over every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reasons: list[str] = []

    def add(self, result) -> None:
        self.attempted += result.ops
        self.failed += result.failed
        self.errors.extend(result.errors)
        self.reasons.extend(result.reasons)


def untraced_metrics(workload, inputs, seconds, tally):
    passes = []

    def step(item):
        result = workload.run_pass(item)
        tally.add(result)
        passes.append(result)

    run_loop(inputs, seconds, step)
    rates = [(p.ops - p.failed) / p.wall_s for p in passes]
    rate = statistics.median(rates)
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    print(f"  {workload.op + 's_per_s':<15} {rate:.4f} 1/s (median of {len(rates)} passes, "
          f"quartiles {quartiles[0]:.4f} .. {quartiles[2]:.4f})")
    if workload.name == "dataset-roundtrip":
        for name, (value, unit) in dataset_rates(passes).items():
            print(f"  {name.partition('.')[2]:<15} {value:.4f} {unit}")
    return {"ops_per_s": (rate, "1/s")}


def dataset_rates(passes) -> dict:
    """Write and read throughput and storage ratio of dataset passes
    (zero for passes of other workloads)."""
    mb = sum(p.extra.get("mb", 0.0) for p in passes)
    write_s = sum(p.extra.get("write_s", 0.0) for p in passes)
    read_s = sum(p.extra.get("read_s", 0.0) for p in passes)
    stored = sum(p.extra.get("container_bytes", 0) for p in passes)
    return {
        "dataset.write_mb_per_s": (mb / write_s if write_s else 0.0, "MB/s"),
        "dataset.read_mb_per_s": (mb / read_s if read_s else 0.0, "MB/s"),
        "dataset.storage_ratio": (mb * 1e6 / stored if stored else 0.0, "ratio"),
    }


def traced_metrics(workload, inputs, seconds, tally):
    from shims import LAYERS, LayerProfiler

    prof = LayerProfiler()
    untraced, traced = [], []

    def traced_pass(item):
        prof.install()
        try:
            return workload.run_pass(item)
        finally:
            prof.uninstall()

    def step(item):
        # Alternate which side runs first, so warm-up is not charged to one.
        if len(traced) % 2 == 0:
            plain = workload.run_pass(item)
            shimmed = traced_pass(item)
        else:
            shimmed = traced_pass(item)
            plain = workload.run_pass(item)
        for result in (plain, shimmed):
            tally.add(result)
        if plain.fingerprint != shimmed.fingerprint:
            tally.errors.append("traced and untraced passes returned different outputs")
        untraced.append(plain)
        traced.append(shimmed)

    run_loop(inputs, seconds, step)
    n = len(traced)
    inc, calls, counts, self_s = prof.inclusive_s, prof.calls, prof.counts, prof.self_s
    traced_wall = sum(p.wall_s for p in traced)
    untraced_wall = sum(p.wall_s for p in untraced)
    streams = counts["dataset.streams"]
    metrics = {
        "runtime.points": (calls["runtime.evaluate"], "count"),
        "runtime.overhead_s": (inc["runtime.run"] - inc["runtime.evaluate"], "s"),
        "runtime.store_s": (inc["runtime.store"], "s"),
        "runtime.retries": (sum(p.extra.get("retries", 0) for p in traced), "count"),
        "core.roundtrip.calls": (calls["core.roundtrip"], "count"),
        "core.roundtrip_s": (inc["core.roundtrip"], "s"),
        "metrics.quality_s": (inc["metrics.quality"], "s"),
    }
    for codec in ("zfp", "sz3", "qoz", "sz2", "szx"):
        for direction in ("compress", "decompress"):
            key = f"compressors.{codec}.{direction}"
            metrics[f"{key}_s"] = (inc[key], "s")
    metrics.update({
        "compressors.lossless_s": (
            inc["compressors.lossless.compress"] + inc["compressors.lossless.decompress"], "s"),
        "compressors.huffman_encode_s": (inc["compressors.huffman_encode"], "s"),
        "compressors.huffman_decode_s": (inc["compressors.huffman_decode"], "s"),
        "compressors.pack_bits_s": (inc["compressors.pack_bits"], "s"),
        "compressors.unpack_bits_s": (inc["compressors.unpack_bits"], "s"),
        "compressors.calls": (counts["compressors.calls"], "count"),
        "energy.measure.calls": (calls["energy.measure"], "count"),
        "energy.measure_s": (inc["energy.measure"], "s"),
        "energy.samples": (counts["energy.samples"], "count"),
        "iolib.fair_share.calls": (calls["iolib.fair_share"], "count"),
        "iolib.fair_share.flows": (counts["iolib.fair_share.flows"], "count"),
        "iolib.fair_share_s": (inc["iolib.fair_share"], "s"),
        "cluster.passes": (sum(p.extra.get("passes", 0) for p in traced), "count"),
        "workloads.lifecycle.calls": (calls["workloads.lifecycle"], "count"),
        "workloads.lifecycle_s": (inc["workloads.lifecycle"], "s"),
        "workloads.failures": (counts["workloads.failures"], "count"),
        "iolib.container_write_s": (inc["iolib.container_write"], "s"),
        "iolib.container_read_s": (inc["iolib.container_read"], "s"),
        "iolib.container_bytes": (counts["iolib.container_bytes"], "B"),
        "dataset.tune_s": (inc["dataset.tune"], "s"),
        "dataset.tune.candidates": (counts["dataset.tune.candidates"], "count"),
    })
    # Per-pass averages of everything above.
    metrics = {k: (v / n, unit) for k, (v, unit) in metrics.items()}
    metrics["dataset.codec_calls_per_stream"] = (
        counts["dataset.write_codec_calls"] / streams if streams else 0.0, "ratio")
    metrics.update(dataset_rates(untraced))
    attributed = 0.0
    for layer in LAYERS:
        metrics[f"{layer}_self_s"] = (self_s[layer] / n, "s")
        attributed += self_s[layer]
    metrics["obs.unattributed_s"] = ((traced_wall - attributed) / n, "s")
    metrics["obs.traced_wall_s"] = (traced_wall / n, "s")
    metrics["obs.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    print(f"  traced pairs    {n} (untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s)")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    import_s = time.perf_counter() - _T_IMPORT0
    WORKDIR.mkdir(exist_ok=True)
    try:
        workload = workloads.make(args.workload, WORKDIR)
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        setup_s, inputs = measure_setup(workload, args.seed, import_s)
        tally = Tally()
        if args.trace:
            metrics = traced_metrics(workload, inputs, args.seconds, tally)
        else:
            metrics = untraced_metrics(workload, inputs, args.seconds, tally)
            metrics["setup_s"] = (setup_s, "s")
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    print(f"  setup_s         {setup_s:.4f} s")
    failed_frac = tally.failed / tally.attempted
    print(f"  failed_frac     {failed_frac:.4f} ({tally.failed}/{tally.attempted})")
    for reason, count in Counter(tally.reasons).items():
        print(f"  failed x{count}: {reason}")
    for error in tally.errors:
        print(f"  WRONG: {error}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<34} {value:.6g} {unit}")
    correct = not tally.errors
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
