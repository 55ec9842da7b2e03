"""The three benchmark workloads: inputs, one timed pass, and output checks.

Each workload drives the package through the entry points its CLI uses:

- ``io-sweep`` — ``SweepEngine(...).run(SweepSpec(kind="io", ...))`` over
  the paper's Fig. 11 grid at bench scale (cesm/nyx/hacc × szx/sz3/zfp/qoz
  × 1e-3/1e-2 plus the uncompressed baselines, on hdf5: 27 points).  The
  codec-bound path; ZFP dominates it.  Its inputs are catalogue names, so
  the seed does not change them.
- ``cluster-contended`` — seeded 128-tenant scenarios on 64 nodes through
  the ``cluster`` experiment kind.  The shared-PFS path; the energy meter
  and the fair-share fixed-point solve dominate it and codec work is
  negligible.
- ``dataset-roundtrip`` — ``repro.dataset.write`` then ``read`` of a
  seeded six-variable ``Dataset.from_arrays`` (about 4 MB).  SZ-family,
  Huffman, tuner and container work on real bytes; no ZFP, meter or
  cluster solver.

Every pass starts from empty memo caches (a fresh ``ResultStore`` and an
empty testbed round-trip cache), as each CLI invocation does.  Input
generation happens in :meth:`build`, before timing starts.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# repro.cluster must load before repro.workloads (import cycle at the
# package level), and repro.cluster.kind registers the cluster kind.
import repro.cluster  # noqa: F401
import repro.cluster.kind  # noqa: F401
import repro.core.experiments as experiments
from repro.cluster.scheduler import parse_scenario
from repro.data import cesm, extra, hacc, nyx
from repro.data.registry import generate
import repro.dataset as dataset_io
from repro.dataset import AutoTuner, Dataset, parse_compression
from repro.errors import ReproError
from repro.runtime import FailedPoint, ResultStore, SweepEngine, SweepSpec
from repro.runtime.registry import check_records, get_kind, to_wire

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class PassResult:
    """What one timed pass did: wall time, work, failures and outputs."""

    wall_s: float
    ops: int  # operations attempted (points, tenants or variables)
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # output-check failures
    fingerprint: object = None  # compared between traced and untraced passes
    extra: dict = field(default_factory=dict)


def fresh_engine() -> SweepEngine:
    """The CLI's serial engine with empty memo caches."""
    experiments._ROUNDTRIP_CACHE.clear()
    return SweepEngine(
        experiments.Testbed(), store=ResultStore(), executor="serial",
        on_error="collect",
    )


def _failure_reason(failed: FailedPoint) -> str:
    params = {
        k: v if len(repr(v)) <= 60 else repr(v)[:57] + "..."
        for k, v in failed.as_params().items()
    }
    chain = "; ".join(failed.error_chain)
    return f"{failed.op} {params}: {failed.reason}: {chain}"


def to_wire_ok(records) -> list:
    """Records in wire form, with failed points in their tagged form."""
    return [r.to_wire() if isinstance(r, FailedPoint) else to_wire([r])[0] for r in records]


class IoSweep:
    """The Fig. 11 compress-then-write sweep at bench scale."""

    name = "io-sweep"
    op = "point"
    DATASETS = ("cesm", "nyx", "hacc")
    SPEC = dict(
        kind="io", datasets=DATASETS, codecs=("szx", "sz3", "zfp", "qoz"),
        bounds=(1e-3, 1e-2), io_libraries=("hdf5",), cpus=("max9480",),
        include_baseline=True,
    )
    REFERENCE = REFERENCE_DIR / "io_sweep.json"

    def __init__(self):
        self.reference = json.loads(self.REFERENCE.read_text())

    def build(self, seed: int) -> list:
        generate.cache_clear()
        for dataset in self.DATASETS:
            generate(dataset, "bench")
        return [SweepSpec(**self.SPEC)]

    def run_pass(self, spec) -> PassResult:
        t0 = time.perf_counter()
        engine = fresh_engine()
        records = engine.run(spec)
        wall = time.perf_counter() - t0
        wire = to_wire_ok(records)
        result = PassResult(wall_s=wall, ops=len(records), fingerprint=wire)
        result.extra["retries"] = engine.stats.retries
        if len(wire) != len(self.reference):
            result.errors.append(
                f"io-sweep returned {len(wire)} records, "
                f"{self.REFERENCE.name} holds {len(self.reference)}"
            )
            return result
        ok = []
        for i, (record, got) in enumerate(zip(records, wire)):
            if isinstance(record, FailedPoint):
                result.failed += 1
                result.reasons.append(_failure_reason(record))
            elif got != self.reference[i]:
                result.errors.append(f"io-sweep record {i} differs from {self.REFERENCE.name}")
            else:
                ok.append(got)
        if ok:
            result.errors.extend(check_records(get_kind("io"), ok))
        return result


class ClusterContended:
    """Seeded multi-tenant scenarios contending for one shared PFS."""

    name = "cluster-contended"
    op = "tenant"
    N_SCENARIOS = 4
    N_TENANTS = 128
    N_NODES = 64
    RANKS = 96
    N_LIFECYCLE = 4
    SUBMIT_WINDOW_S = 30.0

    def scenario(self, rng: random.Random) -> str:
        """One scenario string: mixed codecs, clustered submits, a few
        tenants with a checkpoint/failure lifecycle before their dump."""
        lifecycle = set(rng.sample(range(self.N_TENANTS), self.N_LIFECYCLE))
        clauses = [f"nodes={self.N_NODES}"]
        for i in range(self.N_TENANTS):
            codec = rng.choice(("szx", "sz3", "none"))
            attrs = [
                f"ranks:{self.RANKS}", f"codec:{codec}",
                f"submit:{rng.uniform(0.0, self.SUBMIT_WINDOW_S):.3f}",
            ]
            if i in lifecycle:
                attrs += ["work:1800", "mttf:7200", f"seed:{rng.randrange(1 << 16)}"]
            clauses.append(f"t{i:03d}=" + ",".join(attrs))
        return "; ".join(clauses)

    def build(self, seed: int) -> list:
        generate.cache_clear()
        generate("cesm", "bench")
        rng = random.Random(seed)
        return [
            SweepSpec(
                kind="cluster", datasets=("cesm",), io_libraries=("hdf5",),
                cpus=("max9480",), scenario=self.scenario(rng),
            )
            for _ in range(self.N_SCENARIOS)
        ]

    def run_pass(self, spec) -> PassResult:
        t0 = time.perf_counter()
        engine = fresh_engine()
        records = engine.run(spec)
        wall = time.perf_counter() - t0
        (record,) = records
        tenants = len(parse_scenario(spec.scenario).jobs)
        result = PassResult(wall_s=wall, ops=tenants)
        result.extra["retries"] = engine.stats.retries
        result.fingerprint = to_wire_ok(records)
        if isinstance(record, FailedPoint):
            result.failed = tenants
            result.reasons.append(_failure_reason(record))
            return result
        result.extra["passes"] = record.iterations
        result.errors.extend(check_records(get_kind("cluster"), to_wire(records)))
        return result


class DatasetRoundtrip:
    """``write`` then ``read`` of a seeded six-variable dataset."""

    name = "dataset-roundtrip"
    op = "variable"
    N_DATASETS = 4
    N_CHUNKS = 4
    TUNED_CODECS = ("szx", "sz3")
    #: name -> (generator, keyword arguments other than the seed, spec)
    VARIABLES = {
        "temperature": (cesm.generate_cesm, {"shape": (8, 96, 224)}, "lossy,sz3,rel,1e-3"),
        "density": (nyx.generate_nyx, {"shape": (56, 56, 56)}, "lossy,qoz,rel,1e-3"),
        "pressure": (extra.generate_isabel, {"shape": (12, 120, 120)}, "lossy,sz2,rel,1e-3"),
        "position": (hacc.generate_hacc, {"n": 172032}, "lossy,szx,rel,1e-3"),
        "amplitude": (extra.generate_qmcpack, {"shape": (24, 64, 112)}, "auto,rel,1e-3"),
        "detector": (extra.generate_exafel, {"shape": (416, 416)}, "lossless,zstd"),
    }
    COMPRESSION = ";".join(f"{name}:{spec}" for name, (_, _, spec) in VARIABLES.items())

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def build(self, seed: int) -> list:
        rng = random.Random(seed)
        datasets = []
        for _ in range(self.N_DATASETS):
            arrays = {
                name: gen(**kwargs, seed=rng.randrange(1 << 30))
                for name, (gen, kwargs, _) in self.VARIABLES.items()
            }
            datasets.append(Dataset.from_arrays(arrays))
        return datasets

    def run_pass(self, dataset) -> PassResult:
        path = self.workdir / "roundtrip.h5"
        experiments._ROUNDTRIP_CACHE.clear()
        result = PassResult(wall_s=0.0, ops=len(dataset))
        t0 = time.perf_counter()
        try:
            report = dataset_io.write(
                dataset, path, compression=self.COMPRESSION, io_library="hdf5",
                n_chunks=self.N_CHUNKS, tuner=AutoTuner(codecs=self.TUNED_CODECS),
            )
            t1 = time.perf_counter()
            back = dataset_io.read(path)
            t2 = time.perf_counter()
        except ReproError as exc:
            result.wall_s = time.perf_counter() - t0
            result.failed = len(dataset)
            result.reasons.append(f"dataset write/read: {type(exc).__name__}: {exc}")
            return result
        result.wall_s = t2 - t0
        result.extra.update(
            write_s=t1 - t0, read_s=t2 - t1, mb=dataset.nbytes / 1e6,
            container_bytes=report.bytes_written,
        )
        result.fingerprint = (path.read_bytes(), [v.data.tobytes() for v in back])
        result.errors.extend(self.check(dataset, report, back))
        return result

    def check(self, dataset, report, back) -> list[str]:
        """Every variable back within its resolved bound, which is no looser
        than the requested one; lossless variables bit-exact."""
        errors = []
        if back.names != dataset.names:
            return [f"read back variables {back.names}, wrote {dataset.names}"]
        for variable in dataset:
            got = back[variable.name].data
            want = variable.data
            entry = report.tuning.for_variable(variable.name)
            where = f"variable {variable.name!r} ({entry.resolved})"
            if got.shape != want.shape or got.dtype != want.dtype:
                errors.append(f"{where}: read back {got.dtype}{got.shape}, "
                              f"wrote {want.dtype}{want.shape}")
                continue
            a = want.astype(np.float64)
            span = float(a.max() - a.min()) or float(np.abs(a).max())
            requested = parse_compression(self.VARIABLES[variable.name][2])
            if requested.rel_bound_for(span) == 0.0 or entry.rel_bound == 0.0:
                if not np.array_equal(got, want):
                    errors.append(f"{where}: lossless variable is not bit-exact")
                continue
            if entry.rel_bound > requested.rel_bound_for(span):
                errors.append(f"{where}: resolved bound is looser than {requested.canonical}")
            err = float(np.abs(a - got.astype(np.float64)).max())
            limit = entry.rel_bound * span * (1.0 + 1e-9) + 1e-9 * max(span, 1.0)
            if err > limit:
                errors.append(f"{where}: max error {err:.6g} exceeds bound {limit:.6g}")
        return errors


def make(name: str, workdir: Path):
    """The workload object for a ``--workload`` name."""
    if name == IoSweep.name:
        return IoSweep()
    if name == ClusterContended.name:
        return ClusterContended()
    if name == DatasetRoundtrip.name:
        return DatasetRoundtrip(workdir)
    raise ValueError(
        f"unknown workload {name!r}; known: "
        f"{[IoSweep.name, ClusterContended.name, DatasetRoundtrip.name]}"
    )
