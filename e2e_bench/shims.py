"""Timing shims for the traced run: per-layer spans from outside ``src/``.

A :class:`LayerProfiler` wraps the public entry points of each layer of the
``repro`` package (sweep engine, testbed, codecs, kernels, meter, PFS
solver, cluster simulator, lifecycle, tuner, containers, dataset façade)
with a wrapper that times every call and keeps a stack of open spans, so
each layer's *self* time is its span minus the part its child shims cover.
The shims are installed only while a traced pass runs and are removed
afterwards; nothing in the package is edited.

Functions imported by name into other modules (``from x import f``) are
patched at every binding that refers to the original object, so a call
through any of those names is seen.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

__all__ = ["LAYERS", "LayerProfiler"]

#: Codecs whose time is reported per codec; the rest are lossless baselines.
LOSSY_CODECS = ("zfp", "sz3", "qoz", "sz2", "szx")

#: Every layer a shim charges self time to.
LAYERS = (
    "runtime.engine", "runtime.evaluate", "runtime.store", "core.roundtrip",
    "core.point", *(f"compressors.{codec}" for codec in LOSSY_CODECS),
    "compressors.lossless", "compressors.huffman", "compressors.bitstream",
    "metrics.quality", "energy.measure", "iolib.fair_share", "cluster.simulate",
    "workloads.lifecycle", "dataset.tune", "iolib.container", "dataset.write",
    "dataset.read",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class LayerProfiler:
    """Inclusive time, self time, call counts and work counts per layer.

    ``inclusive_s[key]`` and ``calls[key]`` are keyed by entry point
    (``"compressors.zfp.compress"``); ``self_s[layer]`` by layer
    (``"compressors.zfp"``); ``counts`` holds work counters filled from
    call arguments and results (samples, flows, bytes, candidates).
    """

    def __init__(self):
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -----------------------------------------------------

    def within(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open (the caller is inside it)."""
        return any(frame.layer == layer for frame in self._stack)

    def _shim(self, fn, names, on_exit=None):
        """Wrap ``fn``; ``names(args)`` gives the (key, layer) of a call."""
        prof = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            key, layer = names(args)
            frame = _Frame(layer)
            prof._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                prof._stack.pop()
                if prof._stack:
                    prof._stack[-1].child_s += dt
                prof.inclusive_s[key] += dt
                prof.calls[key] += 1
                prof.self_s[layer] += dt - frame.child_s
            if on_exit is not None:
                on_exit(args, result)
            return result

        return shim

    # -- installation ---------------------------------------------------------

    def _patch_method(self, cls, attr: str, names, on_exit=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._shim(original, names, on_exit))

    def _patch_function(self, fn, names, on_exit=None) -> None:
        """Replace every ``repro`` module binding of ``fn`` with one shim."""
        shim = self._shim(fn, names, on_exit)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, shim)
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {fn.__module__}.{fn.__qualname__}")

    def install(self) -> None:
        """Install every shim.  Call :meth:`uninstall` to restore."""
        # repro.cluster must load before repro.workloads (import cycle).
        import repro.cluster  # noqa: F401
        import repro.cluster.kind  # noqa: F401
        import repro.dataset  # noqa: F401
        import repro.workloads  # noqa: F401
        from repro.compressors import bitstream, huffman
        from repro.compressors.base import Compressor
        from repro.core.experiments import Testbed
        from repro.dataset.facade import read, write
        from repro.dataset.tuner import AutoTuner
        from repro.energy.measurement import EnergyMeter
        from repro.iolib.base import IOLibrary
        from repro.iolib.pfs import fair_share_schedule
        from repro.cluster.scheduler import simulate_cluster
        from repro.metrics.error import check_error_bound, max_rel_error
        from repro.metrics.quality import autocorrelation, psnr
        from repro.runtime import registry
        from repro.runtime.engine import SweepEngine
        from repro.runtime.store import ResultStore
        from repro.workloads.lifecycle import run_lifecycle

        def fixed(key, layer):
            if layer not in LAYERS:
                raise ValueError(f"shim layer {layer!r} is not in LAYERS")
            return lambda args: (key, layer)

        def codec(direction):
            def names(args):
                name = args[0].name
                if name in LOSSY_CODECS:
                    return f"compressors.{name}.{direction}", f"compressors.{name}"
                return f"compressors.lossless.{direction}", "compressors.lossless"

            return names

        def on_codec(args, result):
            self.counts["compressors.calls"] += 1
            if self.within("dataset.write"):
                self.counts["dataset.write_codec_calls"] += 1

        def on_measure(args, result):
            self.counts["energy.samples"] += result.n_samples

        def on_fair_share(args, result):
            self.counts["iolib.fair_share.flows"] += len(args[0])

        def on_lifecycle(args, result):
            self.counts["workloads.failures"] += result.n_failures

        def on_tune(args, result):
            self.counts["dataset.tune.candidates"] += sum(e.candidates for e in result)

        def on_write_file(args, result):
            self.counts["iolib.container_bytes"] += result
            if self.within("dataset.write"):
                self.counts["dataset.streams"] += len(args[2])

        m = self._patch_method
        f = self._patch_function
        m(SweepEngine, "run", fixed("runtime.run", "runtime.engine"))
        f(registry.evaluate_op, fixed("runtime.evaluate", "runtime.evaluate"))
        m(ResultStore, "get", fixed("runtime.store", "runtime.store"))
        m(ResultStore, "put", fixed("runtime.store", "runtime.store"))
        m(Testbed, "roundtrip", fixed("core.roundtrip", "core.roundtrip"))
        m(Testbed, "io_point", fixed("core.point", "core.point"))
        m(Compressor, "compress", codec("compress"), on_codec)
        m(Compressor, "decompress", codec("decompress"), on_codec)
        f(huffman.huffman_encode, fixed("compressors.huffman_encode", "compressors.huffman"))
        f(huffman.huffman_decode, fixed("compressors.huffman_decode", "compressors.huffman"))
        f(bitstream.pack_bits, fixed("compressors.pack_bits", "compressors.bitstream"))
        f(bitstream.unpack_bits, fixed("compressors.unpack_bits", "compressors.bitstream"))
        for fn in (psnr, autocorrelation, max_rel_error, check_error_bound):
            f(fn, fixed("metrics.quality", "metrics.quality"))
        m(EnergyMeter, "measure", fixed("energy.measure", "energy.measure"), on_measure)
        f(fair_share_schedule, fixed("iolib.fair_share", "iolib.fair_share"), on_fair_share)
        f(simulate_cluster, fixed("cluster.simulate", "cluster.simulate"))
        f(run_lifecycle, fixed("workloads.lifecycle", "workloads.lifecycle"), on_lifecycle)
        m(AutoTuner, "tune", fixed("dataset.tune", "dataset.tune"), on_tune)
        m(IOLibrary, "write_file", fixed("iolib.container_write", "iolib.container"),
          on_write_file)
        for cls in _subclasses(IOLibrary):
            if "unpack" in cls.__dict__:
                m(cls, "unpack", fixed("iolib.container_read", "iolib.container"))
        f(write, fixed("dataset.write", "dataset.write"))
        f(read, fixed("dataset.read", "dataset.read"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
