"""Pieces shared by the workloads: the call tracer, the op record and the
statistics the metrics are built from."""

from __future__ import annotations

import dataclasses
import statistics
import time
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


class Tracer:
    """Times the calls the benchmark makes into nctorus modules.

    Off, ``call`` is a plain call.  On, each call leaves a span
    (layer, key, start, end, op) in memory; nothing inside the program is
    instrumented, so a span covers one public function and everything it
    calls.
    """

    def __init__(self, on: bool):
        self.on = on
        self.op = "setup"
        self.spans: list[tuple[str, str, float, float, str]] = []

    def call(self, layer: str, key: str, fn: Callable, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, key, t0, time.perf_counter(), self.op))

    def durations(self, layer: str, key: str) -> list[float]:
        return [t1 - t0 for lay, k, t0, t1, _ in self.spans if lay == layer and k == key]

    def median_ms(self, layer: str, key: str) -> float:
        d = self.durations(layer, key)
        return 1e3 * statistics.median(d) if d else float("nan")

    def busy(self, layer: str | None = None) -> float:
        return sum(t1 - t0 for lay, _, t0, t1, _ in self.spans
                   if layer is None or lay == layer)

    def busy_shares(self, layers) -> dict[str, float]:
        total = self.busy()
        return {f"{lay}.busy_share": self.busy(lay) / total for lay in layers}


@dataclass
class Op:
    """One operation of a workload round; ``fn(tracer)`` returns its output."""

    name: str
    fn: Callable[[Tracer], Any]


def same(a, b) -> bool:
    """Exact equality of two outputs, looking into arrays and dataclasses."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    return a == b


# The host drifts by 15-40% over minutes, the same for every kernel of the
# program (perfbench/README.md, "Machine speed").  A fixed kernel that never
# calls nctorus, timed between operations, measures that drift; timing
# metrics are scaled by REF_MS / its median, so they read as at the speed
# where it takes REF_MS.
REF_MS = 2.0
_REF_M = np.random.default_rng(0).standard_normal((40, 40)) + 0j
_REF_X = np.random.default_rng(1).standard_normal(4096)


def reference() -> float:
    """Seconds taken by one run of the reference kernel: an interpreter loop,
    small complex matrix products and FFTs, like the workloads' own mix."""
    t0 = time.perf_counter()
    s = 0
    for k in range(3000):
        s += k * k
    for _ in range(10):
        _REF_M @ _REF_M
        np.fft.fft(_REF_X)
    return time.perf_counter() - t0


def slowness(ref_times: list[float]) -> float:
    """How much slower than REF_MS the host ran: the median reference time
    over REF_MS (above 1 when slower)."""
    return 1e3 * statistics.median(ref_times) / REF_MS


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """One independent stream per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def complex_box(rng: np.random.Generator, rk: int, rl: int) -> np.ndarray:
    shape = (2 * rk + 1, 2 * rl + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
