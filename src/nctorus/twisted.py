"""Twisted convolutions on sampled plane functions and their Moyal bridge.

Two products live here: the ordered-exponential twist
(a * b)(t,s) = int a(t-u, s-v) b(u,v) e^{i (s-v) u hbar} du dv
and the symplectic twist
(a ^* b)(x) = int a(x-y) b(y) e^{-(i hbar/2) omega(x,y)} dy,
omega(x,y) = x1 y2 - y1 x2.  A quadratic-phase gauge map intertwines
them, and an independently coded group-convolution route must agree
with the symplectic one to round-off.

All integrals are periodized trapezoid sums, so they are spectrally
accurate exactly when the integrands decay below the boundary threshold;
decay is checked and warned about, never silently patched.

On a matched grid (n_t = n_s = n and a twist angle theta = 2 pi p / n,
with theta = hbar dt ds for the ordered product and hbar dt ds / 2 for
the other two) the periodized product is exactly the product of the
twisted group algebra of Z_n x Z_n, a sum of matrix algebras (Schwinger,
"Unitary operator bases", PNAS 46, 1960), and all three products run on
one exact kernel, _heisenberg_gemm: n^3 multiply-adds in BLAS.  Other
grids loop over difference classes in reused buffers, all FFTs along the
contiguous axis: one pass of n_t x n_s FFTs per class for the ordered
product, two for the symplectic and the group product.  Those loops run
on every core the process may use, each thread owning a block of output
rows (_run_row_blocks), with the same operations in the same order for
every output element whatever the number of threads, so the bytes do not
depend on the machine.  All three products enter through _product, which
checks the operands and picks the kernel or the variant's FFT route.

Every n x n temporary of the kernel and of the FFT routes is carved from
one slab per calling thread (_carve, on torus._workspace), which a thread
keeps up to _SLAB_BYTES; worker threads work in slices of their caller's
slab.  A warm product therefore allocates only its result, which never
aliases the slab.  Every route ends in _finish, which scales the product
and refuses one that is not finite.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import as_strided

from .grids import (GridFunction2D, check_decay, fourier_2d,
                    inverse_fourier_2d, require_same_grid)
from .lattice import FormatError
from .torus import _workspace

__all__ = [
    "twisted_conv",
    "other_twisted_conv",
    "gauge_iso",
    "heisenberg_group_conv",
    "plain_conv",
    "hbar_smoothness_probe",
    "ProbeResult",
    "fourier_bridge_error",
    "moyal_series_on_grid",
]


# Largest phase error (n^2/4) |theta - 2 pi p/n| that replacing the twist
# angle by the exact root of unity may cause for a grid to count as matched.
_MATCH_TOL = 1e-12


def _signed_class(d: int, n: int) -> int:
    # wrapped index difference -> signed representative in [-n/2, n/2)
    return (d + n // 2) % n - n // 2


def _matched_twist(a: GridFunction2D, theta: float, factor: int) -> int | None:
    """Kernel twist (factor * p) mod n if theta = 2 pi p / n on a square grid.

    None when the grid is not matched, which includes hbar = 0 and a
    kernel twist of 0 mod n.
    """
    n = a.n_t
    if n != a.n_s or not math.isfinite(theta):
        return None
    p = round(n * theta / (2.0 * math.pi))
    if (n * n / 4.0) * abs(theta - 2.0 * math.pi * p / n) > _MATCH_TOL:
        return None
    return (factor * p) % n or None


def _flush_tiny(x: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """x with every nonzero real and imaginary part below 2^-500 of the
    largest set to zero; x is C-contiguous complex.

    The far tails of decaying data are subnormal or multiply to
    subnormals, and BLAS and the FFT loops run several times slower on
    them; a product of two kept parts of operands of ordinary size stays
    normal.  A product sum of N terms (an entry of a GEMM, or of a
    periodized convolution, N = n_t n_s) moves by at most N 2^-500 times
    its operands' largest parts when the parts below the cut are dropped,
    while its rounding error is of order 2^-53 times the same scale, so
    the cut is invisible for any N below 2^400.

    With work, a complex scratch of at least 9/8 x.size entries, x is
    flushed in place; without, x itself comes back when no part is below
    the cut, and a flushed copy otherwise.
    """
    parts = x.reshape(-1).view(np.float64)
    if work is None:
        size, tiny = np.abs(parts), np.empty(parts.size, dtype=bool)
    else:
        size = np.abs(parts, out=work[: x.size].view(np.float64))
        tiny = work[x.size: x.size + x.size // 8].view(np.bool_)
    np.less(size, size.max(initial=0.0) * 2.0 ** -500, out=tiny)
    np.logical_and(tiny, size, out=tiny)  # a zero part is no tail
    if not tiny.any():
        return x
    if work is None:
        x = x.copy()
        parts = x.reshape(-1).view(np.float64)
    parts[tiny] = 0.0
    return x


# The most a thread keeps of the plane products' slab: every 256 x 256
# route (the matched kernel carves 7 n^2 complex entries, the group route
# 5.125 n^2 plus n^2 per worker thread) and no 512 x 512 one (28 MiB and
# up).  Kept, the slab took the benchmark's plane round from 8,265 minor
# faults to 9 and its matched 128^2 and 256^2 products down by a quarter
# (one BLAS thread, 2-core host).  A warm matched 512^2 product took
# 41.9 ms with a fresh slab (201 faults) and 41.6 ms with a kept one.
_SLAB_BYTES = 16 << 20
# Complex entries between two carved arrays, one cache line, so that arrays
# of a power-of-two size do not all start at the same offset within a page.
_SKEW = 4


def _carve(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """C-contiguous complex arrays of the given shapes, cut one after the
    other from this thread's slab; they are dead after the next carve."""
    sizes = [math.prod(shape) for shape in shapes]
    slab = _workspace(sum(sizes) + _SKEW * len(sizes), _SLAB_BYTES)
    arrays, at = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(slab[at: at + size].reshape(shape))
        at += size + _SKEW
    return arrays


def _finish(a: GridFunction2D, c: np.ndarray, out: np.ndarray,
            variant: str) -> GridFunction2D:
    """a's grid with the values c dt ds, written through out (which c
    may be) in c's shape; a FormatError if any of them is not finite."""
    parts = np.multiply(c, a.dt * a.ds, out=out.reshape(c.shape)).reshape(-1).view(np.float64)
    if not (math.isfinite(parts.max()) and math.isfinite(parts.min())):
        raise FormatError(f"the {variant} product is not finite at its final "
                          "scaling: the operands are too large")
    return a.with_values(out.reshape(a.n_t, a.n_s))


def _quadrants(x: np.ndarray) -> np.ndarray:
    """The n x n array x as 2 x n/2 x 2 x n/2 with both halves swapped: the
    view that fftshift and ifftshift copy."""
    h = x.shape[0] // 2
    return x.reshape(2, h, 2, h)[::-1, :, ::-1]


def _spectrum(dst: np.ndarray, v: np.ndarray, gauge: np.ndarray | None,
              work: np.ndarray) -> None:
    """dst = the FFT along the second axis of the grid-ordered values v
    (label 0 at index n/2), times gauge first if given (by label), by
    label (label 0 at index 0), flushed by _flush_tiny in work."""
    h = dst.shape[0] // 2
    if gauge is None:
        np.copyto(dst.reshape(2, h, 2, h), _quadrants(v))
    else:
        np.multiply(_quadrants(v), gauge.reshape(2, h, 2, h), out=dst.reshape(2, h, 2, h))
    np.fft.fft(dst, axis=1, out=dst)
    _flush_tiny(dst, work)


def _gauge(out: np.ndarray, root: int, sign: int, work: np.ndarray) -> None:
    """out = h^sign, h = e^{(i hbar/2) x1 x2}, by label, on a grid where
    (hbar/2) dt ds = 2 pi root / n: w^{root j' k' mod n}, w = e^{2 pi i/n},
    with j', k' the signed labels.  Each entry is within _MATCH_TOL of the
    exponential, the approximation the kernel makes for its twist."""
    n = out.shape[0]
    label = (np.arange(n) + n // 2) % n - n // 2
    power = work[: n * n // 2].view(np.int64).reshape(n, n)
    np.multiply.outer(root * label % n, label, out=power)
    np.bitwise_and(power, n - 1, out=power)  # n is a power of two
    np.take(np.exp(sign * 2j * math.pi * (label / n)), power, out=out, mode="clip")


# Fewest output points a worker thread must own, which for the ordered and
# symplectic routes is the size of each of its FFT calls.  It keeps every
# 128 x 128 product on one thread.  Medians of alternating calls on a
# 2-core host, two threads against one: 1.9-2.7x the time at 64 x 64,
# where GIL hand-offs around small FFT calls cost more than the second
# core saves; at 128 x 128 0.96-1.07 for the ordered route (64-row calls),
# 0.80-0.84 symplectic and 0.69-0.70 group; 0.56-0.62 at 256 x 256.
_MIN_BLOCK = 1 << 15


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _row_blocks(n_rows: int, row_size: int) -> list[tuple[int, int]]:
    """Split rows 0..n_rows-1 into contiguous (lo, hi) blocks, one per
    worker: one per core, but no block under _MIN_BLOCK points."""
    count = max(1, min(_cores(), n_rows, n_rows * row_size // _MIN_BLOCK))
    return [(n_rows * k // count, n_rows * (k + 1) // count) for k in range(count)]


def _run_row_blocks(work, blocks: list[tuple[int, int]]) -> None:
    """work(lo, hi) for every block: the first in the calling thread, on
    the core whose caches hold the operands, each other one in a thread of
    its own.

    Each thread runs in a copy of the caller's context, so the caller's
    np.errstate holds in it; every thread is joined before this returns
    or raises, and the first exception a thread raised is raised here.
    The blocks must write disjoint outputs: there is no reduction, so
    each output element sees the same operations in the same order for
    any number of blocks.
    """
    errors = []

    def run(ctx: contextvars.Context, block: tuple[int, int]) -> None:
        try:
            ctx.run(work, *block)
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = []
    try:
        for block in blocks[1:]:
            thread = threading.Thread(target=run, args=(contextvars.copy_context(), block))
            thread.start()
            threads.append(thread)
        work(*blocks[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _source_rows(lo: int, hi: int, d: int, n: int) -> list[tuple[slice, slice]]:
    """(dst, src) slice pairs taking, for the rows lo..hi-1 of a block
    (dst, counted from lo), the source rows (row - d) mod n: at most two."""
    start = (lo - d) % n
    cut = min(hi - lo, n - start)
    pairs = [(slice(0, cut), slice(start, start + cut))]
    if cut < hi - lo:
        pairs.append((slice(cut, hi - lo), slice(0, hi - lo - cut)))
    return pairs


def _skew(twice: np.ndarray, n: int) -> np.ndarray:
    """The view v[w, u] = block[(u - w) mod n, u] of an n-row block stored
    twice over, one copy under the other, in twice."""
    rows, item = twice.strides
    return as_strided(twice[n:], (n, twice.shape[1]), (-rows, rows + item),
                      writeable=False)


def _heisenberg_gemm(fa: np.ndarray, fb: np.ndarray, p: int, out: np.ndarray,
                     left: np.ndarray, right: np.ndarray, work: np.ndarray) -> None:
    """c(k,l) = Sum a(k-k', l-l') b(k',l') w^{p (l-l') k'} on Z_n x Z_n, w = e^{2 pi i/n}.

    Takes the spectra fa = a^, fb = b^ of _spectrum and writes c^ by label
    to out, the inverse FFT along the second axis left to the caller.
    In the spectra the twist is an integer shift of the column:
    c^(k,m) = Sum_k' a^(k-k', m-p k') b^(k',m).  With g = gcd(p, n),
    n1 = n/g, p1 = p/g and, for each residue eps < g, the n1 columns
    m_rho = eps + g (p1 rho mod n1), the matrices
    L[w,u] = a^(u-w, m_{u mod n1}) and R[u,rho] = b^(rho-u, m_rho) give
    (L @ R)[w,rho] = c^(rho-w, m_rho): n^3 multiply-adds in g GEMMs,
    with no array larger than n x n.  left (n x n) and right (n x n1) hold
    L and R; each gathered block is stored twice over in work (2 n^2
    entries), so that its cyclic shifts are the strided views of _skew.
    """
    n = fa.shape[0]
    g = math.gcd(p, n)
    n1, p1 = n // g, p // g
    rho = np.arange(n1)
    right = right.reshape(-1)[: n * n1].reshape(n, n1)
    for eps in range(g):
        m = eps + g * ((p1 * rho) % n1)
        for dst, src, cols in ((left, fa, np.tile(m, g)), (right, fb, m)):
            twice = work[: 2 * n * len(cols)].reshape(2 * n, len(cols))
            np.take(src, cols, axis=1, out=twice[:n], mode="clip")
            twice[n:] = twice[:n]
            np.copyto(dst, _skew(twice, n))
        twice = work[: 2 * n * n1].reshape(2 * n, n1)
        np.matmul(left, right, out=twice[:n])
        twice[n:] = twice[:n]
        out[:, m] = _skew(twice, n)


def _product(a: GridFunction2D, b: GridFunction2D, hbar: float,
             variant: str) -> GridFunction2D:
    """The product of all three variants: the ordered twist has factor 1,
    the symplectic and the group twist factor 2, and each variant its
    route for a grid that is not matched (_ROUTES).

    The operands must share a grid, and their decay is checked.  On a
    matched grid (hbar dt ds / factor = 2 pi p / n) the ordered product is
    dt ds kernel(a, b, p).  h = e^{(i hbar/2) x1 x2}, the inverse gauge
    map, carries the symplectic product to the ordered one at the same
    hbar, whose twist angle hbar dt ds is 2 (2 pi p / n); so that product
    is dt ds kernel(h a, h b, 2p) * conj(h), with h taken exactly as the
    root of unity w^{p j' k'} (_gauge).  All temporaries are carved from
    this thread's slab (7 n^2 complex entries; h sits in L's place before
    the GEMM and conj(h) in R's after it), and only the result is
    allocated.
    """
    factor, fft_route = _ROUTES[variant]
    require_same_grid(a, b)
    check_decay(a)
    check_decay(b)
    n = a.n_t
    root = _matched_twist(a, hbar * a.dt * a.ds / factor, 1)
    p = root and factor * root % n
    if not p:
        return fft_route(a, b, hbar)
    fa, fb, out, left, right, work = _carve(*[(n, n)] * 5, (2 * n * n,))
    gauge = None if factor == 1 else left
    if gauge is not None:
        _gauge(gauge, root, 1, work)
    _spectrum(fa, a.values, gauge, work)
    _spectrum(fb, b.values, gauge, work)
    _heisenberg_gemm(fa, fb, p, out, left, right, work)
    np.fft.ifft(out, axis=1, out=out)
    if gauge is not None:
        _gauge(right, root, -1, work)
        out *= right
    return _finish(a, _quadrants(out), left, variant)


def twisted_conv(a: GridFunction2D, b: GridFunction2D, hbar: float) -> GridFunction2D:
    """Ordered twist: kernel phase e^{i (s-v) u hbar} with u = b's first argument.

    Matched grids (hbar dt ds = 2 pi p / n) run on the exact kernel;
    other grids on n_s FFT passes.
    """
    return _product(a, b, hbar, "ordered")


def _twisted_conv_fft(a: GridFunction2D, b: GridFunction2D,
                      hbar: float) -> GridFunction2D:
    """Ordered twist on any grid: one FFT pass per class, n_s in total.

    For each wrapped second-axis difference class d the phase is a fixed
    modulation of b along the first axis, leaving one circular
    convolution in t per class.  Everything runs transposed, so that t
    is the contiguous axis; class d lands on the output rows shifted by
    d, so a worker owning output rows lo..hi-1 needs only the source rows
    (lo - d .. hi - d) mod n_s of each class, in its block of the buffer.
    """
    n_t, n_s = a.n_t, a.n_s
    u = a.t_axis()
    fa, b_t, buf, acc, work = _carve(*[(n_s, n_t)] * 4, (9 * n_t * n_s // 8,))
    for dst, x in ((fa, a), (b_t, b)):
        np.copyto(dst, x.values.T)
        _flush_tiny(dst, work)
    np.fft.fft(fa, axis=1, out=fa)
    acc.fill(0.0)

    def rows(lo: int, hi: int) -> None:
        part = buf[lo:hi]
        for d in range(n_s):
            delta_s = _signed_class(d, n_s) * a.ds
            phase = np.exp(1j * hbar * delta_s * u)
            for dst, src in _source_rows(lo, hi, d, n_s):
                np.multiply(b_t[src], phase, out=part[dst])
            np.fft.fft(part, axis=1, out=part)
            part *= fa[(d + n_s // 2) % n_s]
            acc[lo:hi] += part

    _run_row_blocks(rows, _row_blocks(n_s, n_t))
    np.fft.ifft(acc, axis=1, out=acc)
    return _finish(a, acc.T.reshape(2, n_t // 2, n_s)[::-1], fa, "ordered")


def other_twisted_conv(a: GridFunction2D, b: GridFunction2D,
                       hbar: float) -> GridFunction2D:
    """Symplectic twist: kernel phase e^{-(i hbar/2)(x1 y2 - y1 x2)}.

    Matched grids ((hbar/2) dt ds = 2 pi p / n) run on the exact kernel;
    other grids on 2 n_t FFT passes.
    """
    return _product(a, b, hbar, "symplectic")


def _other_twisted_conv_fft(a: GridFunction2D, b: GridFunction2D,
                            hbar: float) -> GridFunction2D:
    """Symplectic twist on any grid: two FFT passes per class, n_t classes.

    Looping over first-axis difference classes d (so x1 - y1 is pinned),
    the phase splits as e^{(i hbar/2) y1 (x2-y2)} * e^{-(i hbar/2) d y2},
    one factor chirping a's row into a per-class kernel bank and the
    other modulating b; each class costs one circular convolution in s.
    The class's row shift commutes with the inverse FFT along s, so the
    products of the two spectra are summed and transformed back once; a
    worker owning output rows lo..hi-1 needs only the rows
    (lo - d .. hi - d) mod n_t of the bank and of b.
    """
    n_t, n_s = a.n_t, a.n_s
    a_vals, b_vals, chirp, bank, b_mod, acc, work = _carve(
        *[(n_t, n_s)] * 6, (9 * n_t * n_s // 8,))
    for dst, x in ((a_vals, a), (b_vals, b)):
        np.copyto(dst, x.values)
        _flush_tiny(dst, work)
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    # kernel bank: row y1 holds a(delta_t, w) e^{(i hbar/2) y1 w}
    _chirp(chirp, 0.5j * hbar, t_vals, s_vals, work)
    acc.fill(0.0)

    def rows(lo: int, hi: int) -> None:
        bank_part, mod_part = bank[lo:hi], b_mod[lo:hi]
        for d in range(n_t):
            delta_t = _signed_class(d, n_t) * a.dt
            row_a = a_vals[(d + n_t // 2) % n_t]
            phase = np.exp(-0.5j * hbar * delta_t * s_vals)
            for dst, src in _source_rows(lo, hi, d, n_t):
                np.multiply(chirp[src], row_a, out=bank_part[dst])
                np.multiply(b_vals[src], phase, out=mod_part[dst])
            np.fft.fft(bank_part, axis=1, out=bank_part)
            bank_part *= np.fft.fft(mod_part, axis=1, out=mod_part)
            acc[lo:hi] += bank_part

    _run_row_blocks(rows, _row_blocks(n_t, n_s))
    np.fft.ifft(acc, axis=1, out=acc)
    return _finish(a, acc.reshape(n_t, 2, n_s // 2)[:, ::-1], chirp, "symplectic")


def _chirp(out: np.ndarray, c: complex, x: np.ndarray, y: np.ndarray,
           work: np.ndarray) -> None:
    """out = e^{c x y} on the grid of x by y, as np.exp(c * np.outer(x, y)),
    with the outer product in work."""
    outer = np.multiply.outer(x, y, out=work[: out.size // 2].view(np.float64).reshape(out.shape))
    np.exp(np.multiply(c, outer, out=out), out=out)


def gauge_iso(a: GridFunction2D, hbar: float,
              direction: str = "forward") -> GridFunction2D:
    """Pointwise quadratic phase e^{-(i hbar/2) x1 x2} (conjugated for inverse)."""
    if direction not in ("forward", "inverse"):
        raise ValueError(f'direction must be "forward" or "inverse", got {direction!r}')
    sign = -1.0 if direction == "forward" else 1.0
    phase = np.exp(sign * 0.5j * hbar * np.outer(a.t_axis(), a.s_axis()))
    return a.with_values(a.values * phase)


def heisenberg_group_conv(a: GridFunction2D, b: GridFunction2D,
                          hbar: float) -> GridFunction2D:
    """Group convolution of the circle lifts, reduced over the circle factor.

    The lift multiplies group phases (cocycle -omega/2), so convolving the
    lifts and reading off the circle-free part gives
    (a # b)(x) = int a(y) b(x-y) e^{(i hbar/2) omega(x-y, y)} dy,
    expanded here as e^{(i hbar/2)(x1 y2 - y1 x2)}.  That is the
    symplectic product, so matched grids share its exact kernel; other
    grids take _heisenberg_group_conv_fft.
    """
    return _product(a, b, hbar, "group")


def _heisenberg_group_conv_fft(a: GridFunction2D, b: GridFunction2D,
                               hbar: float) -> GridFunction2D:
    """Group convolution on any grid: two FFT passes per row, n_t rows.

    Coded row by row against the output's first coordinate, with no
    shared machinery with _other_twisted_conv_fft beyond the FFT itself.
    Row k1 pairs a's row j with b's row k1 - j, which is row j - k1 of
    b's rows taken in reverse order; the chirp is laid out on the
    unrolled convolution axis, so only the summed row is rolled.  Each
    worker owns a range of k1 and an n_t x n_s buffer of its own.
    """
    n_t, n_s = a.n_t, a.n_s
    blocks = _row_blocks(n_t, n_s)
    a_vals, fbr, chirp, out, work, *bufs = _carve(
        *[(n_t, n_s)] * 4, (9 * n_t * n_s // 8,), *[(n_t, n_s)] * len(blocks))
    np.copyto(a_vals, a.values)
    _flush_tiny(a_vals, work)
    np.take(b.values, (n_t // 2 - np.arange(n_t)) % n_t, axis=0, out=fbr, mode="clip")
    _flush_tiny(fbr, work)
    np.fft.fft(fbr, axis=1, out=fbr)
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    # e^{-(i hbar/2) y1 x2} at x2 = s_vals[(m - n_s/2) mod n_s] in column m
    _chirp(chirp, -0.5j * hbar, t_vals, np.roll(s_vals, n_s // 2), work)
    own = dict(zip(blocks, bufs))

    def rows(lo: int, hi: int) -> None:
        buf = own[lo, hi]
        for k1 in range(lo, hi):
            np.multiply(a_vals, np.exp(0.5j * hbar * t_vals[k1] * s_vals), out=buf)
            np.fft.fft(buf, axis=1, out=buf)
            buf[k1:] *= fbr[:n_t - k1]
            buf[:k1] *= fbr[n_t - k1:]
            np.fft.ifft(buf, axis=1, out=buf)
            buf *= chirp
            out[k1] = np.roll(buf.sum(axis=0), -(n_s // 2))

    _run_row_blocks(rows, blocks)
    return _finish(a, out, out, "group")


_ROUTES = {"ordered": (1, _twisted_conv_fft),
           "symplectic": (2, _other_twisted_conv_fft),
           "group": (2, _heisenberg_group_conv_fft)}


def plain_conv(a: GridFunction2D, b: GridFunction2D) -> GridFunction2D:
    """Untwisted periodized convolution, one fft2 round trip; reference route."""
    require_same_grid(a, b)
    conv = np.fft.ifft2(np.fft.fft2(a.values) * np.fft.fft2(b.values))
    conv = np.roll(conv, (-(a.n_t // 2), -(a.n_s // 2)), axis=(0, 1))
    return _finish(a, conv, conv, "plain")


@dataclass(frozen=True)
class ProbeResult:
    derivative: GridFunction2D
    residual_coarse: float
    residual_fine: float
    ratio: float


def hbar_smoothness_probe(a: GridFunction2D, b: GridFunction2D, hbar0: float,
                          delta: float) -> ProbeResult:
    """Certify C^1 dependence of a *_hbar b on hbar at hbar0.

    Three central differences at steps delta, delta/2, delta/4 give two
    Richardson residuals whose ratio sits near 4 exactly when the map is
    twice differentiable; the returned derivative is the extrapolation
    of the two finest estimates.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def central(h: float) -> np.ndarray:
        hi = twisted_conv(a, b, hbar0 + h).values
        lo = twisted_conv(a, b, hbar0 - h).values
        return (hi - lo) / (2.0 * h)

    d1 = central(delta)
    d2 = central(delta / 2.0)
    d4 = central(delta / 4.0)
    w = a.dt * a.ds
    r1 = float(np.sqrt(np.sum(np.abs(d1 - d2) ** 2) * w))
    r2 = float(np.sqrt(np.sum(np.abs(d2 - d4) ** 2) * w))
    ratio = r1 / r2 if r2 > 0 else math.inf
    best = a.with_values((4.0 * d4 - d2) / 3.0)
    return ProbeResult(best, r1, r2, ratio)


def moyal_series_on_grid(f: GridFunction2D, g: GridFunction2D, hbar: float,
                         order: int) -> GridFunction2D:
    """(2 pi)^2 Sum_k (-i hbar)^k/(2^k k!) (d2 d1' - d1 d2')^k (f x g)|_diag.

    Spectral derivatives on the shared grid; the binomial expansion of
    the k-th bidifferential power pairs d2^j d1^{k-j} f with
    d1^j d2^{k-j} g carrying sign (-1)^{k-j}.  Each derivative is used
    once, so it is computed where it is used and no table is kept.
    """
    require_same_grid(f, g)
    xi_t = f.t_freqs()[:, None]
    xi_s = f.s_freqs()[None, :]
    fs, gs = np.fft.fft2(f.values), np.fft.fft2(g.values)

    def deriv(base: np.ndarray, p: int, r: int) -> np.ndarray:
        return np.fft.ifft2(base * (1j * xi_t) ** p * (1j * xi_s) ** r)

    total = np.zeros_like(f.values)
    for k in range(order + 1):
        coeff = (-1j * hbar) ** k / (2.0 ** k * math.factorial(k))
        term = np.zeros_like(total)
        for j in range(k + 1):
            sign = (-1.0) ** (k - j)
            term += (math.comb(k, j) * sign) * deriv(fs, k - j, j) * deriv(gs, j, k - j)
        total += coeff * term
    return f.with_values((2.0 * math.pi) ** 2 * total)


def fourier_bridge_error(f: GridFunction2D, g: GridFunction2D, hbar: float,
                         order: int) -> float:
    """Relative l2 gap between the transform route and the series route.

    Route A pushes f, g through the continuous Fourier transform,
    convolves with the symplectic twist on the dual grid, and comes
    back; route B is the Moyal expansion up to the given order.  The two
    agree to the accuracy of the truncated series.
    """
    fa = inverse_fourier_2d(other_twisted_conv(fourier_2d(f), fourier_2d(g), hbar))
    fb = moyal_series_on_grid(f, g, hbar, order)
    ref = fa.norm()
    if ref == 0.0:
        return fb.norm()
    diff = fa.values - fb.values
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) * f.dt * f.ds)) / ref
