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
rows (_run_row_blocks) and taking its classes in batches of up to _BATCH:
one strided view of the shifted source rows, one multiply by the batch's
phase rows and one FFT call cover the whole batch, and the spectra are
added one class at a time in ascending order.  So every output element
sees the same operations in the same order whatever the number of
threads and the batch size, and the bytes do not depend on the machine.
All three products enter through _product, which checks the operands and
picks the kernel or the variant's FFT route.

Every n x n temporary of the kernel and of the FFT routes is carved from
one slab per calling thread (_carve, on torus._workspace), which a thread
keeps up to _SLAB_BYTES; worker threads work in slices of their caller's
slab, their batch buffers within a fixed budget (_BATCH_BYTES).  A warm
product therefore allocates only its result, which never aliases the
slab.  Every route ends in _finish, which scales the product and refuses
one that is not finite.
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


# The worker threads of the FFT routes take their classes (the group
# route: its output rows) in batches of at most _BATCH: one multiply by the
# batch's phase rows, one FFT call and one multiply by its spectra cover
# the batch, then the spectra are added one class at a time in ascending
# order, as a loop over single classes adds them.  A worker's batch buffers
# hold at most half of _BATCH_BYTES (so that they stay in the 2 MiB L2
# cache of a core of the host measured below) and all workers' together at
# most _BATCH_BYTES, but a worker always holds one class.  At 256 x 256 on
# up to two workers every route then carves at most 7 n^2 entries besides
# its phase rows, within the 7.125 n^2 of the loops over single classes.
_BATCH = 8
_BATCH_BYTES = 2 << 20
# Fewest points in _BATCH classes of a worker's rows, the size of a full
# batched FFT call of the ordered and symplectic routes.  It puts every
# 128 x 128 product on two cores and keeps 64 x 64 on one.  Medians of
# alternating warm products on a 2-core host, two workers against one:
# 0.68 ordered, 0.62 symplectic and 0.57 group at 128 x 128, while the
# host's two-process parallel efficiency read 0.49 before and 0.99 after;
# 0.66-1.19 at 64 x 64 over three runs, with no steady gain.
_MIN_BLOCK = 1 << 15


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _row_blocks(n_rows: int, row_size: int) -> list[tuple[int, int]]:
    """Split rows 0..n_rows-1 into contiguous (lo, hi) blocks, one per
    worker: one per core, but none whose batch of _BATCH classes of its
    rows (n_rows/workers x row_size points each) is under _MIN_BLOCK."""
    count = max(1, min(_cores(), n_rows, _BATCH * n_rows * row_size // _MIN_BLOCK))
    return [(n_rows * k // count, n_rows * (k + 1) // count) for k in range(count)]


def _batch(workers: int, class_size: int, n_classes: int) -> int:
    """Classes per batch for workers threads that each need class_size
    entries of buffer per class: as many as _BATCH_BYTES / max(2, workers)
    holds, from 1 to _BATCH."""
    fit = _BATCH_BYTES // (16 * max(2, workers) * class_size)
    return max(1, min(_BATCH, n_classes, fit))


def _class_batches(n_rows: int, row_size: int,
                   buffers: int) -> tuple[list[tuple[int, int]], int, int]:
    """The worker blocks of the ordered and symplectic routes, the most
    rows a worker takes at once (at most half of them, so that a source's
    cyclic extension stays near half a grid) and the classes per batch,
    with buffers batch buffers per worker."""
    blocks = _row_blocks(n_rows, row_size)
    chunk = min(max(hi - lo for lo, hi in blocks), (n_rows + 1) // 2)
    return blocks, chunk, _batch(len(blocks), buffers * chunk * row_size, n_rows)


def _run_row_blocks(work, blocks: list[tuple[int, int]], scratch: np.ndarray,
                    size: int) -> None:
    """work(lo, hi, own) for every block, own the block's slice of size
    entries of scratch: the first in the calling thread, on the core whose
    caches hold the operands, each other one in a thread of its own.

    Each thread runs in a copy of the caller's context, so the caller's
    np.errstate holds in it; every thread is joined before this returns
    or raises, and the first exception a thread raised is raised here.
    The blocks must write disjoint outputs: there is no reduction, so
    each output element sees the same operations in the same order for
    any number of blocks.
    """
    errors = []
    jobs = [(lo, hi, scratch[k * size: (k + 1) * size]) for k, (lo, hi) in enumerate(blocks)]

    def run(ctx: contextvars.Context, job) -> None:
        try:
            ctx.run(work, *job)
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = []
    try:
        for job in jobs[1:]:
            thread = threading.Thread(target=run, args=(contextvars.copy_context(), job))
            thread.start()
            threads.append(thread)
        work(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _cyclic(ext: np.ndarray, n: int) -> None:
    """Set every row k >= n of ext to its row k mod n."""
    for at in range(n, ext.shape[0], n):
        ext[at: at + n] = ext[: ext.shape[0] - at][:n]


def _shifted(ext: np.ndarray, n: int, shift: int, count: int, rows: int) -> np.ndarray:
    """The count x rows read-only view v[i, r] = row (shift - i + r) mod n
    of ext, a C-contiguous _cyclic array of at least n + rows + count - 2
    rows, built on ext's buffer: with as_strided in its place the
    benchmark's plane round kept about 0.9 MiB more heap in use and read
    a higher peak RSS."""
    start = (shift - count + 1) % n + count - 1
    step, item = ext.strides
    view = np.ndarray((count, rows, ext.shape[1]), ext.dtype, ext, start * step,
                      (-step, step, item))
    view.flags.writeable = False
    return view


def _phases(out: np.ndarray, coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i] = e^{coeff[i] x}, as np.exp(coeff[i] * x) for each i."""
    return np.exp(np.multiply.outer(coeff, x, out=out), out=out)


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
    (lo - d .. hi - d) mod n_s of each class, for a batch of classes one
    strided view of b's cyclic extension (_shifted).
    """
    n_t, n_s = a.n_t, a.n_s
    u = a.t_axis()
    blocks, chunk, batch = _class_batches(n_s, n_t, 1)
    own = batch * (chunk + 1) * n_t
    fa, b_ext, acc, scratch = _carve((n_s, n_t), (n_s + chunk + batch - 2, n_t), (n_s, n_t),
                                     (max(9 * n_t * n_s // 8, len(blocks) * own),))
    # row d of fa is the spectrum of a's column (d + n_s/2) mod n_s, class d's
    np.copyto(fa.reshape(2, n_s // 2, n_t), a.values.T.reshape(2, n_s // 2, n_t)[::-1])
    np.copyto(b_ext[:n_s], b.values.T)
    for x in (fa, b_ext[:n_s]):
        _flush_tiny(x, scratch)
    _cyclic(b_ext, n_s)
    np.fft.fft(fa, axis=1, out=fa)
    acc.fill(0.0)
    coeff = np.array([1j * hbar * (_signed_class(d, n_s) * a.ds) for d in range(n_s)])

    def rows(lo: int, hi: int, mine: np.ndarray) -> None:
        phases, parts = np.split(mine, [batch * n_t])
        for c0 in range(lo, hi, chunk):
            c1 = min(hi, c0 + chunk)
            for d0 in range(0, n_s, batch):
                d1 = min(n_s, d0 + batch)
                shape = (d1 - d0, c1 - c0, n_t)
                phase = _phases(phases[: shape[0] * n_t].reshape(shape[0], n_t), coeff[d0:d1], u)
                part = parts[: math.prod(shape)].reshape(shape)
                np.multiply(_shifted(b_ext, n_s, c0 - d0, *shape[:2]), phase[:, None], out=part)
                np.fft.fft(part, axis=2, out=part)
                part *= fa[d0:d1, None]
                for spectrum in part:
                    acc[c0:c1] += spectrum

    _run_row_blocks(rows, blocks, scratch, own)
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
    (lo - d .. hi - d) mod n_t of the chirp and of b, strided views of
    their cyclic extensions as in _twisted_conv_fft.
    """
    n_t, n_s = a.n_t, a.n_s
    s_vals = a.s_axis()
    blocks, chunk, batch = _class_batches(n_t, n_s, 2)
    own = batch * (2 * chunk + 1) * n_s
    ext = (n_t + chunk + batch - 2, n_s)
    a_vals, b_ext, chirp, acc, scratch = _carve(
        (n_t, n_s), ext, ext, (n_t, n_s), (max(9 * n_t * n_s // 8, len(blocks) * own),))
    # row d of a_vals is a's row (d + n_t/2) mod n_t, class d's
    np.copyto(a_vals.reshape(2, n_t // 2, n_s), a.values.reshape(2, n_t // 2, n_s)[::-1])
    np.copyto(b_ext[:n_t], b.values)
    for x in (a_vals, b_ext[:n_t]):
        _flush_tiny(x, scratch)
    # kernel bank: row y1 holds a(delta_t, w) e^{(i hbar/2) y1 w}
    _chirp(chirp[:n_t], 0.5j * hbar, a.t_axis(), s_vals, scratch)
    for x in (b_ext, chirp):
        _cyclic(x, n_t)
    acc.fill(0.0)
    coeff = np.array([-0.5j * hbar * (_signed_class(d, n_t) * a.dt) for d in range(n_t)])

    def rows(lo: int, hi: int, mine: np.ndarray) -> None:
        phases, banks, mods = np.split(mine, [batch * n_s, batch * (chunk + 1) * n_s])
        for c0 in range(lo, hi, chunk):
            c1 = min(hi, c0 + chunk)
            for d0 in range(0, n_t, batch):
                d1 = min(n_t, d0 + batch)
                shape = (d1 - d0, c1 - c0, n_s)
                phase = _phases(phases[: shape[0] * n_s].reshape(shape[0], n_s), coeff[d0:d1],
                                s_vals)
                bank, mod = (x[: math.prod(shape)].reshape(shape) for x in (banks, mods))
                np.multiply(_shifted(chirp, n_t, c0 - d0, *shape[:2]), a_vals[d0:d1, None],
                            out=bank)
                np.multiply(_shifted(b_ext, n_t, c0 - d0, *shape[:2]), phase[:, None], out=mod)
                np.fft.fft(bank, axis=2, out=bank)
                bank *= np.fft.fft(mod, axis=2, out=mod)
                for product in bank:
                    acc[c0:c1] += product

    _run_row_blocks(rows, blocks, scratch, own)
    np.fft.ifft(acc, axis=1, out=acc)
    return _finish(a, acc.reshape(n_t, 2, n_s // 2)[:, ::-1], a_vals, "symplectic")


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
    b's rows taken in reverse order, so a batch of rows k1 takes one
    strided view of their spectra stored cyclically (_shifted).  The
    chirp is laid out on the unrolled convolution axis, so the summed
    rows are rolled once, at the final scaling.  Each worker owns a range
    of k1.
    """
    n_t, n_s = a.n_t, a.n_s
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    blocks = _row_blocks(n_t, n_s)
    batch = _batch(len(blocks), n_t * n_s, n_t)
    own = batch * (n_t + 1) * n_s
    a_vals, fbr, chirp, out, scratch = _carve(
        (n_t, n_s), (2 * n_t + batch - 2, n_s), (n_t, n_s), (n_t, n_s),
        (max(9 * n_t * n_s // 8, len(blocks) * own),))
    np.copyto(a_vals, a.values)
    _flush_tiny(a_vals, scratch)
    np.take(b.values, (n_t // 2 - np.arange(n_t)) % n_t, axis=0, out=fbr[:n_t], mode="clip")
    _flush_tiny(fbr[:n_t], scratch)
    np.fft.fft(fbr[:n_t], axis=1, out=fbr[:n_t])
    _cyclic(fbr, n_t)
    # e^{-(i hbar/2) y1 x2} at x2 = s_vals[(m - n_s/2) mod n_s] in column m
    _chirp(chirp, -0.5j * hbar, t_vals, np.roll(s_vals, n_s // 2), scratch)
    coeff = np.array([0.5j * hbar * t for t in t_vals])

    def rows(lo: int, hi: int, mine: np.ndarray) -> None:
        phases, parts = np.split(mine, [batch * n_s])
        for k0 in range(lo, hi, batch):
            k1 = min(hi, k0 + batch)
            phase = _phases(phases[: (k1 - k0) * n_s].reshape(k1 - k0, n_s), coeff[k0:k1], s_vals)
            part = parts[: phase.size * n_t].reshape(k1 - k0, n_t, n_s)
            np.multiply(a_vals, phase[:, None], out=part)
            np.fft.fft(part, axis=2, out=part)
            part *= _shifted(fbr, n_t, -k0, k1 - k0, n_t)
            np.fft.ifft(part, axis=2, out=part)
            part *= chirp
            for k, conv in enumerate(part, k0):
                np.sum(conv, axis=0, out=out[k])

    _run_row_blocks(rows, blocks, scratch, own)
    return _finish(a, out.reshape(n_t, 2, n_s // 2)[:, ::-1], a_vals, "group")


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
