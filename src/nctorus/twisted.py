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
grids take one Python-looped pass of n x n FFTs per difference class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (GridFunction2D, check_decay_2d, fourier_2d,
                    inverse_fourier_2d, require_same_grid)

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


def _spectrum(v: np.ndarray) -> np.ndarray:
    """FFT along the second axis of grid-ordered values (label 0 at index
    n/2), by label (label 0 at index 0), with every real and imaginary part
    below 2^-500 of the largest set to zero.

    The far tails of decaying data are subnormal or multiply to subnormals,
    and BLAS runs several times slower on them; a product of two kept parts
    of operands of ordinary size stays normal.  Dropped parts move no entry
    of a length-n product by more than n 2^-500 of the largest product, far
    below its rounding error.
    """
    x = np.fft.fft(np.fft.ifftshift(v), axis=1)
    parts = x.view(np.float64)
    size = np.abs(parts)
    parts[size < size.max(initial=0.0) * 2.0 ** -500] = 0.0
    return x


def _heisenberg_gemm(fa: np.ndarray, fb: np.ndarray, p: int) -> np.ndarray:
    """c(k,l) = Sum a(k-k', l-l') b(k',l') w^{p (l-l') k'} on Z_n x Z_n, w = e^{2 pi i/n}.

    Takes the spectra fa = a^, fb = b^ of _spectrum and returns c by label.
    In the spectra the twist is an integer shift of the column:
    c^(k,m) = Sum_k' a^(k-k', m-p k') b^(k',m).  With g = gcd(p, n),
    n1 = n/g, p1 = p/g and, for each residue eps < g, the n1 columns
    m_rho = eps + g (p1 rho mod n1), the matrices
    L[w,u] = a^(u-w, m_{u mod n1}) and R[u,rho] = b^(rho-u, m_rho) give
    (L @ R)[w,rho] = c^(rho-w, m_rho): n^3 multiply-adds in g GEMMs,
    with no array larger than n x n.
    """
    n = fa.shape[0]
    g = math.gcd(p, n)
    n1, p1 = n // g, p // g
    idx = np.arange(n)
    rho = np.arange(n1)
    shift = (idx[None, :] - idx[:, None]) % n  # [w, u] -> u - w
    back = (rho[None, :] - idx[:, None]) % n   # [u, rho] -> rho - u
    out = np.empty((n, n), dtype=np.complex128)
    for eps in range(g):
        m = eps + g * ((p1 * rho) % n1)
        prod = fa[shift, m[idx % n1]] @ fb[back, m]
        out[:, m] = prod[back, rho]
    return np.fft.ifft(out, axis=1)


def _matched_product(a: GridFunction2D, b: GridFunction2D, p: int,
                     h: np.ndarray | None = None) -> GridFunction2D:
    """dt ds kernel(h a, h b, p) / h on grid-ordered values; h = 1 if None."""
    spectra = [_spectrum(x.values if h is None else h * x.values) for x in (a, b)]
    c = np.fft.fftshift(_heisenberg_gemm(*spectra, p)) * (a.dt * a.ds)
    return a.with_values(c if h is None else c / h)


def _symplectic_matched(a: GridFunction2D, b: GridFunction2D,
                        hbar: float) -> GridFunction2D | None:
    """Symplectic product on a matched grid, None on any other grid.

    h = e^{(i hbar/2) x1 x2}, the inverse gauge map, carries it to the
    ordered product at the same hbar, whose twist angle hbar dt ds is
    2 (2 pi p / n); so the product is kernel(h a, h b, 2p) / h.
    """
    p = _matched_twist(a, 0.5 * hbar * a.dt * a.ds, 2)
    if p is None:
        return None
    h = np.exp(0.5j * hbar * np.outer(a.t_axis(), a.s_axis()))
    return _matched_product(a, b, p, h)


def twisted_conv(a: GridFunction2D, b: GridFunction2D, hbar: float) -> GridFunction2D:
    """Ordered twist: kernel phase e^{i (s-v) u hbar} with u = b's first argument.

    Matched grids (hbar dt ds = 2 pi p / n) run on the exact kernel;
    other grids on n_s FFT passes.
    """
    require_same_grid(a, b)
    check_decay_2d(a)
    check_decay_2d(b)
    p = _matched_twist(a, hbar * a.dt * a.ds, 1)
    if p is None:
        return _twisted_conv_fft(a, b, hbar)
    return _matched_product(a, b, p)


def _twisted_conv_fft(a: GridFunction2D, b: GridFunction2D,
                      hbar: float) -> GridFunction2D:
    """Ordered twist on any grid.

    For each wrapped second-axis difference class the phase is a fixed
    modulation of b along the first axis, leaving one circular
    convolution in t per class: n_s FFT passes in total.
    """
    n_t, n_s = a.n_t, a.n_s
    u = a.t_axis()
    fa = np.fft.fft(a.values, axis=0)
    out_hat = np.zeros((n_t, n_s), dtype=np.complex128)
    cols = np.arange(n_s)
    for d in range(n_s):
        delta_s = _signed_class(d, n_s) * a.ds
        col_a = (d + n_s // 2) % n_s
        modulated = b.values * np.exp(1j * hbar * delta_s * u)[:, None]
        bd = np.fft.fft(modulated, axis=0)
        out_hat[:, (cols + d) % n_s] += fa[:, col_a][:, None] * bd
    out = np.roll(np.fft.ifft(out_hat, axis=0), -(n_t // 2), axis=0)
    return a.with_values(out * (a.dt * a.ds))


def other_twisted_conv(a: GridFunction2D, b: GridFunction2D,
                       hbar: float) -> GridFunction2D:
    """Symplectic twist: kernel phase e^{-(i hbar/2)(x1 y2 - y1 x2)}.

    Matched grids ((hbar/2) dt ds = 2 pi p / n) run on the exact kernel;
    other grids on n_t FFT passes.
    """
    require_same_grid(a, b)
    check_decay_2d(a)
    check_decay_2d(b)
    out = _symplectic_matched(a, b, hbar)
    return _other_twisted_conv_fft(a, b, hbar) if out is None else out


def _other_twisted_conv_fft(a: GridFunction2D, b: GridFunction2D,
                            hbar: float) -> GridFunction2D:
    """Symplectic twist on any grid.

    Looping over first-axis difference classes d (so x1 - y1 is pinned),
    the phase splits as e^{(i hbar/2) y1 (x2-y2)} * e^{-(i hbar/2) d y2},
    one factor chirping a's row into a per-class kernel bank and the
    other modulating b; each class costs one circular convolution in s.
    """
    n_t, n_s = a.n_t, a.n_s
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    rows = np.arange(n_t)
    # kernel bank: row y1 holds a(delta_t, w) e^{(i hbar/2) y1 w}
    chirp = np.exp(0.5j * hbar * np.outer(t_vals, s_vals))
    out = np.zeros((n_t, n_s), dtype=np.complex128)
    for d in range(n_t):
        delta_t = _signed_class(d, n_t) * a.dt
        row_a = (d + n_t // 2) % n_t
        bank = a.values[row_a, :][None, :] * chirp
        b_mod = b.values * np.exp(-0.5j * hbar * delta_t * s_vals)[None, :]
        conv = np.fft.ifft(np.fft.fft(bank, axis=1) * np.fft.fft(b_mod, axis=1),
                           axis=1)
        out[(rows + d) % n_t, :] += np.roll(conv, -(n_s // 2), axis=1)
    return a.with_values(out * (a.dt * a.ds))


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
    require_same_grid(a, b)
    check_decay_2d(a)
    check_decay_2d(b)
    out = _symplectic_matched(a, b, hbar)
    return _heisenberg_group_conv_fft(a, b, hbar) if out is None else out


def _heisenberg_group_conv_fft(a: GridFunction2D, b: GridFunction2D,
                               hbar: float) -> GridFunction2D:
    """Group convolution on any grid, n_t FFT passes.

    Coded row by row against the output's first coordinate, with no
    shared machinery with _other_twisted_conv_fft beyond the FFT itself.
    """
    n_t, n_s = a.n_t, a.n_s
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    fb = np.fft.fft(b.values, axis=1)
    chirp = np.exp(-0.5j * hbar * np.outer(t_vals, s_vals))  # e^{-(i hbar/2) y1 x2}
    out = np.zeros((n_t, n_s), dtype=np.complex128)
    idx = np.arange(n_t)
    for k1 in range(n_t):
        ca = a.values * np.exp(0.5j * hbar * t_vals[k1] * s_vals)[None, :]
        fc = np.fft.fft(ca, axis=1)
        rows = (k1 - idx + n_t // 2) % n_t
        conv = np.fft.ifft(fc * fb[rows, :], axis=1)
        conv = np.roll(conv, -(n_s // 2), axis=1)
        out[k1, :] = (conv * chirp).sum(axis=0)
    return a.with_values(out * (a.dt * a.ds))


def plain_conv(a: GridFunction2D, b: GridFunction2D) -> GridFunction2D:
    """Untwisted periodized convolution, one fft2 round trip; reference route."""
    require_same_grid(a, b)
    conv = np.fft.ifft2(np.fft.fft2(a.values) * np.fft.fft2(b.values))
    conv = np.roll(conv, (-(a.n_t // 2), -(a.n_s // 2)), axis=(0, 1))
    return a.with_values(conv * (a.dt * a.ds))


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


def _spectral_derivs(f: GridFunction2D, max_order: int) -> dict[tuple[int, int], np.ndarray]:
    """All mixed spectral derivatives of total order <= max_order."""
    xi_t = f.t_freqs()[:, None]
    xi_s = f.s_freqs()[None, :]
    base = np.fft.fft2(f.values)
    out: dict[tuple[int, int], np.ndarray] = {}
    for p in range(max_order + 1):
        for r in range(max_order + 1 - p):
            out[(p, r)] = np.fft.ifft2(base * (1j * xi_t) ** p * (1j * xi_s) ** r)
    return out


def moyal_series_on_grid(f: GridFunction2D, g: GridFunction2D, hbar: float,
                         order: int) -> GridFunction2D:
    """(2 pi)^2 Sum_k (-i hbar)^k/(2^k k!) (d2 d1' - d1 d2')^k (f x g)|_diag.

    Spectral derivatives on the shared grid; the binomial expansion of
    the k-th bidifferential power pairs d2^j d1^{k-j} f with
    d1^j d2^{k-j} g carrying sign (-1)^{k-j}.
    """
    require_same_grid(f, g)
    df = _spectral_derivs(f, order)
    dg = _spectral_derivs(g, order)
    total = np.zeros_like(f.values)
    for k in range(order + 1):
        coeff = (-1j * hbar) ** k / (2.0 ** k * math.factorial(k))
        term = np.zeros_like(total)
        for j in range(k + 1):
            sign = (-1.0) ** (k - j)
            term += (math.comb(k, j) * sign) * df[(k - j, j)] * dg[(j, k - j)]
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
