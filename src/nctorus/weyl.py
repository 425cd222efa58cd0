"""Weyl operators on sampled line functions, lattice-measure representation,
and the constructive inner-generator solver.

Q multiplies by the coordinate, P = (hbar/i) d/du acts spectrally, and
their exponentials are a pointwise phase and an exact band-limited
translation.  Composing them gives
e^{itQ} e^{isP} = e^{-i t s hbar} e^{isP} e^{itQ} to round-off, which is
what turns lattice-supported measures into a twisted-product
representation; calibrate_q measures the resulting twist instead of
trusting any closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction1D, GridFunction2D, gaussian_1d, require_same_grid
from .lattice import CoeffLattice2, PhaseQ

__all__ = [
    "apply_Q",
    "apply_P",
    "weyl_Q",
    "weyl_P",
    "rep_lattice_measure",
    "calibrate_q",
    "composition_phase",
    "DerivationData",
    "SolveInnerResult",
    "solve_inner_generator",
]


def apply_Q(f: GridFunction1D) -> GridFunction1D:
    return f.with_values(f.axis() * f.values)


def apply_P(f: GridFunction1D, hbar: float) -> GridFunction1D:
    # (hbar/i) * d/du, derivative taken in frequency space
    spec = np.fft.fft(f.values)
    return f.with_values(hbar * np.fft.ifft(f.freqs() * spec))


def weyl_Q(t: float, f: GridFunction1D) -> GridFunction1D:
    return f.with_values(np.exp(1j * t * f.axis()) * f.values)


def weyl_P(s: float, f: GridFunction1D, hbar: float) -> GridFunction1D:
    """(e^{isP} f)(u) = f(u + s*hbar), exact for band-limited samples."""
    spec = np.fft.fft(f.values)
    return f.with_values(np.fft.ifft(spec * np.exp(1j * f.freqs() * s * hbar)))


def rep_lattice_measure(c: CoeffLattice2, sigma: float, hbar: float,
                        f: GridFunction1D) -> GridFunction1D:
    """Sum_{k,l} c_{k,l} e^{i sigma k Q} e^{i sigma l P} applied to f.

    Accumulated in lexicographic (k,l) order; the translation for each l
    is computed once and reused across k.
    """
    spec = np.fft.fft(f.values)
    xi = f.freqs()
    u = f.axis()
    out = np.zeros(f.n, dtype=np.complex128)
    shifted: dict[int, np.ndarray] = {}
    for k, l, coeff in c.support():
        sh = shifted.get(l)
        if sh is None:
            sh = np.fft.ifft(spec * np.exp(1j * xi * sigma * l * hbar))
            shifted[l] = sh
        out += coeff * np.exp(1j * sigma * k * u) * sh
    return f.with_values(out)


def composition_phase(sigma: float, hbar: float) -> complex:
    """Phase z with rep(U) rep(V) = z rep(V) rep(U).

    Moving the multiplication phase e^{i sigma u} through the translation
    u -> u + sigma*hbar produces e^{i sigma^2 hbar} on the V.U side, so
    the U.V side is smaller by its inverse.
    """
    return cmath.exp(-1j * sigma * sigma * hbar)


def calibrate_q(sigma: float, hbar: float, half_extent: float = 16.0,
                n: int = 512) -> PhaseQ:
    """Measure the operator twist on a probe Gaussian.

    Returns the irrational-kind phase of <VU f, UV f> / ||VU f||^2; the
    probe is off-center so no accidental symmetry can cancel the phase.
    """
    probe = gaussian_1d(half_extent, n, center=0.3, width=1.1)
    uv = weyl_Q(sigma, weyl_P(sigma, probe, hbar))
    vu = weyl_P(sigma, weyl_Q(sigma, probe), hbar)
    den = np.vdot(vu.values, vu.values)
    if abs(den) < 1e-12:
        raise ValueError("degenerate probe: near-zero norm")
    ratio = complex(np.vdot(vu.values, uv.values) / den)
    return PhaseQ.irrational(cmath.phase(ratio))


@dataclass(frozen=True)
class DerivationData:
    """Coefficient distributions of D(Q), D(P) over the e^{itQ}e^{isP} family."""

    a_Q: GridFunction2D
    a_P: GridFunction2D
    hbar: float

    def __post_init__(self):
        require_same_grid(self.a_Q, self.a_P)
        if self.hbar == 0:
            raise ValueError("hbar must be nonzero")


@dataclass(frozen=True)
class SolveInnerResult:
    b: GridFunction2D
    compat_residual: float
    overlap_residual: float


def _spectral_partial(vals: np.ndarray, axis: int, freqs: np.ndarray) -> np.ndarray:
    shape = [1, 1]
    shape[axis] = len(freqs)
    spec = np.fft.fft(vals, axis=axis)
    return np.fft.ifft(1j * freqs.reshape(shape) * spec, axis=axis)


def _simpson(y: np.ndarray, h: float) -> complex:
    """Composite Simpson rule over an odd number of samples spaced h apart."""
    return complex(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


_MIN_CELLS = 2  # division needs a coordinate this many cells from an axis
_QUAD_NODES = 513  # odd, as the composite Simpson rule along each ray needs


def solve_inner_generator(d: DerivationData, tol: float = 1e-6) -> SolveInnerResult:
    """Recover b with b(t,s) s hbar = a_Q and -b(t,s) t hbar = a_P.

    Division does the work wherever one coordinate clears _MIN_CELLS grid
    cells; the two branches must agree on their overlap.  The small
    square around the origin, where both divisions are singular, is
    filled from the identity div(b x) = (d_s a_Q - d_t a_P)/hbar: writing
    w for the right side, (d/drho)[rho^2 b(rho x)] = rho w(rho x), so
    b(x) = -int_1^rho_max rho w(rho x) drho once rho_max x leaves the
    support, and b(0) = w(0)/2 exactly.  w is sampled along rays by trig
    interpolation of its FFT.
    """
    g = d.a_Q
    aq, ap = d.a_Q.values, d.a_P.values
    hbar = d.hbar
    tt = g.t_axis()[:, None]
    ss = g.s_axis()[None, :]
    scale = max(float(np.max(np.abs(aq))), float(np.max(np.abs(ap))))
    if scale == 0.0:
        return SolveInnerResult(g.with_values(np.zeros_like(aq)), 0.0, 0.0)

    compat = float(np.max(np.abs(tt * aq + ss * ap))) / scale
    if compat > tol:
        raise ValueError(
            f"compatibility residual {compat:.3e} > {tol:.1e}: "
            "t*a_Q + s*a_P must vanish for an inner generator to exist")

    s_ok = np.abs(ss) >= (_MIN_CELLS - 0.5) * g.ds
    t_ok = np.abs(tt) >= (_MIN_CELLS - 0.5) * g.dt
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = np.where(s_ok, aq / (ss * hbar), 0.0)
        b2 = np.where(t_ok, -ap / (tt * hbar), 0.0)

    overlap = s_ok & t_ok
    overlap_res = 0.0
    if overlap.any():
        ref = max(float(np.max(np.abs(b1[overlap]))), 1e-300)
        overlap_res = float(np.max(np.abs((b1 - b2)[overlap]))) / ref
        if overlap_res > tol:
            raise ValueError(
                f"branch disagreement {overlap_res:.3e} > {tol:.1e} on the overlap")

    b = np.where(s_ok, b1, np.where(t_ok, b2, 0.0 + 0.0j))

    hole = ~s_ok & ~t_ok
    if hole.any():
        w = (_spectral_partial(aq, 1, g.s_freqs())
             - _spectral_partial(ap, 0, g.t_freqs())) / hbar
        what = np.fft.fft2(w)
        xi_t = g.t_freqs()
        xi_s = g.s_freqs()
        norm = g.n_t * g.n_s
        for it, isx in np.argwhere(hole):
            t0 = float(tt[it, 0])
            s0 = float(ss[0, isx])
            if t0 == 0.0 and s0 == 0.0:
                b[it, isx] = w[it, isx] / 2.0
                continue
            bounds = []
            if t0 != 0.0:
                bounds.append(g.half_extent_t / abs(t0))
            if s0 != 0.0:
                bounds.append(g.half_extent_s / abs(s0))
            rho_max = 0.98 * min(bounds)
            rho, h = np.linspace(1.0, rho_max, _QUAD_NODES, retstep=True)
            pt = np.exp(1j * np.outer(rho * t0 + g.half_extent_t, xi_t))
            ps = np.exp(1j * np.outer(rho * s0 + g.half_extent_s, xi_s))
            w_ray = ((pt @ what) * ps).sum(axis=1) / norm
            b[it, isx] = -_simpson(rho * w_ray, h)

    return SolveInnerResult(g.with_values(b), compat, overlap_res)
