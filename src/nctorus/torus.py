"""q-twisted torus algebra on truncated coefficient lattices.

Elements are finite sums f = Sum f_{k,l} U^k V^l with UV = qVU and
U* = U^{-1}, V* = V^{-1}.  Normal order is U-powers left of V-powers;
the product, adjoint, trace, basic derivations, the derivation-relation
check with Leibniz extension, and the higher-torus reordering phase all
live here.  Everything is exact in the coefficients: products enlarge
the box, nothing is dropped.

Every function may run in several threads at once.  The only state is the
product's scratch buffer, one per thread, and no result depends on the
thread or on the calls made before it: each output is bit-identical for
a fixed BLAS configuration.  A product whose left factor has one row
never calls BLAS (see _toeplitz_rows), so its bits are the same for any
BLAS thread count as well.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .lattice import CoeffLattice2, MismatchError, PhaseQ, phaseq_to_obj

__all__ = [
    "TorusElement",
    "DerivationSpec",
    "DerivationCheck",
    "unit",
    "monomial",
    "q_mul",
    "adjoint",
    "trace",
    "l2_state",
    "d_power",
    "inner_derivation",
    "check_derivation_relation",
    "apply_derivation",
    "smooth_seminorm",
    "reorder_phase",
]

# Scratch of one _toeplitz_rows chunk, and the most a thread keeps.  The
# medians of q_mul at radii 8..16 sum to 5.56 ms with 128 KiB, 4.48 ms with
# 256 KiB, 4.23 ms with 512 KiB and 4.20 ms with 1 MiB (one BLAS thread,
# 2-core host).  Against fresh arrays, 150 in-process benchmark rounds
# peaked 1.0 MB higher in RSS with 256 KiB and 1.3 MB with 512 KiB.
_CHUNK_BYTES = 256 << 10
_scratch = threading.local()


@dataclass(frozen=True)
class TorusElement:
    coeffs: CoeffLattice2
    q: PhaseQ

    def get(self, k: int, l: int) -> complex:
        return self.coeffs.get(k, l)

    def __add__(self, other: "TorusElement") -> "TorusElement":
        _require_same_q(self.q, other.q)
        return TorusElement(self.coeffs + other.coeffs, self.q)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        _require_same_q(self.q, other.q)
        return TorusElement(self.coeffs - other.coeffs, self.q)

    def scaled(self, a: complex) -> "TorusElement":
        return TorusElement(self.coeffs.scaled(a), self.q)

    def max_abs_diff(self, other: "TorusElement") -> float:
        return self.coeffs.max_abs_diff(other.coeffs)


def _require_same_q(a: PhaseQ, b: PhaseQ, names: tuple[str, str] | None = None) -> None:
    """Refuse two different twists, spelled as the documents spell q, each
    after the name of its operand's file when names are given."""
    if a != b:
        where = ("", "") if names is None else tuple(f"'{name}' " for name in names)
        raise MismatchError(f"q mismatch: {where[0]}{json.dumps(phaseq_to_obj(a))} "
                            f"vs {where[1]}{json.dumps(phaseq_to_obj(b))}")


def unit(q: PhaseQ) -> TorusElement:
    return TorusElement(CoeffLattice2.delta(0, 0), q)


def monomial(k: int, l: int, q: PhaseQ) -> TorusElement:
    """U^k V^l."""
    return TorusElement(CoeffLattice2.delta(k, l), q)


def q_mul(f: TorusElement, g: TorusElement) -> TorusElement:
    """(fg)_{k,l} = Sum_{m,n} f_{m,n} g_{k-m,l-n} q^{-n(k-m)}.

    Row k' of g adds (f diag(q^{-nk'})) @ T_k' at rows shifted by k', with
    T_k'[n, l] = g_{k',l-n} banded Toeplitz (see _toeplitz_rows).
    """
    _require_same_q(f.q, g.q)
    fc, gc = f.coeffs, g.coeffs
    (rows, cols), (krows, gcols) = fc.coeffs.shape, gc.coeffs.shape
    phase = f.q.pow(-np.outer(gc.k_range(), fc.l_range()))
    out = np.zeros((rows + krows - 1, cols + gcols - 1), dtype=np.complex128)
    _toeplitz_rows(out, fc.coeffs, phase, gc.coeffs)
    return TorusElement(CoeffLattice2(fc.radius_k + gc.radius_k,
                                      fc.radius_l + gc.radius_l, out), f.q)


def _toeplitz_rows(out: np.ndarray, a: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    """out[k: k + R] += (a * w[k]) @ T(b[k]) for every row k of b.

    a is R x C, w is K x C and b is K x B; T(b[k])[n, l] = b[k, l - n] is
    the C x (C + B - 1) banded Toeplitz matrix of row k.  One batched GEMM
    per chunk of rows of b.  A chunk's Toeplitz stack, weighted copies of a
    and product share this thread's scratch, so a product reuses warm
    memory rather than page-faulting fresh arrays in.  A warm radius-16
    q_mul peaks at 187 KiB under tracemalloc, against 2,925 KiB with fresh
    arrays in one 4 MiB chunk, and takes 0.39-0.40 of the time: 0.89-1.45
    ms against 2.25-3.68 ms (one BLAS thread, 2-core host).  The blocks are
    added in ascending k for any chunk size, so the result is
    bit-reproducible for a fixed BLAS configuration.
    """
    (rows, cols), (krows, bcols) = a.shape, b.shape
    width = cols + bcols - 1
    padded = np.zeros((krows, bcols + 2 * (cols - 1)), dtype=np.complex128)
    padded[:, cols - 1: cols - 1 + bcols] = b
    # toeplitz[k, n, l] = padded[k, cols - 1 - n + l] = T(b[k])[n, l], a view
    toeplitz = as_strided(padded[:, cols - 1:], (krows, cols, width),
                          (padded.strides[0], -padded.itemsize, padded.itemsize),
                          writeable=False)
    step = max(1, _CHUNK_BYTES // (16 * (cols * width + rows * (cols + width))))
    for start in range(0, krows, step):
        ks, m = slice(start, start + step), min(step, krows - start)
        # a one-row a takes numpy's vector-matrix path, whose sums follow the
        # stack's layout.  With k fastest at a stride of two or more, every
        # chunk takes numpy's own loop and never BLAS gemv, so neither the
        # chunk size nor the BLAS thread count can move the bits
        lanes = max(m, 2) if rows == 1 else m
        buf = _workspace(m * rows * (cols + width) + lanes * cols * width, _CHUNK_BYTES)
        aw = buf[: m * rows * cols].reshape(m, rows, cols)
        aw[...] = a
        aw *= w[ks, None, :]
        prod = buf[aw.size: aw.size + m * rows * width].reshape(m, rows, width)
        tz = buf[aw.size + prod.size:]
        if rows == 1:
            stack = tz.reshape(cols, width, lanes)[..., :m].transpose(2, 0, 1)
        else:
            stack = tz.reshape(m, cols, width)
        np.copyto(stack, toeplitz[ks])
        for k, block in enumerate(np.matmul(aw, stack, out=prod), start):
            out[k: k + rows] += block


def _workspace(size: int, keep: int) -> np.ndarray:
    """size complex128 entries of this thread's scratch slab, which q_mul and
    the plane products share.  A need the slab cannot meet gets a fresh
    array, which replaces the slab if it is at most keep bytes and is not
    kept otherwise.  A view of the slab is dead once the next call to
    _workspace on the same thread returns."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < size:
        kept = 16 * size <= keep
        if kept:  # the old slab is not held while the new one fills
            _scratch.buf = None
        buf = np.empty(size, dtype=np.complex128)
        if kept:
            _scratch.buf = buf
    return buf[:size]


def adjoint(f: TorusElement) -> TorusElement:
    """(f*)_{k,l} = conj(f_{-k,-l}) q^{-kl}."""
    fc = f.coeffs
    kk = fc.k_range()[:, None]
    ll = fc.l_range()[None, :]
    rev = np.conj(fc.coeffs[::-1, ::-1])
    return TorusElement(CoeffLattice2(fc.radius_k, fc.radius_l,
                                      rev * f.q.pow(-kk * ll)), f.q)


def trace(f: TorusElement) -> complex:
    return f.coeffs.get(0, 0)


def l2_state(f: TorusElement) -> float:
    return float(np.sqrt(np.sum(np.abs(f.coeffs.coeffs) ** 2)))


def d_power(f: TorusElement, m: int, n: int) -> TorusElement:
    """Coefficient-wise multiplication by k^m l^n, with 0^0 = 1."""
    if m < 0 or n < 0:
        raise ValueError("derivation powers must be non-negative")
    fc = f.coeffs
    kw = np.ones(2 * fc.radius_k + 1) if m == 0 else fc.k_range().astype(np.float64) ** m
    lw = np.ones(2 * fc.radius_l + 1) if n == 0 else fc.l_range().astype(np.float64) ** n
    return TorusElement(CoeffLattice2(fc.radius_k, fc.radius_l,
                                      fc.coeffs * kw[:, None] * lw[None, :]), f.q)


def inner_derivation(a: TorusElement, f: TorusElement) -> TorusElement:
    """ad(a) f = a f - f a."""
    return q_mul(a, f) - q_mul(f, a)


@dataclass(frozen=True)
class DerivationSpec:
    """A candidate derivation given by its values on the generators."""

    du_value: CoeffLattice2
    dv_value: CoeffLattice2
    q: PhaseQ

    @staticmethod
    def from_inner(a: TorusElement) -> "DerivationSpec":
        u = monomial(1, 0, a.q)
        v = monomial(0, 1, a.q)
        return DerivationSpec(inner_derivation(a, u).coeffs,
                              inner_derivation(a, v).coeffs, a.q)


@dataclass(frozen=True)
class DerivationCheck:
    ok: bool
    max_residual: float
    first_violation: tuple[int, int] | None
    tol: float


def check_derivation_relation(d: DerivationSpec, tol: float = 1e-10) -> DerivationCheck:
    """Evaluate u_{k,l-1}(1-q^{1-k}) + v_{k-1,l}(1-q^{1-l}) over both boxes.

    The relation is what applying the candidate D to UV = qVU demands,
    evaluated over the union box plus margin 2 (every term is zero outside);
    first_violation is the lexicographically first (k, l) whose residual is
    not within tol, so a NaN residual is a violation too.
    """
    u, v, q = d.du_value, d.dv_value, d.q
    rk = max(u.radius_k, v.radius_k) + 2
    rl = max(u.radius_l, v.radius_l) + 2
    # u_{k,l-1} and v_{k-1,l}: the margin makes each roll wrap in zeros only
    us = np.roll(u.expanded(rk, rl).coeffs, 1, axis=1)
    vs = np.roll(v.expanded(rk, rl).coeffs, 1, axis=0)
    res = np.abs(us * (1.0 - q.pow(1 - np.arange(-rk, rk + 1)))[:, None]
                 + vs * (1.0 - q.pow(1 - np.arange(-rl, rl + 1)))[None, :])
    worst = float(res.max())
    over = np.argwhere(~(res <= tol))
    first = (int(over[0, 0]) - rk, int(over[0, 1]) - rl) if len(over) else None
    return DerivationCheck(first is None, worst, first, tol)


def _leibniz_weights(q: PhaseQ, powers: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """sgn(p) Sum_m q^{-e m} over m in [0, p) or [p, 0), for each power p and each e."""
    p = powers[:, None]
    top = int(np.abs(powers).max())
    ms = np.arange(-top, top)
    inside = np.where(p > 0, (ms >= 0) & (ms < p), (ms >= p) & (ms < 0))
    return (np.sign(p) * inside) @ q.pow(-np.outer(ms, exps))


def _leibniz_rows(out: np.ndarray, f: np.ndarray, d: np.ndarray,
                  exps: np.ndarray, q: PhaseQ) -> None:
    """Add the D(U^k) V^l terms of every row k of f to out.

    Arrays are centred on their middle entry.  Row k adds d, its column e
    weighted by sgn(k) Sum_m q^{-em}, at offset (k - 1, l) for every l of
    the row: one banded-Toeplitz product per row.  Row 0 has zero weights.
    Called on transposes it adds the U^k D(V^l) terms.
    """
    (fr, fc), (dr, dc) = f.shape, d.shape
    i = out.shape[0] // 2 - fr // 2 - 1 - dr // 2
    j = out.shape[1] // 2 - fc // 2 - dc // 2
    _toeplitz_rows(out[i: i + fr + dr - 1, j: j + fc + dc - 1], d,
                   _leibniz_weights(q, np.arange(fr) - fr // 2, exps), f)


def apply_derivation(d: DerivationSpec, f: TorusElement,
                     tol: float = 1e-10) -> TorusElement:
    """Extend d to f by the Leibniz rule: D(U^kV^l) = D(U^k)V^l + U^k D(V^l).

    U^j (U^a V^b) U^m = q^{-bm} U^{a+j+m} V^b, so every term of D(U^k)
    lands at U^{a+k-1} V^b and D(U^k) V^l is D(U) shifted by (k-1, l) with
    column b weighted by sgn(k) Sum_m q^{-bm}; likewise U^k D(V^l) is D(V)
    shifted by (k, l-1) with row a weighted by sgn(l) Sum_j q^{-ja}.
    Negative powers follow from D(g^{-1}) = -g^{-1} D(g) g^{-1}.  The box
    is the smallest symmetric one holding f's support and every term.
    """
    chk = check_derivation_relation(d, tol)
    if not chk.ok:
        raise ValueError(
            f"derivation relation violated at {chk.first_violation} "
            f"with residual {chk.max_residual:.3e} > {tol:.1e}")
    _require_same_q(d.q, f.q)
    du, dv = d.du_value, d.dv_value
    fc = f.coeffs
    ki, li = np.nonzero(fc.coeffs)
    ks, ls = ki - fc.radius_k, li - fc.radius_l
    on_u, on_v = ks != 0, ls != 0
    rk = int(max(np.abs(ks).max(initial=0),
                 (np.abs(ks[on_u] - 1) + du.radius_k).max(initial=0),
                 (np.abs(ks[on_v]) + dv.radius_k).max(initial=0)))
    rl = int(max(np.abs(ls).max(initial=0),
                 (np.abs(ls[on_u]) + du.radius_l).max(initial=0),
                 (np.abs(ls[on_v] - 1) + dv.radius_l).max(initial=0)))
    # whole rows and columns of f are added, so work in a box that holds
    # their zero entries' terms too, then crop to the box of the nonzero ones
    wk = fc.radius_k + max(du.radius_k + 1, dv.radius_k)
    wl = fc.radius_l + max(du.radius_l, dv.radius_l + 1)
    out = np.zeros((2 * wk + 1, 2 * wl + 1), dtype=np.complex128)
    _leibniz_rows(out, fc.coeffs, du.coeffs, du.l_range(), d.q)
    _leibniz_rows(out.T, fc.coeffs.T, dv.coeffs.T, dv.k_range(), d.q)
    return TorusElement(CoeffLattice2(rk, rl, out[wk - rk: wk + rk + 1,
                                                  wl - rl: wl + rl + 1]), d.q)


def smooth_seminorm(f: TorusElement, word: Sequence[tuple[int, int]]) -> float:
    """sqrt(tr(g* g)) of g = X_1 ... X_p f, X_i = D_U^{m_i} D_V^{n_i}."""
    g = f
    for m, n in word:
        g = d_power(g, m, n)
    return l2_state(g)


def reorder_phase(word: Sequence[int], q: PhaseQ) -> tuple[np.ndarray, complex]:
    """Normal-order a word in generators S_1..S_n with S_i S_{i+1} = q S_{i+1} S_i.

    word entries are signed indices: +i for S_i, -i for S_i^{-1}, and n is
    the largest index in word (1 for an empty word).  Returns the exponent
    vector of S_1^{k_1}..S_n^{k_n} and the accumulated phase.
    A stable sort by index swaps each pair of letters S_a^s before S_b^t
    with a > b exactly once.  Only neighbours twist, S_{b+1}^s S_b^t =
    q^{-st} S_b^t S_{b+1}^s, and the rest commute, so the phase is q to the
    -Sum s t over the pairs with a = b + 1.
    """
    phase_exp = 0
    seen = {}  # index -> sum of the signs of the letters read so far
    for w in word:
        if not isinstance(w, int) or w == 0:
            raise ValueError(f"word entries are nonzero signed integers, got {w!r}")
        b, t = abs(w), 1 if w > 0 else -1
        phase_exp -= t * seen.get(b + 1, 0)
        seen[b] = seen.get(b, 0) + t
    signed = np.array(word, dtype=np.int64).reshape(-1)
    exps = np.zeros(np.abs(signed).max(initial=1), dtype=np.int64)
    np.add.at(exps, np.abs(signed) - 1, np.sign(signed))
    return exps, q.pow(phase_exp)
