"""Positive linear forms and the GNS construction on finite quotients.

Two carrier algebras: the N^2-dimensional quotient with U^N = V^N = 1
(associative on the nose, isomorphic to Mat_N for rational q), and a
truncated coefficient box whose products are re-truncated, which is not
associative; the discarded tail is measured and every GNS tolerance is
loosened by ten times that tail so the report stays honest.

A form phi produces the Gram matrix G_ij = phi(e_i* e_j); its kernel is
the null ideal, the quotient gets a modified Gram-Schmidt basis in
declared order (determinism), and generators become compressed
left-multiplication matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import PhaseQ, is_number

__all__ = [
    "FiniteAlgebra",
    "torus_quotient",
    "truncated_box",
    "PositiveForm",
    "PositivityReport",
    "GnsTriplet",
    "gram_matrix",
    "is_positive",
    "gns_build",
    "state_action",
    "schwarz_check",
    "intertwiner",
    "separation_rank",
]

# Dense dim^3 tables and a dim^5 homomorphism check: at this limit (quotient
# N = 9, box radii 4, 4) a trace-form gns_build takes 1.5 s on a 2-core host.
MAX_ALGEBRA_DIM = 81

# Gram-Schmidt drops a vector whose remaining Gram norm is at most this
# fraction of the largest diagonal Gram entry
_RANK_CUT = 1e-9


@dataclass(frozen=True)
class FiniteAlgebra:
    kind: str
    q: PhaseQ
    labels: tuple
    lmats: np.ndarray = field(repr=False)   # lmats[m,:,j] = coords of e_m e_j
    starmat: np.ndarray = field(repr=False)  # row i = coords of e_i*
    unit_index: int
    tail: float

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label) -> int:
        return self.labels.index(label)

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=np.complex128)
        v[i] = 1.0
        return v

    def unit_vector(self) -> np.ndarray:
        return self.basis_vector(self.unit_index)

    def mul(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.einsum("m,mrj,j->r", f, self.lmats, g, optimize=False)

    def star(self, f: np.ndarray) -> np.ndarray:
        return self.starmat.T @ np.conj(f)


def _algebra(kind: str, q: PhaseQ, k: np.ndarray, l: np.ndarray, target: np.ndarray,
             phase: np.ndarray, star_target: np.ndarray, star_phase: np.ndarray,
             tail: float) -> FiniteAlgebra:
    """Dense tables of a monomial algebra: e_i e_j = phase[i, j] e_target[i, j]
    (0 where target < 0) and e_i* = star_phase[i] e_star_target[i]."""
    dim = len(k)
    lmats = np.zeros((dim, dim, dim), dtype=np.complex128)
    i, j = np.nonzero(target >= 0)
    lmats[i, target[i, j], j] = phase[i, j]
    starmat = np.zeros((dim, dim), dtype=np.complex128)
    starmat[np.arange(dim), star_target] = star_phase
    labels = tuple(zip(k.tolist(), l.tolist()))
    return FiniteAlgebra(kind, q, labels, lmats, starmat, labels.index((0, 0)), tail)


def _check_dim(dim: int, what: str) -> None:
    if dim > MAX_ALGEBRA_DIM:
        raise ValueError(f"{what} gives {dim} basis elements, above the limit "
                         f"{MAX_ALGEBRA_DIM} of the dense tables")


def torus_quotient(q: PhaseQ) -> FiniteAlgebra:
    """Basis U^s V^t, 0 <= s,t < N, with U^N = V^N = 1; exact structure phases."""
    if q.kind != "rational":
        raise ValueError("the finite quotient needs rational q")
    n = q.modulus
    _check_dim(n * n, f'field "q": modulus {n}')
    s, t = np.divmod(np.arange(n * n), n)
    target = (s[:, None] + s[None, :]) % n * n + (t[:, None] + t[None, :]) % n
    pows = np.array([q.pow(e) for e in range(n)])  # q^e depends on e mod N only
    return _algebra("torus_quotient", q, s, t, target, pows[-t[:, None] * s[None, :] % n],
                    (-s) % n * n + (-t) % n, pows[-s * t % n], 0.0)


def truncated_box(radius_k: int, radius_l: int, q: PhaseQ) -> FiniteAlgebra:
    """Monomial box with products cut back to the box; tail records the cut.

    U^k1 V^l1 U^k2 V^l2 = q^{-l1 k2} U^{k1+k2} V^{l1+l2}, kept when the
    exponents stay in the box; tail is the largest discarded |coefficient|.
    """
    for name, radius in (("radius_k", radius_k), ("radius_l", radius_l)):
        if not is_number(radius, int) or radius < 0:
            raise ValueError(f'field "{name}" must be a non-negative integer')
    width = 2 * radius_l + 1
    dim = (2 * radius_k + 1) * width
    _check_dim(dim, 'fields "radius_k", "radius_l": the box')
    k, l = np.divmod(np.arange(dim), width)
    k, l = k - radius_k, l - radius_l
    kk, ll = k[:, None] + k[None, :], l[:, None] + l[None, :]
    kept = (np.abs(kk) <= radius_k) & (np.abs(ll) <= radius_l)
    phase = q.pow_array(-l[:, None] * k[None, :])
    tail = float(np.max(np.abs(phase[~kept]), initial=0.0))
    target = np.where(kept, (kk + radius_k) * width + ll + radius_l, -1)
    # the mirrored box equals the box, so e_i* = q^{-kl} e_{-k,-l} never truncates
    return _algebra("truncated_box", q, k, l, target, phase,
                    dim - 1 - np.arange(dim), q.pow_array(-k * l), tail)


@dataclass(frozen=True)
class PositiveForm:
    """phi given by its values on the declared basis order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __call__(self, f: np.ndarray) -> complex:
        return complex(np.dot(self.values, f))


def gram_matrix(phi: PositiveForm, a: FiniteAlgebra) -> np.ndarray:
    if len(phi.values) != a.dim:
        raise ValueError(f"form has {len(phi.values)} values, algebra dim {a.dim}")
    # phi(e_m e_j) for every (m, j), then G_ij = sum_m star[i, m] phi(e_m e_j)
    return a.starmat @ np.tensordot(phi.values, a.lmats, (0, 1))


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    hermiticity_residual: float
    star_residual: float
    gram: np.ndarray = field(repr=False)  # the Gram matrix the test ran on


def is_positive(phi: PositiveForm, a: FiniteAlgebra,
                tol: float = 1e-10) -> PositivityReport:
    """Eigenvalue test on the Gram matrix; a failure returns the witness
    vector f with phi(f* f) < 0."""
    g = gram_matrix(phi, a)
    herm = float(np.max(np.abs(g - g.conj().T)))
    # phi(e_i*) - conj(phi(e_i)) for every basis element
    star_res = float(np.max(np.abs(a.starmat @ phi.values - np.conj(phi.values))))
    w, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    lo = float(w[0])
    ok = lo >= -tol
    witness = None if ok else vecs[:, 0].copy()
    return PositivityReport(ok, lo, witness, herm, star_res, g)


@dataclass(frozen=True)
class GnsTriplet:
    quotient_dim: int
    basis: np.ndarray = field(repr=False)  # columns: orthonormal coords in A
    pi_mats: np.ndarray = field(repr=False)  # (dim, r, r); pi_mats[m] = pi(e_m)
    omega: np.ndarray = field(repr=False)
    recon_residual: float
    hom_residual: float
    star_residual: float

    def pi(self, f: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(f, dtype=np.complex128), self.pi_mats, (0, 0))


def gns_build(phi: PositiveForm, a: FiniteAlgebra, tol: float | None = None,
              order=None) -> GnsTriplet:
    """Quotient by the Gram kernel, orthonormalize, compress left multiplication.

    order permutes the basis fed to Gram-Schmidt (the default is the
    declared order); any two orders give unitarily equivalent triplets.
    """
    rep = is_positive(phi, a)
    if not rep.ok:
        raise ValueError(f"form is not positive: min eigenvalue {rep.min_eigenvalue:.3e}")
    if tol is None:
        tol = max(1e-10, 10.0 * a.tail)
    g = (rep.gram + rep.gram.conj().T) / 2.0
    gmax = max(float(np.max(np.abs(np.diag(g)))), 1e-300)

    cols: list[np.ndarray] = []
    seq = list(range(a.dim)) if order is None else list(order)
    if sorted(seq) != list(range(a.dim)):
        raise ValueError("order must be a permutation of the basis indices")
    for i in seq:
        v = a.basis_vector(i)
        for _ in range(2):  # one re-orthogonalization pass for stability
            for u in cols:
                v = v - u * np.dot(np.conj(u), g @ v)
        n2 = float(np.real(np.dot(np.conj(v), g @ v)))
        if n2 <= _RANK_CUT * gmax:
            continue
        cols.append(v / math.sqrt(n2))
    if not cols:
        e = np.zeros((a.dim, 0), dtype=np.complex128)
        return GnsTriplet(0, e, np.zeros((a.dim, 0, 0), dtype=np.complex128),
                          np.zeros(0, dtype=np.complex128), 0.0, 0.0, 0.0)
    e = np.stack(cols, axis=1)

    eg = e.conj().T @ g  # (r, dim), the quotient-side pairing
    pi = eg @ a.lmats @ e
    omega = eg[:, a.unit_index]

    recon = float(np.max(np.abs(phi.values - (pi @ omega) @ np.conj(omega))))
    pi_star = (a.starmat @ pi.reshape(a.dim, -1)).reshape(pi.shape)
    star = float(np.max(np.abs(pi_star - pi.conj().transpose(0, 2, 1))))
    hom = _hom_residual(a.lmats, pi)
    if max(recon, hom, star) > tol:
        raise ValueError(
            f"GNS invariants violated: reconstruction {recon:.3e}, "
            f"homomorphism {hom:.3e}, star {star:.3e} exceed {tol:.1e}")
    return GnsTriplet(e.shape[1], e, pi, omega, recon, hom, star)


def _hom_residual(lmats: np.ndarray, pi: np.ndarray) -> float:
    """max over (m, j) of |pi(e_m e_j) - pi(e_m) pi(e_j)|, one m at a time so
    that only a (dim, r, r) slab is live.  The tables are monomial, so each
    pi(e_m e_j) is a multiple of one pi matrix."""
    dim, r = pi.shape[0], pi.shape[1]
    nonzero = lmats != 0
    if np.any(nonzero.sum(axis=1) > 1):
        raise ValueError("structure tables are not monomial")
    target = nonzero.argmax(axis=1)  # (m, j) -> the one index r with e_m e_j ~ e_r
    phase = np.take_along_axis(lmats, target[:, None, :], axis=1)[:, 0, :]
    row = pi.transpose(1, 0, 2).reshape(r, dim * r)  # [pi_0 | pi_1 | ...]
    res = 0.0
    for m in range(dim):
        want = pi[target[m]] * phase[m][:, None, None]
        got = (pi[m] @ row).reshape(r, dim, r).transpose(1, 0, 2)
        res = max(res, float(np.max(np.abs(want - got))))
    return res


def state_action(phi: PositiveForm, f: np.ndarray, a: FiniteAlgebra) -> PositiveForm:
    """phi_f(g) = phi(f* g f), evaluated as ((f* g) f) in the algebra."""
    f = np.asarray(f, dtype=np.complex128)
    # phi_f(e_j) = sum_m (f* e_j)_m phi(e_m f)
    phi_mf = (a.lmats @ f) @ phi.values
    return PositiveForm(phi_mf @ np.tensordot(a.star(f), a.lmats, (0, 0)))


def schwarz_check(phi: PositiveForm, f: np.ndarray, a: FiniteAlgebra) -> float:
    """max(0, |phi(f)| - phi(1)^{1/2} phi(f* f)^{1/2})."""
    f = np.asarray(f, dtype=np.complex128)
    lhs = abs(phi(f))
    p1 = max(float(np.real(phi(a.unit_vector()))), 0.0)
    pff = max(float(np.real(phi(a.mul(a.star(f), f)))), 0.0)
    return max(0.0, lhs - math.sqrt(p1) * math.sqrt(pff))


def intertwiner(t1: GnsTriplet, t2: GnsTriplet,
                a: FiniteAlgebra) -> tuple[np.ndarray, float]:
    """Unitary W with W pi1(f) = pi2(f) W and W Omega1 = Omega2.

    Both triplets are cyclic for the same form, so matching the orbit of
    the cyclic vector determines W; the orthogonal-Procrustes polish of
    the orbit correspondence is the least-squares unitary.
    """
    if t1.quotient_dim != t2.quotient_dim:
        raise ValueError("quotient dimensions differ; no unitary can intertwine")
    m1 = np.stack([t1.pi_mats[m] @ t1.omega for m in range(a.dim)], axis=1)
    m2 = np.stack([t2.pi_mats[m] @ t2.omega for m in range(a.dim)], axis=1)
    u, _, vh = np.linalg.svd(m2 @ m1.conj().T)
    w = u @ vh
    res = float(np.max(np.abs(w @ m1 - m2)))
    for m in range(a.dim):
        res = max(res, float(np.max(np.abs(w @ t1.pi_mats[m] - t2.pi_mats[m] @ w))))
    res = max(res, float(np.max(np.abs(w @ t1.omega - t2.omega))))
    return w, res


def separation_rank(forms: list[PositiveForm], a: FiniteAlgebra) -> tuple[int, int]:
    """Rank of the stacked Grams and of f -> direct-sum pi(f); both equal
    the algebra dimension exactly when the family separates points."""
    grams = [gram_matrix(phi, a) for phi in forms]
    stacked = np.vstack(grams) if grams else np.zeros((0, a.dim))
    rank_gram = int(np.linalg.matrix_rank(stacked, tol=1e-9))
    blocks = []
    for phi in forms:
        t = gns_build(phi, a)
        blocks.append(t.pi_mats.reshape(a.dim, t.quotient_dim ** 2).T)
    pi_map = np.vstack(blocks) if blocks else np.zeros((0, a.dim))
    rank_pi = int(np.linalg.matrix_rank(pi_map, tol=1e-9))
    return rank_gram, rank_pi
