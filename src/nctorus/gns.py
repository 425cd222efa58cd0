"""Positive linear forms and the GNS construction on finite quotients.

Two carrier algebras: the N^2-dimensional quotient with U^N = V^N = 1
(associative on the nose, isomorphic to Mat_N for rational q), and a
truncated coefficient box whose products are re-truncated, which is not
associative; the discarded tail is measured and every GNS tolerance is
loosened by ten times that tail so the report stays honest.

A form phi produces the Gram matrix G_ij = phi(e_i* e_j); its kernel is
the null ideal, the quotient gets a twice-projected classical
Gram-Schmidt basis in declared order (determinism), and basis elements
become compressed left-multiplication matrices.
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

# Dense dim^3 tables (8.5 MB at the limit) and, where the quotient's
# certificate does not accept and on the box, a dim^5 homomorphism check:
# gns_build at dim 81 takes 0.1 s when the certificate accepts (trace form,
# N = 9) and 1.3 s when the full check runs, on the quotient or on the box
# of radii 4, 4 (one thread, 2-core host).
MAX_ALGEBRA_DIM = 81

# Gram-Schmidt drops a vector whose remaining Gram norm is at most this
# fraction of the largest diagonal Gram entry
_RANK_CUT = 1e-9

_UNIT_ROUNDOFF = 2.0 ** -53


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
    """pi(e_m) on the quotient of the algebra by the null ideal, the cyclic
    vector omega and three residuals.  hom_residual is an upper bound on
    max |pi(e_m e_j) - pi(e_m) pi(e_j)|: on torus_quotient the certificate
    built from the generators (see _hom_bound) when that is within the
    tol, and otherwise, and on truncated_box, that maximum itself."""

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
    Gram-Schmidt is classical and run twice per vector (CGS2, Giraud,
    Langou & Rozloznik, Comput. Math. Appl. 50, 2005): one block update
    v -= C (G C)^H v per pass, so the loop makes dim steps.  On the
    quotient _hom_bound's certificate, an upper bound on the full
    homomorphism residual, accepts where it is within tol, and the build
    then costs O(dim r^3 + dim^2 r) beyond the Gram matrix (r the quotient
    dimension): 0.1 s for the trace form at N = 9 (one thread, 2-core
    host).  Where it is not, and on the box, the full residual, which costs
    dim^2 r^3 (1.3 s at dim 81), decides, so the homomorphism verdict is
    the full check's in every case.
    """
    rep = is_positive(phi, a)
    if not rep.ok:
        raise ValueError(f"form is not positive: min eigenvalue {rep.min_eigenvalue:.3e}")
    if tol is None:
        tol = max(1e-10, 10.0 * a.tail)
    g = (rep.gram + rep.gram.conj().T) / 2.0
    gmax = max(float(np.max(np.abs(np.diag(g)))), 1e-300)

    seq = list(range(a.dim)) if order is None else list(order)
    if sorted(seq) != list(range(a.dim)):
        raise ValueError("order must be a permutation of the basis indices")
    c = np.zeros((a.dim, a.dim), dtype=np.complex128)  # the kept columns
    gc = np.zeros_like(c)  # g @ c, updated alongside
    r = 0
    for i in seq:
        v = a.basis_vector(i)
        gv = g[:, i].copy()
        for _ in range(2):
            coef = gc[:, :r].conj().T @ v
            v -= c[:, :r] @ coef
            gv -= gc[:, :r] @ coef
        n2 = float(np.real(np.vdot(v, gv)))
        if n2 <= _RANK_CUT * gmax:
            continue
        c[:, r], gc[:, r] = v / math.sqrt(n2), gv / math.sqrt(n2)
        r += 1
    if r == 0:
        e = np.zeros((a.dim, 0), dtype=np.complex128)
        return GnsTriplet(0, e, np.zeros((a.dim, 0, 0), dtype=np.complex128),
                          np.zeros(0, dtype=np.complex128), 0.0, 0.0, 0.0)
    e = c[:, :r].copy()

    target, phase = _monomial_form(a.lmats)
    star_target, star_phase = _monomial_form(a.starmat)
    eg = e.conj().T @ g  # (r, dim), the quotient-side pairing
    # pi(e_m) = eg L_m e, and column j of eg L_m is phase[m, j] eg[:, target[m, j]]
    pi = (eg[:, target] * phase).transpose(1, 0, 2) @ e
    omega = eg[:, a.unit_index]

    recon = float(np.max(np.abs(phi.values - (pi @ omega) @ np.conj(omega))))
    # pi(e_i*) = star_phase[i] pi(e_star_target[i]) against pi(e_i)^H
    star = float(np.max(np.abs(star_phase[:, None, None] * pi[star_target]
                               - pi.conj().transpose(0, 2, 1))))
    # the quotient's certificate only accepts: above the tol, or on the box,
    # the full residual decides
    hom = _hom_bound(a, target, phase, pi) if a.kind == "torus_quotient" else math.inf
    if hom > tol:
        hom = _hom_residual(target, phase, pi)
    if max(recon, hom, star) > tol:
        raise ValueError(
            f"GNS invariants violated: reconstruction {recon:.3e}, "
            f"homomorphism {hom:.3e}, star {star:.3e} exceed {tol:.1e}")
    return GnsTriplet(r, e, pi, omega, recon, hom, star)


def _monomial_form(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(target, phase) of a table whose axis 1 is the basis: lmats[m, :, j]
    is phase[m, j] at target[m, j] and zero elsewhere, starmat[i, :] is
    phase[i] at target[i]; a zero line gets target 0 and phase 0."""
    nonzero = table != 0
    if np.any(nonzero.sum(axis=1) > 1):
        raise ValueError("structure tables are not monomial")
    target = nonzero.argmax(axis=1)
    return target, np.take_along_axis(table, np.expand_dims(target, 1), axis=1).squeeze(1)


def _product_defects(target: np.ndarray, phase: np.ndarray, pi: np.ndarray, ms):
    """For each m in ms, pi(e_m e_j) - pi(e_m) pi(e_j) over every j as a
    (dim, r, r) slab, one m at a time so that only one slab is live."""
    dim, r = pi.shape[0], pi.shape[1]
    row = pi.transpose(1, 0, 2).reshape(r, dim * r)  # [pi_0 | pi_1 | ...]
    for m in ms:
        got = (pi[m] @ row).reshape(r, dim, r).transpose(1, 0, 2)
        # the contiguous operand first: the result takes its layout
        yield phase[m][:, None, None] * pi[target[m]] - got


def _hom_residual(target: np.ndarray, phase: np.ndarray, pi: np.ndarray) -> float:
    """max over (m, j) of |pi(e_m e_j) - pi(e_m) pi(e_j)|."""
    return max(float(np.max(np.abs(d)))
               for d in _product_defects(target, phase, pi, range(pi.shape[0])))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the float64 unit round-off."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _hom_bound(a: FiniteAlgebra, target: np.ndarray, phase: np.ndarray,
               pi: np.ndarray) -> float:
    """Upper bound on _hom_residual of the quotient, from the generators.

    Write P_m = pi(e_m), e_m e_j = f_mj e_mj (f the phase table) and
    R_mj = P_m P_j - f_mj P_mj; _hom_residual is max |R_mj| over entries,
    at most max ||R_mj||_F.  Every e_m = U^s V^t is x e_m' with x = U
    (s > 0) or x = V (s = 0, t > 0) and m' one step shorter, so e_m has a
    word of length L = s + t <= 2(N - 1) from the unit.  Measured:

      D_xj  = P_x P_j - f_xj P_xj for x in {U, V} and every j: 2 dim
              products.  delta >= max ||D_xj||_F.  Left multiplication by
              U permutes the basis, so every P_m enters some D_Uj.
      eps   = max |f_m'j f_x,m'j - f_xm' f_mj| over every step (m', x, m)
              and every j, the associativity defect of the phases along
              the words; eps0 = max_j |1 - f_1j|.  Where the targets of
              the two sides differ the tables are not associative and the
              bound is infinite.
      a     >= max ||P_U||_2, ||P_V||_2;  rho >= max_j ||P_j||_F;
      sigma = min(rho, kappa) >= max_j ||P_j||_2, with
              kappa = max_m sqrt(||P_m||_1 ||P_m||_inf) >= ||P_m||_2;
      nu, mu = max and min |f| of the phase table and of the steps.

    Multiply R_m'j on the left by P_x and insert D twice:
    P_x P_m' P_j = f_m'j f_x,m'j P_mj + f_m'j D_x,m'j + P_x R_m'j, and also
    = f_xm' P_m P_j + D_xm' P_j.  Subtracting f_xm' f_mj P_mj from both,

      f_xm' R_mj = (f_m'j f_x,m'j - f_xm' f_mj) P_mj + f_m'j D_x,m'j
                   + P_x R_m'j - D_xm' P_j,

    so with ||A B||_F <= ||A||_2 ||B||_F every R of a length-L word obeys
    ||R_mj||_F <= B_L, where

      B_0 = ||I - P_1||_F sigma + eps0 rho   (R_1j = (P_1 - I) P_j + (1 - f_1j) P_j)
      B_L = (a B_{L-1} + delta (nu + sigma) + eps rho) / mu.

    Rounding: a computed product carries at most gamma_{r+4} (kappa + nu)
    rho = tau in Frobenius norm (|fl(AB) - AB| <= gamma_{r+2} |A||B| and
    || |A| ||_2 <= sqrt(||A||_1 ||A||_inf), Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 2002, sections 3.5-3.6), so delta is
    the measured maximum plus tau, and the full check's own products may
    read tau above the exact R: the bound is max_L B_L + tau.  Every
    measured norm is raised by gamma_{r^2+4} of itself for its own
    rounding, eps by 8 u nu^2 and eps0 by 2 u nu.  Cost: 2 dim r^3 for
    the D's and O(dim r^2 + dim^2) for the rest.
    """
    dim, r = pi.shape[0], pi.shape[1]
    n = a.q.modulus
    u = _UNIT_ROUNDOFF
    grow = 1.0 + _gamma(r * r + 4)
    gamma = _gamma(r + 4)
    gens = [a.index_of((1 % n, 0)), a.index_of((0, 1 % n))]
    absp = np.abs(pi)
    rho = float(np.sqrt(np.max(np.sum(absp * absp, axis=(1, 2))))) * grow
    kappa = float(np.sqrt(np.max(absp.sum(axis=1).max(axis=1)
                                 * absp.sum(axis=2).max(axis=1)))) * grow
    sigma = min(rho, kappa)
    nu = float(np.max(np.abs(phase)))
    tau = gamma * (kappa + nu) * rho
    delta = max(float(np.sqrt(np.max(np.sum(np.abs(d) ** 2, axis=(1, 2)))))
                for d in _product_defects(target, phase, pi, gens)) * grow + tau
    a_norm = max(float(np.linalg.norm(pi[gen], 2)) for gen in gens) * grow

    # the steps e_m = x e_m' of every word but the unit's, found by label
    index = {label: i for i, label in enumerate(a.labels)}
    s, t = np.array(a.labels).T
    m = np.flatnonzero(s + t > 0)
    x = np.where(s[m] > 0, gens[0], gens[1])
    prev = np.array([index[(k - 1, l) if k > 0 else (k, l - 1)]
                     for k, l in zip(s[m].tolist(), t[m].tolist())], dtype=int)
    step = phase[x, prev]
    unit = a.unit_index
    if (np.any(target[x, prev] != m) or np.any(target[unit] != np.arange(dim))
            or np.any(target[x[:, None], target[prev]] != target[m])):
        return math.inf
    eps = float(np.max(np.abs(phase[prev] * phase[x[:, None], target[prev]]
                              - step[:, None] * phase[m]), initial=0.0))
    eps = eps * grow + 8.0 * u * nu * nu
    eps0 = float(np.max(np.abs(1.0 - phase[unit]))) * grow + 2.0 * u * nu
    mu = float(np.min(np.abs(step), initial=1.0))

    eye_gap = float(np.linalg.norm(np.eye(r) - pi[unit])) * grow
    bound = b = eye_gap * sigma + eps0 * rho
    for _ in range(int(np.max(s + t))):
        b = (a_norm * b + delta * (nu + sigma) + eps * rho) / mu
        bound = max(bound, b)
    return (bound + tau) * (1.0 + u)


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
