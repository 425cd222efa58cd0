"""Positive linear forms and the GNS construction on finite quotients.

Two carrier algebras: the N^2-dimensional quotient with U^N = V^N = 1
(associative on the nose, isomorphic to Mat_N for rational q), and a
truncated coefficient box whose products are re-truncated, which is not
associative.  The box records the discarded tail; its reconstruction is
still exact and is gated as on the quotient, its star is gated at ten
times the tail, and its homomorphism residual, which measures the
truncation, is reported but not gated.

A form is positive when its Gram matrix G_ij = phi(e_i* e_j) is hermitian
and positive semidefinite.  Its kernel is the null ideal, the quotient
gets a twice-projected classical Gram-Schmidt basis in declared order
(determinism), and basis elements become compressed left-multiplication
matrices.  gns_build takes the structure tables in closed form from the
constructors and refuses an algebra whose labels, unit index or tables
are not, bit for bit, those that torus_quotient or truncated_box builds.
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

# Dense dim^3 tables (8.5 MB at the limit; gns_build checks them against
# the closed forms in one pass, 2-2.5 ms at dim 81) and, where the
# quotient's Mat_N certificate is above the tol, a dim^5 homomorphism
# check: gns_build at dim 81 takes 0.07-0.08 s when the certificate
# accepts (trace and 3- or 4-decade density forms, N = 9), 0.11-0.13 s on
# the box of radii 4, 4, which never runs the full check, and 1.2-1.5 s
# when the full check runs (one thread, 2-core host).
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
    (0 where the phase is 0) and e_i* = star_phase[i] e_star_target[i]."""
    dim = len(k)
    lmats = np.zeros((dim, dim, dim), dtype=np.complex128)
    i, j = np.nonzero(phase)
    lmats[i, target[i, j], j] = phase[i, j]
    starmat = np.zeros((dim, dim), dtype=np.complex128)
    starmat[np.arange(dim), star_target] = star_phase
    labels = tuple(zip(k.tolist(), l.tolist()))
    return FiniteAlgebra(kind, q, labels, lmats, starmat, labels.index((0, 0)), tail)


def _check_dim(dim: int, what: str) -> None:
    if dim > MAX_ALGEBRA_DIM:
        raise ValueError(f"{what} gives {dim} basis elements, above the limit "
                         f"{MAX_ALGEBRA_DIM} of the dense tables")


def _quotient_tables(q: PhaseQ) -> tuple:
    """The _algebra arguments of torus_quotient(q) after the kind and q:
    labels (s, t), the product's target and phase, the star's target and
    phase, and the tail 0."""
    n = q.modulus
    s, t = np.divmod(np.arange(n * n), n)
    target = (s[:, None] + s[None, :]) % n * n + (t[:, None] + t[None, :]) % n
    return (s, t, target, q.pow(-t[:, None] * s[None, :]),
            (-s) % n * n + (-t) % n, q.pow(-s * t), 0.0)


def _box_tables(radius_k: int, radius_l: int, q: PhaseQ) -> tuple:
    """The _algebra arguments of truncated_box(radius_k, radius_l, q) after
    the kind and q, as _quotient_tables gives them: a truncated product has
    target 0 and phase 0."""
    width = 2 * radius_l + 1
    k, l = np.divmod(np.arange((2 * radius_k + 1) * width), width)
    k, l = k - radius_k, l - radius_l
    kk, ll = k[:, None] + k[None, :], l[:, None] + l[None, :]
    kept = (np.abs(kk) <= radius_k) & (np.abs(ll) <= radius_l)
    phase = q.pow(-l[:, None] * k[None, :])
    tail = float(np.max(np.abs(phase[~kept]), initial=0.0))
    target = np.where(kept, (kk + radius_k) * width + ll + radius_l, 0)
    phase[~kept] = 0.0
    # the mirrored box equals the box, so e_i* = q^{-kl} e_{-k,-l} never truncates
    return k, l, target, phase, len(k) - 1 - np.arange(len(k)), q.pow(-k * l), tail


def torus_quotient(q: PhaseQ) -> FiniteAlgebra:
    """Basis U^s V^t, 0 <= s,t < N, with U^N = V^N = 1; exact structure phases."""
    if q.kind != "rational":
        raise ValueError("the finite quotient needs rational q")
    _check_dim(q.modulus ** 2, f'field "q": modulus {q.modulus}')
    return _algebra("torus_quotient", q, *_quotient_tables(q))


def truncated_box(radius_k: int, radius_l: int, q: PhaseQ) -> FiniteAlgebra:
    """Monomial box with products cut back to the box; tail records the cut.

    U^k1 V^l1 U^k2 V^l2 = q^{-l1 k2} U^{k1+k2} V^{l1+l2}, kept when the
    exponents stay in the box; tail is the largest discarded |coefficient|.
    """
    for name, radius in (("radius_k", radius_k), ("radius_l", radius_l)):
        if not is_number(radius, int) or radius < 0:
            raise ValueError(f'field "{name}" must be a non-negative integer')
    _check_dim((2 * radius_k + 1) * (2 * radius_l + 1),
               'fields "radius_k", "radius_l": the box')
    return _algebra("truncated_box", q, *_box_tables(radius_k, radius_l, q))


def _closed_tables(a: FiniteAlgebra) -> tuple:
    """(target, phase, star target, star phase) that torus_quotient or
    truncated_box builds for a's kind, q and radii; a ValueError unless
    a's labels, unit index, lmats and starmat are the constructor's, bit
    for bit.  The size is compared first, so a q or labels that claim a
    larger algebra build nothing; then one gather of dim^2 entries and one
    count of lmats' nonzeros, with no dim^3 temporary."""
    differ = ValueError(f"structure tables differ from those of {a.kind}")
    if a.kind == "torus_quotient":
        radii, size = None, a.q.modulus ** 2
    else:
        radii = np.max(a.labels, axis=0).tolist()
        size = (2 * radii[0] + 1) * (2 * radii[1] + 1)
    if a.dim != size:
        raise differ
    k, l, target, phase, star_target, star_phase, _ = (
        _quotient_tables(a.q) if radii is None else _box_tables(*radii, a.q))
    labels, i = tuple(zip(k.tolist(), l.tolist())), np.arange(len(k))
    if not (a.labels == labels and a.unit_index == labels.index((0, 0))
            and a.lmats.shape + a.starmat.shape == (len(k),) * 5
            and np.array_equal(a.lmats[i[:, None], target, i], phase)
            and np.array_equal(a.starmat[i, star_target], star_phase)
            # the gathered entries match, so equal counts leave no other nonzero
            and np.count_nonzero(a.lmats) + np.count_nonzero(a.starmat)
            == np.count_nonzero(phase) + np.count_nonzero(star_phase)):
        raise differ
    return target, phase, star_target, star_phase


@dataclass(frozen=True)
class PositiveForm:
    """phi given by its values on the declared basis order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(np.ravel(self.values), dtype=np.complex128)  # an owned copy
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
    """phi(f* f) = f^H G f >= 0 for every f: the Gram matrix G is hermitian
    (its largest entry of |G - G^H| within tol) and the smallest eigenvalue
    of its hermitian part is at least -tol.  A failure returns a witness f:
    one with Re phi(f* f) < 0 where that eigenvalue is below -tol, and
    otherwise one with Im phi(f* f) != 0, from the skew part (G - G^H)/2i."""
    g = gram_matrix(phi, a)
    herm = float(np.max(np.abs(g - g.conj().T)))
    # phi(e_i*) - conj(phi(e_i)) for every basis element
    star_res = float(np.max(np.abs(a.starmat @ phi.values - np.conj(phi.values))))
    w, vecs = np.linalg.eigh((g + g.conj().T) / 2.0)
    lo = float(w[0])
    witness = None if lo >= -tol else vecs[:, 0].copy()
    if witness is None and herm > tol:  # Im phi(f* f) is the skew part's eigenvalue at f
        ws, vs = np.linalg.eigh((g - g.conj().T) / 2j)
        witness = vs[:, np.argmax(np.abs(ws))].copy()
    return PositivityReport(witness is None, lo, witness, herm, star_res, g)


@dataclass(frozen=True)
class GnsTriplet:
    """pi(e_m) on the quotient of the algebra by the null ideal, the cyclic
    vector omega and three residuals, for an algebra whose tables are the
    constructor's.  On torus_quotient hom_residual is an upper bound on
    max |pi(e_m e_j) - pi(e_m) pi(e_j)| over every basis pair: the Mat_N
    certificate (see _mat_n_bound) when that is within the tol, and
    otherwise that maximum itself.  On truncated_box, whose products are
    cut back to the box, it is that maximum over the left factors
    U^{+-1}, V^{+-1} only, a measurement of the truncation."""

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
    v -= C (G C)^H v per pass, so the loop makes dim steps.

    Before any other work, _closed_tables refuses an algebra whose
    labels, unit index or tables are not those torus_quotient or
    truncated_box builds, and gives target and phase in closed form.
    tol gates reconstruction, star and the quotient's homomorphism
    residual; by default it is 1e-10, and the box's star gate, which the
    truncation breaks, max(1e-10, 10 tail).  On the quotient the Mat_N
    certificate (O(dim r^3), r the quotient dimension) accepts where it
    is within tol; where it is not, the full residual (dim^2 r^3,
    1.2-1.5 s at dim 81, one thread, 2-core host) decides, so the verdict
    is the full check's.  On the box the homomorphism field is only
    reported.
    """
    target, phase, star_target, star_phase = _closed_tables(a)
    rep = is_positive(phi, a)
    if not rep.ok:  # name the gate the witness shows, as is_positive picks it
        raise ValueError("form is not positive: " + (
            f"min eigenvalue {rep.min_eigenvalue:.3e}" if not rep.min_eigenvalue >= -1e-10
            else f"hermiticity residual {rep.hermiticity_residual:.3e}"))
    star_tol = max(1e-10, 10.0 * a.tail) if tol is None else tol
    tol = 1e-10 if tol is None else tol
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
        return GnsTriplet(0, c[:, :0], np.zeros((a.dim, 0, 0), dtype=np.complex128),
                          np.zeros(0, dtype=np.complex128), 0.0, 0.0, 0.0)
    e = c[:, :r].copy()

    eg = e.conj().T @ g  # (r, dim), the quotient-side pairing
    # pi(e_m) = eg L_m e, and column j of eg L_m is phase[m, j] eg[:, target[m, j]]
    pi = (eg[:, target] * phase).transpose(1, 0, 2) @ e
    omega = eg[:, a.unit_index]

    recon = float(np.max(np.abs(phi.values - (pi @ omega) @ np.conj(omega))))
    # pi(e_i*) = star_phase[i] pi(e_star_target[i]) against pi(e_i)^H
    star = float(np.max(np.abs(star_phase[:, None, None] * pi[star_target]
                               - pi.conj().transpose(0, 2, 1))))
    gates = [("reconstruction", recon, tol), ("star", star, star_tol)]
    if a.kind == "torus_quotient":
        # the certificate only accepts: above the tol the full residual decides
        hom = _mat_n_bound(a.q, phi.values, pi, omega)
        if not hom <= tol:  # NaN included
            hom = _hom_residual(target, phase, pi)
        gates.insert(1, ("homomorphism", hom, tol))
    else:
        gens = [a.index_of(x) for x in ((1, 0), (-1, 0), (0, 1), (0, -1)) if x in a.labels]
        hom = max(_defect_maxima(target, phase, pi, gens), default=0.0)
    if not all(value <= gate for _, value, gate in gates):
        raise ValueError("GNS invariants violated: " + ", ".join(
            f"{name} {value:.3e} (tol {gate:.1e})" for name, value, gate in gates))
    return GnsTriplet(r, e, pi, omega, recon, hom, star)


def _defect_maxima(target: np.ndarray, phase: np.ndarray, pi: np.ndarray, ms):
    """For each m in ms, max over j of |pi(e_m e_j) - pi(e_m) pi(e_j)|, from
    one (dim, r, r) slab at a time."""
    dim, r = pi.shape[0], pi.shape[1]
    row = pi.transpose(1, 0, 2).reshape(r, dim * r)  # [pi_0 | pi_1 | ...]
    for m in ms:
        got = (pi[m] @ row).reshape(r, dim, r).transpose(1, 0, 2)
        # the contiguous operand first: the result takes its layout
        yield float(np.max(np.abs(phase[m][:, None, None] * pi[target[m]] - got)))


def _hom_residual(target: np.ndarray, phase: np.ndarray, pi: np.ndarray) -> float:
    """max over (m, j) of |pi(e_m e_j) - pi(e_m) pi(e_j)|."""
    return max(_defect_maxima(target, phase, pi, range(pi.shape[0])))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the float64 unit round-off."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _abs_norm(x: np.ndarray) -> np.ndarray:
    """sqrt(||x||_1 ||x||_inf) of the stacked matrices x[..., :, :], at least
    the 2-norm of x and of |x|, raised for the rounding of the sums."""
    ax = np.abs(x)
    return (np.sqrt(ax.sum(axis=-2).max(axis=-1) * ax.sum(axis=-1).max(axis=-1))
            * (1.0 + _gamma(x.shape[-1] + 4)))


def _mat_n_bound(q: PhaseQ, values: np.ndarray, pi: np.ndarray, omega: np.ndarray) -> float:
    """Upper bound on _hom_residual of a torus_quotient triplet, from the
    quotient's Mat_N picture; gns_build has checked the tables first.

    U^s V^t -> M_m = U0^s V0^t (U0 the cyclic shift, V0 = diag(q^i)) maps
    the quotient onto Mat_N (Schwinger, PNAS 46, 1960; Davidson,
    C*-Algebras by Example, 1996, ch. VI), and M_m M_j = f_mj M_mj with
    the quotient's phase table f, mj the target of (m, j).  A form is
    phi(x) = tr(rho M(x)), rho = (1/N) sum_m phi(e_m) M_m^H, and its GNS
    representation is left multiplication on Mat_N rho^{1/2}: on vec(Y),
    Y = rho^{1/2} W (N x k, W the top k = r/N eigenvectors of rho), e_m
    acts as Q_m = M_m (x) I_k, a monomial matrix.

    Write P_m = pi(e_m).  T is the Procrustes unitary taking the orbit
    P_m Omega onto vec(M_m Y), and E_m = T P_m - Q_m T.  With
    D_mj = Q_m Q_j - f_mj Q_mj and R_mj = P_m P_j - f_mj P_mj:

        T P_m P_j = (Q_m T + E_m) P_j = Q_m Q_j T + Q_m E_j + E_m P_j,
        T R_mj    = D_mj T + Q_m E_j + E_m P_j - f_mj E_mj.

    Let eps >= max ||E_m||_2, eta >= ||T^H T - I||_2 (then, for eta < 1,
    ||T^-1||_2 <= s = (1 - eta)^-1/2 and ||T||_2 <= t = (1 + eta)^1/2),
    nu >= every |q^e| (the entries of M_m and f) and d >= max ||D_mj||_2.
    Then

        ||P_j||_2  <= s (nu t + eps) = p,
        ||R_mj||_2 <= s (d t + eps (2 nu + p)),

    which is 3 eps + eps^2 + d to first order in eta and u.  Nothing here
    asks T, rho or k to be accurate: a poor T only makes eps large.  D_mj
    is monomial, its entries q^x q^y - q^z q^w with x + y = z + w mod N,
    so d is at most twice the largest |q^x q^y - q^(x+y)|.

    Rounding (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, sections 3.1 and 3.6): a computed complex product is within
    sqrt(2) gamma_2 of the exact one, and a complex inner product of length
    r within sqrt(2) gamma_{r+2} of the inner product of the moduli; c =
    2 gamma_{r+4} covers both.  With kT, kP >= || |T| ||_2, || |P_m| ||_2,
    the computed E_m is within c kT (kP + nu) of the exact one in 2-norm,
    fl(T^H T) within c kT^2, and the full check's own products read at most
    tau = c kP (kP + nu) above the exact |R_mj| entrywise, so the bound is
    that of R plus tau.  Cost: dim r^3 for T P_m and O(dim r^2 + r^3 + N^3)
    for the rest.
    """
    n, (dim, r) = q.modulus, pi.shape[:2]
    if r % n:
        return math.inf
    k, pows, i = r // n, q.pow(np.arange(n)), np.arange(n)
    s, t = np.divmod(np.arange(dim), n)
    # rho[j, i] = (1/N) sum_t phi(U^{(j - i) mod N} V^t) q^{-tj}
    f = values.reshape(n, n) @ np.conj(pows[np.outer(i, i) % n])
    lam, w = np.linalg.eigh(f[(i[:, None] - i) % n, i[:, None]] / n)
    y = w[:, n - k:] * np.sqrt(np.maximum(lam[n - k:], 0.0))  # rho^{1/2} W
    # row i of M_m Y is q^{t (i + s)} Y[(i + s) mod N], and alike for M_m T
    shift = (i + s[:, None]) % n
    mph = pows[t[:, None] * shift % n]
    images = (mph[:, :, None] * y[shift]).reshape(dim, r)  # vec(M_m Y)
    left, _, right = np.linalg.svd(images.T @ np.conj(pi @ omega))
    tm = left @ right
    gathered = (mph[:, :, None, None] * tm.reshape(n, k, r)[shift]).reshape(dim, r, r)
    nu = float(np.max(np.abs(pows))) * (1.0 + _UNIT_ROUNDOFF)
    c = 2.0 * _gamma(r + 4)
    kt, kp = float(_abs_norm(tm)), float(np.max(_abs_norm(pi)))
    eps = float(np.max(_abs_norm(tm @ pi - gathered))) + c * kt * (kp + nu)
    eta = float(_abs_norm(tm.conj().T @ tm - np.eye(r))) + c * kt * kt
    if eta >= 1.0:
        return math.inf
    # q^x q^y - q^z q^w is within |q^x q^y - q^(x+y)| + |q^(z+w) - q^z q^w|
    d = 2.0 * (float(np.max(np.abs(pows[:, None] * pows - pows[np.add.outer(i, i) % n])))
               * (1.0 + _gamma(2)) + 2.0 * _gamma(2) * nu * nu)
    sinv, tn = 1.0 / math.sqrt(1.0 - eta), math.sqrt(1.0 + eta)
    bound = sinv * (d * tn + eps * (2.0 * nu + sinv * (nu * tn + eps)))
    return (bound + c * kp * (kp + nu)) * (1.0 + _gamma(16))


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
    m1, m2 = (t1.pi_mats @ t1.omega).T, (t2.pi_mats @ t2.omega).T  # the orbits
    u, _, vh = np.linalg.svd(m2 @ m1.conj().T)
    w = u @ vh
    return w, max(float(np.max(np.abs(w @ m1 - m2))),
                  float(np.max(np.abs(w @ t1.pi_mats - t2.pi_mats @ w))),
                  float(np.max(np.abs(w @ t1.omega - t2.omega))))


def separation_rank(forms: list[PositiveForm], a: FiniteAlgebra) -> tuple[int, int]:
    """Rank of the stacked Grams and of f -> direct-sum pi(f); both equal
    the algebra dimension exactly when the family separates points."""
    grams = [gram_matrix(phi, a) for phi in forms]
    trips = [gns_build(phi, a) for phi in forms]
    pis = [t.pi_mats.reshape(a.dim, t.quotient_dim ** 2).T for t in trips]
    # the empty block keeps an empty family's stack (0, dim)
    return tuple(int(np.linalg.matrix_rank(np.vstack(blocks + [np.zeros((0, a.dim))]), tol=1e-9))
                 for blocks in (grams, pis))
