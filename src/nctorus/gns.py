"""Positive linear forms and the GNS construction on finite quotients.

Two carrier algebras: the N^2-dimensional quotient with U^N = V^N = 1
(associative on the nose, isomorphic to Mat_N for rational q), and a
truncated coefficient box whose products are re-truncated, which is not
associative.  The box records the discarded tail; its reconstruction is
still exact and is gated as on the quotient, its star is gated at ten
times the tail, and its homomorphism residual, which measures the
truncation, is reported but not gated.

A form is positive when its Gram matrix G_ij = phi(e_i* e_j) is hermitian
and positive semidefinite; its kernel is the null ideal.  On the quotient
both the test and the triplet come from the form's N x N density matrix
rho, phi(x) = tr(rho M(x)) under the Mat_N isomorphism M: the space is
Mat_N rho^{1/2} and pi is left multiplication, so no dim x dim matrix is
formed.  On the box the triplet comes from the eigenpairs of G's hermitian
part, which the positivity test computes: the eigenvectors above the rank
cut, scaled to unit Gram norm, span the quotient by the Gram kernel, and
basis elements become compressed left-multiplication matrices; that route
also serves as the quotient's oracle.  gns_build takes the structure
tables in closed form from the constructors and refuses an algebra whose
labels, unit index or tables are not, bit for bit, those that
torus_quotient or truncated_box builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import PhaseQ, is_number
from .matrep import matrices_to_words, words_to_matrices

__all__ = [
    "FiniteAlgebra",
    "torus_quotient",
    "truncated_box",
    "PositiveForm",
    "PositivityReport",
    "GnsTriplet",
    "gram_matrix",
    "gram_diagonal",
    "is_positive",
    "gns_build",
    "state_action",
    "schwarz_check",
    "intertwiner",
    "separation_rank",
]

# Dense dim^3 tables (8.5 MB at the limit; gns_build checks them against
# the closed forms in one pass, about 1.8 ms at dim 81) and dense pi_mats,
# dim r^2 entries for quotient dimension r: gns_build at dim 81 takes
# 3.2-4.1 ms on the quotient (N = 9, trace form) and about 0.06 s on the
# box of radii 4, 4 (one thread, 2-core host).  The quotient's limit is
# pi_mats': at full rank and N = 32 they would take 16 GB, so a larger
# quotient needs pi kept as its N x N factor.
MAX_ALGEBRA_DIM = 81

# Both routes drop a Gram eigenvalue at most this fraction of |phi(1)|,
# which is |G_ii| for every i on either kind (see gns_build)
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
    count of the nonzero parts of lmats, read as float64 pairs, with no
    dim^3 temporary."""
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
            # the gathered entries match, so equal counts of nonzero real and
            # imaginary parts leave no other nonzero; +-0 count as zero
            and sum(np.count_nonzero(np.ascontiguousarray(x, np.complex128).view(np.float64))
                    for x in (a.lmats, a.starmat))
            == np.count_nonzero(phase.view(np.float64))
            + np.count_nonzero(star_phase.view(np.float64))):
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


def gram_diagonal(phi: PositiveForm, a: FiniteAlgebra) -> np.ndarray:
    """phi(e_i* e_i) for every basis element, the Gram matrix's diagonal.

    On both kinds e_i* e_i is the unit times star_phase[i] phase[i*, i], so
    this is one gather from the closed-form tables, which _closed_tables
    checks first."""
    target, phase, star_target, star_phase = _closed_tables(a)
    i = np.arange(a.dim)
    return star_phase * phase[star_target, i] * phi.values[target[star_target, i]]


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    min_eigenvalue: float
    witness: np.ndarray | None
    hermiticity_residual: float
    star_residual: float


def is_positive(phi: PositiveForm, a: FiniteAlgebra,
                tol: float = 1e-10) -> PositivityReport:
    """phi(f* f) = f^H G f >= 0 for every f: the Gram matrix G is hermitian
    (its largest entry of |G - G^H| within tol) and the smallest eigenvalue
    of its hermitian part is at least -tol.  A failure returns a witness f:
    one with Re phi(f* f) < 0 where that eigenvalue is below -tol, and
    otherwise one with Im phi(f* f) != 0, from the skew part.

    On truncated_box the test runs on G.  On torus_quotient it runs on the
    N x N density matrix rho of phi (_density), with no Gram matrix: G's
    eigenvalues are N spec(rho), each N times; every entry of G - G^H is
    phi(x) - conj(phi(x*)) for a monomial x of modulus one, so its largest
    is the star residual; and the witness is the f with M(f) = e_0 v^H, v
    the eigenvector of rho's hermitian (or skew) part, read back through
    matrep.matrices_to_words, so phi(f* f) = v^H rho v.  There the answer
    depends on q and phi alone.
    """
    return _positivity(phi, a, tol)[0]


def _positivity(phi: PositiveForm, a: FiniteAlgebra, tol: float) -> tuple:
    """is_positive's report and the eigenpairs of the hermitian part of the
    matrix it tested (rho on the quotient, G on the box)."""
    if len(phi.values) != a.dim:
        raise ValueError(f"form has {len(phi.values)} values, algebra dim {a.dim}")
    star_res = float(np.max(np.abs(a.starmat @ phi.values - np.conj(phi.values))))
    quotient = a.kind == "torus_quotient"
    if quotient:
        m, scale, herm = _density(phi.values, a.q), a.q.modulus, star_res
    else:
        m, scale = gram_matrix(phi, a), 1
        herm = float(np.max(np.abs(m - m.conj().T)))
    lam, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    lo = scale * float(lam[0])
    witness = None if lo >= -tol else vecs[:, 0].copy()
    if witness is None and herm > tol:  # Im phi(f* f) is the skew part's eigenvalue at f
        ws, vs = np.linalg.eigh((m - m.conj().T) / 2j)
        witness = vs[:, np.argmax(np.abs(ws))].copy()
    if quotient and witness is not None:  # the f with M(f) = e_0 v^H
        witness = matrices_to_words(np.outer(np.eye(a.q.modulus)[0], np.conj(witness)),
                                    a.q).ravel()
    return PositivityReport(witness is None, lo, witness, herm, star_res), lam, vecs


def _density(values: np.ndarray, q: PhaseQ) -> np.ndarray:
    """The density matrix of a form on torus_quotient(q).

    U^s V^t -> M_m = U0^s V0^t (U0 the cyclic shift, V0 = diag(q^i)) maps
    the quotient onto Mat_N (matrep.words_to_matrices; Davidson,
    C*-Algebras by Example, 1996, ch. VI), and tr(M_m^H M_j) = N delta_mj.
    So phi(x) = tr(rho M(x)) with rho = (1/N) sum_m phi(e_m) M_m^H, the
    conjugate transpose of that map at the words conj(phi(e_m)), over N."""
    n = q.modulus
    return np.conj(words_to_matrices(np.conj(values).reshape(n, n), q)).T / n


def _clock_shift_rows(q: PhaseQ) -> tuple[np.ndarray, np.ndarray]:
    """M_m = U0^s V0^t for every quotient basis element m = (s, t), as
    (shift, mph): row i of M_m has one nonzero entry, mph[m, i] =
    q^{t (i + s)}, in column shift[m, i] = (i + s) mod N."""
    n = q.modulus
    s, t = np.divmod(np.arange(n * n), n)
    shift = (np.arange(n) + s[:, None]) % n
    return shift, q.pow(t[:, None] * shift)


@dataclass(frozen=True)
class GnsTriplet:
    """pi(e_m) on the quotient of the algebra by the null ideal, the cyclic
    vector omega and three residuals, for an algebra whose tables are the
    constructor's.  basis holds the algebra coordinates of an orthonormal
    basis of that quotient, in which pi_mats and omega are written.

    On torus_quotient the space is Mat_N rho^{1/2} (see gns_build):
    hom_residual is max |pi(e_m e_j) - pi(e_m) pi(e_j)| over every basis
    pair and star_residual max |pi(e_m*) - pi(e_m)^H| over every m, both
    measured on the monomial N x N factor M_m of pi(e_m) = M_m (x) I_k.
    pi_mats is that Kronecker product entry for entry, so these are its
    own residuals (for k = 0, the factor's).
    On truncated_box, whose products are cut back to the box, the space
    comes from the Gram matrix's eigenpairs, and hom_residual is that
    maximum over the left factors U^{+-1}, V^{+-1} only, a measurement of
    the truncation.  There hom_residual and star_residual are largest
    entries in the returned basis, so another orthonormal basis of the same
    space reads other values."""

    quotient_dim: int
    basis: np.ndarray = field(repr=False)  # columns: orthonormal coords in A
    pi_mats: np.ndarray = field(repr=False)  # (dim, r, r); pi_mats[m] = pi(e_m)
    omega: np.ndarray = field(repr=False)
    recon_residual: float
    hom_residual: float
    star_residual: float

    def pi(self, f: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(f, dtype=np.complex128), self.pi_mats, (0, 0))


def gns_build(phi: PositiveForm, a: FiniteAlgebra, tol: float | None = None) -> GnsTriplet:
    """The GNS triplet of a positive form, gated on its residuals.

    Before any other work, _closed_tables refuses an algebra whose labels,
    unit index or tables are not those torus_quotient or truncated_box
    builds, and gives target and phase in closed form.  Positivity is
    is_positive's, by the same code, at 1e-10.  tol gates reconstruction,
    star and the quotient's homomorphism residual; by default it is 1e-10,
    and the box's star gate, which the truncation breaks, max(1e-10,
    10 tail).

    On torus_quotient the triplet comes from rho (_density) and its
    eigenpairs (lambda, W), all N x N work: phi(x*y) = tr((M(x) Y)^H M(y) Y)
    with Y = W_k Lambda_k^{1/2}, so the space is vec(N x k matrices), Omega
    = vec(Y), pi(e_m) = M_m (x) I_k, and basis column (a, b) is the x with
    M(x) Y = E_ab, coordinates (1/N) lambda_b^{-1/2} conj((M_m w_b)_a).  An
    eigenvalue is kept when N lambda, the Gram eigenvalue it carries,
    exceeds _RANK_CUT |phi(1)|, the cut the box applies to G's eigenvalues.
    Reconstruction is read from the orbit vec(M_m Y), and homomorphism and
    star on the monomial factor M_m, which are pi's residuals entry for
    entry; the cost is O(N^5 + dim r), plus the dense dim r^2 pi_mats.

    On truncated_box the triplet comes from the eigenpairs of G's
    hermitian part that the positivity test computed (_gram_route), and
    the homomorphism field is only reported.
    """
    tables = _closed_tables(a)
    rep, lam, vecs = _positivity(phi, a, 1e-10)
    if not rep.ok:  # name the gate the witness shows, as is_positive picks it
        raise ValueError("form is not positive: " + (
            f"min eigenvalue {rep.min_eigenvalue:.3e}" if not rep.min_eigenvalue >= -1e-10
            else f"hermiticity residual {rep.hermiticity_residual:.3e}"))
    star_tol = max(1e-10, 10.0 * a.tail) if tol is None else tol
    tol = 1e-10 if tol is None else tol
    if a.kind == "torus_quotient":
        trip = _rho_route(phi, a, tables, lam, vecs)
    else:
        trip = _gram_route(phi, a, tables=tables, eig=(lam, vecs))
    gates = [("reconstruction", trip.recon_residual, tol), ("star", trip.star_residual, star_tol)]
    if a.kind == "torus_quotient":
        gates.insert(1, ("homomorphism", trip.hom_residual, tol))
    if not all(value <= gate for _, value, gate in gates):  # NaN included
        raise ValueError("GNS invariants violated: " + ", ".join(
            f"{name} {value:.3e} (tol {gate:.1e})" for name, value, gate in gates))
    return trip


def _rho_route(phi: PositiveForm, a: FiniteAlgebra, tables: tuple,
               lam: np.ndarray, w: np.ndarray) -> GnsTriplet:
    """gns_build's triplet on torus_quotient from the eigenpairs (lam
    ascending, w) of rho's hermitian part; no gate."""
    target, phase, star_target, star_phase = tables
    n, dim = a.q.modulus, a.dim
    k = int(np.count_nonzero(n * lam > _RANK_CUT * max(abs(phi.values[a.unit_index]), 1e-300)))
    r, lam, w = n * k, lam[n - k:], w[:, n - k:]
    shift, mph = _clock_shift_rows(a.q)
    mw = mph[:, :, None] * w[shift]  # mw[m, a, b] = (M_m w_b)_a
    orbit = (mw * np.sqrt(lam)).reshape(dim, r)  # vec(M_m Y)
    omega = orbit[a.unit_index]
    pi = np.zeros((dim, r, r), dtype=np.complex128)
    pi[np.arange(dim)[:, None], np.arange(r),
       (shift[:, :, None] * k + np.arange(k)).reshape(dim, r)] = np.repeat(mph, k, axis=1)
    recon = float(np.max(np.abs(phi.values - orbit @ np.conj(omega))))
    # [j, m, i]: row i of M_m M_j is mph[m, i] mph[j, shift[m, i]], in the
    # column where row i of M_target[m, j] has mph[target[m, j], i]
    hom = float(np.max(np.abs(mph[:, shift] * mph - phase.T[:, :, None] * mph[target.T])))
    # row shift[m, i] of M_m^H is conj(mph[m, i]) in column i, as in M_star_target
    star = float(np.max(np.abs(star_phase[:, None] * np.take_along_axis(
        mph[star_target], shift, axis=1) - np.conj(mph))))
    basis = (np.conj(mw) / (n * np.sqrt(lam))).reshape(dim, r)
    return GnsTriplet(r, basis, pi, omega, recon, hom, star)


def _gram_route(phi: PositiveForm, a: FiniteAlgebra, tables: tuple | None = None,
                eig: tuple | None = None) -> GnsTriplet:
    """The triplet from the eigenpairs (lam ascending, w) of the hermitian
    part G_h of phi's Gram matrix, with no gate: quotient by its kernel,
    orthonormalize, compress left multiplication.  gns_build's route on
    truncated_box, which passes the tables and the eigenpairs that
    is_positive's test computed; on torus_quotient the oracle the rho route
    is checked against, with one eigh of its own.

    An eigenvalue is kept by the rho route's rule, lam > _RANK_CUT |phi(1)|.
    The basis is e = W_k Lambda_k^{-1/2}, orthonormal in G_h, and e^H G_h =
    Lambda_k^{1/2} W_k^H.  hom_residual is taken over the left factors
    U^{+-1}, V^{+-1} in the algebra.
    """
    target, phase, star_target, star_phase = _closed_tables(a) if tables is None else tables
    if eig is None:
        g = gram_matrix(phi, a)
        eig = np.linalg.eigh((g + g.conj().T) / 2.0)
    lam, w = eig
    keep = lam > _RANK_CUT * max(abs(phi.values[a.unit_index]), 1e-300)
    root, w = np.sqrt(lam[keep]), w[:, keep]
    e = w / root
    eg = root[:, None] * w.conj().T  # (r, dim), the quotient-side pairing
    # pi(e_m) = eg L_m e, and column j of eg L_m is phase[m, j] eg[:, target[m, j]]
    pi = (eg[:, target] * phase).transpose(1, 0, 2) @ e
    omega = eg[:, a.unit_index]

    recon = float(np.max(np.abs(phi.values - (pi @ omega) @ np.conj(omega))))
    # pi(e_i*) = star_phase[i] pi(e_star_target[i]) against pi(e_i)^H
    star = float(np.max(np.abs(star_phase[:, None, None] * pi[star_target]
                               - pi.conj().transpose(0, 2, 1)), initial=0.0))
    gens = [a.index_of(x) for x in ((1, 0), (-1, 0), (0, 1), (0, -1)) if x in a.labels]
    hom = max(_defect_maxima(target, phase, pi, gens), default=0.0)
    return GnsTriplet(len(root), e, pi, omega, recon, hom, star)


def _defect_maxima(target: np.ndarray, phase: np.ndarray, pi: np.ndarray, ms):
    """For each m in ms, max over j of |pi(e_m e_j) - pi(e_m) pi(e_j)|, from
    one (dim, r, r) slab at a time."""
    dim, r = pi.shape[0], pi.shape[1]
    row = pi.transpose(1, 0, 2).reshape(r, dim * r)  # [pi_0 | pi_1 | ...]
    for m in ms:
        got = (pi[m] @ row).reshape(r, dim, r).transpose(1, 0, 2)
        # the contiguous operand first: the result takes its layout
        yield float(np.max(np.abs(phase[m][:, None, None] * pi[target[m]] - got), initial=0.0))


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
