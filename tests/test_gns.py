import dataclasses
import json
import math

import numpy as np
import pytest

from nctorus import gns
from nctorus.gns import (FiniteAlgebra, PositiveForm, gns_build, gram_matrix,
                         intertwiner, is_positive, schwarz_check,
                         separation_rank, state_action, torus_quotient,
                         truncated_box)
from nctorus.lattice import CoeffLattice2, PhaseQ, phaseq_to_obj, retruncate
from nctorus.matrep import clock_shift
from nctorus.torus import TorusElement, adjoint, q_mul

Q3 = PhaseQ.rational(1, 3)


def trace_form(a: FiniteAlgebra) -> PositiveForm:
    v = np.zeros(a.dim, dtype=np.complex128)
    v[a.unit_index] = 1.0
    return PositiveForm(v)


def vector_form(a: FiniteAlgebra, w: np.ndarray) -> PositiveForm:
    u0, v0 = clock_shift(a.q)
    vals = np.array([np.vdot(w, np.linalg.matrix_power(u0, s)
                             @ np.linalg.matrix_power(v0, t) @ w)
                     for (s, t) in a.labels])
    return PositiveForm(vals)


def random_vector(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


# -- loop oracles: one algebra operation per entry, as the definitions read --

def loop_gram(phi: PositiveForm, a: FiniteAlgebra) -> np.ndarray:
    g = np.empty((a.dim, a.dim), dtype=np.complex128)
    for i in range(a.dim):
        star_i = a.star(a.basis_vector(i))
        for j in range(a.dim):
            g[i, j] = phi(a.mul(star_i, a.basis_vector(j)))
    return g


def loop_residuals(phi: PositiveForm, a: FiniteAlgebra, t, left=None) -> tuple:
    """(recon, hom, star) of a triplet, one (m, j) pair at a time; hom over
    the left factors e_m with m in left (default: every m)."""
    pi = [t.pi_mats[m] for m in range(a.dim)]

    def pi_of(f):
        out = np.zeros_like(pi[0])
        for r, c in enumerate(f):
            if c != 0:
                out = out + c * pi[r]
        return out

    recon = hom = star = 0.0
    for m in range(a.dim):
        recon = max(recon, abs(phi(a.basis_vector(m))
                               - complex(np.conj(t.omega) @ (pi[m] @ t.omega))))
        star = max(star, float(np.max(np.abs(pi_of(a.star(a.basis_vector(m)))
                                             - pi[m].conj().T))))
        if left is not None and m not in left:
            continue
        for j in range(a.dim):
            hom = max(hom, float(np.max(np.abs(pi_of(a.lmats[m][:, j])
                                               - pi[m] @ pi[j]))))
    return recon, hom, star


def box_generators(a: FiniteAlgebra) -> list:
    """Indices of U, U^-1, V and V^-1 in a box."""
    return [a.index_of(x) for x in ((1, 0), (-1, 0), (0, 1), (0, -1)) if x in a.labels]


def q_mul_box(rk: int, rl: int, q: PhaseQ) -> tuple:
    """Box tables and tail from q_mul, adjoint and retruncate per basis pair."""
    labels = [(k, l) for k in range(-rk, rk + 1) for l in range(-rl, rl + 1)]
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    lmats = np.zeros((dim, dim, dim), dtype=np.complex128)
    starmat = np.zeros((dim, dim), dtype=np.complex128)
    tail = 0.0
    for i, (k1, l1) in enumerate(labels):
        e_i = TorusElement(CoeffLattice2.delta(k1, l1), q)
        for k, l, c in adjoint(e_i).coeffs.support():
            starmat[i, idx[(k, l)]] = c
        for j, (k2, l2) in enumerate(labels):
            prod = q_mul(e_i, TorusElement(CoeffLattice2.delta(k2, l2), q))
            cut, lost = retruncate(prod.coeffs, rk, rl)
            tail = max(tail, lost)
            for k, l, c in cut.support():
                lmats[i, idx[(k, l)], j] = c
    return tuple(labels), lmats, starmat, tail


def gns_cases():
    """(name, algebra, form): trace and vector states on the quotient, the
    trace form on boxes with rational and irrational q."""
    rng = np.random.default_rng(11)
    for n in (3, 4):
        a = torus_quotient(PhaseQ.rational(1, n))
        w = random_vector(rng, n)
        yield f"quotient N={n} trace", a, trace_form(a)
        yield f"quotient N={n} vector", a, vector_form(a, w / np.linalg.norm(w))
    for r in (1, 2):
        for q in (PhaseQ.rational(1, 3), PhaseQ.irrational(0.7)):
            box = truncated_box(r, r, q)
            yield f"box ({r},{r}) {q.kind}", box, trace_form(box)


GNS_CASES = list(gns_cases())


@pytest.mark.parametrize("name,a,phi", GNS_CASES, ids=[c[0] for c in GNS_CASES])
class TestVectorisedCore:
    def test_gram_matches_loop_oracle(self, name, a, phi):
        assert np.max(np.abs(gram_matrix(phi, a) - loop_gram(phi, a))) < 1e-14

    def test_residuals_match_loop_oracle(self, name, a, phi):
        # on the quotient the homomorphism field is a certificate bound,
        # at least the full residual; on the box it is the residual over
        # the left factors U^{+-1}, V^{+-1}
        t = gns_build(phi, a, tol=10.0)
        box = a.kind == "truncated_box"
        recon, hom, star = loop_residuals(phi, a, t, box_generators(a) if box else None)
        assert (t.recon_residual, t.star_residual) == pytest.approx((recon, star),
                                                                    rel=0, abs=1e-14)
        if box:
            assert t.hom_residual == pytest.approx(hom, rel=0, abs=1e-14)
        else:
            assert hom <= t.hom_residual < 1e-12

    def test_pi_and_state_action_match_loops(self, name, a, phi):
        t = gns_build(phi, a, tol=10.0)
        rng = np.random.default_rng(12)
        f = random_vector(rng, a.dim)
        want = sum(c * t.pi_mats[m] for m, c in enumerate(f))
        assert np.max(np.abs(t.pi(f) - want)) < 1e-12
        fs = a.star(f)
        shifted = np.array([phi(a.mul(a.mul(fs, a.basis_vector(j)), f))
                            for j in range(a.dim)])
        assert np.max(np.abs(state_action(phi, f, a).values - shifted)) < 1e-12


def two_vector_form(a: FiniteAlgebra) -> PositiveForm:
    """Criterion 11's degenerate form: two vector states of N = 3 added."""
    w1 = np.array([1.0, 0.0, 0.0])
    w2 = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
    return PositiveForm(vector_form(a, w1).values + vector_form(a, w2).values)


def quotient_cases():
    """(name, algebra, form, quotient dim): trace and vector states at
    N = 1..5 and the two-vector form at N = 3."""
    rng = np.random.default_rng(13)
    for n in range(1, 6):
        a = torus_quotient(PhaseQ.rational(1, n))
        w = random_vector(rng, n)
        yield f"N={n} trace", a, trace_form(a), n * n
        yield f"N={n} vector", a, vector_form(a, w / np.linalg.norm(w)), n
    a = torus_quotient(Q3)
    yield "N=3 two vectors", a, two_vector_form(a), 6


QUOTIENT_CASES = list(quotient_cases())


@pytest.mark.parametrize("name,a,phi,dim", QUOTIENT_CASES,
                         ids=[c[0] for c in QUOTIENT_CASES])
class TestQuotientCertificate:
    def test_bound_covers_loop_oracle(self, name, a, phi, dim):
        t = gns_build(phi, a)
        _, hom, _ = loop_residuals(phi, a, t)
        assert hom <= t.hom_residual < 1e-12

    def test_any_changed_pi_fails_the_bound(self, name, a, phi, dim):
        # every pi(e_m) is compared with its Mat_N image: a 1e-6 change to
        # one entry of any of them is caught
        t = gns_build(phi, a)
        for m in range(a.dim):
            pi = t.pi_mats.copy()
            pi[m, 0, 0] += 1e-6
            assert gns._mat_n_bound(a.q, phi.values, pi, t.omega) > 1e-10

    def test_cgs2_basis_is_orthonormal(self, name, a, phi, dim):
        t = gns_build(phi, a)
        g = gram_matrix(phi, a)
        e = t.basis
        assert t.quotient_dim == dim
        assert np.max(np.abs(e.conj().T @ g @ e - np.eye(dim))) < 1e-12


def density_form(a: FiniteAlgebra, d: np.ndarray) -> PositiveForm:
    """phi(U^s V^t) = tr(d U0^s V0^t) on the clock and shift matrices."""
    u0, v0 = clock_shift(a.q)
    return PositiveForm(np.array([np.trace(d @ np.linalg.matrix_power(u0, s)
                                           @ np.linalg.matrix_power(v0, t))
                                  for (s, t) in a.labels]))


def decades_form(a: FiniteAlgebra, decades: float) -> PositiveForm:
    """A full-rank density form at N = 9 whose eigenvalues run from 1 to
    10^-decades, in a random eigenbasis: its pi(e_m) are dense."""
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    d = u @ np.diag(np.geomspace(1.0, 10.0 ** -decades, 9)) @ u.conj().T
    return density_form(a, d / np.trace(d).real)


def test_certificate_above_tol_falls_back_to_the_full_check():
    # the 3-decade density form at N = 9: the certificate reads about
    # 8e-12, above a tol of 1e-12, while the full residual is 3e-14; the
    # build must accept it, as the full check alone does
    a = torus_quotient(PhaseQ.rational(1, 9))
    phi = decades_form(a, 3)
    t = gns_build(phi, a, tol=1e-12)
    target, phase, *_ = gns._closed_tables(a)
    assert t.quotient_dim == 81
    assert gns._mat_n_bound(a.q, phi.values, t.pi_mats, t.omega) > 1e-12
    assert t.hom_residual == gns._hom_residual(target, phase, t.pi_mats) < 1e-12


def test_tight_tol_falls_back_to_the_full_check():
    # the trace form at N = 6: certificate 1.7e-13, full residual 1e-15
    a = torus_quotient(PhaseQ.rational(1, 6))
    phi = trace_form(a)
    t = gns_build(phi, a, tol=1e-14)
    target, phase, *_ = gns._closed_tables(a)
    assert gns._mat_n_bound(a.q, phi.values, t.pi_mats, t.omega) > 1e-14
    assert t.hom_residual == gns._hom_residual(target, phase, t.pi_mats) < 1e-14


def test_no_dim2_sweep_where_the_certificate_accepts_and_on_the_box(monkeypatch):
    # the forms of the benchmark, the 3- and 4-decade density forms at
    # N = 9 and a box at the size limit all build without the full check
    def refuse(*args):
        raise AssertionError("the dim^2 homomorphism sweep ran")

    monkeypatch.setattr(gns, "_hom_residual", refuse)
    rng = np.random.default_rng(17)
    for n, p in ((4, 3), (5, 2), (6, 5)):
        a = torus_quotient(PhaseQ.rational(p, n))
        w = random_vector(rng, n)
        for phi, dim in ((trace_form(a), n * n), (vector_form(a, w / np.linalg.norm(w)), n)):
            assert gns_build(phi, a).quotient_dim == dim
    a = torus_quotient(PhaseQ.rational(1, 9))
    for decades in (3, 4):
        t = gns_build(decades_form(a, decades), a)
        assert t.quotient_dim == 81 and t.hom_residual < 1e-10
    for radius, q in ((2, PhaseQ.irrational(1.3)), (4, Q3)):
        box = truncated_box(radius, radius, q)
        assert gns_build(trace_form(box), box).quotient_dim == box.dim


def flip_phase(a: FiniteAlgebra) -> FiniteAlgebra:
    """a with the sign of one structure phase lmats[1, t, j] flipped, for
    the first j whose product e_1 e_j is kept and is not the unit."""
    target, phase, *_ = gns._closed_tables(a)
    j = next(j for j in range(a.dim) if phase[1, j] != 0 and target[1, j] != a.unit_index)
    lm = a.lmats.copy()
    lm[1, target[1, j], j] *= -1.0
    return dataclasses.replace(a, lmats=lm)


def wrong_target(a: FiniteAlgebra) -> FiniteAlgebra:
    """a with e_U e_V sent to the next basis element."""
    lm = a.lmats.copy()
    i_u, j = a.index_of((1, 0)), a.index_of((0, 1))
    lm[i_u, :, j] = np.roll(lm[i_u, :, j], 1)
    return dataclasses.replace(a, lmats=lm)


CORRUPTIONS = {
    "sign-flipped phase": flip_phase,
    "wrong target": wrong_target,
    "reversed labels": lambda a: dataclasses.replace(a, labels=a.labels[::-1]),
    # the quotient's unit is e_0, so there it moves to e_1
    "unit index 0": lambda a: dataclasses.replace(a, unit_index=int(a.unit_index == 0)),
}
ALGEBRAS = {"quotient N=5": torus_quotient(PhaseQ.rational(1, 5)),
            "box (2,2)": truncated_box(2, 2, Q3)}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("kind", ALGEBRAS)
def test_corrupted_tables_are_refused_before_any_check(monkeypatch, kind, corruption):
    def refuse(*args):
        raise AssertionError("a check ran on a corrupted algebra")

    for name in ("gram_matrix", "_mat_n_bound", "_hom_residual"):
        monkeypatch.setattr(gns, name, refuse)
    a = ALGEBRAS[kind]
    bad = CORRUPTIONS[corruption](a)
    with pytest.raises(ValueError, match=f"structure tables differ from those of {a.kind}$"):
        gns_build(trace_form(a), bad)


@pytest.mark.parametrize("a", ALGEBRAS.values(), ids=ALGEBRAS.keys())
def test_sign_flipped_structure_phase_is_refused(a):
    # the trace form's Gram matrix does not see the flip, so the form
    # stays positive; both kinds refuse the tables themselves
    bad = flip_phase(a)
    assert is_positive(trace_form(bad), bad).ok
    with pytest.raises(ValueError, match="structure tables differ"):
        gns_build(trace_form(bad), bad)


@pytest.mark.parametrize("claim", ["quotient modulus 65537", "box label radius 10^6"])
def test_oversized_claim_is_refused_before_any_table_is_built(monkeypatch, claim):
    # a small algebra whose q or labels claim a huge one: the claimed
    # tables would start from 2^32-entry index arrays (32 GiB at N = 65537)
    # or from a box of 10^7 basis elements
    def refuse(*args):
        raise AssertionError("tables built for an algebra of the wrong size")

    monkeypatch.setattr(gns, "_quotient_tables", refuse)
    monkeypatch.setattr(gns, "_box_tables", refuse)
    if claim.startswith("quotient"):
        a = ALGEBRAS["quotient N=5"]
        bad = dataclasses.replace(a, q=PhaseQ.rational(1, 65537))
    else:
        a = ALGEBRAS["box (2,2)"]
        bad = dataclasses.replace(a, labels=a.labels[:-1] + ((10 ** 6, 2),))
    with pytest.raises(ValueError, match=f"structure tables differ from those of {a.kind}$"):
        gns_build(trace_form(a), bad)


TABLE_TWISTS = [PhaseQ.rational(p, n) for n in range(1, 10) for p in range(n)
                if math.gcd(p, n) == 1] + [PhaseQ.rational(4099, 65537),
                                          PhaseQ.irrational(0.7), PhaseQ.irrational(-2.9)]


@pytest.mark.parametrize("q", TABLE_TWISTS, ids=lambda q: json.dumps(phaseq_to_obj(q)))
def test_table_phases_are_q_pow_bit_for_bit(q):
    # one rule for q^e: each structure phase is q.pow of its exponent, here
    # spelled as a Python int, so the constructors share the scalar's bits
    def same(got, exps):
        want = [q.pow(int(e)).tobytes() for e in exps]
        assert [g.tobytes() for g in got] == want

    tables = [gns._box_tables(2, 1, q), gns._box_tables(1, 3, q)]
    if q.kind == "rational" and q.modulus ** 2 <= gns.MAX_ALGEBRA_DIM:
        tables.append(gns._quotient_tables(q))
    for k, l, _, phase, _, star_phase, _ in tables:
        i, j = np.nonzero(phase)
        same(phase[i, j], -l[i] * k[j])
        same(star_phase, -k * l)


class TestTorusQuotient:
    def test_structure_constants(self):
        a = torus_quotient(Q3)
        assert a.dim == 9
        i_u = a.index_of((1, 0))
        i_v = a.index_of((0, 1))
        uv = a.mul(a.basis_vector(i_u), a.basis_vector(i_v))
        vu = a.mul(a.basis_vector(i_v), a.basis_vector(i_u))
        assert np.max(np.abs(uv - Q3.pow(1) * vu)) < 1e-15
        assert abs(uv[a.index_of((1, 1))] - 1.0) < 1e-15

    def test_wraparound_is_exact(self):
        # u^3 = 1 in the quotient, so (2,0)*(1, 0) lands on the unit
        a = torus_quotient(Q3)
        prod = a.mul(a.basis_vector(a.index_of((2, 0))),
                     a.basis_vector(a.index_of((1, 0))))
        want = a.unit_vector()
        assert np.max(np.abs(prod - want)) < 1e-15

    def test_star_squares_to_identity(self):
        a = torus_quotient(Q3)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        assert np.max(np.abs(a.star(a.star(f)) - f)) < 1e-14

    def test_unit_is_neutral(self):
        a = torus_quotient(PhaseQ.rational(1, 4))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        assert np.max(np.abs(a.mul(a.unit_vector(), f) - f)) < 1e-14
        assert np.max(np.abs(a.mul(f, a.unit_vector()) - f)) < 1e-14

    def test_trace_gram_is_identity(self):
        a = torus_quotient(Q3)
        g = gram_matrix(trace_form(a), a)
        assert np.max(np.abs(g - np.eye(a.dim))) < 1e-14

    def test_irrational_phase_rejected(self):
        with pytest.raises(ValueError):
            torus_quotient(PhaseQ.irrational(0.5))


class TestTruncatedBox:
    def test_dim_and_tail(self):
        a = truncated_box(1, 1, Q3)
        assert a.dim == 9
        assert a.kind == "truncated_box"
        # products that overflow radius 1 lose a unit coefficient
        assert a.tail == pytest.approx(1.0)

    def test_interior_products_exact(self):
        a = truncated_box(2, 2, Q3)
        i_u = a.index_of((1, 0))
        i_v = a.index_of((0, 1))
        uv = a.mul(a.basis_vector(i_u), a.basis_vector(i_v))
        assert abs(uv[a.index_of((1, 1))] - 1.0) < 1e-15

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("q", [Q3, PhaseQ.irrational(0.7)], ids=["rational", "irrational"])
    def test_closed_form_matches_q_mul(self, r, q):
        box = truncated_box(r, r, q)
        labels, lmats, starmat, tail = q_mul_box(r, r, q)
        assert box.labels == labels
        assert np.max(np.abs(box.lmats - lmats)) <= 1e-15
        assert np.max(np.abs(box.starmat - starmat)) <= 1e-15
        assert abs(box.tail - tail) <= 1e-15

    def test_no_tail_without_a_cut(self):
        a = truncated_box(0, 0, Q3)
        assert a.dim == 1 and a.tail == 0.0

    def test_star_phase_matches_quotient(self):
        # on shared labels the involution carries the same reordering phase
        box = truncated_box(1, 1, Q3)
        quo = torus_quotient(Q3)
        i_box = box.index_of((1, 1))
        got = box.star(box.basis_vector(i_box))
        lab = [l for l in box.labels]
        j = lab.index((-1, -1))
        want_phase = Q3.pow(-1)  # conj coefficient times q^{-kl}
        assert abs(got[j] - want_phase) < 1e-14


class TestPositivity:
    def test_trace_is_positive(self):
        a = torus_quotient(Q3)
        rep = is_positive(trace_form(a), a)
        assert rep.ok
        assert rep.min_eigenvalue > -1e-12
        assert rep.witness is None

    def test_vector_form_is_positive(self):
        a = torus_quotient(Q3)
        w = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        assert is_positive(vector_form(a, w), a).ok

    def test_indefinite_form_rejected_with_witness(self):
        a = torus_quotient(Q3)
        v = np.zeros(a.dim, dtype=np.complex128)
        v[a.index_of((1, 0))] = 1.0  # phi(u) = 1 but phi(1) = 0
        rep = is_positive(PositiveForm(v), a)
        assert not rep.ok
        assert rep.witness is not None
        # the witness certifies: phi(f* f) is genuinely negative
        f = rep.witness
        val = complex(np.dot(v, a.mul(a.star(f), f)))
        assert val.real < -1e-6

    def test_non_hermitian_form_rejected_with_witness(self):
        # phi(1) = 1, phi(U) = 0.1i: the hermitian part of the Gram matrix
        # is positive definite, but phi(U*) = 0 is not conj(phi(U))
        a = torus_quotient(Q3)
        v = np.zeros(a.dim, dtype=np.complex128)
        v[a.unit_index], v[a.index_of((1, 0))] = 1.0, 0.1j
        rep = is_positive(PositiveForm(v), a)
        assert not rep.ok and rep.min_eigenvalue > 0.9
        assert rep.hermiticity_residual == pytest.approx(0.1)
        f = rep.witness
        assert abs(complex(np.dot(v, a.mul(a.star(f), f))).imag) > 0.01
        with pytest.raises(ValueError, match=r"hermiticity residual 1\.000e-01$"):
            gns_build(PositiveForm(v), a)

    def test_schwarz_inequality(self):
        a = torus_quotient(Q3)
        phi = trace_form(a)
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
            assert schwarz_check(phi, f, a) < 1e-10


class TestGnsBuild:
    def test_trace_gives_full_quotient(self):
        for n in (2, 3, 4):
            a = torus_quotient(PhaseQ.rational(1, n))
            t = gns_build(trace_form(a), a)
            assert t.quotient_dim == n * n
            assert t.recon_residual < 1e-10
            assert t.hom_residual < 1e-10
            assert t.star_residual < 1e-10

    def test_vector_state_quotient_collapses(self):
        a = torus_quotient(Q3)
        w = np.array([0.3, -0.5, 0.81]) + 1j * np.array([0.1, 0.7, -0.2])
        w = w / np.linalg.norm(w)
        t = gns_build(vector_form(a, w), a)
        assert t.quotient_dim == 3
        assert t.hom_residual < 1e-10

    @pytest.mark.parametrize("n", [4, 5])
    def test_vector_state_null_ideal(self, n):
        # the null ideal of a vector state has dimension N^2 - N
        a = torus_quotient(PhaseQ.rational(1, n))
        w = random_vector(np.random.default_rng(n), n)
        t = gns_build(vector_form(a, w / np.linalg.norm(w)), a)
        assert t.quotient_dim == n
        assert t.hom_residual < 1e-10

    def test_zero_form_gives_zero_quotient(self):
        a = torus_quotient(Q3)
        t = gns_build(PositiveForm(np.zeros(a.dim)), a)
        assert t.quotient_dim == 0

    def test_representation_respects_product(self):
        a = torus_quotient(Q3)
        t = gns_build(trace_form(a), a)
        rng = np.random.default_rng(6)
        f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        g = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        lhs = t.pi(f) @ t.pi(g)
        rhs = t.pi(a.mul(f, g))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_cyclic_vector_reconstructs_state(self):
        a = torus_quotient(Q3)
        phi = trace_form(a)
        t = gns_build(phi, a)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        got = np.vdot(t.omega, t.pi(f) @ t.omega)
        assert abs(got - phi(f)) < 1e-10

    def test_indefinite_form_raises(self):
        a = torus_quotient(Q3)
        v = np.zeros(a.dim, dtype=np.complex128)
        v[a.index_of((1, 0))] = 1.0
        with pytest.raises(ValueError, match="positive"):
            gns_build(PositiveForm(v), a)

    def test_truncated_box_build_is_flagged(self):
        # the box product drops boundary terms of modulus 1: the homomorphism
        # field over U^{+-1}, V^{+-1} reads exactly that, while
        # reconstruction stays exact
        box = truncated_box(1, 1, Q3)
        t = gns_build(trace_form(box), box)
        assert t.quotient_dim == 9
        assert t.hom_residual == pytest.approx(box.tail, rel=0, abs=1e-14)
        assert t.recon_residual <= 1e-14

    def test_box_vector_state_breaks_star_not_reconstruction(self):
        # a positive vector state on the box of radius 1 at N = 5: star reads
        # 1.13, inside the default star gate 10 tail, while reconstruction
        # stays exact; a tol given explicitly gates star too
        box = truncated_box(1, 1, PhaseQ.rational(1, 5))
        w = random_vector(np.random.default_rng(0), 5)
        phi = vector_form(box, w / np.linalg.norm(w))
        t = gns_build(phi, box)
        assert 1.0 < t.star_residual <= 10.0 * box.tail
        assert t.recon_residual <= 1e-14
        with pytest.raises(ValueError, match=r"star 1\.133e\+00 \(tol 1\.0e-10\)"):
            gns_build(phi, box, tol=1e-10)


class TestIntertwiner:
    def test_basis_order_does_not_matter(self):
        a = torus_quotient(Q3)
        w = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        phi = vector_form(a, w)
        t1 = gns_build(phi, a)
        t2 = gns_build(phi, a, order=list(reversed(range(a.dim))))
        u, res = intertwiner(t1, t2, a)
        assert res < 1e-8
        assert np.max(np.abs(u @ u.conj().T - np.eye(t1.quotient_dim))) < 1e-10

    def test_intertwines_the_action(self):
        a = torus_quotient(Q3)
        phi = trace_form(a)
        t1 = gns_build(phi, a)
        t2 = gns_build(phi, a, order=list(reversed(range(a.dim))))
        u, _ = intertwiner(t1, t2, a)
        rng = np.random.default_rng(8)
        f = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        assert np.max(np.abs(u @ t1.pi(f) - t2.pi(f) @ u)) < 1e-8


class TestStateToolkit:
    def test_state_action_shifts_the_form(self):
        # phi_g(f) = phi(g* f g) stays positive and scales like |g|^2
        a = torus_quotient(Q3)
        phi = trace_form(a)
        g = a.basis_vector(a.index_of((1, 0))) * 2.0
        shifted = state_action(phi, g, a)
        assert abs(shifted(a.unit_vector()) - 4.0) < 1e-12
        assert is_positive(shifted, a).ok

    def test_separation_rank_faithful_family(self):
        a = torus_quotient(Q3)
        rg, rp = separation_rank([trace_form(a)], a)
        assert rg == a.dim
        assert rp == a.dim

    def test_separation_rank_degenerate_family(self):
        a = torus_quotient(Q3)
        w = np.array([0.0, 1.0, 1.0]) / math.sqrt(2.0)
        rg, rp = separation_rank([vector_form(a, w)], a)
        assert rg < a.dim


class TestSizeGuards:
    def test_limit_admits_n9_and_box_4_4(self):
        assert torus_quotient(PhaseQ.rational(1, 9)).dim == gns.MAX_ALGEBRA_DIM
        assert truncated_box(4, 4, Q3).dim == gns.MAX_ALGEBRA_DIM

    def test_modulus_10_refused_before_allocation(self):
        with pytest.raises(ValueError, match='"q": modulus 10 gives 100 basis elements'):
            torus_quotient(PhaseQ.rational(1, 10))

    def test_large_modulus_refused_before_allocation(self):
        assert gns.MAX_ALGEBRA_DIM < 50 * 50  # else this test would allocate
        with pytest.raises(ValueError, match='"q": modulus 50'):
            torus_quotient(PhaseQ.rational(1, 50))

    def test_large_box_refused_before_allocation(self):
        assert gns.MAX_ALGEBRA_DIM < 41 * 41  # else this test would allocate
        with pytest.raises(ValueError, match="radius_k"):
            truncated_box(20, 20, Q3)

    def test_box_just_over_the_limit_refused(self):
        with pytest.raises(ValueError, match="the box gives 99 basis elements"):
            truncated_box(4, 5, Q3)

    def test_non_monomial_table_refused(self):
        a = torus_quotient(Q3)
        lm = a.lmats.copy()
        lm[1, 0, 0] += 0.25  # e_1 e_0 now has two basis components
        bad = dataclasses.replace(a, lmats=lm)
        with pytest.raises(ValueError, match="structure tables differ"):
            gns_build(trace_form(bad), bad, tol=10.0)

    def test_negative_radius_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            truncated_box(-1, 1, Q3)
