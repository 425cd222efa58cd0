import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.lattice import CoeffLattice2, PhaseQ
from nctorus.torus import (DerivationSpec, PhaseMismatchError, TorusElement,
                           adjoint, apply_derivation, check_derivation_relation,
                           d_power, inner_derivation, l2_state, monomial,
                           q_mul, reorder_phase, smooth_seminorm, trace, unit)

Q4 = PhaseQ.rational(1, 4)
QI = PhaseQ.irrational(math.sqrt(2.0))


def elem(entries, q=Q4):
    return TorusElement(CoeffLattice2.from_entries(entries), q)


def brute_product(f: TorusElement, g: TorusElement) -> dict:
    # direct double sum over supports, independent of the convolution code
    out: dict = {}
    for m, n, a in f.coeffs.support():
        for r, s, b in g.coeffs.support():
            key = (m + r, n + s)
            out[key] = out.get(key, 0.0) + a * b * f.q.pow(-n * r)
    return out


class TestProduct:
    def test_uv_twist(self):
        u, v = monomial(1, 0, Q4), monomial(0, 1, Q4)
        uv = q_mul(u, v)
        vu = q_mul(v, u)
        assert uv.coeffs.get(1, 1) == 1.0
        assert abs(vu.coeffs.get(1, 1) - Q4.pow(-1)) < 1e-15
        assert uv.coeffs.max_abs_diff(vu.scaled(Q4.pow(1)).coeffs) < 1e-15

    def test_matches_double_sum(self):
        f = elem({(1, 0): 2.0, (0, -1): 1j, (-1, 2): 0.5})
        g = elem({(0, 1): -1.0, (2, 0): 3.0})
        h = q_mul(f, g)
        for (k, l), want in brute_product(f, g).items():
            assert abs(h.coeffs.get(k, l) - want) < 1e-14

    def test_unit_is_neutral(self):
        f = elem({(1, 2): 1.5, (-1, 0): -2j}, QI)
        one = unit(QI)
        assert q_mul(one, f).max_abs_diff(f) < 1e-15
        assert q_mul(f, one).max_abs_diff(f) < 1e-15

    def test_unitary_generators(self):
        for q in (Q4, QI):
            u = monomial(1, 0, q)
            assert q_mul(u, adjoint(u)).max_abs_diff(unit(q)) < 1e-15
            v = monomial(0, 1, q)
            assert q_mul(adjoint(v), v).max_abs_diff(unit(q)) < 1e-15

    def test_mixed_phases_rejected(self):
        with pytest.raises(PhaseMismatchError):
            q_mul(monomial(1, 0, Q4), monomial(0, 1, QI))


class TestAdjoint:
    def test_monomial_value(self):
        # star of the (k,l) monomial carries the reordering phase q^{-kl}
        f = monomial(2, 3, QI)
        g = adjoint(f)
        assert abs(g.coeffs.get(-2, -3) - QI.pow(-6)) < 1e-15

    def test_involution(self):
        f = elem({(1, 1): 1 + 1j, (-2, 0): 3.0, (0, 2): -1j}, QI)
        assert adjoint(adjoint(f)).max_abs_diff(f) < 1e-14

    def test_antihomomorphism(self):
        f = elem({(1, 0): 2.0, (0, 1): 1j})
        g = elem({(1, 1): -1.0, (-1, 0): 0.5})
        lhs = adjoint(q_mul(f, g))
        rhs = q_mul(adjoint(g), adjoint(f))
        assert lhs.max_abs_diff(rhs) < 1e-14


class TestTraceAndState:
    def test_trace_reads_constant_term(self):
        assert trace(elem({(0, 0): 2.5 - 1j, (1, 0): 9.0})) == 2.5 - 1j

    def test_trace_commutator_vanishes(self):
        f = elem({(1, 0): 1.0, (0, 1): 2j}, QI)
        g = elem({(-1, 0): 0.5, (0, -1): 1.0}, QI)
        assert abs(trace(q_mul(f, g)) - trace(q_mul(g, f))) < 1e-14

    def test_l2_two_routes(self):
        f = elem({(1, 2): 1 + 2j, (0, 0): -1.0, (-1, 1): 0.5j}, QI)
        via_trace = math.sqrt(trace(q_mul(adjoint(f), f)).real)
        assert abs(l2_state(f) - via_trace) < 1e-13

    def test_l2_positive_definite(self):
        assert l2_state(elem({})) == 0.0
        assert l2_state(elem({(3, -2): 2.0})) == 2.0


class TestDerivations:
    def test_d_power_multiplies_indices(self):
        f = elem({(2, 3): 1.0})
        g = d_power(f, 1, 1)
        assert g.coeffs.get(2, 3) == 6.0

    def test_d_power_zero_is_identity(self):
        # 0^0 = 1 so the (0,0) row survives a zeroth power
        f = elem({(0, 0): 5.0, (1, 0): 1.0})
        assert d_power(f, 0, 0).max_abs_diff(f) == 0.0

    def test_d_power_kills_constant(self):
        f = elem({(0, 0): 7.0})
        assert l2_state(d_power(f, 1, 0)) == 0.0

    def test_d_power_leibniz(self):
        f = elem({(1, 0): 1.0, (0, 2): 1j}, QI)
        g = elem({(0, 1): 2.0, (-1, 0): 1.0}, QI)
        lhs = d_power(q_mul(f, g), 1, 0)
        rhs = q_mul(d_power(f, 1, 0), g) + q_mul(f, d_power(g, 1, 0))
        assert lhs.max_abs_diff(rhs) < 1e-13

    def test_inner_derivation_of_generator(self):
        # ad(V) U = VU - UV = (q^{-1} - 1) U V up to placement at (1,1)
        u, v = monomial(1, 0, Q4), monomial(0, 1, Q4)
        g = inner_derivation(v, u)
        assert abs(g.coeffs.get(1, 1) - (Q4.pow(-1) - 1.0)) < 1e-15

    def test_inner_derivation_leibniz(self):
        a = elem({(1, 1): 1.0, (0, -1): 2.0}, QI)
        f = elem({(1, 0): 1.0}, QI)
        g = elem({(0, 1): 1j}, QI)
        lhs = inner_derivation(a, q_mul(f, g))
        rhs = q_mul(inner_derivation(a, f), g) + q_mul(f, inner_derivation(a, g))
        assert lhs.max_abs_diff(rhs) < 1e-13


class TestDerivationClassification:
    def test_canonical_pair_accepted(self):
        zero = CoeffLattice2.zeros(0, 0)
        du = DerivationSpec(CoeffLattice2.delta(1, 0), zero, Q4)
        dv = DerivationSpec(zero, CoeffLattice2.delta(0, 1), Q4)
        assert check_derivation_relation(du).ok
        assert check_derivation_relation(dv).ok

    def test_inner_values_accepted(self):
        rng = np.random.default_rng(7)
        for q in (Q4, QI):
            a = TorusElement(CoeffLattice2.from_entries(
                {(1, 1): 1.0, (-1, 0): 0.5j, (0, 2): -1.0}), q)
            spec = DerivationSpec(inner_derivation(a, monomial(1, 0, q)).coeffs,
                                  inner_derivation(a, monomial(0, 1, q)).coeffs, q)
            chk = check_derivation_relation(spec)
            assert chk.ok, chk

    def test_swapped_generator_rejected_with_witness(self):
        # sending U to V while fixing V breaks the twist unless q = 1
        spec = DerivationSpec(CoeffLattice2.delta(0, 1),
                              CoeffLattice2.zeros(0, 0), Q4)
        chk = check_derivation_relation(spec)
        assert not chk.ok
        assert chk.first_violation == (0, 2)
        assert abs(chk.max_residual - abs(1.0 - Q4.q)) < 1e-15

    def test_untwisted_case_accepts_swap(self):
        spec = DerivationSpec(CoeffLattice2.delta(0, 1),
                              CoeffLattice2.zeros(0, 0), PhaseQ.rational(0, 1))
        assert check_derivation_relation(spec).ok

    def test_apply_matches_index_derivative(self):
        zero = CoeffLattice2.zeros(0, 0)
        du = DerivationSpec(CoeffLattice2.delta(1, 0), zero, QI)
        f = elem({(2, 1): 1.5, (-3, 0): 1j, (0, 4): 2.0}, QI)
        got = apply_derivation(du, f)
        want = d_power(f, 1, 0)  # D(U) = U means D acts as k on indices
        assert got.max_abs_diff(want) < 1e-12

    @pytest.mark.parametrize("q", [Q4, QI, PhaseQ.rational(2, 7)])
    def test_apply_inner_matches_commutator(self, q):
        # ad(a) f = a f - f a is the oracle for the closed-form Leibniz sum
        rng = np.random.default_rng(8)
        a = TorusElement(CoeffLattice2(2, 1, rng.normal(size=(5, 3))
                                       + 1j * rng.normal(size=(5, 3))), q)
        f = TorusElement(CoeffLattice2(3, 4, rng.normal(size=(7, 9))
                                       + 1j * rng.normal(size=(7, 9))), q)
        got = apply_derivation(DerivationSpec.from_inner(a), f)
        assert got.max_abs_diff(inner_derivation(a, f)) < 1e-12

    def test_apply_rejects_invalid_spec(self):
        spec = DerivationSpec(CoeffLattice2.delta(0, 1),
                              CoeffLattice2.zeros(0, 0), Q4)
        with pytest.raises(ValueError):
            apply_derivation(spec, monomial(1, 0, Q4))

    def test_apply_leibniz_on_negative_powers(self):
        # D(U^{-1}) = -U^{-1} D(U) U^{-1} follows from D(U U^{-1}) = 0
        zero = CoeffLattice2.zeros(0, 0)
        du = DerivationSpec(CoeffLattice2.delta(1, 0), zero, QI)
        uinv = monomial(-1, 0, QI)
        got = apply_derivation(du, uinv)
        dU = TorusElement(du.du_value, QI)
        want = q_mul(q_mul(uinv, dU), uinv).scaled(-1.0)
        assert got.max_abs_diff(want) < 1e-12


class TestSmoothSeminorm:
    def test_trace_route_single_monomial(self):
        f = elem({(1, 0): 1.0}, QI)
        # one D_U factor multiplies the coefficient by k = 1
        assert abs(smooth_seminorm(f, [(1, 0)]) - 1.0) < 1e-15
        assert abs(smooth_seminorm(f, [(3, 0)]) - 1.0) < 1e-15

    def test_weights_grow_with_indices(self):
        f = elem({(2, 3): 1.0}, QI)
        assert abs(smooth_seminorm(f, [(1, 1)]) - 6.0) < 1e-14

    def test_callable_state_agrees_with_trace(self):
        f = elem({(1, 1): 1 + 1j, (0, 2): -0.5}, QI)
        got = smooth_seminorm(f, [(1, 0)], state=trace)
        want = smooth_seminorm(f, [(1, 0)], state="trace")
        assert abs(got - want) < 1e-13

    def test_bad_state_rejected(self):
        with pytest.raises(ValueError):
            smooth_seminorm(elem({}), [], state="operator")


class TestReorderPhase:
    def test_adjacent_twist(self):
        exps, phase = reorder_phase([2, 1], Q4)
        assert list(exps) == [1, 1]
        assert abs(phase - Q4.pow(-1)) < 1e-15

    def test_conjugation_by_neighbour(self):
        exps, phase = reorder_phase([2, 1, -2], Q4)
        assert list(exps) == [1, 0]
        assert abs(phase - (-1j)) < 1e-15

    def test_distant_generators_commute(self):
        exps, phase = reorder_phase([3, 1], Q4, n=3)
        assert list(exps) == [1, 0, 1]
        assert phase == Q4.pow(0)

    def test_two_independent_twisted_pairs(self):
        # inside the rank-4 chain, (S1, S2) and (S1 S3, S4) each satisfy the
        # twist while every cross pair commutes
        q = PhaseQ.irrational(0.83)
        pair1 = ([1], [2])
        pair2 = ([1, 3], [4])

        def phase_of(word):
            exps, ph = reorder_phase(word, q, n=4)
            return tuple(exps), ph

        for a, b in ((pair1[0], pair1[1]), (pair2[0], pair2[1])):
            ea, pa = phase_of(a + b)
            eb, pb = phase_of(b + a)
            assert ea == eb
            assert abs(pa - q.pow(1) * pb) < 1e-15
        for a in pair1:
            for b in pair2:
                ea, pa = phase_of(a + b)
                eb, pb = phase_of(b + a)
                assert ea == eb and abs(pa - pb) < 1e-15

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            reorder_phase([1, 0, 2], Q4)
        with pytest.raises(ValueError):
            reorder_phase([5], Q4, n=3)


# a light property layer over the exact algebra; the deterministic suite
# already sweeps these laws over many seeded draws

small_entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
small_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                 allow_infinity=False)
small_elem = st.dictionaries(small_entry, small_coeff, max_size=4)


@given(small_elem, small_elem, small_elem)
@settings(max_examples=40, deadline=None)
def test_associativity_property(da, db, dc):
    a, b, c = (elem(d, QI) for d in (da, db, dc))
    lhs = q_mul(q_mul(a, b), c)
    rhs = q_mul(a, q_mul(b, c))
    scale = max(1.0, a.coeffs.max_abs() * b.coeffs.max_abs() * c.coeffs.max_abs())
    assert lhs.max_abs_diff(rhs) <= 1e-12 * scale


@given(small_elem, small_elem)
@settings(max_examples=40, deadline=None)
def test_star_reverses_products_property(da, db):
    a, b = elem(da, QI), elem(db, QI)
    lhs = adjoint(q_mul(a, b))
    rhs = q_mul(adjoint(b), adjoint(a))
    scale = max(1.0, a.coeffs.max_abs() * b.coeffs.max_abs())
    assert lhs.max_abs_diff(rhs) <= 1e-12 * scale
