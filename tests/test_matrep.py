import cmath
import math

import numpy as np
import pytest

from nctorus.lattice import CoeffLattice2, PhaseQ
from nctorus.matrep import (CIRCLE_SAMPLES, MAX_MODULUS, CircleSpec, center_scalar_residual,
                            circle_check_relations, circle_eval, clock_shift,
                            covariance_residual, equivariance_check,
                            eval_section, fiber_grid, homomorphism_residual,
                            opnorm, section_family, star_residual)
from nctorus.torus import TorusElement, adjoint, monomial, q_mul

Q5 = PhaseQ.rational(1, 5)


def elem(entries, q=Q5):
    return TorusElement(CoeffLattice2.from_entries(entries), q)


class TestClockShift:
    def test_shapes_and_pattern(self):
        u0, v0 = clock_shift(PhaseQ.rational(1, 4))
        assert u0.shape == (4, 4)
        for i in range(4):
            assert u0[i, (i + 1) % 4] == 1.0
        assert np.count_nonzero(u0) == 4
        want = np.diag([PhaseQ.rational(1, 4).pow(j) for j in range(4)])
        assert np.max(np.abs(v0 - want)) == 0.0

    @pytest.mark.parametrize("p,n", [(1, 2), (1, 3), (1, 4), (2, 5), (3, 7)])
    def test_relations(self, p, n):
        q = PhaseQ.rational(p, n)
        u0, v0 = clock_shift(q)
        eye = np.eye(n)
        assert opnorm(u0 @ v0 - q.pow(1) * (v0 @ u0)) < 1e-14
        assert opnorm(np.linalg.matrix_power(u0, n) - eye) < 1e-14
        assert opnorm(np.linalg.matrix_power(v0, n) - eye) < 1e-14
        assert opnorm(u0 @ u0.conj().T - eye) < 1e-14
        assert opnorm(v0 @ v0.conj().T - eye) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
    def test_relations_are_the_slope_zero_circle(self, n):
        # the suite's criterion 4 reads the clock/shift relations as the
        # circle of slope 0/1 at z = 1; the three norms it used to take
        q = PhaseQ.rational(1, n)
        u0, v0 = clock_shift(q)
        eye = np.eye(n)
        old = max(opnorm(u0 @ v0 - q.q * (v0 @ u0)),
                  opnorm(np.linalg.matrix_power(u0, n) - eye),
                  opnorm(np.linalg.matrix_power(v0, n) - eye))
        assert circle_check_relations(CircleSpec(1, 0, 1, 0, q), [1.0]) == old

    def test_irrational_rejected(self):
        with pytest.raises(ValueError):
            clock_shift(PhaseQ.irrational(0.5))

    def test_modulus_limit(self):
        clock_shift(PhaseQ.rational(1, MAX_MODULUS))
        with pytest.raises(ValueError, match="MAX_MODULUS"):
            clock_shift(PhaseQ.rational(1, MAX_MODULUS + 1))


class TestOpnorm:
    def test_diagonal(self):
        assert opnorm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0, rel=1e-12)

    def test_unitary_is_one(self):
        u0, _ = clock_shift(Q5)
        assert opnorm(u0) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        assert opnorm(np.zeros((3, 3))) == 0.0

    def test_homogeneous(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert opnorm(2.5 * m) == pytest.approx(2.5 * opnorm(m), rel=1e-10)

    def test_matches_svd(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert opnorm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-8)

    def test_shift_minus_identity_at_q_i(self):
        # the all-ones vector is in the kernel of U0 - I, so a power
        # iteration started there reads 0; the spectrum of U0 holds -1
        u0, _ = clock_shift(PhaseQ.rational(1, 4))
        assert opnorm(u0 - np.eye(4)) == pytest.approx(2.0, rel=1e-12)


class TestEvalSection:
    def test_generator_sections(self):
        u0, v0 = clock_shift(Q5)
        u_pt, v_pt = fiber_grid(4)[3]
        assert np.allclose(eval_section(monomial(1, 0, Q5), u_pt, v_pt),
                           u_pt * u0, atol=1e-14)
        assert np.allclose(eval_section(monomial(0, 1, Q5), u_pt, v_pt),
                           v_pt * v0, atol=1e-14)

    def test_unit_section(self):
        one = elem({(0, 0): 1.0})
        u_pt, v_pt = fiber_grid(4)[0]
        assert np.allclose(eval_section(one, u_pt, v_pt), np.eye(5), atol=1e-15)

    def test_negative_power_is_inverse(self):
        u_pt, v_pt = fiber_grid(4)[5]
        a = eval_section(monomial(1, 0, Q5), u_pt, v_pt)
        b = eval_section(monomial(-1, 0, Q5), u_pt, v_pt)
        assert opnorm(a @ b - np.eye(5)) < 1e-14

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError, match="unit modulus"):
            eval_section(monomial(1, 0, Q5), 1.5 + 0j, 1.0 + 0j)

    def test_homomorphism_on_grid(self):
        rng = np.random.default_rng(11)
        f = elem({(1, 0): 1.0, (0, 2): rng.normal(), (-1, 1): 1j * rng.normal()})
        g = elem({(0, 1): 1.0, (2, 0): rng.normal()})
        assert homomorphism_residual(f, g, q_mul(f, g), fiber_grid(8)) < 1e-12

    def test_random_element_matches_matrix_powers(self):
        rng = np.random.default_rng(12)
        q = PhaseQ.rational(2, 5)
        f = TorusElement(CoeffLattice2(3, 2, rng.normal(size=(7, 5))
                                       + 1j * rng.normal(size=(7, 5))), q)
        u0, v0 = clock_shift(q)
        for u_pt, v_pt in fiber_grid(3):
            want = sum(c * u_pt**k * v_pt**l * np.linalg.matrix_power(u0, k % 5)
                       @ np.linalg.matrix_power(v0, l % 5)
                       for k, l, c in f.coeffs.support())
            assert np.max(np.abs(eval_section(f, u_pt, v_pt) - want)) < 1e-13

    def test_homomorphism_error_in_kernel_of_ones_is_seen(self):
        # claiming U * 1 = 1 leaves the error I - U0 at the fiber (1, 1);
        # it annihilates the all-ones vector and has norm 2 at q = i
        q = PhaseQ.rational(1, 4)
        one = monomial(0, 0, q)
        res = homomorphism_residual(monomial(1, 0, q), one, one, [(1 + 0j, 1 + 0j)])
        assert res == pytest.approx(2.0, rel=1e-12)

    def test_empty_grid_is_zero(self):
        f = elem({(1, 0): 1.0})
        assert homomorphism_residual(f, f, f, []) == 0.0
        assert star_residual(f, f, []) == 0.0

    def test_star_on_grid(self):
        f = elem({(1, 2): 1 + 1j, (-2, 0): 0.5})
        assert star_residual(f, adjoint(f), fiber_grid(8)) < 1e-12


class TestCenterAndCovariance:
    def test_center_powers_are_scalar(self):
        grid = fiber_grid(6)
        for k, l in ((5, 0), (0, 5), (5, -5), (10, 0)):
            f = monomial(k, l, Q5)
            assert center_scalar_residual(f, grid) < 1e-13

    def test_generator_is_not_scalar(self):
        assert center_scalar_residual(monomial(1, 0, Q5), fiber_grid(6)) > 0.1

    @pytest.mark.parametrize("m,n_shift", [(1, 0), (0, 1), (2, 3)])
    def test_torus_action_covariance(self, m, n_shift):
        f = elem({(1, 0): 1.0, (0, 1): 2.0, (2, -1): 1j, (-1, 3): 0.25})
        for u_pt, v_pt in fiber_grid(3)[:3]:
            assert covariance_residual(f, u_pt, v_pt, m, n_shift) < 1e-12


class TestSectionFamily:
    def test_family_indices(self):
        f = elem({(6, -1): 2.0})
        fam = section_family(f)
        # matrix word index is the lattice index reduced mod N
        assert fam == {(6, -1, 1, 4): 2.0}

    def test_equivariance_accepts_canonical(self):
        f = elem({(1, 0): 1.0, (7, 3): 2j, (-2, 1): 0.5})
        ok, witness = equivariance_check(section_family(f), Q5)
        assert ok and witness is None

    def test_equivariance_flags_misplaced_word(self):
        fam = section_family(elem({(1, 0): 1.0}))
        fam[(2, 0, 1, 0)] = 1.0  # k=2 must sit at word s=2, not s=1
        ok, witness = equivariance_check(fam, Q5)
        assert not ok
        assert witness == (2, 0, 1, 0)


class TestFiberGrid:
    def test_count_and_modulus(self):
        grid = fiber_grid(16)
        assert len(grid) == 256
        for u_pt, v_pt in grid[:20]:
            assert abs(abs(u_pt) - 1.0) < 1e-12
            assert abs(abs(v_pt) - 1.0) < 1e-12

    def test_avoids_roots_of_unity(self):
        # offsets are irrational so no fiber point is a small root of unity
        for u_pt, v_pt in fiber_grid(16):
            for r in range(1, 8):
                assert abs(u_pt**r - 1.0) > 1e-6
                assert abs(v_pt**r - 1.0) > 1e-6

    def test_deterministic(self):
        assert fiber_grid(5) == fiber_grid(5)

    def test_circle_samples_are_the_u_axis(self):
        # circle-check and criterion 5 sample the circle here; the suite
        # used to spell the points with cmath, which agrees bit for bit
        off = (math.sqrt(5.0) - 1.0) / 2.0
        assert CIRCLE_SAMPLES == tuple(u for u, _ in fiber_grid(16)[::16])
        assert CIRCLE_SAMPLES == tuple(cmath.exp(2j * math.pi * (j + off) / 16)
                                       for j in range(16))


def loop_circle_eval(coeffs, spec: CircleSpec, z: complex) -> np.ndarray:
    """circle_eval as a sum over the terms, each with its product of tabled
    matrix powers U0^s V0^t and one power of z."""
    n = spec.q.modulus
    u0, v0 = clock_shift(spec.q)
    out = np.zeros((n, n), dtype=np.complex128)
    upow = [np.linalg.matrix_power(u0, s) for s in range(n)]
    vpow = [np.linalg.matrix_power(v0, t) for t in range(n)]
    for (j, s, t), c in sorted(coeffs.items()):
        out += c * (z ** (j * n + spec.a * s + spec.b * t)) * (upow[s] @ vpow[t])
    return out


class TestCircle:
    SAMPLES = [complex(np.exp(2j * np.pi * (j + 0.61803) / 16)) for j in range(16)]

    @pytest.mark.parametrize("a,b,ap,bp,n", [
        (1, 0, 1, 0, 1),
        (1, 1, 1, 0, 2),
        (1, 2, 1, 0, 3),
        (2, 3, -1, 1, 5),
    ])
    def test_relations_hold(self, a, b, ap, bp, n):
        spec = CircleSpec(a, b, ap, bp, PhaseQ.rational(1, n))
        assert circle_check_relations(spec, self.SAMPLES) < 1e-12

    def test_unwound_case_commutes(self):
        spec = CircleSpec(1, 1, 0, 1, PhaseQ.rational(0, 1))
        for z in self.SAMPLES[:4]:
            u = circle_eval({(0, 0, 0): 1.0}, spec, z)
            assert u.shape == (1, 1)  # N=1 collapses to functions on the circle

    def test_eval_matches_generators(self):
        spec = CircleSpec(1, 2, 1, 0, PhaseQ.rational(1, 3))
        u0, v0 = clock_shift(spec.q)
        z = self.SAMPLES[2]
        got_u = circle_eval({(0, 1, 0): 1.0}, spec, z)
        assert np.allclose(got_u, z * u0, atol=1e-14)
        got_v = circle_eval({(0, 0, 1): 1.0}, spec, z)
        assert np.allclose(got_v, (z ** 2) * v0, atol=1e-14)
        got_z = circle_eval({(1, 0, 0): 1.0}, spec, z)
        assert np.allclose(got_z, (z ** 3) * np.eye(3), atol=1e-14)

    def test_bad_winding_rejected(self):
        with pytest.raises(ValueError, match="gcd"):
            CircleSpec(2, 4, 1, 0, PhaseQ.rational(1, 3))
        with pytest.raises(ValueError, match="a'"):
            CircleSpec(2, 1, 1, 0, PhaseQ.rational(1, 3))

    def test_equals_term_loop(self):
        rng = np.random.default_rng(21)
        windings = [(1, 0, 1, 0), (1, 1, 1, 0), (1, 2, 1, 0), (2, 3, -1, 1),
                    (3, 2, 1, -1), (-1, 4, -1, 0), (5, -3, 2, 3)]
        for _ in range(200):
            a, b, ap, bp = windings[rng.integers(len(windings))]
            spec = CircleSpec(a, b, ap, bp, PhaseQ.rational(1, int(rng.integers(1, 9))))
            n = spec.q.modulus
            coeffs = {(int(j), int(s), int(t)): complex(*rng.standard_normal(2))
                      for j, s, t in zip(rng.integers(-3, 4, 6), rng.integers(0, n, 6),
                                         rng.integers(0, n, 6))}
            z = complex(np.exp(2j * np.pi * rng.uniform()))
            got, want = circle_eval(coeffs, spec, z), loop_circle_eval(coeffs, spec, z)
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_off_circle_rejected_as_in_relations(self):
        spec = CircleSpec(2, 3, -1, 1, PhaseQ.rational(1, 5))
        for z in (1.5 + 0j, 0j):
            with pytest.raises(ValueError) as relations:
                circle_check_relations(spec, [z])
            with pytest.raises(ValueError, match=r"^z must be unit modulus") as info:
                circle_eval({(0, 1, 0): 1.0}, spec, z)
            assert str(info.value) == str(relations.value)

    def test_out_of_range_word_rejected(self):
        spec = CircleSpec(1, 2, 1, 0, PhaseQ.rational(1, 3))
        with pytest.raises(ValueError, match="exponents"):
            circle_eval({(0, 3, 0): 1.0}, spec, self.SAMPLES[0])
