import math
import warnings

import numpy as np
import pytest

from nctorus.lattice import (CoeffLattice2, FormatError, PhaseQ,
                             lattice_from_obj, lattice_to_obj, phaseq_from_obj,
                             phaseq_to_obj, retruncate, seminorm, to_primed)


class TestPhaseQ:
    def test_rational_normalizes_gcd(self):
        q = PhaseQ.rational(2, 8)
        assert (q.p, q.modulus) == (1, 4)

    def test_rational_reduces_exponents_exactly(self):
        q = PhaseQ.rational(1, 4)
        # exponent arithmetic is mod N, so huge powers stay on the unit circle
        assert q.pow(10**9 + 1) == q.pow((10**9 + 1) % 4)
        assert abs(q.pow(4) - 1.0) == 0.0

    def test_rational_inverse_phase(self):
        q = PhaseQ.rational(1, 4)
        assert abs(q.pow(-1) - (-1j)) < 1e-15

    def test_half_pow_consistent_square(self):
        q = PhaseQ.rational(3, 7)
        assert abs(q.half_pow_array(np.array(2)) - q.pow(1)) < 1e-15
        qi = PhaseQ.irrational(1.2345)
        h1, h3 = qi.half_pow_array(np.array([1, 3]))
        assert abs(h3 - qi.pow(1) * h1) < 1e-15

    def test_irrational_wraps_angle(self):
        q = PhaseQ.irrational(2 * math.pi + 0.25)
        assert abs(q.theta_value - 0.25) < 1e-12

    def test_conjugate_inverts(self):
        for q, qbar in ((PhaseQ.rational(2, 5), PhaseQ.rational(-2, 5)),
                        (PhaseQ.irrational(0.7), PhaseQ.irrational(-0.7))):
            assert abs(qbar.q - np.conj(q.q)) < 1e-15
            assert abs(qbar.q * q.q - 1.0) < 1e-15

    def test_pow_array_matches_scalar(self):
        q = PhaseQ.irrational(0.9)
        exps = np.array([-3, 0, 2, 11])
        got = q.pow_array(exps)
        want = np.array([q.pow(int(e)) for e in exps])
        assert np.max(np.abs(got - want)) < 1e-14

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            PhaseQ.rational(1, 0)


class TestCoeffLattice2:
    def test_delta_and_get(self):
        f = CoeffLattice2.delta(2, -1)
        assert f.get(2, -1) == 1.0
        assert f.get(0, 0) == 0.0
        assert f.get(99, 99) == 0.0  # outside the box reads as zero

    def test_from_entries_bounds(self):
        f = CoeffLattice2.from_entries({(1, 2): 3.0, (-2, 0): 1j})
        assert f.radius_k == 2 and f.radius_l == 2
        assert f.get(1, 2) == 3.0 and f.get(-2, 0) == 1j

    def test_add_sub_expand(self):
        f = CoeffLattice2.delta(1, 0)
        g = CoeffLattice2.delta(0, 3)
        h = f + g
        assert h.get(1, 0) == 1.0 and h.get(0, 3) == 1.0
        assert (h - f).max_abs_diff(g) == 0.0

    def test_support_is_lexicographic(self):
        f = CoeffLattice2.from_entries({(1, 1): 1.0, (-1, 2): 2.0, (1, -1): 3.0})
        seq = [(k, l) for k, l, _ in f.support()]
        assert seq == sorted(seq)

    def test_coeffs_immutable(self):
        f = CoeffLattice2.delta(0, 0)
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 2.0


class TestSeminorm:
    def test_single_monomial_weight(self):
        # (1 + |1| + |0|)^3 = 8
        assert seminorm(CoeffLattice2.delta(1, 0), 3) == 8.0

    def test_two_monomials_weight(self):
        f = CoeffLattice2.delta(1, 0) + CoeffLattice2.delta(0, 1)
        assert seminorm(f, 2) == 4.0

    def test_order_zero_is_sup(self):
        f = CoeffLattice2.from_entries({(1, 2): 3.0, (0, 0): -5.0})
        assert seminorm(f, 0) == 5.0

    def test_monotone_in_order(self):
        f = CoeffLattice2.from_entries({(2, -1): 1.5, (0, 1): 2.0})
        values = [seminorm(f, m) for m in range(5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_homogeneous(self):
        f = CoeffLattice2.from_entries({(1, 1): 1.0, (2, 0): -1.0})
        assert seminorm(f.scaled(3.0), 2) == pytest.approx(3.0 * seminorm(f, 2))

    def test_zero_coefficient_under_overflowing_weight(self):
        # the corner weights 3^100000 are inf, but their coefficients are 0,
        # so the sup is the centre's; no warning reaches the caller
        f = CoeffLattice2(1, 1, np.zeros((3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert seminorm(f, 100000) == 0.0
            assert seminorm(f + CoeffLattice2.delta(0, 0).scaled(2.0), 100000) == 2.0
            assert seminorm(f + CoeffLattice2.delta(1, 0), 100000) == math.inf


class TestPrimedConvention:
    def test_round_trip(self):
        q = PhaseQ.irrational(0.77)
        f = CoeffLattice2.from_entries({(1, 2): 1.0 + 2j, (-3, 1): 0.5})
        g = to_primed(f, q)
        back = to_primed(g, PhaseQ.irrational(-0.77))
        assert back.max_abs_diff(f) < 1e-15

    def test_phase_value(self):
        q = PhaseQ.rational(1, 4)
        f = CoeffLattice2.delta(1, 1)
        # half power of q at exponent kl=1 (principal branch of the angle)
        assert abs(to_primed(f, q).get(1, 1) - np.exp(1j * math.pi / 4)) < 1e-15

    def test_zero_exponent_fixed(self):
        q = PhaseQ.irrational(1.1)
        f = CoeffLattice2.delta(4, 0)
        assert to_primed(f, q).max_abs_diff(f) == 0.0


class TestRetruncate:
    def test_reports_sup_of_cut(self):
        f = CoeffLattice2.from_entries({(0, 0): 1.0, (2, 0): 3.0, (0, 2): -4.0})
        cut, tail = retruncate(f, 1, 1)
        assert tail == 4.0
        assert cut.get(0, 0) == 1.0 and cut.radius_k == 1

    def test_noop_keeps_everything(self):
        f = CoeffLattice2.delta(1, 1)
        cut, tail = retruncate(f, 2, 2)
        assert tail == 0.0 and cut.max_abs_diff(f) == 0.0


class TestSerialization:
    def test_lattice_round_trip(self):
        f = CoeffLattice2.from_entries({(1, -2): 1.5 - 0.5j, (0, 0): 2.0})
        assert lattice_from_obj(lattice_to_obj(f)).max_abs_diff(f) == 0.0

    def test_phase_round_trip(self):
        for q in (PhaseQ.rational(2, 7), PhaseQ.irrational(-0.3)):
            assert phaseq_from_obj(phaseq_to_obj(q)) == q

    def test_row_major_order(self):
        obj = {"radius_k": 1, "radius_l": 0,
               "coeffs": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}
        f = lattice_from_obj(obj)
        assert f.get(-1, 0) == 1.0 and f.get(0, 0) == 2.0 and f.get(1, 0) == 3.0

    def test_wrong_count_names_position(self):
        obj = {"radius_k": 1, "radius_l": 0, "coeffs": [[1.0, 0.0]]}
        with pytest.raises(FormatError, match="coeffs"):
            lattice_from_obj(obj)

    def test_bad_pair_names_index(self):
        obj = {"radius_k": 0, "radius_l": 0, "coeffs": [[1.0]]}
        with pytest.raises(FormatError, match=r"coeffs\[0\]"):
            lattice_from_obj(obj)

    def test_missing_field_named(self):
        with pytest.raises(FormatError, match="radius_l"):
            lattice_from_obj({"radius_k": 0, "coeffs": [[0.0, 0.0]]})

    def test_bad_phase_named(self):
        with pytest.raises(FormatError, match="rational"):
            phaseq_from_obj({"rational": [1]})
        with pytest.raises(FormatError):
            phaseq_from_obj({"something": 1})
