import math
import warnings

import numpy as np
import pytest

from nctorus.lattice import (MAX_TWIST_MODULUS, CoeffLattice2, FormatError, PhaseQ,
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

    def test_pow_of_an_int_is_the_array_entry_bit_for_bit(self):
        # one rule for q^e: an integer and a one-entry array give the same bits
        qs = [PhaseQ.rational(p, n) for n in range(1, 40) for p in range(n)
              if math.gcd(p, n) == 1]
        qs += [PhaseQ.irrational(0.9), PhaseQ.irrational(math.sqrt(2))]
        for q in qs:
            for e in (-41, -3, -1, 0, 1, 2, 11, 39, 10**9 + 7):
                got, want = q.pow(e), q.pow(np.array([e]))[0]
                assert got.tobytes() == want.tobytes(), (q, e)

    def test_zero_modulus_rejected(self):
        with pytest.raises(ValueError):
            PhaseQ.rational(1, 0)

    def test_modulus_cap(self):
        assert PhaseQ.rational(3, MAX_TWIST_MODULUS).modulus == MAX_TWIST_MODULUS
        for n in (MAX_TWIST_MODULUS + 1, 3 * 10**18 + 37, 10**30):
            with pytest.raises(ValueError, match="limit"):
                PhaseQ.rational(1, n)
        # the cap applies in lowest terms
        assert PhaseQ.rational(2**31, 2**32) == PhaseQ.rational(1, 2)

    def test_exponents_reduced_before_the_product(self):
        # p e would wrap an int64 here: N = 2^31 - 1 is prime, and at N - p
        # the primed phase takes the principal branch p - N
        n = MAX_TWIST_MODULUS - 1
        e = 2**62 + 5
        for p in (n // 7, n - n // 7):
            q = PhaseQ.rational(p, n)
            assert abs(q.pow(np.array([e]))[0] - np.exp(2j * math.pi * (p * e % n) / n)) < 1e-15
            half = (p - n if 2 * p > n else p) * e % (2 * n)
            assert abs(q.half_pow_array(np.array([e]))[0] - np.exp(1j * math.pi * half / n)) < 1e-15


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

    def test_rational_and_theta_spellings_agree(self):
        # the principal branch q^(1/2) = e^{i theta/2}, theta in (-pi, pi],
        # also when 2p > N, where theta = 2 pi p / N is spelled as p - N
        rng = np.random.default_rng(3)
        f = CoeffLattice2(3, 3, rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
        for n in range(1, 13):
            for p in range(n):
                if math.gcd(p, n) == 1:
                    g = to_primed(f, PhaseQ.rational(p, n))
                    h = to_primed(f, PhaseQ.irrational(2 * math.pi * p / n))
                    assert g.max_abs_diff(h) < 1e-14, (p, n)
        g = to_primed(CoeffLattice2.delta(1, 1), PhaseQ.rational(3, 4))
        assert abs(g.get(1, 1) - np.exp(-1j * math.pi / 4)) < 1e-15

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
        for pair in ([1, 0], [1, -4], [7, 10**30], [1, MAX_TWIST_MODULUS + 1]):
            with pytest.raises(FormatError, match='field "rational"'):
                phaseq_from_obj({"rational": pair})
        with pytest.raises(FormatError):
            phaseq_from_obj({"something": 1})
