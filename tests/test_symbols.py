import math
import random
from fractions import Fraction

import pytest

from nctorus.symbols import (CRat, HbarSeries, PolySymbol, _bidiff_power,
                             associativity_defect, half_moyal, moyal_star, poisson_bracket, series_to_obj,
                             star_commutator, symbol_from_obj, symbol_to_obj)

X1 = PolySymbol.variable(0, 2)
X2 = PolySymbol.variable(1, 2)
I = CRat.of(0, 1)
ONE = CRat.of(1, 0)


# -- the Fraction route: every term through CRat arithmetic ----------------

def _multi_diff(f: PolySymbol, alpha: tuple) -> PolySymbol:
    out = f
    for var, count in enumerate(alpha):
        for _ in range(count):
            out = out.diff(var)
    return out


def _minus_i_pow(k: int, den: int) -> CRat:
    return CRat.of(*(Fraction(x, den) for x in [(1, 0), (0, -1), (-1, 0), (0, 1)][k % 4]))


def oracle_coeff(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    total = PolySymbol.zero(f.nvars)
    for (af, ag), c in sorted(_bidiff_power(f.nvars, k).items()):
        if c == 0:
            continue
        total = total + (_multi_diff(f, af) * _multi_diff(g, ag)).scaled(CRat.of(c))
    return total.scaled(_minus_i_pow(k, 2 ** k * math.factorial(k)))


def oracle_star(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    return HbarSeries(tuple(oracle_coeff(f, g, k) for k in range(order + 1)))


def oracle_half(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    return HbarSeries(tuple(
        (_multi_diff(f, (0, k)) * _multi_diff(g, (k, 0))).scaled(
            _minus_i_pow(k, math.factorial(k)))
        for k in range(order + 1)))


def oracle_poisson(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    total = PolySymbol.zero(f.nvars)
    for i in range(f.nvars // 2):
        q, p = 2 * i, 2 * i + 1
        total = total + f.diff(p) * g.diff(q) - f.diff(q) * g.diff(p)
    return total


def oracle_assoc(f: PolySymbol, g: PolySymbol, h: PolySymbol, order: int) -> HbarSeries:
    fg = [oracle_coeff(f, g, k) for k in range(order + 1)]
    gh = [oracle_coeff(g, h, k) for k in range(order + 1)]
    out = []
    for k in range(order + 1):
        left = PolySymbol.zero(f.nvars)
        right = PolySymbol.zero(f.nvars)
        for m in range(k + 1):
            left = left + oracle_coeff(fg[k - m], h, m)
            right = right + oracle_coeff(f, gh[k - m], m)
        out.append(left - right)
    return HbarSeries(tuple(out))


def random_symbol(rng: random.Random, nvars: int, degree: int, nterms: int,
                  dens=(1, 3, 7, 21)) -> PolySymbol:
    """Coefficients over thirds and sevenths, so no dyadic shortcut hides a
    missing reduction; the top degree is always present."""
    terms = {}
    for i in range(nterms):
        exps = [0] * nvars
        for _ in range(degree if i == 0 else rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = CRat.of(Fraction(rng.randint(-6, 6) or 1, rng.choice(dens)),
                                     Fraction(rng.randint(-6, 6), rng.choice(dens)))
    return PolySymbol(nvars, terms)


class TestCRat:
    def test_field_operations(self):
        a = CRat.of(Fraction(1, 3), 2)
        b = CRat.of(1, Fraction(-1, 2))
        assert (a + b) - b == a
        # (1/3 + 2i)(1 - i/2) = 1/3 + 1 + i(2 - 1/6)
        prod = a * b
        assert prod.re == Fraction(4, 3)
        assert prod.im == Fraction(11, 6)

    def test_i_squared(self):
        assert (I * I + ONE).is_zero()

    def test_exactness_survives_many_products(self):
        third = CRat.of(Fraction(1, 3), 0)
        acc = ONE
        for _ in range(30):
            acc = acc * third
        assert acc.re == Fraction(1, 3 ** 30)


class TestPolySymbol:
    def test_variables_commute(self):
        assert (X1 * X2 - X2 * X1).is_zero()

    def test_diff(self):
        p = X1 * X1 * X2  # x1^2 x2
        assert (p.diff(0) - X1.scaled(CRat.of(2)) * X2).is_zero()
        assert (p.diff(1) - X1 * X1).is_zero()
        assert p.diff(0).diff(0).diff(0).is_zero()

    def test_degree(self):
        assert (X1 * X2 * X2).degree() == 3
        assert PolySymbol.constant(ONE, 2).degree() == 0
        assert PolySymbol.zero(2).degree() == 0

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            X1 * PolySymbol.variable(0, 3)

    def test_serialization_round_trip(self):
        # wire format carries floats, so dyadic coefficients survive exactly
        p = X1 * X2.scaled(CRat.of(Fraction(3, 8), -1)) + PolySymbol.constant(I, 2)
        assert (symbol_from_obj(symbol_to_obj(p)) - p).is_zero()


class TestMoyalStar:
    def test_canonical_commutator(self):
        # x1 * x2 - x2 * x1 = i hbar and nothing else
        series = star_commutator(X1, X2, 2)
        assert series.coeffs[0].is_zero()
        assert (series.coeffs[1] - PolySymbol.constant(I, 2)).is_zero()
        assert series.coeffs[2].is_zero()

    def test_order_zero_is_product(self):
        f = X1 * X1 + X2
        g = X2 * X2
        assert (moyal_star(f, g, 0).coeffs[0] - f * g).is_zero()

    def test_first_order_commutator_is_poisson(self):
        # [f,g] = -i hbar {f,g} + O(hbar^2) in the d_p f d_q g - d_q f d_p g
        # bracket convention
        f = X1 * X1 * X2
        g = X1 * X2 + X2 * X2
        comm = star_commutator(f, g, 1)
        want = poisson_bracket(f, g).scaled(CRat.of(0, -1))
        assert (comm.coeffs[1] - want).is_zero()

    def test_poisson_bracket_value(self):
        got = poisson_bracket(X1 * X1, X2)
        assert (got - X1.scaled(CRat.of(-2))).is_zero()

    def test_star_is_degree_filtered(self):
        # coefficient k differentiates k times in each slot, so it dies
        # once k exceeds either total degree
        f = X1 * X1
        g = X2
        fg = moyal_star(f, g, 2)
        assert fg.coeffs[2].is_zero()
        assert not fg.coeffs[1].is_zero()

    def test_associativity_defect_vanishes(self):
        f = X1 * X1 * X2
        g = X2 * X2 + X1
        h = X1 * X2
        assert associativity_defect(f, g, h, 4).is_zero()

    def test_symmetric_part_has_no_first_order(self):
        f = X1 * X2
        g = X1 + X2
        fg = moyal_star(f, g, 1)
        gf = moyal_star(g, f, 1)
        total = HbarSeries(tuple(a + b for a, b in zip(fg.coeffs, gf.coeffs)))
        assert total.coeffs[1].is_zero()


class TestKernelAgainstFractionRoute:
    """The integer kernel equals the Fraction route exactly (== on Fractions)."""

    CASES = [(2, (5, 4)), (2, (3, 3)), (2, (1, 4)), (4, (3, 2)), (4, (2, 3))]

    def pair(self, nvars, degrees, order):
        rng = random.Random(1000 * nvars + 100 * degrees[0] + 10 * degrees[1] + order)
        return (random_symbol(rng, nvars, degrees[0], 7),
                random_symbol(rng, nvars, degrees[1], 6))

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("nvars,degrees", CASES)
    def test_star_family(self, nvars, degrees, order):
        f, g = self.pair(nvars, degrees, order)
        fg, gf = oracle_star(f, g, order), oracle_star(g, f, order)
        assert not fg.coeffs[0].is_zero()
        assert moyal_star(f, g, order) == fg
        assert star_commutator(f, g, order) == fg - gf
        assert poisson_bracket(f, g) == oracle_poisson(f, g)
        if nvars == 2:
            assert half_moyal(f, g, order) == oracle_half(f, g, order)

    def test_orders_past_the_degree_bound_are_zero(self):
        f = X1 * X1 * X2 + (X2 * X2 * X2).scaled(CRat.of(Fraction(1, 3)))
        g = X1 * X2 + (X2 * X2).scaled(CRat.of(0, Fraction(-2, 7)))
        series = moyal_star(f, g, 6)
        assert not series.coeffs[2].is_zero()
        assert all(c.is_zero() for c in series.coeffs[3:])
        assert series == oracle_star(f, g, 6)

    @pytest.mark.parametrize("nvars,degrees,order", [
        (2, (3, 2, 2), 0), (2, (3, 2, 2), 2), (2, (2, 3, 3), 5), (2, (4, 1, 3), 6),
        (4, (2, 2, 1), 3), (4, (1, 2, 2), 4),
    ])
    def test_associativity_defect(self, nvars, degrees, order):
        rng = random.Random(7 * order + nvars)
        f, g, h = (random_symbol(rng, nvars, d, 5) for d in degrees)
        got = associativity_defect(f, g, h, order)
        assert got == oracle_assoc(f, g, h, order)
        assert got.order == order and got.is_zero()

    def test_associativity_defect_sees_a_broken_product(self, monkeypatch):
        # the defect is computed, not assumed: a kernel that drops the
        # falling-factorial weights loses associativity, up to order
        # (3 + 3 + 4) / 2 = 5, the last one the degree bound computes
        monkeypatch.setattr(math, "perm", lambda n, k: int(k <= n))
        f, g, h = X1 * X1 * X2, X2 * X2 * X1, X1 * X1 * X2 * X2
        defect = associativity_defect(f, g, h, 8)
        assert not defect.coeffs[2].is_zero() and not defect.coeffs[5].is_zero()

    def test_zero_symbol(self):
        zero = PolySymbol.zero(2)
        f = random_symbol(random.Random(3), 2, 3, 5)
        for a, b in ((zero, f), (f, zero), (zero, zero)):
            assert moyal_star(a, b, 4) == oracle_star(a, b, 4)
            assert moyal_star(a, b, 4).is_zero()
            assert half_moyal(a, b, 4) == oracle_half(a, b, 4)
            assert poisson_bracket(a, b).is_zero()
        assert associativity_defect(f, zero, f, 3) == oracle_assoc(f, zero, f, 3)

    def test_orders_past_the_degree_build_no_expansion(self, monkeypatch):
        from nctorus import symbols
        built = []
        real = symbols._bidiff_power

        def counting(nvars, k):
            built.append(k)
            return real(nvars, k)

        monkeypatch.setattr(symbols, "_bidiff_power", counting)
        rng = random.Random(5)
        f, g, h = (random_symbol(rng, 4, d, 4) for d in (3, 2, 1))
        assert all(c.is_zero() for c in moyal_star(f, g, 60).coeffs[3:])
        assert max(built) == 2
        built.clear()
        # (f*g)*h has total degree 6, so its order-k term needs 2k <= 6
        assert associativity_defect(f, g, h, 60).is_zero()
        assert max(built) <= 3

    def test_mismatched_and_odd_arity_rejected(self):
        with pytest.raises(ValueError):
            moyal_star(X1, PolySymbol.variable(0, 4), 1)
        with pytest.raises(ValueError):
            moyal_star(PolySymbol.variable(0, 3), PolySymbol.variable(1, 3), 5)
        with pytest.raises(ValueError):
            associativity_defect(X1, X2, X1, -1)
        # an odd variable count has no symplectic pairing, not a constant x3
        y1, y2, y3 = (PolySymbol.variable(i, 3) for i in range(3))
        with pytest.raises(ValueError, match="even variable count"):
            poisson_bracket(y1 * y3, y2)
        with pytest.raises(ValueError):
            poisson_bracket(X1, PolySymbol.variable(0, 4))


class TestHalfMoyal:
    def test_reorders_one_pair(self):
        # x2 then x1 in operator order picks up the full -i hbar correction
        series = half_moyal(X2, X1, 1)
        assert (series.coeffs[0] - X2 * X1).is_zero()
        assert (series.coeffs[1] - PolySymbol.constant(CRat.of(0, -1), 2)).is_zero()

    def test_k_term_shape(self):
        # (-i)^k/k! d2^k f d1^k g
        f = X2 * X2
        g = X1 * X1
        series = half_moyal(f, g, 2)
        assert (series.coeffs[2]
                - PolySymbol.constant(CRat.of(-2, 0), 2)).is_zero()

    def test_orders_match_between_expansions(self):
        # the two expansions differ by ordering but share the commutator
        f, g = X1, X2
        half = half_moyal(f, g, 1)
        half_rev = half_moyal(g, f, 1)
        diff = HbarSeries(tuple(a - b for a, b in zip(half.coeffs,
                                                      half_rev.coeffs)))
        full = star_commutator(f, g, 1)
        assert (diff.coeffs[1] - full.coeffs[1]).is_zero()

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            half_moyal(PolySymbol.variable(0, 3), PolySymbol.variable(1, 3), 1)
        with pytest.raises(ValueError):
            half_moyal(X1, X2, -1)


class TestSeries:
    def test_subtraction_aligns_orders(self):
        a = moyal_star(X1, X2, 2)
        with pytest.raises(ValueError):
            a - moyal_star(X1, X2, 1)
        assert (a - a).is_zero()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HbarSeries(())

    def test_series_serialization(self):
        obj = series_to_obj(moyal_star(X1 * X2, X2, 3))
        assert isinstance(obj, dict)
        assert len(obj["coeffs"]) == 4
