"""Exact polynomial symbols and the Moyal / half-Moyal expansions.

Coefficients are Gaussian rationals (pairs of Fractions), so the series
identities checked downstream (commutator = i hbar, formal associativity
order by order) are exact, not approximate: no float ever enters until a
caller asks for one.  Variables come in symplectic pairs
(x1, x2), (x3, x4), ...; position odd, momentum even.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .lattice import FormatError, is_finite_number, is_number

__all__ = [
    "CRat",
    "PolySymbol",
    "HbarSeries",
    "moyal_star",
    "half_moyal",
    "poisson_bracket",
    "star_commutator",
    "associativity_defect",
    "symbol_to_obj",
    "symbol_from_obj",
    "series_to_obj",
]


_MINUS_I_POW = [(1, 0), (0, -1), (-1, 0), (0, 1)]  # (-i)^k as (re, im) units


@dataclass(frozen=True)
class CRat:
    """Gaussian rational re + i*im."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "CRat":
        return CRat(Fraction(re), Fraction(im))

    def __add__(self, o: "CRat") -> "CRat":
        return CRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "CRat") -> "CRat":
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "CRat") -> "CRat":
        return CRat(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


_ZERO = CRat.of(0)
_ONE = CRat.of(1)


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial in nvars phase-space variables with CRat coefficients."""

    nvars: int
    terms: dict

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for exps, c in self.terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != self.nvars or any(e < 0 for e in key):
                raise ValueError(f"bad exponent tuple {exps}")
            if not isinstance(c, CRat):
                raise TypeError("coefficients must be CRat")
            if not c.is_zero():
                clean[key] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(nvars: int) -> "PolySymbol":
        return PolySymbol(nvars, {})

    @staticmethod
    def constant(c: CRat, nvars: int) -> "PolySymbol":
        return PolySymbol(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(index: int, nvars: int) -> "PolySymbol":
        if not (0 <= index < nvars):
            raise ValueError("variable index out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return PolySymbol(nvars, {exps: _ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, o: "PolySymbol") -> "PolySymbol":
        self._check(o)
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return PolySymbol(self.nvars, out)

    def __sub__(self, o: "PolySymbol") -> "PolySymbol":
        return self + o.scaled(CRat.of(-1))

    def __mul__(self, o: "PolySymbol") -> "PolySymbol":
        self._check(o)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, _ZERO) + c1 * c2
        return PolySymbol(self.nvars, out)

    def scaled(self, c: CRat) -> "PolySymbol":
        return PolySymbol(self.nvars, {e: v * c for e, v in self.terms.items()})

    def diff(self, var: int) -> "PolySymbol":
        out = {}
        for e, c in self.terms.items():
            if e[var] == 0:
                continue
            key = tuple(x - 1 if i == var else x for i, x in enumerate(e))
            out[key] = out.get(key, _ZERO) + c * CRat.of(e[var])
        return PolySymbol(self.nvars, out)

    def degree(self) -> int:
        """Total degree; 0 for the zero symbol."""
        return max((sum(e) for e in self.terms), default=0)

    def _check(self, o: "PolySymbol") -> None:
        if self.nvars != o.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {o.nvars}")


@dataclass(frozen=True)
class HbarSeries:
    """Formal series Sum_k hbar^k coeffs[k], truncated at order len-1."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __sub__(self, o: "HbarSeries") -> "HbarSeries":
        if len(self.coeffs) != len(o.coeffs):
            raise ValueError("series order mismatch")
        return HbarSeries(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def _bidiff_power(nvars: int, k: int) -> dict:
    """Expansion of (sum_i d_{y_{2i}} d_{z_{2i-1}} - d_{y_{2i-1}} d_{z_{2i}})^k.

    Returns {(f_derivs, g_derivs): integer coefficient}.
    """
    zero = (0,) * nvars
    state = {(zero, zero): 1}
    for _ in range(k):
        nxt: dict = {}
        for (af, ag), c in state.items():
            for i in range(nvars // 2):
                q, p = 2 * i, 2 * i + 1  # x_{2i+1} position, x_{2i+2} momentum
                k1 = (_bump(af, p), _bump(ag, q))
                nxt[k1] = nxt.get(k1, 0) + c
                k2 = (_bump(af, q), _bump(ag, p))
                nxt[k2] = nxt.get(k2, 0) - c
        state = nxt
    return state


def _bump(exps: tuple, i: int) -> tuple:
    return exps[:i] + (exps[i] + 1,) + exps[i + 1:]


# -- integer kernel ------------------------------------------------------
# Symbols enter as Gaussian-integer numerators {exps: (re, im)} over one
# common denominator.  Monomial derivatives carry falling-factorial weights
# and the order-k scale (-i)^k / (2^k k!) is a unit over a denominator, so
# all the work is integer and each output coefficient is reduced once, on
# its way back into a Fraction.

def _numerators(f: PolySymbol) -> tuple[int, dict]:
    den = math.lcm(*(d for c in f.terms.values()
                     for d in (c.re.denominator, c.im.denominator)))
    return den, {e: (c.re.numerator * den // c.re.denominator,
                     c.im.numerator * den // c.im.denominator)
                 for e, c in f.terms.items()}


def _symbol(nvars: int, num: dict, den: int) -> PolySymbol:
    return PolySymbol(nvars, {e: CRat(Fraction(re, den), Fraction(im, den))
                              for e, (re, im) in num.items()})


def _deriv(num: dict, alpha: tuple) -> list:
    """d^alpha of each term as (exps, re, im); perm(e, a) = 0 once a > e."""
    out = []
    for e, (re, im) in num.items():
        w = math.prod(map(math.perm, e, alpha))
        if w:
            out.append((tuple(map(operator.sub, e, alpha)), w * re, w * im))
    return out


def _bidiff(acc: dict, a: dict, b: dict, terms, scale: tuple) -> dict:
    """acc += scale Sum c d^af a d^ag b over ((af, ag), c) in terms.

    a, b and acc are numerator dicts; scale is a Gaussian integer (re, im).
    """
    sr, si = scale
    for (af, ag), c in terms:
        db = _deriv(b, ag)
        for e1, r1, i1 in _deriv(a, af):
            x, y = c * (sr * r1 - si * i1), c * (sr * i1 + si * r1)
            for e2, r2, i2 in db:
                key = tuple(map(operator.add, e1, e2))
                re, im = acc.get(key, (0, 0))
                acc[key] = (re + x * r2 - y * i2, im + x * i2 + y * r2)
    return acc


def _star(acc: dict, a: dict, b: dict, nvars: int, k: int, scale: tuple) -> dict:
    """acc += scale B_k(a, b), B_k the bidifferential power without its scale.

    B_k differentiates k times in each slot, so it is zero, and skipped
    before its expansion is built, once k exceeds either total degree.
    """
    if k <= min(max(map(sum, a), default=-1), max(map(sum, b), default=-1)):
        _bidiff(acc, a, b, _bidiff_power(nvars, k).items(), scale)
    return acc


def _phase_space(order: int, f: PolySymbol, *others: PolySymbol) -> int:
    if order < 0:
        raise ValueError("order must be non-negative")
    for o in others:
        f._check(o)
    if f.nvars % 2 != 0:
        raise ValueError("phase-space symbols need an even variable count")
    return f.nvars


def _star_series(f: PolySymbol, g: PolySymbol, order: int,
                 antisymmetric: bool = False) -> HbarSeries:
    """hbar^k coefficients of f*g, or of f*g - g*f, for k <= order."""
    nvars = _phase_space(order, f, g)
    (fd, fn), (gd, gn) = _numerators(f), _numerators(g)
    out = []
    for k in range(order + 1):
        ur, ui = _MINUS_I_POW[k % 4]
        acc = _star({}, fn, gn, nvars, k, (ur, ui))
        if antisymmetric:
            _star(acc, gn, fn, nvars, k, (-ur, -ui))
        out.append(_symbol(nvars, acc, fd * gd * 2 ** k * math.factorial(k)))
    return HbarSeries(tuple(out))


def moyal_star(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    return _star_series(f, g, order)


def half_moyal(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    """hbar^k coefficient (-i)^k/k! d2^k f d1^k g; the e^{itQ}e^{isP} ordering."""
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("the half expansion is defined for one symplectic pair")
    _phase_space(order, f, g)
    (fd, fn), (gd, gn) = _numerators(f), _numerators(g)
    return HbarSeries(tuple(
        _symbol(2, _bidiff({}, fn, gn, [(((0, k), (k, 0)), 1)], _MINUS_I_POW[k % 4]),
                fd * gd * math.factorial(k))
        for k in range(order + 1)))


def poisson_bracket(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """Sum_i d_p f d_q g - d_q f d_p g over the pairs (q, p) = (x_{2i+1}, x_{2i+2})."""
    nvars = _phase_space(1, f, g)
    (fd, fn), (gd, gn) = _numerators(f), _numerators(g)
    return _symbol(nvars, _star({}, fn, gn, nvars, 1, (1, 0)), fd * gd)


def star_commutator(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    return _star_series(f, g, order, antisymmetric=True)


def associativity_defect(f: PolySymbol, g: PolySymbol, h: PolySymbol,
                         order: int) -> HbarSeries:
    """(f*g)*h - f*(g*h) collected per hbar power; identically zero series.

    Order k of (f*g)*h is (-i)^k/(2^k k!) Sum_m binom(k, m) B_m(B_{k-m}(f, g), h)
    and likewise for f*(g*h), so the defect stays integer until its exit.
    """
    nvars = _phase_space(order, f, g, h)
    # order k lowers the total degree by 2k, so nothing survives past top
    top = min(order, (f.degree() + g.degree() + h.degree()) // 2)
    (fd, fn), (gd, gn), (hd, hn) = map(_numerators, (f, g, h))
    fg = [_star({}, fn, gn, nvars, j, (1, 0)) for j in range(top + 1)]
    gh = [_star({}, gn, hn, nvars, j, (1, 0)) for j in range(top + 1)]
    out = [PolySymbol.zero(nvars)] * (order + 1)
    for k in range(top + 1):
        acc: dict = {}
        for m in range(k + 1):
            sr, si = (math.comb(k, m) * u for u in _MINUS_I_POW[k % 4])
            _star(acc, fg[k - m], hn, nvars, m, (sr, si))
            _star(acc, fn, gh[k - m], nvars, m, (-sr, -si))
        out[k] = _symbol(nvars, acc, fd * gd * hd * 2 ** k * math.factorial(k))
    return HbarSeries(tuple(out))


# -- serialization -------------------------------------------------------

def symbol_to_obj(f: PolySymbol) -> dict:
    terms = []
    for exps in sorted(f.terms):
        c = f.terms[exps].to_complex()
        terms.append({"exps": list(exps), "re": c.real, "im": c.imag})
    return {"nvars": f.nvars, "terms": terms}


def symbol_from_obj(obj) -> PolySymbol:
    if not isinstance(obj, dict) or "nvars" not in obj or "terms" not in obj:
        raise FormatError('symbol document needs "nvars" and "terms"')
    nvars = obj["nvars"]
    if not is_number(nvars, int) or nvars < 1:
        raise FormatError('"nvars" must be a positive integer')
    terms: dict = {}
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise FormatError('"terms" must be a list')
    for i, t in enumerate(raw):
        if not (isinstance(t, dict) and "exps" in t and "re" in t and "im" in t):
            raise FormatError(f'terms[{i}] needs "exps", "re", "im"')
        exps = t["exps"]
        if not (isinstance(exps, list) and len(exps) == nvars
                and all(is_number(e, int) and e >= 0 for e in exps)):
            raise FormatError(f"terms[{i}].exps must be {nvars} non-negative integers")
        for part in ("re", "im"):
            if not is_finite_number(t[part]):
                raise FormatError(f"terms[{i}].{part} must be a finite number")
        # Fraction(float) is exact, so reading floats loses nothing
        c = CRat(Fraction(float(t["re"])), Fraction(float(t["im"])))
        key = tuple(exps)
        terms[key] = terms.get(key, _ZERO) + c
    return PolySymbol(nvars, terms)


def series_to_obj(s: HbarSeries) -> dict:
    return {"order": s.order, "coeffs": [symbol_to_obj(c) for c in s.coeffs]}
