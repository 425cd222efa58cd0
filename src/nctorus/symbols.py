"""Exact polynomial symbols and the Moyal / half-Moyal expansions.

Coefficients are Gaussian rationals (pairs of Fractions), so the series
identities checked downstream (commutator = i hbar, formal associativity
order by order) are exact, not approximate: no float ever enters until a
caller asks for one.  Variables come in symplectic pairs
(x1, x2), (x3, x4), ...; position odd, momentum even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import is_number

__all__ = [
    "CRat",
    "PolySymbol",
    "HbarSeries",
    "moyal_coeff",
    "moyal_star",
    "half_moyal",
    "poisson_bracket",
    "star_commutator",
    "associativity_defect",
    "symbol_to_obj",
    "symbol_from_obj",
    "series_to_obj",
    "SymbolFormatError",
]


class SymbolFormatError(ValueError):
    """Malformed serialized symbol document."""


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

    def degree(self, var: int | None = None) -> int:
        if not self.terms:
            return 0
        if var is None:
            return max(sum(e) for e in self.terms)
        return max(e[var] for e in self.terms)

    def evaluate(self, point) -> complex:
        total = 0.0 + 0.0j
        for e, c in sorted(self.terms.items()):
            val = c.to_complex()
            for x, p in zip(point, e):
                val *= x ** p
            total += val
        return total

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
    if nvars % 2 != 0:
        raise ValueError("phase-space symbols need an even variable count")
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


def _multi_diff(f: PolySymbol, alpha: tuple) -> PolySymbol:
    out = f
    for var, count in enumerate(alpha):
        for _ in range(count):
            out = out.diff(var)
    return out


def moyal_coeff(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """Exact hbar^k coefficient of the star product of f and g."""
    f._check(g)
    re, im = _MINUS_I_POW[k % 4]
    scale = CRat(Fraction(re, 2 ** k * math.factorial(k)),
                 Fraction(im, 2 ** k * math.factorial(k)))
    total = PolySymbol.zero(f.nvars)
    for (af, ag), c in sorted(_bidiff_power(f.nvars, k).items()):
        if c == 0:
            continue
        total = total + (_multi_diff(f, af) * _multi_diff(g, ag)).scaled(CRat.of(c))
    return total.scaled(scale)


def moyal_star(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    if order < 0:
        raise ValueError("order must be non-negative")
    return HbarSeries(tuple(moyal_coeff(f, g, k) for k in range(order + 1)))


def half_moyal(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    """hbar^k coefficient (-i)^k/k! d2^k f d1^k g; the e^{itQ}e^{isP} ordering."""
    if f.nvars != 2 or g.nvars != 2:
        raise ValueError("the half expansion is defined for one symplectic pair")
    if order < 0:
        raise ValueError("order must be non-negative")
    out = []
    for k in range(order + 1):
        re, im = _MINUS_I_POW[k % 4]
        scale = CRat(Fraction(re, math.factorial(k)), Fraction(im, math.factorial(k)))
        out.append((_multi_diff(f, (0, k)) * _multi_diff(g, (k, 0))).scaled(scale))
    return HbarSeries(tuple(out))


def poisson_bracket(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    f._check(g)
    total = PolySymbol.zero(f.nvars)
    for i in range(f.nvars // 2):
        q, p = 2 * i, 2 * i + 1
        total = total + f.diff(p) * g.diff(q) - f.diff(q) * g.diff(p)
    return total


def star_commutator(f: PolySymbol, g: PolySymbol, order: int) -> HbarSeries:
    return moyal_star(f, g, order) - moyal_star(g, f, order)


def associativity_defect(f: PolySymbol, g: PolySymbol, h: PolySymbol,
                         order: int) -> HbarSeries:
    """(f*g)*h - f*(g*h) collected per hbar power; identically zero series."""
    fg = [moyal_coeff(f, g, k) for k in range(order + 1)]
    gh = [moyal_coeff(g, h, k) for k in range(order + 1)]
    out = []
    for k in range(order + 1):
        left = PolySymbol.zero(f.nvars)
        right = PolySymbol.zero(f.nvars)
        for m in range(k + 1):
            left = left + moyal_coeff(fg[k - m], h, m)
            right = right + moyal_coeff(f, gh[k - m], m)
        out.append(left - right)
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
        raise SymbolFormatError('symbol document needs "nvars" and "terms"')
    nvars = obj["nvars"]
    if not is_number(nvars, int) or nvars < 1:
        raise SymbolFormatError('"nvars" must be a positive integer')
    terms: dict = {}
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise SymbolFormatError('"terms" must be a list')
    for i, t in enumerate(raw):
        if not (isinstance(t, dict) and "exps" in t and "re" in t and "im" in t):
            raise SymbolFormatError(f'terms[{i}] needs "exps", "re", "im"')
        exps = t["exps"]
        if not (isinstance(exps, list) and len(exps) == nvars
                and all(is_number(e, int) and e >= 0 for e in exps)):
            raise SymbolFormatError(f"terms[{i}].exps must be {nvars} non-negative integers")
        for part in ("re", "im"):
            if not (is_number(t[part]) and math.isfinite(t[part])):
                raise SymbolFormatError(f"terms[{i}].{part} must be a finite number")
        # Fraction(float) is exact, so reading floats loses nothing
        c = CRat(Fraction(float(t["re"])), Fraction(float(t["im"])))
        key = tuple(exps)
        terms[key] = terms.get(key, _ZERO) + c
    return PolySymbol(nvars, terms)


def series_to_obj(s: HbarSeries) -> dict:
    return {"order": s.order, "coeffs": [symbol_to_obj(c) for c in s.coeffs]}
