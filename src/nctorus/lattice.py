"""Truncated two-index coefficient lattices and the unit-modulus twist parameter.

A ``CoeffLattice2`` stores complex coefficients f_{k,l} on the box
[-radius_k, radius_k] x [-radius_l, radius_l]; reads outside the box are
exactly zero.  The box is the element: no operation infers decay, and
products enlarge the box instead of truncating.  ``PhaseQ`` is the twist
q = e^{i theta}, tagged rational (theta = 2*pi*p/N with gcd(p, N) = 1,
so N is the minimal period of q) or irrational (any real theta).
``PhaseQ.pow`` is the package's one rule for q^e.

All values are immutable after construction and every function here is
pure, so concurrent use on shared inputs is safe.  Reductions run in
lexicographic index order (k ascending, then l ascending) so results are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

import numpy as np

__all__ = [
    "PhaseQ",
    "CoeffLattice2",
    "seminorm",
    "to_primed",
    "retruncate",
    "lattice_to_obj",
    "lattice_from_obj",
    "phaseq_to_obj",
    "phaseq_from_obj",
    "pairs_from_list",
    "pairs_to_list",
    "values_from_list",
    "FormatError",
    "MismatchError",
]

_TAU = 2.0 * math.pi

# The largest N in lowest terms of a rational twist: p * (e mod 2N), with
# p < N, then fits an int64, so exponent arithmetic stays exact in NumPy.
MAX_TWIST_MODULUS = 2 ** 31


class FormatError(ValueError):
    """Bad input: a malformed document, field or command line flag.

    The message names the offending field, file or flag.  The command line
    also raises it for an --out path it cannot write and for a report that
    JSON cannot spell; each exits with code 2.
    """


class MismatchError(ValueError):
    """Operands that cannot be combined, such as different twists or grids."""


def _wrap_angle(theta: float) -> float:
    # representative in (-pi, pi]; the half-power branch below depends on it
    r = math.remainder(theta, _TAU)
    if r <= -math.pi:
        r += _TAU
    return r


@dataclass(frozen=True)
class PhaseQ:
    """Unit-modulus twist q = e^{i theta}.

    Use :meth:`rational` or :meth:`irrational` to construct.  Rational
    values keep (p, N) in lowest terms with 0 <= p < N, so integer powers
    of q reduce exactly mod N before any floating evaluation.
    """

    kind: str
    p: int = 0
    modulus: int = 1
    theta_value: float = 0.0

    @staticmethod
    def rational(p: int, n: int) -> "PhaseQ":
        if n <= 0:
            raise ValueError("modulus must be a positive integer")
        p = p % n
        g = math.gcd(p, n)
        if g > 1:
            p //= g
            n //= g
        if n > MAX_TWIST_MODULUS:
            raise ValueError(f"modulus {n} in lowest terms is above the limit "
                             f"{MAX_TWIST_MODULUS}")
        return PhaseQ(kind="rational", p=p, modulus=n, theta_value=_TAU * p / n)

    @staticmethod
    def irrational(theta: float) -> "PhaseQ":
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        return PhaseQ(kind="irrational", theta_value=_wrap_angle(theta))

    @property
    def q(self) -> complex:
        return self.pow(1)

    def pow(self, e: int | np.ndarray) -> complex | np.ndarray:
        """q**e for an integer or an integer array e.

        For rational q the exponent is reduced mod N in integers, so the one
        floating step is exp(2 pi i r / N) with r = p e mod N, and q**e and
        q**(e + N) are the same bits.
        """
        if self.kind == "rational":
            r = self.p * np.asarray(e % self.modulus, dtype=np.int64) % self.modulus
            return np.exp(2j * np.pi * r / self.modulus)
        return np.exp(1j * self.theta_value * np.asarray(e, dtype=np.int64))

    def half_pow_array(self, exponents: np.ndarray) -> np.ndarray:
        """q**(e/2) on the principal branch: q^(1/2) = e^{i theta/2}, theta in (-pi, pi]."""
        e = np.asarray(exponents, dtype=np.int64)
        if self.kind == "rational":
            n = self.modulus
            p = self.p - n if 2 * self.p > n else self.p
            r = p * (e % (2 * n)) % (2 * n)
            return np.exp(1j * np.pi * r / n)
        return np.exp(0.5j * self.theta_value * e)


def phaseq_to_obj(q: PhaseQ) -> dict:
    if q.kind == "rational":
        return {"rational": [q.p, q.modulus]}
    return {"theta": q.theta_value}


def is_number(x, kind=(int, float)) -> bool:
    # JSON true/false arrive as bool, an int subclass; they are not numbers here
    return isinstance(x, kind) and not isinstance(x, bool)


def is_finite_number(x) -> bool:
    """A JSON number that converts to a finite float."""
    try:
        return is_number(x) and math.isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def phaseq_from_obj(obj) -> PhaseQ:
    if not isinstance(obj, dict):
        raise FormatError(f"phase must be an object, got {type(obj).__name__}")
    if "rational" in obj:
        pair = obj["rational"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError('field "rational" must be a pair [p, N]')
        p, n = pair
        if not (is_number(p, int) and is_number(n, int)):
            raise FormatError('field "rational" entries must be integers')
        try:
            return PhaseQ.rational(p, n)
        except ValueError as exc:
            raise FormatError(f'field "rational": {exc}') from None
    if "theta" in obj:
        t = obj["theta"]
        if not is_finite_number(t):
            raise FormatError('field "theta" must be a finite number')
        return PhaseQ.irrational(float(t))
    raise FormatError('phase object needs a "rational" or "theta" field')


@dataclass(frozen=True)
class CoeffLattice2:
    """Complex coefficients on [-radius_k, radius_k] x [-radius_l, radius_l]."""

    radius_k: int
    radius_l: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.radius_k < 0 or self.radius_l < 0:
            raise ValueError("radii must be non-negative")
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        want = (2 * self.radius_k + 1, 2 * self.radius_l + 1)
        if arr.shape != want:
            raise ValueError(f"coefficient array shape {arr.shape} != {want}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- construction -------------------------------------------------

    @staticmethod
    def zeros(radius_k: int, radius_l: int) -> "CoeffLattice2":
        return CoeffLattice2(radius_k, radius_l,
                             np.zeros((2 * radius_k + 1, 2 * radius_l + 1), dtype=np.complex128))

    @staticmethod
    def delta(k: int, l: int) -> "CoeffLattice2":
        """1 at (k, l) on the smallest box holding it."""
        rk, rl = abs(k), abs(l)
        arr = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
        arr[k + rk, l + rl] = 1.0
        return CoeffLattice2(rk, rl, arr)

    @staticmethod
    def from_entries(entries: dict) -> "CoeffLattice2":
        if not entries:
            return CoeffLattice2.zeros(0, 0)
        rk = max(abs(k) for k, _ in entries)
        rl = max(abs(l) for _, l in entries)
        arr = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
        for (k, l), v in entries.items():
            arr[k + rk, l + rl] += v
        return CoeffLattice2(rk, rl, arr)

    # -- access -------------------------------------------------------

    def get(self, k: int, l: int) -> complex:
        if abs(k) > self.radius_k or abs(l) > self.radius_l:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.radius_k, l + self.radius_l])

    def k_range(self) -> np.ndarray:
        return np.arange(-self.radius_k, self.radius_k + 1)

    def l_range(self) -> np.ndarray:
        return np.arange(-self.radius_l, self.radius_l + 1)

    def support(self) -> Iterator[tuple[int, int, complex]]:
        """Nonzero entries in lexicographic order (k ascending, then l)."""
        for i, j in zip(*np.nonzero(self.coeffs)):
            yield int(i) - self.radius_k, int(j) - self.radius_l, complex(self.coeffs[i, j])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    # -- arithmetic (box grows to the union; coefficients exact) -------

    def _embedded(self, rk: int, rl: int) -> np.ndarray:
        out = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
        out[rk - self.radius_k: rk + self.radius_k + 1,
            rl - self.radius_l: rl + self.radius_l + 1] = self.coeffs
        return out

    def expanded(self, radius_k: int, radius_l: int) -> "CoeffLattice2":
        """Zero-pad out to at least the given radii (never shrinks)."""
        rk = max(radius_k, self.radius_k)
        rl = max(radius_l, self.radius_l)
        return CoeffLattice2(rk, rl, self._embedded(rk, rl))

    def _union(self, other: "CoeffLattice2") -> tuple[int, int, np.ndarray, np.ndarray]:
        """The union box's radii and both operands embedded in it."""
        rk = max(self.radius_k, other.radius_k)
        rl = max(self.radius_l, other.radius_l)
        return rk, rl, self._embedded(rk, rl), other._embedded(rk, rl)

    def __add__(self, other: "CoeffLattice2") -> "CoeffLattice2":
        rk, rl, a, b = self._union(other)
        return CoeffLattice2(rk, rl, a + b)

    def __sub__(self, other: "CoeffLattice2") -> "CoeffLattice2":
        rk, rl, a, b = self._union(other)
        return CoeffLattice2(rk, rl, a - b)

    def scaled(self, a: complex) -> "CoeffLattice2":
        return CoeffLattice2(self.radius_k, self.radius_l, self.coeffs * a)

    def __neg__(self) -> "CoeffLattice2":
        return self.scaled(-1.0)

    def max_abs_diff(self, other: "CoeffLattice2") -> float:
        _, _, a, b = self._union(other)
        return float(np.max(np.abs(a - b)))


def seminorm(f: CoeffLattice2, m: int) -> float:
    """sup over the box of |f_{k,l}| * (1 + |k| + |l|)**m."""
    if m < 0:
        raise ValueError("seminorm order must be non-negative")
    kk = np.abs(f.k_range())[:, None]
    ll = np.abs(f.l_range())[None, :]
    a = np.abs(f.coeffs)
    # a weight past the float range is inf, and so is then the seminorm of
    # any coefficient it meets; a zero coefficient adds nothing to the sup
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(a * (1.0 + kk + ll) ** m, where=a > 0, initial=0.0))


def to_primed(f: CoeffLattice2, q: PhaseQ) -> CoeffLattice2:
    """Multiply each coefficient by q**(k*l/2) on the principal half-power branch."""
    kk = f.k_range()[:, None]
    ll = f.l_range()[None, :]
    return CoeffLattice2(f.radius_k, f.radius_l, f.coeffs * q.half_pow_array(kk * ll))


def retruncate(f: CoeffLattice2, radius_k: int, radius_l: int) -> tuple[CoeffLattice2, float]:
    """Cut down to the given box; returns (g, sup|discarded coefficient|).

    Truncation is opt-in: nothing else in this module ever drops
    coefficients silently.
    """
    rk = min(radius_k, f.radius_k)
    rl = min(radius_l, f.radius_l)
    inner = f.coeffs[f.radius_k - rk: f.radius_k + rk + 1,
                     f.radius_l - rl: f.radius_l + rl + 1]
    g = CoeffLattice2(rk, rl, inner)
    mask = np.ones(f.coeffs.shape, dtype=bool)
    mask[f.radius_k - rk: f.radius_k + rk + 1,
         f.radius_l - rl: f.radius_l + rl + 1] = False
    tail = float(np.max(np.abs(f.coeffs[mask]))) if mask.any() else 0.0
    return g, tail


# -- serialization ------------------------------------------------------
# Complex arrays travel as JSON lists of [re, im] pairs.  This is the one
# codec for them: lattice, grid, GNS-form and matrix arrays alike.

def pairs_to_list(values: np.ndarray) -> list:
    """Nested lists of [re, im] floats, one level per axis of values."""
    v = np.asarray(values, dtype=np.complex128, order="C")
    return v[..., None].view(np.float64).tolist()


def pairs_from_list(raw: list, bad) -> np.ndarray:
    """The complex128 vector of a JSON list of [re, im] number pairs.

    The exact type scan is needed because NumPy alone reads the string "1.5"
    as 1.5 and true as 1.0.  A list that fails is scanned pair by pair, to
    raise bad(index, problem) for its first bad entry, problem being "pair",
    "number" or "finite" (NaN, an infinity or an integer past the float range).
    """
    try:
        ok = (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
              and set(map(type, chain.from_iterable(raw))) <= {float, int})
        if ok:
            arr = np.fromiter(chain.from_iterable(raw), np.float64, 2 * len(raw))
            ok = bool(np.isfinite(arr).all())
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok:
        for i, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise bad(i, "pair")
            if not (is_number(pair[0]) and is_number(pair[1])):
                raise bad(i, "number")
            if not (is_finite_number(pair[0]) and is_finite_number(pair[1])):
                raise bad(i, "finite")
        arr = np.array(raw, dtype=np.float64)  # int or float subclasses, such as NumPy's
    return arr.view(np.complex128).reshape(-1)


def values_from_list(raw, count: int, what: str) -> np.ndarray:
    """count [re, im] pairs from the field named what, else raise FormatError."""
    if not isinstance(raw, list):
        raise FormatError(f'"{what}" must be a list')
    if len(raw) != count:
        raise FormatError(f'"{what}" has {len(raw)} entries, expected {count}')
    problems = {"pair": "must be a [re, im] pair",
                "number": "must be a [re, im] pair of numbers",
                "finite": "is not finite"}
    return pairs_from_list(raw, lambda i, problem: FormatError(f"{what}[{i}] {problems[problem]}"))


# {"radius_k": int, "radius_l": int, "coeffs": [[re, im], ...]}
# row-major: k from -radius_k to +radius_k outer, l inner.

def lattice_to_obj(f: CoeffLattice2, pairs=pairs_to_list) -> dict:
    """The document of f; pairs encodes the flat coefficient vector."""
    return {
        "radius_k": f.radius_k,
        "radius_l": f.radius_l,
        "coeffs": pairs(f.coeffs.reshape(-1)),
    }


def lattice_from_obj(obj) -> CoeffLattice2:
    if not isinstance(obj, dict):
        raise FormatError(f"lattice must be an object, got {type(obj).__name__}")
    for key in ("radius_k", "radius_l", "coeffs"):
        if key not in obj:
            raise FormatError(f'missing field "{key}"')
    rk, rl = obj["radius_k"], obj["radius_l"]
    if not (is_number(rk, int) and is_number(rl, int)) or rk < 0 or rl < 0:
        raise FormatError('"radius_k" and "radius_l" must be non-negative integers')
    rows, cols = 2 * rk + 1, 2 * rl + 1
    raw = obj["coeffs"]
    if not isinstance(raw, list):
        raise FormatError('"coeffs" must be a list')
    if len(raw) != rows * cols:
        raise FormatError(
            f'"coeffs" has {len(raw)} entries, box ({rk},{rl}) expects {rows * cols}')

    def bad(i, problem):
        if problem != "finite":
            return FormatError(f"coeffs[{i}] must be a [re, im] pair")
        k, l = divmod(i, cols)
        return FormatError(f"coeffs[{i}] (k={k - rk}, l={l - rl}) is not finite")
    return CoeffLattice2(rk, rl, pairs_from_list(raw, bad).reshape(rows, cols))

