"""Finite matrix realization of the rational-q torus and the circle of slope b/a.

For q = e^{2pi i p/N} the clock and shift matrices U0, V0 generate Mat_N
and satisfy U0 V0 = q V0 U0, U0^N = V0^N = I.  A torus element becomes a
matrix-valued function of the fiber point (u, v) on the unit bidisk
boundary through U -> u U0, V -> v V0; this evaluation is multiplicative
and *-preserving, which is the whole point.  Residuals evaluate all fibers
as one (fibers, N, N) stack and take the exact spectral norm of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import PhaseQ
from .torus import TorusElement

__all__ = [
    "clock_shift",
    "eval_section",
    "section_family",
    "equivariance_check",
    "covariance_residual",
    "fiber_grid",
    "homomorphism_residual",
    "star_residual",
    "center_scalar_residual",
    "CircleSpec",
    "circle_eval",
    "circle_check_relations",
    "opnorm",
]


# Largest modulus N with a matrix realization.  Set from run time:
# `nctorus matrep-eval` on a pair of 3 x 3 elements evaluates 256 fibers of
# N x N matrices and their exact norms, and took 0.46 / 1.40 / 2.78 / 4.85 s
# at N = 32 / 64 / 96 / 128 on a 2-core host.
MAX_MODULUS = 64


def _require_rational(q: PhaseQ) -> int:
    if q.kind != "rational":
        raise ValueError("matrix realization needs rational q = e^{2pi i p/N}")
    if q.modulus > MAX_MODULUS:
        raise ValueError(f"q has modulus {q.modulus}, above the matrix "
                         f"realization limit MAX_MODULUS = {MAX_MODULUS}")
    return q.modulus


def clock_shift(q: PhaseQ) -> tuple[np.ndarray, np.ndarray]:
    """Shift U0 (ones on the superdiagonal wrap) and clock V0 = diag(q^j)."""
    n = _require_rational(q)
    u0 = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        u0[i, (i + 1) % n] = 1.0
    v0 = np.diag(q.pow_array(np.arange(n)))
    return u0, v0


def opnorm(m: np.ndarray) -> float:
    """Largest singular value (the exact spectral norm, by SVD)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _max_opnorm(stack: np.ndarray) -> float:
    """Largest spectral norm over a (fibers, N, N) stack; 0.0 when empty."""
    if stack.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))


def _require_unit(name: str, w: np.ndarray) -> None:
    off = np.abs(np.abs(w) - 1.0) > 1e-12
    if off.any():
        got = float(np.abs(w[off][0]))
        raise ValueError(f"{name} must be unit modulus, got |{name}|={got!r}")


def _sections(f: TorusElement, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """eval_section of f at every fiber (us[p], vs[p]), as a (fibers, N, N) stack.

    Coefficients are binned by word (a, b) = (k mod N, l mod N), giving
    W[p, a, b] = Sum f_{k,l} u_p^k v_p^l from one (fibers x support) array.
    U0^a V0^b has q^{b col} at (row, col) with col = (row + a) mod N, so
    the value at (row, col) is Sum_b W[p, (col - row) mod N, b] q^{b col}.
    """
    n = _require_rational(f.q)
    _require_unit("u", us)
    _require_unit("v", vs)
    fc = f.coeffs
    ki, li = np.nonzero(fc.coeffs)
    ks, ls = ki - fc.radius_k, li - fc.radius_l
    phase = (np.power(us[:, None], fc.k_range()[None, :])[:, ki]
             * np.power(vs[:, None], fc.l_range()[None, :])[:, li])
    w = np.zeros((us.size, n * n), dtype=np.complex128)
    np.add.at(w, (slice(None), (ks % n) * n + ls % n), phase * fc.coeffs[ki, li])
    w = w.reshape(-1, n, n)
    idx = np.arange(n)
    x = w @ f.q.pow_array(np.outer(idx, idx))
    return x[:, (idx[None, :] - idx[:, None]) % n, idx[None, :]]


def _grid_arrays(grid) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(grid, dtype=np.complex128).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def eval_section(f: TorusElement, u: complex, v: complex) -> np.ndarray:
    """Sum f_{k,l} u^k v^l U0^{k mod N} V0^{l mod N}: one fiber of _sections."""
    return _sections(f, np.array([u], dtype=np.complex128),
                     np.array([v], dtype=np.complex128))[0]


def section_family(f: TorusElement) -> dict[tuple[int, int, int, int], complex]:
    """Indexed family c_{k,l,s,t} of the re-expanded section of f.

    The (u,v)-expansion of eval_section puts f_{k,l} at matrix word
    (s,t) = (k mod N, l mod N); every other (s,t) coefficient is zero.
    """
    n = _require_rational(f.q)
    fam: dict[tuple[int, int, int, int], complex] = {}
    for k, l, c in f.coeffs.support():
        fam[(k, l, k % n, l % n)] = c
    return fam


def equivariance_check(family: dict[tuple[int, int, int, int], complex],
                       q: PhaseQ) -> tuple[bool, tuple[int, int, int, int] | None]:
    """ok iff every nonzero c_{k,l,s,t} has k = s and l = t mod N."""
    n = _require_rational(q)
    for key in sorted(family):
        if family[key] == 0:
            continue
        k, l, s, t = key
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"word indices out of range at {key}")
        if (k - s) % n != 0 or (l - t) % n != 0:
            return False, key
    return True, None


def covariance_residual(f: TorusElement, u: complex, v: complex,
                        m: int, n_shift: int) -> float:
    """Z_N x Z_N action: moving the fiber by (q^m, q^n) conjugates the value."""
    q = f.q
    u0, v0 = clock_shift(q)
    lhs, mid = _sections(f, np.array([q.pow(m) * u, u], dtype=np.complex128),
                         np.array([q.pow(n_shift) * v, v], dtype=np.complex128))
    un = np.linalg.matrix_power(u0, n_shift % q.modulus)
    vm = np.linalg.matrix_power(v0, m % q.modulus)
    rhs = un @ vm.conj().T @ mid @ vm @ un.conj().T
    return opnorm(lhs - rhs)


def fiber_grid(count: int = 16) -> list[tuple[complex, complex]]:
    """count x count unit pairs, offset by irrational rotations so the grid
    never lands on special symmetry points of any small-N root lattice."""
    off_u = (math.sqrt(5.0) - 1.0) / 2.0
    off_v = math.sqrt(2.0) - 1.0
    us = [complex(np.exp(2j * np.pi * (j + off_u) / count)) for j in range(count)]
    vs = [complex(np.exp(2j * np.pi * (j + off_v) / count)) for j in range(count)]
    return [(u, v) for u in us for v in vs]


def homomorphism_residual(f: TorusElement, g: TorusElement, fg: TorusElement,
                          grid: list[tuple[complex, complex]]) -> float:
    """max over fibers of ||eval(fg) - eval(f) eval(g)||."""
    us, vs = _grid_arrays(grid)
    return _max_opnorm(_sections(fg, us, vs) - _sections(f, us, vs) @ _sections(g, us, vs))


def star_residual(f: TorusElement, fstar: TorusElement,
                  grid: list[tuple[complex, complex]]) -> float:
    """max over fibers of ||eval(f*) - eval(f)^dagger||."""
    us, vs = _grid_arrays(grid)
    return _max_opnorm(_sections(fstar, us, vs)
                       - np.swapaxes(_sections(f, us, vs), 1, 2).conj())


def center_scalar_residual(f: TorusElement,
                           grid: list[tuple[complex, complex]]) -> float:
    """Distance of eval_section(f) from scalar matrices, maximized over fibers.

    Central elements (support on N Z x N Z) must land in C I.
    """
    n = _require_rational(f.q)
    stack = _sections(f, *_grid_arrays(grid))
    scalar = np.trace(stack, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    return _max_opnorm(stack - scalar)


# -- noncommutative circle of slope b/a ---------------------------------

@dataclass(frozen=True)
class CircleSpec:
    """Generators U, V, central Z with U^N = Z^a, V^N = Z^b, Z = U^{Na'}V^{Nb'}."""

    a: int
    b: int
    a_prime: int
    b_prime: int
    q: PhaseQ

    def __post_init__(self):
        _require_rational(self.q)
        if math.gcd(self.a, self.b) != 1:
            raise ValueError(f"need gcd(a,b)=1, got ({self.a},{self.b})")
        if self.a * self.a_prime + self.b * self.b_prime != 1:
            raise ValueError("need a*a' + b*b' = 1 exactly")


def circle_eval(coeffs: dict[tuple[int, int, int], complex], spec: CircleSpec,
                z: complex) -> np.ndarray:
    """Sum c_{j,s,t} Z^j U^s V^t at the fiber z, with Z = z^N, U = z^a U0, V = z^b V0."""
    n = spec.q.modulus
    u0, v0 = clock_shift(spec.q)
    out = np.zeros((n, n), dtype=np.complex128)
    upow = [np.linalg.matrix_power(u0, s) for s in range(n)]
    vpow = [np.linalg.matrix_power(v0, t) for t in range(n)]
    for key in sorted(coeffs):
        j, s, t = key
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"exponents (s,t) must lie in [0,{n - 1}], got {key}")
        c = coeffs[key]
        if c == 0:
            continue
        out += c * (z ** (j * n + spec.a * s + spec.b * t)) * (upow[s] @ vpow[t])
    return out


def _int_matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    # unitary stack m, so negative powers are conjugate-transpose powers
    if k >= 0:
        return np.linalg.matrix_power(m, k)
    return np.linalg.matrix_power(np.swapaxes(m, -1, -2).conj(), -k)


def circle_check_relations(spec: CircleSpec, samples: list[complex]) -> float:
    """Max operator-norm residual of the five defining relations over the samples.

    The fiber generators at z are U = z^a U0, V = z^b V0 and Z = z^N I,
    stacked over the samples.
    """
    n = spec.q.modulus
    z = np.asarray(samples, dtype=np.complex128).reshape(-1)
    _require_unit("z", z)
    u0, v0 = clock_shift(spec.q)
    u = (z ** spec.a)[:, None, None] * u0
    v = (z ** spec.b)[:, None, None] * v0
    zc = (z ** n)[:, None, None] * np.eye(n, dtype=np.complex128)
    return max(
        _max_opnorm(u @ v - spec.q.q * (v @ u)),
        _max_opnorm(zc @ u - u @ zc),
        _max_opnorm(zc @ v - v @ zc),
        _max_opnorm(_int_matrix_power(u, n) - _int_matrix_power(zc, spec.a)),
        _max_opnorm(_int_matrix_power(v, n) - _int_matrix_power(zc, spec.b)),
        _max_opnorm(zc - _int_matrix_power(u, n * spec.a_prime)
                    @ _int_matrix_power(v, n * spec.b_prime)),
    )
