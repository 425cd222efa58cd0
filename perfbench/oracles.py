"""Independent computations the benchmark checks nctorus outputs against.

Nothing here calls nctorus: every reference is the benchmark's own code
(direct sums, its own clock/shift matrices, closed-form Gaussian
integrals, exact polynomial arithmetic), or a property the method must
have.  Each ``check_*`` function returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# -- q-twisted lattice products ------------------------------------------


def phase_pow(q, e: np.ndarray) -> np.ndarray:
    """q**e for an integer array e; rational q reduces the exponent exactly."""
    e = np.asarray(e, dtype=np.int64)
    if q.kind == "rational":
        return np.exp(2j * np.pi * ((q.p * e) % q.modulus) / q.modulus)
    return np.exp(1j * q.theta_value * e)


def product_sites(f: np.ndarray, g: np.ndarray, q, sites) -> np.ndarray:
    """(fg)_{k,l} = sum f_{m,n} g_{k-m,l-n} q^{-n(k-m)} at the given (k, l).

    f and g are centred coefficient boxes (shape (2r+1, 2s+1)); sites is
    an (S, 2) integer array.  A plain direct sum over f's box.
    """
    rfk, rfl = (f.shape[0] - 1) // 2, (f.shape[1] - 1) // 2
    rgk, rgl = (g.shape[0] - 1) // 2, (g.shape[1] - 1) // 2
    m = np.arange(-rfk, rfk + 1)[:, None]
    n = np.arange(-rfl, rfl + 1)[None, :]
    out = np.empty(len(sites), dtype=np.complex128)
    for i, (k, l) in enumerate(np.asarray(sites, dtype=np.int64)):
        dk, dl = k - m, l - n
        inside = (np.abs(dk) <= rgk) & (np.abs(dl) <= rgl)
        gv = np.where(inside, g[np.clip(dk + rgk, 0, 2 * rgk),
                                np.clip(dl + rgl, 0, 2 * rgl)], 0.0)
        out[i] = np.sum(f * gv * phase_pow(q, -n * dk))
    return out


def product_full(f: np.ndarray, g: np.ndarray, q) -> np.ndarray:
    """Every coefficient of fg on the box of radii r_f + r_g."""
    rk = (f.shape[0] + g.shape[0] - 2) // 2
    rl = (f.shape[1] + g.shape[1] - 2) // 2
    kk, ll = np.meshgrid(np.arange(-rk, rk + 1), np.arange(-rl, rl + 1), indexing="ij")
    sites = np.stack([kk.ravel(), ll.ravel()], axis=1)
    return product_sites(f, g, q, sites).reshape(2 * rk + 1, 2 * rl + 1)


def embed(c: np.ndarray, rk: int, rl: int) -> np.ndarray:
    """Zero-pad a centred box out to radii (rk, rl)."""
    out = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
    ck, cl = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    out[rk - ck: rk + ck + 1, rl - cl: rl + cl + 1] = c
    return out


def adjoint_coeffs(c: np.ndarray, q) -> np.ndarray:
    """(f*)_{k,l} = conj(f_{-k,-l}) q^{-kl}, from U* = U^-1, V* = V^-1."""
    rk, rl = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    kk = np.arange(-rk, rk + 1)[:, None]
    ll = np.arange(-rl, rl + 1)[None, :]
    return np.conj(c[::-1, ::-1]) * phase_pow(q, -kk * ll)


# -- clock/shift fibers ----------------------------------------------------


def clock_shift(q) -> tuple[np.ndarray, np.ndarray]:
    """Shift U0 (U0[i, i+1] = 1) and clock V0 = diag(q^j); U0 V0 = q V0 U0."""
    n = q.modulus
    u0 = np.roll(np.eye(n, dtype=np.complex128), 1, axis=1)
    v0 = np.diag(phase_pow(q, np.arange(n)))
    return u0, v0


def fiber_value(c: np.ndarray, q, u: complex, v: complex) -> np.ndarray:
    """sum c_{k,l} (u U0)^k (v V0)^l with explicit matrix powers."""
    n = q.modulus
    u0, v0 = clock_shift(q)
    upow = [np.linalg.matrix_power(u0, s) for s in range(n)]
    vpow = [np.linalg.matrix_power(v0, t) for t in range(n)]
    rk, rl = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(c.shape[0]):
        k = i - rk
        for j in range(c.shape[1]):
            l = j - rl
            if c[i, j] != 0:
                out += c[i, j] * (u ** k) * (v ** l) * (upow[k % n] @ vpow[l % n])
    return out


def grid_points(count: int) -> list[tuple[complex, complex]]:
    """count x count unit pairs at irrational offsets (the fiber_grid layout)."""
    off_u = (math.sqrt(5.0) - 1.0) / 2.0
    off_v = math.sqrt(2.0) - 1.0
    us = [complex(np.exp(2j * np.pi * (j + off_u) / count)) for j in range(count)]
    vs = [complex(np.exp(2j * np.pi * (j + off_v) / count)) for j in range(count)]
    return [(u, v) for u in us for v in vs]


def _rel(x, ref) -> float:
    x = np.asarray(x)
    ref = np.asarray(ref)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    return float(np.max(np.abs(x - ref))) / max(scale, 1e-300) if x.size else 0.0


# -- checks: torus -------------------------------------------------------


def generating_value(c: np.ndarray, w: complex, z: complex) -> complex:
    """sum_{k,l} c_{k,l} w^k z^l over a centred box."""
    rk, rl = (c.shape[0] - 1) // 2, (c.shape[1] - 1) // 2
    return complex(w ** np.arange(-rk, rk + 1) @ c @ z ** np.arange(-rl, rl + 1))


def product_generating_value(f: np.ndarray, g: np.ndarray, q, w: complex,
                             z: complex) -> complex:
    """sum_{k,l} (fg)_{k,l} w^k z^l without forming fg:
    sum_{n,a} F[n] q^{-na} G[a], F[n] = sum_m f_{m,n} w^m z^n,
    G[a] = sum_b g_{a,b} w^a z^b."""
    rfk, rfl = (f.shape[0] - 1) // 2, (f.shape[1] - 1) // 2
    rgk, rgl = (g.shape[0] - 1) // 2, (g.shape[1] - 1) // 2
    n = np.arange(-rfl, rfl + 1)
    a = np.arange(-rgk, rgk + 1)
    big_f = (w ** np.arange(-rfk, rfk + 1) @ f) * z ** n
    big_g = (g @ z ** np.arange(-rgl, rgl + 1)) * w ** a
    return complex(big_f @ phase_pow(q, -np.outer(n, a)) @ big_g)


def check_q_mul(f: np.ndarray, g: np.ndarray, q, out: np.ndarray,
                rng: np.random.Generator, tol: float = 1e-12) -> list[str]:
    """Direct sum at every site (radius <= 8) or at 64 sampled sites, and a
    generating-function value at a random point of the unit torus, which
    every coefficient moves.  Irrational q adds tr(fg) = tr(gf) and
    (fg)* = g* f* on sampled sites."""
    want_shape = (f.shape[0] + g.shape[0] - 1, f.shape[1] + g.shape[1] - 1)
    if out.shape != want_shape:
        return [f"q_mul box {out.shape} != {want_shape}"]
    errs = []
    scale = float(np.sum(np.abs(f))) * float(np.max(np.abs(g)))
    rk, rl = (out.shape[0] - 1) // 2, (out.shape[1] - 1) // 2

    def sampled():
        return np.stack([rng.integers(-rk, rk + 1, 64), rng.integers(-rl, rl + 1, 64)], 1)

    if max(f.shape + g.shape) <= 17:
        gap = float(np.max(np.abs(out - product_full(f, g, q))))
    else:
        sites = sampled()
        gap = float(np.max(np.abs(out[sites[:, 0] + rk, sites[:, 1] + rl]
                                  - product_sites(f, g, q, sites))))
    if not gap <= tol * scale:
        errs.append(f"q_mul direct sum gap {gap:.3e} > {tol * scale:.3e}")
    w, z = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    gap = abs(generating_value(out, w, z) - product_generating_value(f, g, q, w, z))
    if not gap <= tol * scale * math.sqrt(out.size):
        errs.append(f"q_mul generating value gap {gap:.3e}")
    if q.kind == "irrational":
        gf0 = product_sites(g, f, q, np.array([[0, 0]]))[0]
        if not abs(out[rk, rl] - gf0) <= tol * scale:
            errs.append(f"tr(fg) - tr(gf) = {abs(out[rk, rl] - gf0):.3e}")
        sites = sampled()
        lhs = adjoint_coeffs(out, q)[sites[:, 0] + rk, sites[:, 1] + rl]
        rhs = product_sites(adjoint_coeffs(g, q), adjoint_coeffs(f, q), q, sites)
        gap = float(np.max(np.abs(lhs - rhs)))
        if not gap <= tol * scale:
            errs.append(f"(fg)* - g* f* gap {gap:.3e}")
    return errs


def check_inner_derivation(a: np.ndarray, f: np.ndarray, q, out: np.ndarray,
                           tol: float = 1e-12) -> list[str]:
    """apply_derivation(ad(a), f) against a f - f a from the direct sum."""
    af = product_full(a, f, q)
    fa = product_full(f, a, q)
    rk = max((out.shape[0] - 1) // 2, (af.shape[0] - 1) // 2)
    rl = max((out.shape[1] - 1) // 2, (af.shape[1] - 1) // 2)
    gap = float(np.max(np.abs(embed(out, rk, rl) - embed(af - fa, rk, rl))))
    scale = float(np.sum(np.abs(a))) * float(np.sum(np.abs(f)))
    if not gap <= tol * scale:
        return [f"ad(a) f gap {gap:.3e} > {tol * scale:.3e}"]
    return []


def derivation_relation_residual(du: np.ndarray, dv: np.ndarray, q) -> float:
    """max |u_{k,l-1}(1 - q^{1-k}) + v_{k-1,l}(1 - q^{1-l})| over all sites."""
    rk = max(du.shape[0], dv.shape[0]) // 2 + 2
    rl = max(du.shape[1], dv.shape[1]) // 2 + 2
    u = embed(du, rk + 1, rl + 1)
    v = embed(dv, rk + 1, rl + 1)
    k = np.arange(-rk, rk + 1)[:, None]
    l = np.arange(-rl, rl + 1)[None, :]
    # u_{k,l-1}: shift the l index down by one; v_{k-1,l}: shift k down by one
    u_sh = u[1:-1, :-2]
    v_sh = v[:-2, 1:-1]
    r = u_sh * (1.0 - phase_pow(q, 1 - k)) + v_sh * (1.0 - phase_pow(q, 1 - l))
    return float(np.max(np.abs(r)))


def check_derivation_report(du: np.ndarray, dv: np.ndarray, q, ok: bool,
                            max_residual: float, tol: float = 1e-12) -> list[str]:
    """The report of check_derivation_relation on ad(a): ok, and a residual
    that matches the benchmark's own evaluation of the relation."""
    mine = derivation_relation_residual(du, dv, q)
    scale = float(np.sum(np.abs(du)) + np.sum(np.abs(dv)))
    errs = []
    if not ok:
        errs.append("inner derivation reported as violating the relation")
    if not abs(max_residual - mine) <= tol * scale:
        errs.append(f"relation residual {max_residual:.3e} vs own {mine:.3e}")
    return errs


# -- checks: matrix fibers ------------------------------------------------


def fiber_residual(pairs, points) -> float:
    """max over fibers of ||lhs - rhs||_2 with lhs/rhs from a callback."""
    return max(float(np.linalg.norm(pairs(u, v), 2)) for u, v in points)


def check_fiber_residual(reported: float, mine: float, scale: float,
                         tol: float = 1e-12) -> list[str]:
    """A residual the program reported against the benchmark's own
    recomputation with the exact 2-norm.  Both must be round-off small and
    they must agree to that level."""
    errs = []
    if not mine <= tol * scale:
        errs.append(f"own fiber residual {mine:.3e} > {tol * scale:.3e}")
    if not abs(reported - mine) <= tol * scale:
        errs.append(f"reported residual {reported:.3e} vs own {mine:.3e}")
    return errs


# -- checks: GNS ------------------------------------------------------------


def quotient_tables(q, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Structure tensor T[i, k, j] (e_i e_j = sum_k T[i,k,j] e_k) and star
    matrix of the quotient U^N = V^N = 1, from
    U^s V^t U^s2 V^t2 = q^{-t s2} U^{s+s2} V^{t+t2}."""
    labels = [(s, t) for s in range(n) for t in range(n)]
    return _tables(q, labels, lambda s, t: (s % n, t % n))


def box_tables(q, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The same tables on the box [-r, r]^2, products leaving the box cut."""
    labels = [(k, l) for k in range(-radius, radius + 1) for l in range(-radius, radius + 1)]
    return _tables(q, labels, lambda k, l: (k, l))


def _tables(q, labels, reduce):
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    lm = np.zeros((dim, dim, dim), dtype=np.complex128)
    for i, (s, t) in enumerate(labels):
        for j, (s2, t2) in enumerate(labels):
            k = idx.get(reduce(s + s2, t + t2))
            if k is not None:
                lm[i, k, j] = phase_pow(q, np.array(-t * s2))
    star = np.zeros((dim, dim), dtype=np.complex128)
    for i, (s, t) in enumerate(labels):
        star[i, idx[reduce(-s, -t)]] = phase_pow(q, np.array(-s * t))
    return lm, star


def vector_state(q, xi: np.ndarray) -> np.ndarray:
    """phi(U^s V^t) = <xi, U0^s V0^t xi> over the quotient basis order."""
    n = q.modulus
    u0, v0 = clock_shift(q)
    return np.array([np.vdot(xi, np.linalg.matrix_power(u0, s)
                             @ np.linalg.matrix_power(v0, t) @ xi)
                     for s in range(n) for t in range(n)])


def check_gns(algebra, triplet, program_gram: np.ndarray, phi: np.ndarray, tables,
              want_dim: int, q, trace_form: bool, gen_uv=None, tol: float = 1e-10) -> list[str]:
    """GNS triplet and its algebra against the benchmark's own tables:
    structure constants, the program's Gram matrix of the form (the
    identity for the trace form), orthonormality of the returned quotient
    basis in that Gram, quotient dimension, <Omega, pi(e_m) Omega> =
    phi(e_m), and for the quotient pi(U) pi(V) = q pi(V) pi(U)."""
    lm, star = tables
    errs = []
    if algebra.lmats.shape != lm.shape:
        return [f"algebra tables {algebra.lmats.shape} != {lm.shape}"]
    gap = max(float(np.max(np.abs(algebra.lmats - lm))),
              float(np.max(np.abs(algebra.starmat - star))))
    if not gap <= tol:
        errs.append(f"structure tables differ by {gap:.3e}")
    # G_ij = phi(e_i* e_j) = sum_{m,r} star[i,m] T[m,r,j] phi[r]
    gram = star @ np.einsum("mrj,r->mj", lm, phi)
    if trace_form:
        gram = np.eye(len(phi))  # tr(e_i* e_j) = delta_ij for the monomial basis
    gap = float(np.max(np.abs(program_gram - gram)))
    if not gap <= tol:
        errs.append(f"program Gram matrix differs from "
                    f"{'the identity' if trace_form else 'the tables Gram'} by {gap:.3e}")
    if triplet.quotient_dim != want_dim:
        errs.append(f"quotient_dim {triplet.quotient_dim} != {want_dim}")
        return errs
    b = triplet.basis
    gap = float(np.max(np.abs(b.conj().T @ gram @ b - np.eye(want_dim))))
    if not gap <= tol:
        errs.append(f"quotient basis not orthonormal in the Gram matrix: {gap:.3e}")
    om = triplet.omega
    recon = np.array([np.vdot(om, p @ om) for p in triplet.pi_mats])
    gap = float(np.max(np.abs(recon - phi)))
    if not gap <= tol:
        errs.append(f"<Omega, pi(e_m) Omega> - phi(e_m) = {gap:.3e}")
    if gen_uv is not None:
        pu, pv = (triplet.pi_mats[i] for i in gen_uv)
        gap = float(np.max(np.abs(pu @ pv - q.q * (pv @ pu))))
        if not gap <= tol:
            errs.append(f"pi(U)pi(V) - q pi(V)pi(U) = {gap:.3e}")
    return errs


# -- checks: Moyal symbols ----------------------------------------------------
# A polynomial is {exponent tuple: (Fraction re, Fraction im)}; variable 0
# is position, variable 1 momentum.


def _poly(symbol) -> dict:
    return {e: (c.re, c.im) for e, c in symbol.terms.items()}


def _pmul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, (a, b) in f.items():
        for e2, (c, d) in g.items():
            k = tuple(x + y for x, y in zip(e1, e2))
            re, im = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (re + a * c - b * d, im + a * d + b * c)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _pdiff(f: dict, var: int) -> dict:
    out = {}
    for e, (a, b) in f.items():
        if e[var]:
            k = tuple(x - (i == var) for i, x in enumerate(e))
            out[k] = (a * e[var], b * e[var])
    return out


def _psub(f: dict, g: dict) -> dict:
    out = dict(f)
    for k, (c, d) in g.items():
        a, b = out.get(k, (Fraction(0), Fraction(0)))
        out[k] = (a - c, b - d)
    return {k: v for k, v in out.items() if v != (0, 0)}


def poisson(f: dict, g: dict) -> dict:
    """{f, g} = d_p f d_q g - d_q f d_p g (q = x1 position, p = x2 momentum)."""
    return _psub(_pmul(_pdiff(f, 1), _pdiff(g, 0)), _pmul(_pdiff(f, 0), _pdiff(g, 1)))


def check_moyal(f, g, fg_series, gf_series) -> list[str]:
    """Order 0 is the pointwise product and the order-1 commutator is
    -i {f, g}, both exactly."""
    pf, pg = _poly(f), _poly(g)
    errs = []
    if _poly(fg_series.coeffs[0]) != _pmul(pf, pg):
        errs.append("order-0 star coefficient is not the pointwise product")
    comm = _psub(_poly(fg_series.coeffs[1]), _poly(gf_series.coeffs[1]))
    minus_i_pb = {k: (b, -a) for k, (a, b) in poisson(pf, pg).items()}
    if comm != minus_i_pb:
        errs.append("order-1 star commutator is not -i times the Poisson bracket")
    return errs


# -- checks: twisted products of Gaussians -------------------------------------


class Gauss:
    """amp * exp(-1/2 y^T P y + alpha^T y + gamma) on the plane, with P a
    complex symmetric 2x2 matrix whose real part is positive definite."""

    def __init__(self, p, alpha, gamma, amp):
        self.p = np.asarray(p, dtype=np.complex128)
        self.alpha = np.asarray(alpha, dtype=np.complex128)
        self.gamma = complex(gamma)
        self.amp = complex(amp)

    @staticmethod
    def bump(center, width, momentum, amp) -> "Gauss":
        """The gaussian_2d parametrisation."""
        w2 = np.array(width, dtype=float) ** 2
        c = np.array(center, dtype=float)
        return Gauss(np.diag(1.0 / w2), c / w2 + 1j * np.array(momentum),
                     -float(np.sum(c * c / (2.0 * w2))), amp)

    def gauged(self, hbar: float) -> "Gauss":
        """Times e^{-(i hbar/2) x1 x2}, the forward gauge phase."""
        k = 0.5j * hbar * np.array([[0.0, 1.0], [1.0, 0.0]])
        return Gauss(self.p + k, self.alpha, self.gamma, self.amp)

    def values(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        quad = self.p[0, 0] * x1 * x1 + 2 * self.p[0, 1] * x1 * x2 + self.p[1, 1] * x2 * x2
        return self.amp * np.exp(-0.5 * quad + self.alpha[0] * x1 + self.alpha[1] * x2
                                 + self.gamma)


def gauss_product(kind: str, a: Gauss, b: Gauss, hbar: float,
                  x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Closed form of the twisted product of two Gaussians at points x.

    ordered:    int a(x-y) b(y) e^{i hbar (x2 - y2) y1} dy
    symplectic: int a(x-y) b(y) e^{-(i hbar/2)(x1 y2 - y1 x2)} dy
    group:      int a(y) b(x-y) e^{(i hbar/2)(x1 y2 - y1 x2)} dy
    Each integrand is exp(-1/2 y^T M y + beta(x)^T y + c(x)), whose integral
    is 2 pi / sqrt(det M) exp(1/2 beta^T M^-1 beta + c).
    """
    if kind == "group":
        outer, inner = b, a          # b carries x - y
        lin = (-0.5j * hbar * x2, 0.5j * hbar * x1)
    else:
        outer, inner = a, b
        lin = ((1j * hbar * x2, 0.0 * x1) if kind == "ordered"
               else (0.5j * hbar * x2, -0.5j * hbar * x1))
    m = outer.p + inner.p
    if kind == "ordered":
        m = m + 1j * hbar * np.array([[0.0, 1.0], [1.0, 0.0]])
    po = outer.p
    beta1 = po[0, 0] * x1 + po[0, 1] * x2 - outer.alpha[0] + inner.alpha[0] + lin[0]
    beta2 = po[1, 0] * x1 + po[1, 1] * x2 - outer.alpha[1] + inner.alpha[1] + lin[1]
    mi = np.linalg.inv(m)
    quad_b = mi[0, 0] * beta1 * beta1 + 2 * mi[0, 1] * beta1 * beta2 + mi[1, 1] * beta2 * beta2
    c = (-0.5 * (po[0, 0] * x1 * x1 + 2 * po[0, 1] * x1 * x2 + po[1, 1] * x2 * x2)
         + outer.alpha[0] * x1 + outer.alpha[1] * x2 + outer.gamma + inner.gamma)
    pref = outer.amp * inner.amp * 2.0 * np.pi / np.sqrt(np.linalg.det(m))
    return pref * np.exp(0.5 * quad_b + c)


def grid_axes(grid):
    """(t, s) mesh of a GridFunction2D's sample points, computed here."""
    t = -grid.half_extent_t + (2.0 * grid.half_extent_t / grid.n_t) * np.arange(grid.n_t)
    s = -grid.half_extent_s + (2.0 * grid.half_extent_s / grid.n_s) * np.arange(grid.n_s)
    return np.meshgrid(t, s, indexing="ij")


def check_close(name: str, values: np.ndarray, ref: np.ndarray, tol: float) -> list[str]:
    """max |values - ref| / max |ref| within tol."""
    if values.shape != ref.shape:
        return [f"{name}: shape {values.shape} != {ref.shape}"]
    gap = _rel(values, ref)
    return [] if gap <= tol else [f"{name}: relative gap {gap:.3e} > {tol:.1e}"]


def rel_l2(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y)) / max(float(np.linalg.norm(y)), 1e-300)
