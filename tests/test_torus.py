import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import torus
from nctorus.lattice import MAX_TWIST_MODULUS, CoeffLattice2, MismatchError, PhaseQ
from nctorus.torus import (DerivationCheck, DerivationSpec, TorusElement,
                           adjoint, apply_derivation, check_derivation_relation,
                           d_power, inner_derivation, l2_state, monomial,
                           q_mul, reorder_phase, smooth_seminorm, trace, unit)

Q4 = PhaseQ.rational(1, 4)
QI = PhaseQ.irrational(math.sqrt(2.0))
QBIG = PhaseQ.rational(4099, 65537)


def elem(entries, q=Q4):
    return TorusElement(CoeffLattice2.from_entries(entries), q)


def loop_product(f: TorusElement, g: TorusElement) -> TorusElement:
    """The product as one phased, shifted copy of g per support point of f,
    accumulated in the lexicographic support order of f."""
    q = f.q
    fc, gc = f.coeffs, g.coeffs
    rk = fc.radius_k + gc.radius_k
    rl = fc.radius_l + gc.radius_l
    out = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
    gk = gc.k_range()
    # phase over g's k-offset depends only on n; cache per column index of f
    phase_cache: dict[int, np.ndarray] = {}
    for m, n, c in fc.support():
        ph = phase_cache.get(n)
        if ph is None:
            ph = q.pow(-n * gk)[:, None]
            phase_cache[n] = ph
        i = m + fc.radius_k
        j = n + fc.radius_l
        out[i: i + 2 * gc.radius_k + 1, j: j + 2 * gc.radius_l + 1] += c * (ph * gc.coeffs)
    return TorusElement(CoeffLattice2(rk, rl, out), q)


def loop_derivation_check(d: DerivationSpec, tol: float = 1e-10) -> DerivationCheck:
    """The derivation relation site by site, with scalar powers of q."""
    u, v, q = d.du_value, d.dv_value, d.q
    rk = max(u.radius_k, v.radius_k) + 2
    rl = max(u.radius_l, v.radius_l) + 2
    worst = 0.0
    first: tuple[int, int] | None = None
    for k in range(-rk, rk + 1):
        cu = 1.0 - q.pow(1 - k)
        for l in range(-rl, rl + 1):
            r = abs(u.get(k, l - 1) * cu + v.get(k - 1, l) * (1.0 - q.pow(1 - l)))
            if r > worst:
                worst = r
            if r > tol and first is None:
                first = (k, l)
    return DerivationCheck(worst <= tol, worst, first, tol)


def loop_apply_derivation(d: DerivationSpec, f: TorusElement) -> TorusElement:
    """The Leibniz extension as one weighted, shifted copy of D(U) and one of
    D(V) per support point of f, over the same box as apply_derivation."""
    def weights(power, exps):
        ms = np.arange(power) if power > 0 else np.arange(power, 0)
        return np.sign(power) * q.pow(-np.outer(exps, ms)).sum(axis=1)

    q = d.q
    du, dv = d.du_value, d.dv_value
    fc = f.coeffs
    ki, li = np.nonzero(fc.coeffs)
    ks, ls = ki - fc.radius_k, li - fc.radius_l
    on_u, on_v = ks != 0, ls != 0
    rk = int(max(np.abs(ks).max(initial=0),
                 (np.abs(ks[on_u] - 1) + du.radius_k).max(initial=0),
                 (np.abs(ks[on_v]) + dv.radius_k).max(initial=0)))
    rl = int(max(np.abs(ls).max(initial=0),
                 (np.abs(ls[on_u]) + du.radius_l).max(initial=0),
                 (np.abs(ls[on_v] - 1) + dv.radius_l).max(initial=0)))
    out = np.zeros((2 * rk + 1, 2 * rl + 1), dtype=np.complex128)
    for k, l, c in zip(ks.tolist(), ls.tolist(), fc.coeffs[ki, li].tolist()):
        if k != 0:
            w = weights(k, du.l_range())[None, :] * du.coeffs
            i = rk + k - 1 - du.radius_k
            j = rl + l - du.radius_l
            out[i: i + 2 * du.radius_k + 1, j: j + 2 * du.radius_l + 1] += c * w
        if l != 0:
            w = weights(l, dv.k_range())[:, None] * dv.coeffs
            i = rk + k - dv.radius_k
            j = rl + l - 1 - dv.radius_l
            out[i: i + 2 * dv.radius_k + 1, j: j + 2 * dv.radius_l + 1] += c * w
    return TorusElement(CoeffLattice2(rk, rl, out), q)


def random_elem(rng, rk, rl, q, density=1.0):
    c = rng.normal(size=(2 * rk + 1, 2 * rl + 1)) + 1j * rng.normal(size=(2 * rk + 1, 2 * rl + 1))
    c[rng.random(c.shape) >= density] = 0.0
    return TorusElement(CoeffLattice2(rk, rl, c), q)


def rel_gap(got: TorusElement, want: TorusElement) -> float:
    assert (got.coeffs.radius_k, got.coeffs.radius_l) == (want.coeffs.radius_k,
                                                          want.coeffs.radius_l)
    return got.max_abs_diff(want) / want.coeffs.max_abs()


def chunk_rows(a_shape, b_shape) -> int:
    """Rows of b per chunk of torus._toeplitz_rows: as many as the budget
    holds of one Toeplitz block, one weighted copy of a and one product."""
    (rows, cols), width = a_shape, a_shape[1] + b_shape[1] - 1
    return max(1, torus._CHUNK_BYTES // (16 * (cols * width + rows * (cols + width))))


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
        with pytest.raises(MismatchError):
            q_mul(monomial(1, 0, Q4), monomial(0, 1, QI))

    def test_mixed_phases_spelled_as_documents(self):
        with pytest.raises(MismatchError, match=r'^q mismatch: \{"rational": \[1, 4\]\} '
                                                r'vs \{"theta": 0\.7\}$'):
            q_mul(monomial(1, 0, Q4), monomial(0, 1, PhaseQ.irrational(0.7)))

    def test_phases_exact_up_to_the_modulus_cap(self):
        # N = 2^31 - 1 is prime; the reference reduces -p r^2 in Python integers
        n = MAX_TWIST_MODULUS - 1
        p = n // 7
        q = PhaseQ.rational(p, n)
        assert (q.p, q.modulus) == (p, n)
        for r in range(1, 65):
            want = cmath.exp(2j * math.pi * ((-p * r * r) % n) / n)
            vu = q_mul(monomial(0, r, q), monomial(r, 0, q))
            assert abs(vu.coeffs.get(r, r) - want) < 1e-15
            assert abs(adjoint(monomial(r, r, q)).coeffs.get(-r, -r) - want) < 1e-15


class TestProductAgainstSupportLoop:
    @pytest.mark.parametrize("q", [Q4, QI, QBIG], ids=["rational4", "irrational", "rational65537"])
    @pytest.mark.parametrize("rf,rg", [
        ((0, 5), (7, 0)), ((3, 1), (1, 6)), ((0, 0), (0, 0)), ((0, 0), (4, 3)),
        ((2, 3), (0, 0)), ((5, 0), (0, 5)), ((8, 8), (8, 8)), ((4, 9), (11, 2)),
    ])
    def test_matches_loop(self, rf, rg, q):
        rng = np.random.default_rng(rf + rg)
        f, g = random_elem(rng, *rf, q), random_elem(rng, *rg, q)
        assert rel_gap(q_mul(f, g), loop_product(f, g)) <= 1e-14

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_sparse_f(self, q):
        rng = np.random.default_rng(3)
        f = random_elem(rng, 6, 5, q, density=0.1)
        g = random_elem(rng, 4, 7, q)
        assert 0 < np.count_nonzero(f.coeffs.coeffs) < 20
        assert rel_gap(q_mul(f, g), loop_product(f, g)) <= 1e-14

    @pytest.mark.parametrize("q", [PhaseQ.rational(3, 7), QI])
    def test_chunked_radius(self, q):
        rng = np.random.default_rng(30)
        f, g = random_elem(rng, 30, 30, q), random_elem(rng, 30, 30, q)
        # the 61 rows of g take two chunks or more
        assert chunk_rows(f.coeffs.coeffs.shape, g.coeffs.coeffs.shape) < 61
        assert rel_gap(q_mul(f, g), loop_product(f, g)) <= 1e-14

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(5)
        f, g = random_elem(rng, 9, 7, QI), random_elem(rng, 6, 10, QI)
        first = q_mul(f, g).coeffs.coeffs
        for _ in range(3):
            assert np.array_equal(q_mul(f, g).coeffs.coeffs, first)

    @staticmethod
    def assert_bits_independent_of_chunk_budget(rf, budget, q, monkeypatch):
        rng = np.random.default_rng(6)
        f, g = random_elem(rng, *rf, q), random_elem(rng, 8, 5, q)
        steps, results = [], []
        for b in (1, budget, 1 << 40):
            monkeypatch.setattr(torus, "_CHUNK_BYTES", b)
            steps.append(chunk_rows(f.coeffs.coeffs.shape, g.coeffs.coeffs.shape))
            results.append(q_mul(f, g).coeffs.coeffs)
        # one row of g per chunk, several chunks the last of which is shorter, one chunk
        assert steps[0] == 1 and 1 < steps[1] < 17 <= steps[2] and 17 % steps[1]
        assert rel_gap(TorusElement(CoeffLattice2(rf[0] + 8, rf[1] + 5, results[0]), q),
                       loop_product(f, g)) <= 1e-14
        for other in results[1:]:
            assert np.array_equal(other, results[0])

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_bits_independent_of_chunk_budget(self, q, monkeypatch):
        self.assert_bits_independent_of_chunk_budget((7, 9), 100_000, q, monkeypatch)

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_one_row_bits_independent_of_chunk_budget(self, q, monkeypatch):
        # a one-row f takes numpy's vector-matrix path, whose sums follow the
        # layout of the Toeplitz stack; that layout must not follow the chunk
        self.assert_bits_independent_of_chunk_budget((0, 9), 40_000, q, monkeypatch)

    @pytest.mark.parametrize("kind", ["rational", "irrational"])
    def test_one_row_bits_independent_of_blas_threads(self, kind):
        # BLAS gemv's sums follow the BLAS thread count, so a product of two
        # one-row elements must run in numpy's own loop
        q = "PhaseQ.rational(1, 4)" if kind == "rational" else "PhaseQ.irrational(2 ** 0.5)"
        code = (
            "import sys, numpy as np\n"
            "from nctorus.lattice import CoeffLattice2, PhaseQ\n"
            "from nctorus.torus import TorusElement, q_mul\n"
            f"q = {q}\n"
            "rng = np.random.default_rng(45)\n"
            "f, g = (TorusElement(CoeffLattice2(0, 45, rng.normal(size=(1, 91))\n"
            "                                   + 1j * rng.normal(size=(1, 91))), q) for _ in 'fg')\n"
            "sys.stdout.write(q_mul(f, g).coeffs.coeffs.tobytes().hex())\n")
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, timeout=60,
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))).stdout
                for threads in (1, 2)]
        assert len(outs[0]) == 2 * 16 * 181
        assert outs[0] == outs[1]


def scratch_corpus():
    """Products and derivations whose chunks hold one row, several rows or
    all of them, with one-row and one-column operands on either side."""
    rng = np.random.default_rng(40)
    calls = []
    for q in (PhaseQ.rational(3, 7), QI):
        for r in range(21):
            calls.append((q_mul, random_elem(rng, r, r, q), random_elem(rng, r, r, q)))
        for k, l in ((1, 0), (0, 1), (0, 2)):
            for r in (5, 16):
                g = random_elem(rng, r, r + 1, q)
                calls += [(q_mul, monomial(k, l, q), g), (q_mul, g, monomial(k, l, q))]
        calls.append((q_mul, random_elem(rng, 0, 20, q), random_elem(rng, 20, 3, q)))
        for ra, rf in (((0, 2), (6, 6)), ((2, 2), (12, 12)), ((2, 0), (3, 9))):
            spec = DerivationSpec.from_inner(random_elem(rng, *ra, q))
            calls.append((apply_derivation, spec, random_elem(rng, *rf, q)))
    return calls


def run_calls(calls):
    return [fn(x, y).coeffs.coeffs for fn, x, y in calls]


class TestScratchReuse:
    def test_results_independent_of_history_and_thread(self):
        calls = scratch_corpus()
        first = run_calls(calls)
        again = run_calls(calls[::-1])[::-1]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(2) as pool:
                halves = [pool.submit(run_calls, calls[i::2]) for i in (0, 1)]
                split = [h.result(timeout=120) for h in halves]
        finally:
            sys.setswitchinterval(old)
        threaded = [None] * len(calls)
        threaded[0::2], threaded[1::2] = split
        for want, *got in zip(first, again, threaded):
            for other in got:
                assert np.array_equal(other, want)

    def test_warm_product_allocates_little(self):
        rng = np.random.default_rng(41)
        f, g = random_elem(rng, 16, 16, QI), random_elem(rng, 16, 16, QI)
        q_mul(f, g)
        tracemalloc.start()
        try:
            q_mul(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 << 10  # fresh temporaries took 2.9 MB

    def test_retained_scratch_is_capped(self):
        # a fresh thread starts with no scratch of its own
        rng = np.random.default_rng(42)
        small = random_elem(rng, 4, 4, Q4), random_elem(rng, 3, 5, Q4)
        big = random_elem(rng, 60, 60, Q4), random_elem(rng, 1, 60, Q4)

        def run():
            first = q_mul(*small).coeffs.coeffs
            # one row of big needs a 121 x 241 Toeplitz block, a 121 x 121
            # weighted copy and a 121 x 241 product: more than the cap
            assert 16 * 121 * (241 + 121 + 241) > torus._CHUNK_BYTES
            q_mul(*big)
            kept = torus._scratch.buf.nbytes
            return first, kept, q_mul(*small).coeffs.coeffs

        with ThreadPoolExecutor(1) as pool:
            first, kept, later = pool.submit(run).result(timeout=120)
        assert kept <= torus._CHUNK_BYTES
        assert np.array_equal(later, first)


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

    def test_nan_residual_is_a_violation(self):
        # a NaN residual is not within tol: it is the witness, and apply refuses it
        q = PhaseQ.rational(1, 5)
        du = CoeffLattice2.delta(1, 0).coeffs.copy()
        du[1, 0] = np.nan  # D(U) at (0, 0)
        spec = DerivationSpec(CoeffLattice2(1, 0, du), CoeffLattice2.delta(0, 1), q)
        chk = check_derivation_relation(spec)
        assert not chk.ok and chk.first_violation == (0, 1) and math.isnan(chk.max_residual)
        with pytest.raises(ValueError, match=r"violated at \(0, 1\) with residual nan"):
            apply_derivation(spec, monomial(1, 1, q))

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


class TestApplyDerivationAgainstLoop:
    @staticmethod
    def assert_same(spec, f):
        got, want = apply_derivation(spec, f), loop_apply_derivation(spec, f)
        assert (got.coeffs.radius_k, got.coeffs.radius_l) == (want.coeffs.radius_k,
                                                              want.coeffs.radius_l)
        assert got.max_abs_diff(want) <= 1e-15 * want.coeffs.max_abs()

    @pytest.mark.parametrize("q", [Q4, QI, QBIG, PhaseQ.rational(2, 7)])
    @pytest.mark.parametrize("ra,rf", [((2, 2), (3, 3)), ((2, 1), (4, 2)), ((1, 3), (0, 5)),
                                       ((0, 0), (3, 3)), ((2, 2), (0, 0)), ((3, 2), (6, 1)),
                                       ((2, 2), (9, 9))])
    def test_inner(self, q, ra, rf):
        rng = np.random.default_rng(21)
        a = random_elem(rng, *ra, q)
        self.assert_same(DerivationSpec.from_inner(a), random_elem(rng, *rf, q))

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_sparse_and_off_centre_f(self, q):
        # empty rows and columns, and a support far from the centre, so the
        # box is set by the nonzero entries alone
        rng = np.random.default_rng(22)
        spec = DerivationSpec.from_inner(random_elem(rng, 2, 2, q))
        self.assert_same(spec, random_elem(rng, 5, 5, q, density=0.2))
        self.assert_same(spec, elem({(4, -3): 1.0 - 2j, (4, 2): 0.5, (-1, 0): 3j}, q))
        self.assert_same(spec, elem({(0, 0): 2.0}, q))
        self.assert_same(spec, elem({(0, 5): 1.0, (0, -2): 1j}, q))
        self.assert_same(spec, elem({(5, 0): 1.0, (-2, 0): 1j}, q))

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_outer_plus_inner(self, q):
        # alpha d1 + beta d2 + ad(a): the canonical pair shifts D(U), D(V)
        rng = np.random.default_rng(23)
        inner = DerivationSpec.from_inner(random_elem(rng, 1, 2, q))
        spec = DerivationSpec(inner.du_value + CoeffLattice2.delta(1, 0).scaled(0.7),
                              inner.dv_value + CoeffLattice2.delta(0, 1).scaled(-1.3j), q)
        self.assert_same(spec, random_elem(rng, 4, 3, q))

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(24)
        spec = DerivationSpec.from_inner(random_elem(rng, 2, 2, QI))
        f = random_elem(rng, 4, 4, QI)
        first = apply_derivation(spec, f).coeffs.coeffs
        assert np.array_equal(first, apply_derivation(spec, f).coeffs.coeffs)

    @pytest.mark.parametrize("q", [Q4, QI])
    def test_bits_independent_of_chunk_budget(self, q, monkeypatch):
        # one row per chunk, uneven chunks, one chunk: rows are still added
        # in ascending order, so the bits cannot move
        rng = np.random.default_rng(25)
        spec = DerivationSpec.from_inner(random_elem(rng, 3, 2, q))
        f = random_elem(rng, 8, 6, q)
        passes = [(spec.du_value.coeffs.shape, f.coeffs.coeffs.shape),
                  (spec.dv_value.coeffs.T.shape, f.coeffs.coeffs.T.shape)]
        results = []
        for budget in (1, 20_000, 1 << 40):
            monkeypatch.setattr(torus, "_CHUNK_BYTES", budget)
            results.append(apply_derivation(spec, f).coeffs.coeffs)
            self.assert_same(spec, f)
            steps = [chunk_rows(a, b) for a, b in passes]
            if budget == 1:
                assert steps == [1, 1]
            elif budget == 20_000:  # the 17 rows and 13 columns of f, in uneven chunks
                assert 1 < steps[0] < 17 and 17 % steps[0] and 1 < steps[1] < 13 and 13 % steps[1]
            else:
                assert steps[0] >= 17 and steps[1] >= 13
        for other in results[1:]:
            assert np.array_equal(other, results[0])


class TestDerivationCheckAgainstLoop:
    @staticmethod
    def assert_same(spec, tol=1e-10):
        got, want = check_derivation_relation(spec, tol), loop_derivation_check(spec, tol)
        assert got.ok == want.ok
        assert got.first_violation == want.first_violation
        assert abs(got.max_residual - want.max_residual) <= 1e-15 * max(1.0, want.max_residual)

    @pytest.mark.parametrize("q", [Q4, QI, QBIG])
    def test_canonical_pair(self, q):
        zero = CoeffLattice2.zeros(0, 0)
        self.assert_same(DerivationSpec(CoeffLattice2.delta(1, 0), zero, q))
        self.assert_same(DerivationSpec(zero, CoeffLattice2.delta(0, 1), q))

    @pytest.mark.parametrize("q", [Q4, QI, PhaseQ.rational(2, 7)])
    def test_inner_pairs(self, q):
        rng = np.random.default_rng(11)
        for rk, rl in ((0, 0), (1, 2), (3, 1)):
            self.assert_same(DerivationSpec.from_inner(random_elem(rng, rk, rl, q)))

    def test_swapped_generator_witness(self):
        spec = DerivationSpec(CoeffLattice2.delta(0, 1), CoeffLattice2.zeros(0, 0), Q4)
        self.assert_same(spec)
        assert check_derivation_relation(spec).first_violation == (0, 2)

    @pytest.mark.parametrize("q", [Q4, QI])
    @pytest.mark.parametrize("tol", [1e-10, 0.5, 3.0])
    def test_random_candidates(self, q, tol):
        # generic values violate the relation at many sites; the witness is
        # the lexicographically first of them
        rng = np.random.default_rng(12)
        spec = DerivationSpec(random_elem(rng, 2, 3, q).coeffs,
                              random_elem(rng, 3, 1, q).coeffs, q)
        self.assert_same(spec, tol)


class TestSmoothSeminorm:
    def test_trace_route_single_monomial(self):
        f = elem({(1, 0): 1.0}, QI)
        # one D_U factor multiplies the coefficient by k = 1
        assert abs(smooth_seminorm(f, [(1, 0)]) - 1.0) < 1e-15
        assert abs(smooth_seminorm(f, [(3, 0)]) - 1.0) < 1e-15

    def test_weights_grow_with_indices(self):
        f = elem({(2, 3): 1.0}, QI)
        assert abs(smooth_seminorm(f, [(1, 1)]) - 6.0) < 1e-14


def bubble_reorder_phase(word, q: PhaseQ) -> tuple[np.ndarray, complex]:
    """reorder_phase by stable adjacent transpositions, so the two relations
    (twist for neighbours, commute for |i-j| >= 2) are applied one swap at
    a time."""
    letters = [(abs(w), 1 if w > 0 else -1) for w in word]
    n = max((idx for idx, _ in letters), default=1)
    phase_exp = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            (ia, sa), (ib, sb) = letters[i], letters[i + 1]
            if ia > ib:
                # S_a^sa S_b^sb = q^{-sa*sb} S_b^sb S_a^sa when a = b+1
                if ia == ib + 1:
                    phase_exp -= sa * sb
                letters[i], letters[i + 1] = letters[i + 1], letters[i]
                changed = True
    exps = np.zeros(n, dtype=np.int64)
    for idx, s in letters:
        exps[idx - 1] += s
    return exps, q.pow(phase_exp)


class TestReorderPhase:
    @pytest.mark.parametrize("q", [PhaseQ.rational(3, 7), PhaseQ.irrational(math.sqrt(3.0))],
                             ids=["rational", "irrational"])
    def test_equals_bubble_sort(self, q):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            word = [int(i) * int(s) for i, s in zip(rng.integers(1, 5, rng.integers(0, 9)),
                                                    rng.choice([-1, 1], 8))]
            exps, phase = reorder_phase(word, q)
            want_exps, want_phase = bubble_reorder_phase(word, q)
            assert exps.dtype == want_exps.dtype and np.array_equal(exps, want_exps), word
            assert phase == want_phase, word

    def test_adjacent_twist(self):
        exps, phase = reorder_phase([2, 1], Q4)
        assert list(exps) == [1, 1]
        assert abs(phase - Q4.pow(-1)) < 1e-15

    def test_conjugation_by_neighbour(self):
        exps, phase = reorder_phase([2, 1, -2], Q4)
        assert list(exps) == [1, 0]
        assert abs(phase - (-1j)) < 1e-15

    def test_distant_generators_commute(self):
        exps, phase = reorder_phase([3, 1], Q4)
        assert list(exps) == [1, 0, 1]
        assert phase == Q4.pow(0)

    def test_two_independent_twisted_pairs(self):
        # inside the rank-4 chain, (S1, S2) and (S1 S3, S4) each satisfy the
        # twist while every cross pair commutes
        q = PhaseQ.irrational(0.83)
        pair1 = ([1], [2])
        pair2 = ([1, 3], [4])

        def phase_of(word):
            exps, ph = reorder_phase(word, q)
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
