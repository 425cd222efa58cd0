import math
import threading
from concurrent.futures import ThreadPoolExecutor
import tracemalloc
import warnings

import numpy as np
import pytest

from nctorus import torus, twisted
from nctorus.grids import (GridFunction2D, fourier_2d, gaussian_2d,
                           inverse_fourier_2d)
from nctorus.twisted import (_MATCH_TOL, _heisenberg_group_conv_fft,
                             _flush_tiny, _matched_twist,
                             _other_twisted_conv_fft,
                             _signed_class, _twisted_conv_fft,
                             fourier_bridge_error,
                             gauge_iso, heisenberg_group_conv,
                             hbar_smoothness_probe, moyal_series_on_grid,
                             other_twisted_conv, plain_conv, twisted_conv)


def random_field(seed: int, n_t: int = 16, n_s: int = 32,
                 lt: float = 8.0, ls: float = 8.0) -> GridFunction2D:
    # random texture under a fast-decaying envelope so boundary checks stay quiet
    env = gaussian_2d(lt, ls, n_t, n_s, width=(1.0, 1.0))
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=(n_t, n_s)) + 1j * rng.normal(size=(n_t, n_s))
    return env.with_values(env.values * noise)


def signed(idx: np.ndarray, n: int) -> np.ndarray:
    return np.where(idx < n // 2, idx, idx - n)


def brute(a: GridFunction2D, b: GridFunction2D, hbar: float,
          kind: str) -> np.ndarray:
    """Direct periodized double sums, no FFT, one kernel phase per kind."""
    n_t, n_s = a.n_t, a.n_s
    t = a.t_axis()
    s = a.s_axis()
    i1 = np.arange(n_t)[:, None]
    j1 = np.arange(n_s)[None, :]
    out = np.zeros((n_t, n_s), dtype=np.complex128)
    for i2 in range(n_t):
        for j2 in range(n_s):
            dti = (i2 - i1) % n_t
            dsj = (j2 - j1) % n_s
            dt_val = signed(dti, n_t) * a.dt
            ds_val = signed(dsj, n_s) * a.ds
            a_diff = a.values[(dti + n_t // 2) % n_t, (dsj + n_s // 2) % n_s]
            b_here = b.values[i1, j1]
            if kind == "ordered":
                phase = np.exp(1j * hbar * ds_val * t[i1])
                total = a_diff * b_here * phase
            elif kind == "symplectic":
                phase = np.exp(0.5j * hbar * (t[i1] * ds_val - dt_val * s[j1]))
                total = a_diff * b_here * phase
            elif kind == "group":
                b_diff = b.values[(dti + n_t // 2) % n_t, (dsj + n_s // 2) % n_s]
                phase = np.exp(0.5j * hbar * (t[i2] * s[j1] - t[i1] * s[j2]))
                total = a.values[i1, j1] * b_diff * phase
            else:
                total = a_diff * b_here
            out[i2, j2] = total.sum()
    return out * (a.dt * a.ds)


class TestAgainstDoubleSums:
    HBAR = 0.7

    def test_ordered(self):
        a, b = random_field(1), random_field(2)
        fast = twisted_conv(a, b, self.HBAR)
        slow = brute(a, b, self.HBAR, "ordered")
        assert np.max(np.abs(fast.values - slow)) < 1e-12

    def test_symplectic(self):
        a, b = random_field(3), random_field(4)
        fast = other_twisted_conv(a, b, self.HBAR)
        slow = brute(a, b, self.HBAR, "symplectic")
        assert np.max(np.abs(fast.values - slow)) < 1e-12

    def test_group(self):
        a, b = random_field(5), random_field(6)
        fast = heisenberg_group_conv(a, b, self.HBAR)
        slow = brute(a, b, self.HBAR, "group")
        assert np.max(np.abs(fast.values - slow)) < 1e-12

    def test_plain(self):
        a, b = random_field(7), random_field(8)
        fast = plain_conv(a, b)
        slow = brute(a, b, 0.0, "plain")
        assert np.max(np.abs(fast.values - slow)) < 1e-12


class TestDegenerations:
    def test_all_twists_vanish_at_zero(self):
        a, b = random_field(9), random_field(10)
        ref = plain_conv(a, b).values
        for conv in (twisted_conv, other_twisted_conv, heisenberg_group_conv):
            got = conv(a, b, 0.0).values
            assert np.max(np.abs(got - ref)) < 1e-13

    def test_unit_spike_is_neutral(self):
        b = random_field(11)
        vals = np.zeros((b.n_t, b.n_s), dtype=np.complex128)
        vals[b.n_t // 2, b.n_s // 2] = 1.0 / (b.dt * b.ds)  # discrete delta
        spike = b.with_values(vals)
        got = plain_conv(spike, b)
        assert np.max(np.abs(got.values - b.values)) < 1e-10

    def test_plain_commutes(self):
        a, b = random_field(12), random_field(13)
        assert np.max(np.abs(plain_conv(a, b).values
                             - plain_conv(b, a).values)) < 1e-12


def bump(seed: int, l: float = 10.0, n: int = 64) -> GridFunction2D:
    rng = np.random.default_rng(seed)
    return gaussian_2d(l, l, n, n,
                       center=tuple(rng.uniform(-0.6, 0.6, 2)),
                       width=tuple(rng.uniform(0.8, 1.1, 2)),
                       momentum=tuple(rng.uniform(-1.0, 1.0, 2)))


class TestRouteIdentities:
    HBAR = 0.3

    def test_gauge_round_trip(self):
        a = bump(20)
        back = gauge_iso(gauge_iso(a, self.HBAR), self.HBAR, "inverse")
        assert np.max(np.abs(back.values - a.values)) < 1e-14

    def test_gauge_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            gauge_iso(bump(21), self.HBAR, "backward")

    def test_gauge_carries_ordered_to_symplectic(self):
        # wrap terms differ between the routes, so the box sets the floor
        a, b = bump(22), bump(23)
        lhs = other_twisted_conv(gauge_iso(a, self.HBAR),
                                 gauge_iso(b, self.HBAR), self.HBAR)
        rhs = gauge_iso(twisted_conv(a, b, self.HBAR), self.HBAR)
        scale = np.max(np.abs(rhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-7

    def test_group_reduction_equals_symplectic(self):
        a, b = bump(24), bump(25)
        lhs = heisenberg_group_conv(a, b, self.HBAR)
        rhs = other_twisted_conv(a, b, self.HBAR)
        scale = np.max(np.abs(rhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-7

    def test_scaling_absorbs_hbar(self):
        # pushing hbar into the axes turns *_hbar into *_1 on the scaled grid
        hbar = 0.36
        root = math.sqrt(hbar)
        a, b = bump(26), bump(27)
        direct = other_twisted_conv(a, b, hbar)
        sa = GridFunction2D(10.0 * root, 10.0 * root, 64, 64, a.values / hbar)
        sb = GridFunction2D(10.0 * root, 10.0 * root, 64, 64, b.values / hbar)
        scaled = other_twisted_conv(sa, sb, 1.0)
        assert np.max(np.abs(scaled.values - direct.values / hbar)) < 1e-10

    def test_associativity_of_symplectic(self):
        a, b, c = bump(28), bump(29), bump(30)
        lhs = other_twisted_conv(other_twisted_conv(a, b, self.HBAR), c, self.HBAR)
        rhs = other_twisted_conv(a, other_twisted_conv(b, c, self.HBAR), self.HBAR)
        scale = np.max(np.abs(lhs.values))
        assert np.max(np.abs(lhs.values - rhs.values)) / scale < 1e-6


def spectral_derivs(f: GridFunction2D, max_order: int) -> dict[tuple[int, int], np.ndarray]:
    """All mixed spectral derivatives of total order <= max_order."""
    xi_t = f.t_freqs()[:, None]
    xi_s = f.s_freqs()[None, :]
    base = np.fft.fft2(f.values)
    out: dict[tuple[int, int], np.ndarray] = {}
    for p in range(max_order + 1):
        for r in range(max_order + 1 - p):
            out[(p, r)] = np.fft.ifft2(base * (1j * xi_t) ** p * (1j * xi_s) ** r)
    return out


def moyal_series_from_table(f: GridFunction2D, g: GridFunction2D, hbar: float,
                            order: int) -> np.ndarray:
    """The series route with every derivative tabled first, (K+1)(K+2)/2
    grids per operand; same expressions and order as moyal_series_on_grid."""
    df = spectral_derivs(f, order)
    dg = spectral_derivs(g, order)
    total = np.zeros_like(f.values)
    for k in range(order + 1):
        coeff = (-1j * hbar) ** k / (2.0 ** k * math.factorial(k))
        term = np.zeros_like(total)
        for j in range(k + 1):
            sign = (-1.0) ** (k - j)
            term += (math.comb(k, j) * sign) * df[(k - j, j)] * dg[(j, k - j)]
        total += coeff * term
    return (2.0 * math.pi) ** 2 * total


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSeriesOnGrid:
    @pytest.mark.parametrize("order", [0, 3, 8])
    def test_bit_identical_to_table_route(self, order):
        f = gaussian_2d(8.0, 6.0, 64, 32, center=(0.3, 0.1), width=(1.0, 1.2))
        g = random_field(40, 64, 32, 8.0, 6.0)
        got = moyal_series_on_grid(f, g, 0.3, order)
        assert np.array_equal(got.values, moyal_series_from_table(f, g, 0.3, order))

    def test_memory_does_not_grow_with_order(self):
        # 128^2 at order 16: the table holds 153 grids of 256 kB per operand,
        # about 78 MB; computing each derivative where it is used keeps a few
        f = gaussian_2d(10.0, 10.0, 128, 128, center=(0.3, 0.1), width=(1.0, 1.2))
        g = gaussian_2d(10.0, 10.0, 128, 128, center=(-0.2, 0.4), width=(1.1, 0.9))
        bound = 8 << 20
        assert traced_peak(moyal_series_on_grid, f, g, 0.3, 16) < bound
        assert traced_peak(moyal_series_from_table, f, g, 0.3, 16) > bound

    def test_order_zero_is_pointwise_product(self):
        f, g = bump(31), bump(32)
        got = moyal_series_on_grid(f, g, 0.0, 0)
        want = (2.0 * math.pi) ** 2 * f.values * g.values
        assert np.max(np.abs(got.values - want)) < 1e-12

    def test_bridge_error_decreases_with_order(self):
        f = gaussian_2d(10.0, 10.0, 128, 128, center=(0.3, 0.1),
                        width=(1.0, 1.2))
        g = gaussian_2d(10.0, 10.0, 128, 128, center=(-0.2, 0.4),
                        width=(1.1, 0.9))
        errs = [fourier_bridge_error(f, g, 0.05, k) for k in (0, 2, 4)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestProbe:
    def test_ratio_certifies_smoothness(self):
        a, b = bump(33), bump(34)
        res = hbar_smoothness_probe(a, b, 0.5, 1e-2)
        assert abs(res.ratio - 4.0) < 0.5
        assert res.residual_coarse > res.residual_fine > 0.0
        assert res.derivative.same_grid(a)

    def test_derivative_matches_forward_difference(self):
        a, b = bump(35), bump(36)
        res = hbar_smoothness_probe(a, b, 0.5, 1e-2)
        eps = 1e-5
        fd = (twisted_conv(a, b, 0.5 + eps).values
              - twisted_conv(a, b, 0.5 - eps).values) / (2.0 * eps)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(res.derivative.values - fd)) / scale < 1e-5


# kind -> (public product, its FFT route, theta / (hbar dt ds), kernel twist / p)
VARIANTS = {
    "ordered": (twisted_conv, _twisted_conv_fft, 1.0, 1),
    "symplectic": (other_twisted_conv, _other_twisted_conv_fft, 0.5, 2),
    "group": (heisenberg_group_conv, _heisenberg_group_conv_fft, 0.5, 2),
}


def matched_half_extent(kind: str, n: int, p: int, hbar: float) -> float:
    # theta = factor hbar (2L/n)^2 = 2 pi p / n
    return math.sqrt(math.pi * n * p / (2.0 * VARIANTS[kind][2] * hbar))


def rough(seed: int, half: float, n: int, count: int,
          n_s: int | None = None) -> list[GridFunction2D]:
    """Random complex samples that fill the box: no decay at all.  Both
    axes have the spacing 2 half / n, so dt ds does not depend on n_s."""
    rng = np.random.default_rng(seed)
    shape = (n, n_s or n)
    return [GridFunction2D(half, half * shape[1] / n, *shape,
                           rng.normal(size=shape) + 1j * rng.normal(size=shape))
            for _ in range(count)]


def kernel_twist(kind: str, a: GridFunction2D, hbar: float):
    _, _, factor, mult = VARIANTS[kind]
    return _matched_twist(a, factor * hbar * a.dt * a.ds, mult)


def rel_l2(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(x - y) / np.linalg.norm(y))


@pytest.mark.filterwarnings("ignore:boundary decay:RuntimeWarning")
class TestMatchedKernel:
    """On a matched grid the products are exact in the twisted group
    algebra of Z_n x Z_n, so rough data that fill the box are fair game."""

    HBAR = 0.5

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_against_double_sums(self, kind, p):
        n = 16
        a, b = rough(40 + p, matched_half_extent(kind, n, p, self.HBAR), n, 2)
        assert kernel_twist(kind, a, self.HBAR) == p * VARIANTS[kind][3]
        fast = VARIANTS[kind][0](a, b, self.HBAR).values
        slow = brute(a, b, self.HBAR, kind)
        assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-12

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_against_fft_routes(self, kind, p):
        n = 64
        conv, fft_route = VARIANTS[kind][:2]
        a, b = rough(50 + p, matched_half_extent(kind, n, p, self.HBAR), n, 2)
        assert kernel_twist(kind, a, self.HBAR) == p * VARIANTS[kind][3]
        got = conv(a, b, self.HBAR).values
        assert rel_l2(got, fft_route(a, b, self.HBAR).values) < 1e-12

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_gaussians_against_fft_routes(self, kind):
        # decaying data as on the benchmark's grids: the spectra span over
        # a hundred orders of magnitude, so a flush that cut too high shows
        n = 128
        conv, fft_route = VARIANTS[kind][:2]
        half = matched_half_extent(kind, n, 1, self.HBAR)
        a, b = (gaussian_2d(half, half, n, n, center=c, momentum=(0.5, -0.3))
                for c in ((0.4, -0.2), (-0.3, 0.5)))
        got = conv(a, b, self.HBAR).values
        assert rel_l2(got, fft_route(a, b, self.HBAR).values) < 1e-12

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_exact_associativity(self, kind):
        n = 32
        conv = VARIANTS[kind][0]
        a, b, c = rough(60, matched_half_extent(kind, n, 3, self.HBAR), n, 3)
        left = conv(conv(a, b, self.HBAR), c, self.HBAR).values
        right = conv(a, conv(b, c, self.HBAR), self.HBAR).values
        assert rel_l2(left, right) < 1e-13

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("hbar", [0.25, 0.5, 1.0])
    def test_benchmark_grids_are_matched(self, kind, n, hbar):
        # half-extent sqrt(pi n / (2 hbar)) ordered, sqrt(pi n / hbar) otherwise
        half = matched_half_extent(kind, n, 1, hbar)
        a = gaussian_2d(half, half, n, n)
        assert kernel_twist(kind, a, hbar) == VARIANTS[kind][3]

    def fallback_cases(self):
        n, hbar = 16, self.HBAR
        for kind in VARIANTS:
            half = matched_half_extent(kind, n, 1, hbar)
            a, b = rough(70, half, n, 2)
            yield kind, "hbar = 0", a, b, 0.0
            # theta off 2 pi / n by 1e-9: half^2 scales theta
            off = half * math.sqrt(1.0 + 1e-9 * n / (2.0 * math.pi))
            a2, b2 = (GridFunction2D(off, off, n, n, x.values) for x in (a, b))
            yield kind, "theta off by 1e-9", a2, b2, hbar
            yield kind, "n_t != n_s", *rough(71, half, n, 2, n_s=2 * n), hbar

    def test_unmatched_grids_fall_back_bit_identically(self):
        for kind, label, a, b, hbar in self.fallback_cases():
            assert kernel_twist(kind, a, hbar) is None, (kind, label)
            conv, fft_route = VARIANTS[kind][:2]
            assert np.array_equal(conv(a, b, hbar).values,
                                  fft_route(a, b, hbar).values), (kind, label)

    def test_threshold_bounds_the_phase_error(self):
        n = 256
        a = gaussian_2d(10.0, 10.0, n, n)
        theta = 2.0 * math.pi / n
        inside = theta + 0.5 * _MATCH_TOL / (n * n / 4.0)
        outside = theta + 2.0 * _MATCH_TOL / (n * n / 4.0)
        assert _matched_twist(a, inside, 1) == 1
        assert _matched_twist(a, outside, 1) is None
        assert _matched_twist(a, 0.0, 1) is None
        assert _matched_twist(a, theta * n / 2, 2) is None  # 2p = n: trivial twist
        assert _matched_twist(a, -theta, 1) == n - 1

    def test_decay_warning_fires_on_matched_grid(self):
        n = 64
        for kind, (conv, *_) in VARIANTS.items():
            half = matched_half_extent(kind, n, 1, self.HBAR)
            good = gaussian_2d(half, half, n, n)
            clipped = gaussian_2d(half, half, n, n, width=(half, half))
            assert kernel_twist(kind, good, self.HBAR) is not None
            with pytest.warns(RuntimeWarning, match="boundary decay"):
                conv(good, clipped, self.HBAR)
            with pytest.warns(RuntimeWarning, match="boundary decay"):
                conv(clipped, good, self.HBAR)


# The per-class loops that the FFT routes replaced, kept as oracles: fresh
# n x n temporaries, FFTs along the strided axis and fancy-indexed scatter.


def loop_twisted_conv(a: GridFunction2D, b: GridFunction2D,
                      hbar: float) -> GridFunction2D:
    n_t, n_s = a.n_t, a.n_s
    u = a.t_axis()
    fa = np.fft.fft(a.values, axis=0)
    out_hat = np.zeros((n_t, n_s), dtype=np.complex128)
    cols = np.arange(n_s)
    for d in range(n_s):
        delta_s = _signed_class(d, n_s) * a.ds
        col_a = (d + n_s // 2) % n_s
        modulated = b.values * np.exp(1j * hbar * delta_s * u)[:, None]
        bd = np.fft.fft(modulated, axis=0)
        out_hat[:, (cols + d) % n_s] += fa[:, col_a][:, None] * bd
    out = np.roll(np.fft.ifft(out_hat, axis=0), -(n_t // 2), axis=0)
    return a.with_values(out * (a.dt * a.ds))


def loop_other_twisted_conv(a: GridFunction2D, b: GridFunction2D,
                            hbar: float) -> GridFunction2D:
    n_t, n_s = a.n_t, a.n_s
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    rows = np.arange(n_t)
    chirp = np.exp(0.5j * hbar * np.outer(t_vals, s_vals))
    out = np.zeros((n_t, n_s), dtype=np.complex128)
    for d in range(n_t):
        delta_t = _signed_class(d, n_t) * a.dt
        row_a = (d + n_t // 2) % n_t
        bank = a.values[row_a, :][None, :] * chirp
        b_mod = b.values * np.exp(-0.5j * hbar * delta_t * s_vals)[None, :]
        conv = np.fft.ifft(np.fft.fft(bank, axis=1) * np.fft.fft(b_mod, axis=1),
                           axis=1)
        out[(rows + d) % n_t, :] += np.roll(conv, -(n_s // 2), axis=1)
    return a.with_values(out * (a.dt * a.ds))


def loop_heisenberg_group_conv(a: GridFunction2D, b: GridFunction2D,
                               hbar: float) -> GridFunction2D:
    n_t, n_s = a.n_t, a.n_s
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    fb = np.fft.fft(b.values, axis=1)
    chirp = np.exp(-0.5j * hbar * np.outer(t_vals, s_vals))
    out = np.zeros((n_t, n_s), dtype=np.complex128)
    idx = np.arange(n_t)
    for k1 in range(n_t):
        ca = a.values * np.exp(0.5j * hbar * t_vals[k1] * s_vals)[None, :]
        fc = np.fft.fft(ca, axis=1)
        rows = (k1 - idx + n_t // 2) % n_t
        conv = np.fft.ifft(fc * fb[rows, :], axis=1)
        conv = np.roll(conv, -(n_s // 2), axis=1)
        out[k1, :] = (conv * chirp).sum(axis=0)
    return a.with_values(out * (a.dt * a.ds))


LOOPS = {
    "ordered": loop_twisted_conv,
    "symplectic": loop_other_twisted_conv,
    "group": loop_heisenberg_group_conv,
}


def rel_max(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


class TestFftRoutesAgainstLoops:
    """The FFT routes sum the same periodized terms as the loops, in
    another order (and, for the symplectic route, in the spectrum), so
    they agree to round-off on any data, decaying or not."""

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("shape", [(16, 16), (32, 64), (64, 32), (64, 64)])
    @pytest.mark.parametrize("hbar", [0.0, 0.37, 1.3])
    def test_rough_data(self, kind, shape, hbar):
        n_t, n_s = shape
        a, b = rough(80 + n_t + n_s, 6.0, n_t, 2, n_s=n_s)
        fast = VARIANTS[kind][1](a, b, hbar).values
        slow = LOOPS[kind](a, b, hbar).values
        assert rel_max(fast, slow) < 1e-14

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_gaussians(self, kind):
        n, hbar = 128, 0.5
        a = gaussian_2d(16.0, 16.0, n, n, center=(0.4, -0.2),
                        momentum=(0.5, -0.3))
        b = gaussian_2d(16.0, 16.0, n, n, center=(-0.3, 0.5), width=(1.2, 0.9))
        assert kernel_twist(kind, a, hbar) is None
        fast = VARIANTS[kind][0](a, b, hbar).values
        slow = LOOPS[kind](a, b, hbar).values
        assert rel_max(fast, slow) < 1e-15

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_subnormal_tails_are_flushed(self, kind):
        # at half-extent 40 the Gaussians' tails fall below 2^-500 of the
        # peak (e^-800 is not even a double), so the routes run on flushed
        # copies; the flush must not show against the unflushed loops
        n, hbar = 64, 0.7
        a = gaussian_2d(40.0, 40.0, n, n, center=(0.4, -0.2), momentum=(0.5, -0.3))
        b = gaussian_2d(40.0, 40.0, n, n, center=(-0.3, 0.5), width=(1.2, 0.9))
        assert kernel_twist(kind, a, hbar) is None
        assert _flush_tiny(a.values) is not a.values
        assert _flush_tiny(b.values) is not b.values
        fast = VARIANTS[kind][0](a, b, hbar).values
        assert rel_max(fast, LOOPS[kind](a, b, hbar).values) < 1e-14

    def test_flush_copies_only_when_some_part_is_below_the_cut(self):
        # the benchmark's unmatched grids (half-extent 16) keep their bytes;
        # exact zeros (a real Gaussian's imaginary parts) are no tail
        for momentum in ((0.0, 0.0), (0.5, -0.3)):
            a = gaussian_2d(16.0, 16.0, 128, 128, momentum=momentum)
            assert _flush_tiny(a.values) is a.values
        x = np.array([1.0 + 1e-160j, 2.0 ** -501, 3.0j])
        y = _flush_tiny(x)
        assert np.array_equal(x, [1.0 + 1e-160j, 2.0 ** -501, 3.0j])
        assert np.array_equal(y, [1.0, 0.0, 3.0j])
        assert _flush_tiny(y) is y

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("shape", [(32, 64), (64, 32), (64, 64)])
    @pytest.mark.parametrize("hbar", [0.37, 1.3])
    def test_bit_identical_for_any_worker_count(self, kind, shape, hbar, monkeypatch):
        n_t, n_s = shape
        a, b = rough(80 + n_t + n_s, 6.0, n_t, 2, n_s=n_s)
        monkeypatch.setattr(twisted, "_MIN_BLOCK", 1)
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(twisted, "_cores", lambda: workers)
            assert len(twisted._row_blocks(min(shape), 1)) == workers
            outs.append(VARIANTS[kind][1](a, b, hbar).values)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])
        assert rel_max(outs[0], LOOPS[kind](a, b, hbar).values) < 1e-14

    def test_decay_warning_fires_on_unmatched_grid(self):
        n, hbar, half = 32, 0.5, 6.0
        good = gaussian_2d(half, half, n, n)
        clipped = gaussian_2d(half, half, n, n, width=(half, half))
        for kind, (conv, *_) in VARIANTS.items():
            assert kernel_twist(kind, good, hbar) is None
            with pytest.warns(RuntimeWarning, match="boundary decay"):
                conv(good, clipped, hbar)
            with pytest.warns(RuntimeWarning, match="boundary decay"):
                conv(clipped, good, hbar)


# The FFT routes' loops over single classes (the group route: single output
# rows) before they took their classes in batches, kept as the batched
# routes' byte oracle: the same operations in the same order, on fresh
# arrays, with each worker's row block run in turn.


def _source_rows(lo: int, hi: int, d: int, n: int) -> list[tuple[slice, slice]]:
    """(dst, src) slice pairs taking, for the rows lo..hi-1 of a block
    (dst, counted from lo), the source rows (row - d) mod n: at most two."""
    start = (lo - d) % n
    cut = min(hi - lo, n - start)
    pairs = [(slice(0, cut), slice(start, start + cut))]
    if cut < hi - lo:
        pairs.append((slice(cut, hi - lo), slice(0, hi - lo - cut)))
    return pairs


def _blocks(n: int, workers: int) -> list[tuple[int, int]]:
    return [(n * k // workers, n * (k + 1) // workers) for k in range(workers)]


def class_loop_twisted_conv(a: GridFunction2D, b: GridFunction2D, hbar: float,
                            workers: int = 1) -> np.ndarray:
    n_t, n_s = a.n_t, a.n_s
    u = a.t_axis()
    fa = np.fft.fft(_flush_tiny(np.ascontiguousarray(a.values.T)), axis=1)
    b_t = _flush_tiny(np.ascontiguousarray(b.values.T))
    buf = np.empty((n_s, n_t), dtype=np.complex128)
    acc = np.zeros((n_s, n_t), dtype=np.complex128)
    for lo, hi in _blocks(n_s, workers):
        part = buf[lo:hi]
        for d in range(n_s):
            delta_s = _signed_class(d, n_s) * a.ds
            phase = np.exp(1j * hbar * delta_s * u)
            for dst, src in _source_rows(lo, hi, d, n_s):
                np.multiply(b_t[src], phase, out=part[dst])
            np.fft.fft(part, axis=1, out=part)
            part *= fa[(d + n_s // 2) % n_s]
            acc[lo:hi] += part
    np.fft.ifft(acc, axis=1, out=acc)
    return acc.T.reshape(2, n_t // 2, n_s)[::-1].reshape(n_t, n_s) * (a.dt * a.ds)


def class_loop_other_twisted_conv(a: GridFunction2D, b: GridFunction2D, hbar: float,
                                  workers: int = 1) -> np.ndarray:
    n_t, n_s = a.n_t, a.n_s
    a_vals = _flush_tiny(a.values.copy())
    b_vals = _flush_tiny(b.values.copy())
    s_vals = a.s_axis()
    chirp = np.exp(0.5j * hbar * np.multiply.outer(a.t_axis(), s_vals))
    bank = np.empty((n_t, n_s), dtype=np.complex128)
    b_mod = np.empty((n_t, n_s), dtype=np.complex128)
    acc = np.zeros((n_t, n_s), dtype=np.complex128)
    for lo, hi in _blocks(n_t, workers):
        bank_part, mod_part = bank[lo:hi], b_mod[lo:hi]
        for d in range(n_t):
            delta_t = _signed_class(d, n_t) * a.dt
            row_a = a_vals[(d + n_t // 2) % n_t]
            phase = np.exp(-0.5j * hbar * delta_t * s_vals)
            for dst, src in _source_rows(lo, hi, d, n_t):
                np.multiply(chirp[src], row_a, out=bank_part[dst])
                np.multiply(b_vals[src], phase, out=mod_part[dst])
            np.fft.fft(bank_part, axis=1, out=bank_part)
            bank_part *= np.fft.fft(mod_part, axis=1, out=mod_part)
            acc[lo:hi] += bank_part
    np.fft.ifft(acc, axis=1, out=acc)
    return acc.reshape(n_t, 2, n_s // 2)[:, ::-1].reshape(n_t, n_s) * (a.dt * a.ds)


def class_loop_heisenberg_group_conv(a: GridFunction2D, b: GridFunction2D, hbar: float,
                                     workers: int = 1) -> np.ndarray:
    n_t, n_s = a.n_t, a.n_s
    a_vals = _flush_tiny(a.values.copy())
    fbr = _flush_tiny(b.values[(n_t // 2 - np.arange(n_t)) % n_t])
    np.fft.fft(fbr, axis=1, out=fbr)
    t_vals = a.t_axis()
    s_vals = a.s_axis()
    chirp = np.exp(-0.5j * hbar * np.multiply.outer(t_vals, np.roll(s_vals, n_s // 2)))
    out = np.empty((n_t, n_s), dtype=np.complex128)
    for lo, hi in _blocks(n_t, workers):
        buf = np.empty((n_t, n_s), dtype=np.complex128)
        for k1 in range(lo, hi):
            np.multiply(a_vals, np.exp(0.5j * hbar * t_vals[k1] * s_vals), out=buf)
            np.fft.fft(buf, axis=1, out=buf)
            buf[k1:] *= fbr[:n_t - k1]
            buf[:k1] *= fbr[n_t - k1:]
            np.fft.ifft(buf, axis=1, out=buf)
            buf *= chirp
            out[k1] = np.roll(buf.sum(axis=0), -(n_s // 2))
    return out * (a.dt * a.ds)


CLASS_LOOPS = {
    "ordered": class_loop_twisted_conv,
    "symplectic": class_loop_other_twisted_conv,
    "group": class_loop_heisenberg_group_conv,
}


class TestBatchedRoutes:
    """The FFT routes take their classes in batches and still give the
    bytes of the loops over single classes, for any worker count, batch
    size and grid shape."""

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("shape", [(32, 64), (64, 32), (64, 64), (128, 128)])
    def test_bytes_equal_the_class_loops(self, kind, shape, monkeypatch):
        n_t, n_s = shape
        a, b = rough(90 + n_t + n_s, 6.0, n_t, 2, n_s=n_s)
        monkeypatch.setattr(twisted, "_MIN_BLOCK", 1)
        want = CLASS_LOOPS[kind](a, b, 0.37)
        assert np.array_equal(CLASS_LOOPS[kind](a, b, 0.37, workers=3), want)
        for workers in (1, 2, 3):
            monkeypatch.setattr(twisted, "_cores", lambda: workers)
            assert len(twisted._row_blocks(n_t, n_s)) == workers
            assert np.array_equal(VARIANTS[kind][1](a, b, 0.37).values, want)

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bytes_hold_for_batches_that_straddle_the_row_wrap(self, kind, workers,
                                                               monkeypatch):
        # a budget for three classes a batch: 64 classes are no multiple of
        # it, and the source rows of most batches wrap around the grid
        n = 64
        a, b = rough(33, 6.0, n, 2)
        monkeypatch.setattr(twisted, "_MIN_BLOCK", 1)
        monkeypatch.setattr(twisted, "_cores", lambda: workers)
        if kind == "group":
            class_size = n * n
        else:
            _, chunk, _ = twisted._class_batches(n, n, 1)
            class_size = (1 if kind == "ordered" else 2) * chunk * n
        monkeypatch.setattr(twisted, "_BATCH_BYTES", 3 * 16 * max(2, workers) * class_size)
        assert twisted._batch(workers, class_size, n) == 3
        want = CLASS_LOOPS[kind](a, b, 1.3, workers=workers)
        assert np.array_equal(VARIANTS[kind][1](a, b, 1.3).values, want)

    def test_a_128_grid_takes_every_core(self, monkeypatch):
        for cores, blocks in ((1, 1), (2, 2)):
            monkeypatch.setattr(twisted, "_cores", lambda: cores)
            assert len(twisted._row_blocks(128, 128)) == blocks
        # 64 x 64 stays on one: two threads cost more than they saved
        assert len(twisted._row_blocks(64, 64)) == 1

    @pytest.mark.filterwarnings("ignore:boundary decay:RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_256_routes_carve_at_most_the_loops_high_water(self, kind, monkeypatch):
        # the loops over single classes carved up to 7.125 n^2 entries
        n = 256
        a = gaussian_2d(16.0, 16.0, n, n, center=(0.3, -0.2))
        b = gaussian_2d(16.0, 16.0, n, n, width=(1.1, 0.9))
        carve, sizes = twisted._carve, []

        def counting(*shapes):
            sizes.append(sum(math.prod(shape) for shape in shapes))
            return carve(*shapes)

        monkeypatch.setattr(twisted, "_carve", counting)
        for cores in (1, 2):
            monkeypatch.setattr(twisted, "_cores", lambda: cores)
            VARIANTS[kind][1](a, b, 0.5)
            assert sizes.pop() <= 7.125 * n * n


class TestWorkerFailures:
    """Floating-point errors in a worker thread reach the caller as the
    serial loop's would, under the caller's np.errstate and warning
    filters, and no thread outlives the call."""

    HBAR = 0.37

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(twisted, "_cores", lambda: 2)
        monkeypatch.setattr(twisted, "_MIN_BLOCK", 1)

    def huge(self, kind):
        # products of 1e300-scaled operands overflow in every route
        a, b = (gaussian_2d(10.0, 10.0, 32, 32, center=c, amplitude=1e300)
                for c in ((0.4, -0.2), (-0.3, 0.5)))
        assert kernel_twist(kind, a, self.HBAR) is None
        assert len(twisted._row_blocks(32, 32)) == 2
        return a, b

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_errstate_raise_reaches_the_caller(self, kind):
        a, b = self.huge(kind)
        before = threading.active_count()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            VARIANTS[kind][0](a, b, self.HBAR)
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_error_in_the_other_worker_reaches_the_caller(self, kind):
        # the calling thread runs the first block itself and would raise on
        # its own, so here only the other worker's errstate handler raises
        a, b = self.huge(kind)
        caller = threading.get_ident()

        class WorkerError(Exception):
            pass

        def handler(err: str, flag: int) -> None:
            if threading.get_ident() != caller:
                raise WorkerError(err)

        before = threading.active_count()
        with np.errstate(all="call", call=handler), pytest.raises(WorkerError, match="overflow"):
            VARIANTS[kind][0](a, b, self.HBAR)
        assert threading.active_count() == before

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_warning_filter_reaches_the_caller(self, kind):
        a, b = self.huge(kind)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                VARIANTS[kind][0](a, b, self.HBAR)
        assert threading.active_count() == before


def workload_pairs():
    """(kind, a, b, hbar) for every variant at 64, 128 and 256 points a side,
    on matched and on unmatched grids."""
    cases = []
    for n in (64, 128, 256):
        for kind in sorted(VARIANTS):
            for half in (matched_half_extent(kind, n, 1, 0.5), 16.0):
                a = gaussian_2d(half, half, n, n, center=(0.3, -0.2), momentum=(0.4, 0.1))
                b = gaussian_2d(half, half, n, n, center=(-0.2, 0.4), width=(1.1, 0.9))
                cases.append((kind, a, b, 0.5))
    return cases


@pytest.mark.filterwarnings("ignore:boundary decay:RuntimeWarning")
class TestWorkspace:
    """Every product carves its temporaries from one slab per thread; its
    result is a fresh array."""

    def test_kept_results_do_not_change_or_alias_the_slab(self):
        cases = workload_pairs()
        kept = [VARIANTS[kind][0](a, b, hbar) for kind, a, b, hbar in cases]
        copies = [r.values.copy() for r in kept]
        for kind, a, b, hbar in cases[::-1]:
            VARIANTS[kind][0](b, a, hbar)
        slab = torus._scratch.buf
        for r, want in zip(kept, copies):
            assert np.array_equal(r.values, want)
            assert not np.shares_memory(r.values, slab)

    def test_two_threads_reproduce_the_serial_bytes(self):
        cases = [c for c in workload_pairs() if c[1].n_t < 256]
        serial = [VARIANTS[kind][0](a, b, hbar).values for kind, a, b, hbar in cases]

        def run(part):
            return [VARIANTS[kind][0](a, b, hbar).values for kind, a, b, hbar in part]

        with ThreadPoolExecutor(2) as pool:
            halves = [pool.submit(run, cases[i::2]) for i in (0, 1)]
            split = [h.result(timeout=300) for h in halves]
        threaded = [None] * len(cases)
        threaded[0::2], threaded[1::2] = split
        for want, got in zip(serial, threaded):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_warm_matched_product_allocates_about_its_result(self, kind):
        n = 128
        half = matched_half_extent(kind, n, 1, 0.5)
        a = gaussian_2d(half, half, n, n, center=(0.3, -0.2))
        b = gaussian_2d(half, half, n, n, width=(1.1, 0.9))
        conv = VARIANTS[kind][0]
        assert kernel_twist(kind, a, 0.5) is not None
        conv(a, b, 0.5)
        tracemalloc.start()
        try:
            conv(a, b, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * n * n  # fresh temporaries peaked at about 7x

    def test_product_above_the_bound_keeps_nothing(self, monkeypatch):
        # a fresh thread starts with no slab of its own
        monkeypatch.setattr(twisted, "_SLAB_BYTES", 1 << 20)
        half = matched_half_extent("ordered", 128, 1, 0.5)
        small = [gaussian_2d(half / 2, half / 2, 32, 32, width=(0.5, 0.5))] * 2
        big = [gaussian_2d(half, half, 128, 128)] * 2

        def run():
            first = twisted_conv(*small, 0.5).values
            kept = torus._scratch.buf
            twisted_conv(*big, 0.5)
            assert torus._scratch.buf is kept
            return first, twisted_conv(*small, 0.5).values

        with ThreadPoolExecutor(1) as pool:
            first, later = pool.submit(run).result(timeout=120)
        assert np.array_equal(later, first)

    @pytest.mark.parametrize("kind", sorted(VARIANTS))
    def test_grid_matched_within_the_tolerance_agrees_with_the_fft_route(self, kind):
        # the kernel and the exact gauge replace the twist angle by the
        # root of unity; a grid that is off by just under _MATCH_TOL still
        # counts as matched and must agree with the FFT route
        n, hbar = 64, 0.5
        half = matched_half_extent(kind, n, 1, hbar)
        factor = VARIANTS[kind][2]
        theta = factor * hbar * (2 * half / n) ** 2
        off = 0.9 * _MATCH_TOL / (n * n / 4.0)
        hbar_off = hbar * (theta + off) / theta
        a, b = rough(7, half, n, 2)
        assert kernel_twist(kind, a, hbar_off) is not None
        fast = VARIANTS[kind][0](a, b, hbar_off).values
        slow = VARIANTS[kind][1](a, b, hbar_off).values
        assert rel_l2(fast, slow) < 1e-12
