import math

import numpy as np
import pytest

from nctorus.grids import (GridFunction2D, fourier_2d, gaussian_2d,
                           inverse_fourier_2d)
from nctorus.twisted import (_MATCH_TOL, _heisenberg_group_conv_fft,
                             _matched_twist, _other_twisted_conv_fft,
                             _twisted_conv_fft, fourier_bridge_error,
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


class TestSeriesOnGrid:
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
