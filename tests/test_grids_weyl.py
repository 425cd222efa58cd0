import math

import numpy as np
import pytest

from nctorus.grids import (GridFunction1D, GridFunction2D, check_decay,
                           fourier_2d, gaussian_1d, gaussian_2d,
                           grid1d_from_obj, grid1d_to_obj, grid2d_from_obj,
                           grid2d_to_obj, inverse_fourier_2d,
                           require_same_grid)
from nctorus.lattice import CoeffLattice2, FormatError, MismatchError
from nctorus.weyl import (DerivationData, _simpson, apply_P, apply_Q,
                          calibrate_q, composition_phase, rep_lattice_measure,
                          solve_inner_generator, weyl_P, weyl_Q)


class TestGridFunctions:
    def test_axis_spacing(self):
        f = gaussian_1d(8.0, 32)
        ax = f.axis()
        assert ax[0] == -8.0
        assert ax[1] - ax[0] == pytest.approx(f.dx)
        assert len(ax) == 32

    def test_gaussian_peaks_at_center(self):
        f = gaussian_1d(8.0, 256, center=1.5, width=0.7)
        ax = f.axis()
        assert abs(ax[np.argmax(np.abs(f.values))] - 1.5) <= f.dx

    def test_gaussian_l2_norm(self):
        # ||e^{-(x-c)^2/(2w^2)}||_2^2 = w sqrt(pi), box truncation negligible
        f = gaussian_1d(12.0, 512, center=0.3, width=1.1, momentum=2.0)
        assert f.norm() == pytest.approx(math.sqrt(1.1 * math.sqrt(math.pi)),
                                         rel=1e-12)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            GridFunction1D(4.0, 12, np.zeros(12))
        with pytest.raises(ValueError, match="half_extent"):
            GridFunction1D(-4.0, 16, np.zeros(16))
        with pytest.raises(ValueError, match="shape"):
            GridFunction1D(4.0, 16, np.zeros(8))
        with pytest.raises(ValueError, match="finite"):
            GridFunction1D(4.0, 16, np.full(16, np.nan))

    def test_values_frozen(self):
        f = gaussian_1d(4.0, 16)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_same_grid_predicate(self):
        a = gaussian_2d(4.0, 4.0, 16, 16)
        b = gaussian_2d(4.0, 4.0, 16, 16, center=(1.0, 0.0))
        c = gaussian_2d(4.0, 5.0, 16, 16)
        assert a.same_grid(b)
        assert not a.same_grid(c)
        require_same_grid(a, b)
        with pytest.raises(MismatchError):
            require_same_grid(a, c)


class TestFourier:
    def test_round_trip_exact(self):
        f = gaussian_2d(10.0, 10.0, 64, 64, center=(0.5, -1.0),
                        width=(1.3, 0.8), momentum=(1.0, -0.5))
        back = inverse_fourier_2d(fourier_2d(f))
        assert back.same_grid(f)
        assert np.max(np.abs(back.values - f.values)) < 1e-13

    def test_dual_extents(self):
        f = gaussian_2d(10.0, 5.0, 64, 128)
        g = fourier_2d(f)
        assert g.half_extent_t == pytest.approx(math.pi * 64 / 20.0)
        assert g.half_extent_s == pytest.approx(math.pi * 128 / 10.0)

    def test_gaussian_transform_analytic(self):
        # unit gaussian maps to 2 pi times the unit gaussian in 2d
        f = gaussian_2d(12.0, 12.0, 128, 128)
        g = fourier_2d(f)
        xi = g.t_axis()[:, None]
        eta = g.s_axis()[None, :]
        want = 2.0 * math.pi * np.exp(-(xi ** 2 + eta ** 2) / 2.0)
        assert np.max(np.abs(g.values - want)) < 1e-12

    def test_shift_becomes_modulation(self):
        f0 = gaussian_2d(12.0, 12.0, 64, 64)
        f1 = gaussian_2d(12.0, 12.0, 64, 64, center=(2.0, 0.0))
        g0, g1 = fourier_2d(f0), fourier_2d(f1)
        xi = g0.t_axis()[:, None]
        assert np.max(np.abs(g1.values - np.exp(-2j * xi) * g0.values)) < 1e-10

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_transform_that_is_not_finite_is_refused(self):
        # a well-decaying Gaussian of peak 1e307 sums past the largest double
        f = gaussian_2d(10.0, 10.0, 64, 64, amplitude=1e307)
        with pytest.raises(FormatError, match="^the Fourier transform is not finite"):
            fourier_2d(f)
        # a flat spectrum of 1e308 comes back as a spike past the largest double
        g = fourier_2d(gaussian_2d(10.0, 10.0, 64, 64))
        flat = g.with_values(np.full((64, 64), 1e308))
        with pytest.raises(FormatError, match="^the inverse Fourier transform is not finite"):
            inverse_fourier_2d(flat)


class TestDecayChecks:
    def test_quiet_for_contained_bump(self):
        f = gaussian_1d(16.0, 256, width=1.0)
        assert check_decay(f) < 1e-10

    def test_warns_when_clipped(self):
        f = gaussian_1d(2.0, 64, width=2.0)
        with pytest.warns(RuntimeWarning, match="decay"):
            edge = check_decay(f)
        assert edge > 1e-10

    def test_2d_edge_ratio(self):
        f = gaussian_2d(16.0, 16.0, 64, 64)
        assert check_decay(f) < 1e-10

    @pytest.mark.parametrize("where", [(0,), (-1,), (0, 5), (-1, 5), (5, 0), (5, -1)])
    def test_every_edge_of_every_axis_is_read(self, where):
        # a zero box with a peak of 2 inside and one small sample on one edge
        shape = (16,) * len(where)
        values = np.zeros(shape, dtype=complex)
        values[(8,) * len(where)] = 2.0
        values[where] = 1e-6j
        f = (GridFunction1D(4.0, 16, values) if len(where) == 1
             else GridFunction2D(4.0, 4.0, 16, 16, values))
        with pytest.warns(RuntimeWarning, match="boundary decay 5.000e-07"):
            assert check_decay(f) == 5e-7


class TestGridSerialization:
    def test_1d_round_trip(self):
        f = gaussian_1d(6.0, 32, center=0.2, momentum=1.0)
        g = grid1d_from_obj(grid1d_to_obj(f))
        assert g.same_grid(f)
        assert np.max(np.abs(g.values - f.values)) == 0.0

    def test_2d_round_trip(self):
        f = gaussian_2d(6.0, 7.0, 16, 32, momentum=(0.3, -0.4))
        g = grid2d_from_obj(grid2d_to_obj(f))
        assert g.same_grid(f)
        assert np.max(np.abs(g.values - f.values)) == 0.0

    def test_bad_docs_name_the_field(self):
        with pytest.raises(FormatError, match="values"):
            grid1d_from_obj({"half_extent": 1.0, "n": 8, "values": [[1.0, 0.0]]})
        with pytest.raises(FormatError, match="half_extent_s"):
            grid2d_from_obj({"n_t": 8, "n_s": 8, "half_extent_t": 1.0,
                             "values": []})

    @pytest.mark.parametrize("reader,change,message", [
        (grid1d_from_obj, {"n": None}, 'missing field "n"'),
        (grid1d_from_obj, {"half_extent": None, "n": None}, 'missing field "half_extent"'),
        (grid1d_from_obj, {"n": 8.0, "half_extent": "x"}, '"n" must be an integer'),
        (grid1d_from_obj, {"half_extent": True}, '"half_extent" must be a finite number'),
        (grid1d_from_obj, {"n": 4}, '"values" has 8 entries, expected 4'),
        (grid1d_from_obj, {"half_extent": -1.0}, "half_extent must be positive"),
        (grid1d_from_obj, {"n": 12, "values": [[0.0, 0.0]] * 12}, "n must be a power of two"),
        (grid2d_from_obj, {"n_s": None, "half_extent_t": None}, 'missing field "n_s"'),
        (grid2d_from_obj, {"values": None}, 'missing field "values"'),
        (grid2d_from_obj, {"n_s": True, "half_extent_t": "x"}, '"n_s" must be an integer'),
        (grid2d_from_obj, {"half_extent_s": 10 ** 400}, '"half_extent_s" must be a finite number'),
        (grid2d_from_obj, {"n_t": 4}, '"values" has 128 entries, expected 64'),
        (grid2d_from_obj, {"n_t": -8, "n_s": -16}, "can only specify one unknown dimension"),
        (grid2d_from_obj, {"half_extent_t": 0}, "half extents must be positive"),
    ])
    def test_readers_check_fields_in_order(self, reader, change, message):
        # each reader checks presence, then the counts, then the extents,
        # then the values; the first failing check names its field
        one = grid1d_to_obj(gaussian_1d(6.0, 8))
        two = grid2d_to_obj(gaussian_2d(6.0, 7.0, 8, 16))
        doc = dict(one if reader is grid1d_from_obj else two)
        for key, value in change.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        with pytest.raises(FormatError) as info:
            reader(doc)
        assert str(info.value).startswith(message)


class TestWeylOperators:
    F = gaussian_1d(16.0, 512, center=0.4, width=1.3, momentum=0.6)

    def test_position_multiplies(self):
        g = apply_Q(self.F)
        assert np.max(np.abs(g.values - self.F.axis() * self.F.values)) == 0.0

    def test_momentum_on_plane_wave(self):
        # wave number must sit on the grid for an exact eigenvalue
        f = gaussian_1d(16.0, 512, width=1.5, momentum=math.pi / 2.0)
        g = apply_P(f, hbar=0.7)
        # P-eigenvalue on the oscillation plus the envelope derivative term
        ax = f.axis()
        env = np.exp(-((ax - 0.0) ** 2) / (2.0 * 1.5 ** 2))
        denv = -(ax / 1.5 ** 2) * env
        want = 0.7 * (math.pi / 2.0) * f.values + 0.7 * -1j * denv * np.exp(
            1j * (math.pi / 2.0) * ax)
        assert np.max(np.abs(g.values - want)) < 1e-10

    def test_commutator_value(self):
        hbar = 0.7
        qp = apply_Q(apply_P(self.F, hbar))
        pq = apply_P(apply_Q(self.F), hbar)
        diff = qp.values - pq.values
        want = 1j * hbar * self.F.values
        assert np.max(np.abs(diff - want)) / np.max(np.abs(want)) < 1e-9

    def test_weyl_q_is_pointwise_phase(self):
        g = weyl_Q(0.9, self.F)
        want = np.exp(0.9j * self.F.axis()) * self.F.values
        assert np.max(np.abs(g.values - want)) == 0.0

    def test_weyl_p_translates(self):
        hbar, s = 0.5, 1.2
        f = gaussian_1d(16.0, 512, center=0.4, width=1.3)
        g = weyl_P(s, f, hbar)
        shifted = gaussian_1d(16.0, 512, center=0.4 - s * hbar, width=1.3)
        assert np.max(np.abs(g.values - shifted.values)) < 1e-10

    def test_group_laws(self):
        hbar = 0.7
        a = weyl_Q(0.3, weyl_Q(0.5, self.F))
        b = weyl_Q(0.8, self.F)
        assert np.max(np.abs(a.values - b.values)) < 1e-13
        c = weyl_P(0.3, weyl_P(0.5, self.F, hbar), hbar)
        d = weyl_P(0.8, self.F, hbar)
        assert np.max(np.abs(c.values - d.values)) < 1e-11

    def test_unitarity(self):
        hbar = 0.7
        assert weyl_Q(1.7, self.F).norm() == pytest.approx(self.F.norm(),
                                                           rel=1e-12)
        assert weyl_P(1.7, self.F, hbar).norm() == pytest.approx(self.F.norm(),
                                                                 rel=1e-10)

    def test_exchange_relation(self):
        hbar, t, s = 0.7, 0.9, 1.1
        lhs = weyl_Q(t, weyl_P(s, self.F, hbar))
        rhs = weyl_P(s, weyl_Q(t, self.F), hbar)
        phase = np.exp(-1j * t * s * hbar)
        assert np.max(np.abs(lhs.values - phase * rhs.values)) < 1e-9


class TestCalibration:
    @pytest.mark.parametrize("sigma,hbar", [(1.0, 0.3), (1.0, 0.8),
                                            (2.0 * math.pi, 0.35)])
    def test_closed_form(self, sigma, hbar):
        q = calibrate_q(sigma, hbar)
        want = math.remainder(-sigma * sigma * hbar, 2.0 * math.pi)
        assert abs(q.theta_value - want) < 1e-9
        assert abs(q.q - composition_phase(sigma, hbar)) < 1e-9

    def test_rep_of_unit(self):
        f = gaussian_1d(16.0, 512, center=0.4, width=1.3)
        c = CoeffLattice2.delta(0, 0)
        g = rep_lattice_measure(c, 1.0, 0.5, f)
        assert np.max(np.abs(g.values - f.values)) < 1e-12

    def test_rep_factors_match_weyl_ops(self):
        f = gaussian_1d(16.0, 512, center=0.4, width=1.3)
        sigma, hbar = 1.0, 0.5
        gu = rep_lattice_measure(CoeffLattice2.delta(1, 0), sigma, hbar, f)
        assert np.max(np.abs(gu.values - weyl_Q(sigma, f).values)) < 1e-12
        gv = rep_lattice_measure(CoeffLattice2.delta(0, 1), sigma, hbar, f)
        assert np.max(np.abs(gv.values - weyl_P(sigma, f, hbar).values)) < 1e-12

    def test_rep_is_linear(self):
        f = gaussian_1d(16.0, 512, center=-0.2, width=1.0)
        sigma, hbar = 1.0, 0.4
        c = CoeffLattice2.from_entries({(1, 0): 2.0, (0, 1): -1j})
        got = rep_lattice_measure(c, sigma, hbar, f)
        want = (2.0 * rep_lattice_measure(CoeffLattice2.delta(1, 0), sigma,
                                          hbar, f).values
                - 1j * rep_lattice_measure(CoeffLattice2.delta(0, 1), sigma,
                                           hbar, f).values)
        assert np.max(np.abs(got.values - want)) < 1e-12


def inner_pair(hbar: float, sign: float = -1.0):
    b0 = gaussian_2d(8.0, 8.0, 64, 64, center=(0.4, -0.3), width=(0.9, 1.1))
    t = b0.t_axis()[:, None]
    s = b0.s_axis()[None, :]
    a_q = b0.with_values(b0.values * s * hbar)
    a_p = b0.with_values(sign * b0.values * t * hbar)
    return b0, DerivationData(a_q, a_p, hbar)


class TestSolveInner:
    def test_round_trip_away_from_axes(self):
        hbar = 0.8
        b0, data = inner_pair(hbar)
        res = solve_inner_generator(data)
        t = b0.t_axis()[:, None]
        s = b0.s_axis()[None, :]
        mask = (np.abs(s) >= 1.5 * b0.ds) & (np.abs(t) >= 1.5 * b0.dt)
        err = np.max(np.abs((res.b.values - b0.values)[mask]))
        assert err < 1e-10
        assert res.compat_residual < 1e-12
        assert res.overlap_residual < 1e-12

    def test_hole_fill_stays_close(self):
        # the square around the origin comes from a ray integral, not division
        b0, data = inner_pair(0.8)
        res = solve_inner_generator(data)
        assert np.max(np.abs(res.b.values - b0.values)) < 1e-4

    def test_incompatible_pair_rejected(self):
        _, data = inner_pair(0.8, sign=+1.0)
        with pytest.raises(ValueError, match="compatibility"):
            solve_inner_generator(data)

    def test_zero_data_gives_zero(self):
        g = gaussian_2d(8.0, 8.0, 32, 32)
        z = g.with_values(np.zeros_like(g.values))
        res = solve_inner_generator(DerivationData(z, z, 0.5))
        assert np.max(np.abs(res.b.values)) == 0.0

    def test_grid_mismatch_rejected(self):
        a = gaussian_2d(8.0, 8.0, 32, 32)
        b = gaussian_2d(8.0, 9.0, 32, 32)
        with pytest.raises(MismatchError):
            DerivationData(a, b, 0.5)

    def test_simpson_exact_on_cubics(self):
        x, h = np.linspace(1.0, 3.0, 9, retstep=True)
        y = (2.0 - 1.0j) * x ** 3 + 0.5j * x
        want = (2.0 - 1.0j) * (3.0 ** 4 - 1.0) / 4.0 + 0.25j * (3.0 ** 2 - 1.0)
        assert abs(_simpson(y, h) - want) < 1e-13

    def test_zero_hbar_rejected(self):
        a = gaussian_2d(8.0, 8.0, 32, 32)
        with pytest.raises(ValueError, match="hbar"):
            DerivationData(a, a, 0.0)
