import json
import math
import subprocess
import sys

import numpy as np
import pytest

import nctorus
from nctorus import cli
from nctorus.grids import (gaussian_1d, gaussian_2d, grid1d_to_obj,
                           grid2d_to_obj)

Q14 = '{"rational": [1, 4]}'
Q13 = '{"rational": [1, 3]}'


@pytest.fixture
def run(capsys):
    def invoke(*args):
        rc = cli.main(list(args))
        captured = capsys.readouterr()
        doc = json.loads(captured.out) if captured.out.strip() else None
        return rc, doc, captured.err
    return invoke


@pytest.fixture
def write(tmp_path):
    def dump(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return dump


@pytest.fixture
def u_file(write):
    return write("U.json", {"radius_k": 1, "radius_l": 0,
                            "coeffs": [[0, 0], [0, 0], [1, 0]]})


@pytest.fixture
def v_file(write):
    return write("V.json", {"radius_k": 0, "radius_l": 1,
                            "coeffs": [[0, 0], [0, 0], [1, 0]]})


@pytest.fixture
def zero_file(write):
    return write("zero.json", {"radius_k": 0, "radius_l": 0,
                               "coeffs": [[0, 0]]})


def grid2d_file(write, name, **kw):
    return write(name, grid2d_to_obj(gaussian_2d(10.0, 10.0, 64, 64, **kw)))


class TestTorusCommands:
    def test_mul_places_twist(self, run, u_file, v_file):
        rc, doc, _ = run("torus-mul", u_file, v_file, "--q", Q14)
        assert rc == 0
        lat = doc["coeffs"]
        # row-major box of radius (1,1): U.V sits at (k,l)=(1,1), the last slot
        assert lat["radius_k"] == 1 and lat["radius_l"] == 1
        assert lat["coeffs"][-1] == [1.0, 0.0]
        assert doc["q"] == {"rational": [1, 4]}

    def test_word_normal_ordering(self, run):
        rc, doc, _ = run("torus-mul", "--word", "2,1,-2", "--q", Q14)
        assert rc == 0
        assert doc["exponents"] == [1, 0]
        assert doc["phase"][0] == pytest.approx(0.0, abs=1e-12)
        assert doc["phase"][1] == pytest.approx(-1.0)

    def test_adjoint(self, run, write):
        p = write("m.json", {"coeffs": {"radius_k": 1, "radius_l": 1,
                                        "coeffs": [[0, 0]] * 8 + [[1, 0]]},
                             "q": {"rational": [1, 4]}})
        rc, doc, _ = run("torus-adjoint", p)
        assert rc == 0
        # (UV)* lands at (-1,-1) with phase q^{-1} = -i
        assert doc["coeffs"]["coeffs"][0] == [pytest.approx(0.0, abs=1e-12),
                                              pytest.approx(-1.0)]

    def test_seminorm_report(self, run, u_file):
        rc, doc, _ = run("torus-seminorm", u_file, "--q", Q14, "--order", "3")
        assert rc == 0
        assert doc["seminorm"] == 8.0
        assert doc["l2_state"] == pytest.approx(1.0)
        assert doc["trace"] == [0.0, 0.0]

    def test_derive_canonical(self, run, u_file, zero_file):
        rc, doc, _ = run("torus-derive", u_file, "--q", Q14,
                         "--du", u_file, "--dv", zero_file)
        assert rc == 0
        assert doc["coeffs"]["coeffs"][-1] == [1.0, 0.0]

    def test_check_derivation_passes(self, run, u_file, zero_file):
        rc, doc, _ = run("torus-check-derivation", u_file, zero_file,
                         "--q", Q14)
        assert rc == 0
        assert doc["ok"] is True

    def test_check_derivation_fails_with_witness(self, run, v_file, zero_file):
        rc, doc, _ = run("torus-check-derivation", v_file, zero_file,
                         "--q", Q14)
        assert rc == 1
        assert doc["ok"] is False
        assert doc["first_violation"] == [0, 2]
        assert doc["max_residual"] == pytest.approx(math.sqrt(2.0))


class TestPhasePrecedence:
    def test_embedded_q_wins_when_no_flag(self, run, write):
        p = write("e.json", {"coeffs": {"radius_k": 0, "radius_l": 0,
                                        "coeffs": [[2, 0]]},
                             "q": {"rational": [1, 5]}})
        rc, doc, _ = run("torus-adjoint", p)
        assert rc == 0
        assert doc["q"] == {"rational": [1, 5]}

    def test_conflicting_q_is_an_input_error(self, run, write):
        p = write("e.json", {"coeffs": {"radius_k": 0, "radius_l": 0,
                                        "coeffs": [[2, 0]]},
                             "q": {"rational": [1, 5]}})
        rc, doc, err = run("torus-adjoint", p, "--q", Q14)
        assert rc == 2
        assert doc is None
        assert "q" in err

    def test_missing_q_is_an_input_error(self, run, u_file):
        rc, _, err = run("torus-adjoint", u_file)
        assert rc == 2
        assert "q" in err


class TestMatrixCommands:
    def test_matrep_eval_reports_fiber(self, run, u_file):
        rc, doc, _ = run("matrep-eval", u_file, "--q", Q14)
        assert rc == 0
        assert doc["n"] == 4
        assert len(doc["matrix"]) == 4
        assert doc["opnorm"] == pytest.approx(1.0, rel=1e-8)
        assert doc["equivariance_ok"] is True
        assert doc["covariance_residual"] < 1e-10

    def test_matrep_point_with_negative_real_part(self, run, u_file):
        rc, doc, _ = run("matrep-eval", u_file, "--q", Q14,
                         "--u", "-0.6,0.8", "--v", "-1,0")
        assert rc == 0
        assert doc["u"] == [-0.6, 0.8]
        assert doc["v"] == [-1.0, 0.0]
        assert doc["matrix"][0][1] == pytest.approx([-0.6, 0.8])

    def test_matrep_needs_rational(self, run, u_file):
        rc, _, err = run("matrep-eval", u_file, "--q", '{"theta": 0.5}')
        assert rc == 2
        assert "rational" in err

    def test_matrep_homomorphism_pair(self, run, u_file, v_file):
        rc, doc, _ = run("matrep-eval", u_file, v_file, "--q", Q14)
        assert rc == 0
        assert doc["homomorphism_residual"] < 1e-12
        assert doc["star_residual"] < 1e-12

    def test_circle_check(self, run, write):
        p = write("circ.json", {
            "spec": {"a": 1, "b": 2, "a_prime": 1, "b_prime": 0,
                     "q": {"rational": [1, 3]}},
            "coeffs": [{"j": 0, "s": 1, "t": 0, "re": 1.0, "im": 0.0}]})
        rc, doc, _ = run("circle-check", p)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["max_residual"] < 1e-12


class TestAnalyticCommands:
    def test_weyl_check_all_green(self, run):
        rc, doc, _ = run("weyl-check", "--hbar", "0.7",
                         "--grid-n", "256", "--grid-extent", "12")
        assert rc == 0
        assert all(c["pass"] for c in doc["checks"])

    def test_rep_lattice_calibration(self, run, write):
        coeffs = write("c.json", {"radius_k": 1, "radius_l": 1,
                                  "coeffs": [[0, 0]] * 4 + [[1, 0]]
                                  + [[0, 0]] * 4})
        state = write("s.json", grid1d_to_obj(
            gaussian_1d(16.0, 512, center=0.4, width=1.3)))
        rc, doc, _ = run("rep-lattice", coeffs, state,
                         "--sigma", "1.0", "--hbar", "0.6")
        assert rc == 0
        # measured twist matches e^{-i sigma^2 hbar}
        assert doc["calibrated_q"]["theta"] == pytest.approx(-0.6, abs=1e-9)
        assert doc["calibration_gap"] < 1e-9

    def test_solve_inner_round_trip(self, run, write):
        hbar = 0.8
        b0 = gaussian_2d(8.0, 8.0, 64, 64, center=(0.4, -0.3),
                         width=(0.9, 1.1))
        t = b0.t_axis()[:, None]
        s = b0.s_axis()[None, :]
        aq = write("aq.json", grid2d_to_obj(b0.with_values(b0.values * s * hbar)))
        ap = write("ap.json", grid2d_to_obj(b0.with_values(-b0.values * t * hbar)))
        rc, doc, _ = run("solve-inner", aq, ap, "--hbar", "0.8")
        assert rc == 0
        assert doc["compat_residual"] < 1e-12
        assert doc["overlap_residual"] < 1e-12

    def test_solve_inner_rejects_incompatible(self, run, write):
        # well-formed data failing the residual check is a tolerance failure
        b0 = gaussian_2d(8.0, 8.0, 64, 64, width=(0.9, 1.1))
        t = b0.t_axis()[:, None]
        s = b0.s_axis()[None, :]
        aq = write("aq.json", grid2d_to_obj(b0.with_values(b0.values * s)))
        ap = write("ap.json", grid2d_to_obj(b0.with_values(b0.values * t)))
        rc, doc, _ = run("solve-inner", aq, ap, "--hbar", "0.8")
        assert rc == 1
        assert "compatibility" in doc["error"]

    @pytest.mark.parametrize("variant", ["ordered", "symplectic", "group",
                                         "plain"])
    def test_twisted_conv_variants(self, run, write, variant):
        ga = grid2d_file(write, "a.json", width=(1.0, 1.0))
        gb = grid2d_file(write, "b.json", center=(0.3, -0.2))
        rc, doc, _ = run("twisted-conv", ga, gb, "--hbar", "0.3",
                         "--variant", variant)
        assert rc == 0
        assert doc["variant"] == variant
        assert doc["result"]["n_t"] == 64

    def test_gauge_variant_single_input(self, run, write):
        ga = grid2d_file(write, "a.json")
        rc, doc, _ = run("twisted-conv", ga, "--hbar", "0.3",
                         "--variant", "gauge", "--direction", "inverse")
        assert rc == 0
        assert doc["result"]["n_s"] == 64

    def test_moyal_star_commutator(self, run, write):
        x1 = write("x1.json", {"nvars": 2,
                               "terms": [{"exps": [1, 0], "re": 1.0,
                                          "im": 0.0}]})
        x2 = write("x2.json", {"nvars": 2,
                               "terms": [{"exps": [0, 1], "re": 1.0,
                                          "im": 0.0}]})
        rc, doc, _ = run("moyal-star", x1, x2, "--order", "2",
                         "--mode", "commutator")
        assert rc == 0
        coeffs = doc["result"]["coeffs"]
        assert coeffs[0]["terms"] == []
        assert coeffs[1]["terms"] == [{"exps": [0, 0], "re": 0.0, "im": 1.0}]

    def test_fourier_bridge_error_small(self, run, write):
        ga = grid2d_file(write, "a.json", width=(1.0, 1.2))
        gb = grid2d_file(write, "b.json", width=(1.1, 0.9))
        rc, doc, _ = run("fourier-bridge", ga, gb, "--hbar", "0.05",
                         "--order", "4")
        assert rc == 0
        assert doc["relative_error"] < 1e-5

    def test_hbar_probe_ratio(self, run, write):
        ga = grid2d_file(write, "a.json")
        gb = grid2d_file(write, "b.json", center=(0.4, 0.1))
        rc, doc, _ = run("hbar-probe", ga, gb, "--hbar", "0.5",
                         "--delta", "0.01")
        assert rc == 0
        assert doc["ok"] is True
        assert abs(doc["ratio"] - 4.0) < 0.5


class TestGnsCommands:
    @pytest.fixture
    def alg_file(self, write):
        return write("alg.json", {"kind": "torus_quotient",
                                  "q": {"rational": [1, 3]}})

    @pytest.fixture
    def trace_file(self, write):
        return write("tr.json", {"values": [[1.0, 0.0]] + [[0.0, 0.0]] * 8})

    def test_build_full_quotient(self, run, alg_file, trace_file):
        rc, doc, _ = run("gns-build", alg_file, trace_file)
        assert rc == 0
        assert doc["quotient_dim"] == 9
        assert doc["hom_residual"] < 1e-10
        assert doc["uniqueness_residual"] < 1e-8
        assert len(doc["pi_u"]) == 9

    def test_check_positive(self, run, alg_file, trace_file):
        rc, doc, _ = run("gns-check", alg_file, trace_file)
        assert rc == 0
        assert doc["positive"] is True
        assert doc["witness"] is None
        assert doc["schwarz_max"] < 1e-10
        assert doc["separation_ranks"] == [9, 9]

    def test_check_rejects_indefinite(self, run, alg_file, write):
        # phi(u) = 1 with phi(1) = 0 cannot be positive
        vals = [[0.0, 0.0]] * 9
        vals[1] = [1.0, 0.0]
        bad = write("bad.json", {"values": vals})
        rc, doc, _ = run("gns-check", alg_file, bad)
        assert rc == 1
        assert doc["positive"] is False
        assert doc["witness"] is not None

    def test_truncated_box_algebra(self, run, write):
        # box labels run lexicographically, so the unit (0,0) is slot 4
        alg = write("box.json", {"kind": "truncated_box", "radius_k": 1,
                                 "radius_l": 1, "q": {"rational": [1, 3]}})
        vals = [[0.0, 0.0]] * 9
        vals[4] = [1.0, 0.0]
        tr = write("boxtr.json", {"values": vals})
        rc, doc, _ = run("gns-build", alg, tr)
        assert rc == 0
        assert doc["quotient_dim"] == 9


class TestSuiteCommand:
    def test_runs_and_reports(self, run, tmp_path):
        out = tmp_path / "report.json"
        rc, doc, _ = run("suite", "--seed", "42", "--out", str(out))
        assert rc == 0
        assert doc["pass"] is True
        assert len(doc["criteria"]) == 13
        assert json.loads(out.read_text()) == doc


class TestErrorDiscipline:
    def test_missing_file(self, run, tmp_path):
        rc, _, err = run("torus-adjoint", str(tmp_path / "nope.json"),
                         "--q", Q14)
        assert rc == 2
        assert err.startswith("error:")

    def test_malformed_lattice_names_field(self, run, write):
        p = write("bad.json", {"radius_k": 1, "radius_l": 0,
                               "coeffs": [[1, 0]]})
        rc, _, err = run("torus-adjoint", p, "--q", Q14)
        assert rc == 2
        assert "coeffs" in err

    def test_boolean_radius_rejected(self, run, write):
        p = write("b.json", {"radius_k": True, "radius_l": 0,
                             "coeffs": [[0, 0], [0, 0], [1, 0]]})
        rc, doc, err = run("torus-adjoint", p, "--q", Q14)
        assert rc == 2
        assert doc is None
        assert "radius_k" in err

    def test_boolean_rational_entry_rejected(self, run, u_file):
        rc, doc, err = run("torus-adjoint", u_file, "--q", '{"rational": [true, 4]}')
        assert rc == 2
        assert doc is None
        assert "rational" in err

    @pytest.mark.parametrize("command", ["gns-build", "gns-check"])
    def test_large_quotient_refused(self, run, tmp_path, command):
        # a one-line document that would ask for a 2500^3 structure tensor
        assert nctorus.gns.MAX_ALGEBRA_DIM < 50 * 50  # else this test would allocate
        alg = tmp_path / "alg.json"
        alg.write_text('{"kind": "torus_quotient", "q": {"rational": [1, 50]}}')
        rc, doc, err = run(command, str(alg), "-")
        assert rc == 2
        assert doc is None
        assert "q" in err and "modulus 50" in err

    def test_large_box_refused(self, run, write):
        assert nctorus.gns.MAX_ALGEBRA_DIM < 41 * 41  # else this test would allocate
        alg = write("box.json", {"kind": "truncated_box", "radius_k": 20,
                                 "radius_l": 20, "q": {"rational": [1, 3]}})
        rc, doc, err = run("gns-build", alg, "-")
        assert rc == 2
        assert doc is None
        assert "radius_k" in err

    @pytest.mark.parametrize("field", ["radius_k", "radius_l"])
    def test_boolean_box_radius_rejected(self, run, write, field):
        box = {"kind": "truncated_box", "radius_k": 1, "radius_l": 1,
               "q": {"rational": [1, 3]}}
        box[field] = True
        rc, doc, err = run("gns-build", write("box.json", box), "-")
        assert rc == 2
        assert doc is None
        assert field in err

    def test_boolean_form_value_rejected(self, run, write):
        alg = write("alg.json", {"kind": "torus_quotient",
                                 "q": {"rational": [1, 2]}})
        form = write("f.json", {"values": [[True, 0.0]] + [[0.0, 0.0]] * 3})
        rc, doc, err = run("gns-check", alg, form)
        assert rc == 2
        assert "values[0]" in err

    @pytest.mark.parametrize("field,value,named", [
        ("n_t", True, "n_t"),
        ("n_s", True, "n_s"),
        ("half_extent_t", True, "half_extent_t"),
        ("values", [[True, False]] * 64, "values[0]"),
    ])
    def test_boolean_grid_field_rejected(self, run, write, field, value, named):
        doc = grid2d_to_obj(gaussian_2d(10.0, 10.0, 8, 8))
        doc[field] = value
        ga = write("a.json", doc)
        rc, out, err = run("twisted-conv", ga, ga, "--hbar", "0.3")
        assert rc == 2
        assert out is None
        assert named in err

    def test_boolean_1d_grid_size_rejected(self, run, u_file, write):
        doc = grid1d_to_obj(gaussian_1d(16.0, 8, center=0.4))
        doc["n"] = True
        rc, out, err = run("rep-lattice", u_file, write("s.json", doc))
        assert rc == 2
        assert out is None
        assert '"n"' in err

    @pytest.mark.parametrize("doc,named", [
        ({"nvars": True, "terms": []}, "nvars"),
        ({"nvars": 2, "terms": [{"exps": [True, 0], "re": 1.0, "im": 0.0}]},
         "terms[0].exps"),
        ({"nvars": 2, "terms": [{"exps": [1, 0], "re": True, "im": 0.0}]},
         "terms[0].re"),
    ])
    def test_boolean_symbol_field_rejected(self, run, write, doc, named):
        x = write("x.json", {"nvars": 2, "terms": []})
        rc, out, err = run("moyal-star", write("bad.json", doc), x, "--order", "1")
        assert rc == 2
        assert out is None
        assert named in err

    @pytest.mark.parametrize("docs,args,named", [
        ([{"nvars": 1, "terms": [{"exps": [1], "re": 1.0, "im": 0.0}]}] * 2,
         [], "nvars"),
        ([{"nvars": 2, "terms": []}, {"nvars": 4, "terms": []}], [], "nvars"),
        ([{"nvars": 4, "terms": []}] * 2, ["--mode", "half"], "nvars"),
        ([{"nvars": 2, "terms": []}] * 2, ["--order", "-1"], "--order"),
        ([{"nvars": 2, "terms": []}], [], "inputs"),
    ])
    def test_moyal_star_bad_symbols_exit_2(self, run, write, docs, args, named):
        paths = [write(f"s{i}.json", doc) for i, doc in enumerate(docs)]
        rc, out, err = run("moyal-star", *paths, *args)
        assert rc == 2
        assert out is None
        assert named in err

    def test_large_modulus_refused(self, run, write):
        # a one-line element whose 256 fibers would be 10^5 x 10^5 matrices
        assert nctorus.matrep.MAX_MODULUS < 100000  # else this test would allocate
        elem = write("big.json", {"coeffs": {"radius_k": 0, "radius_l": 0,
                                             "coeffs": [[1, 0]]},
                                  "q": {"rational": [1, 100000]}})
        rc, doc, err = run("matrep-eval", elem)
        assert rc == 2
        assert doc is None
        assert "field 'q'" in err and "100000" in err

    def test_bad_q_flag(self, run, u_file):
        rc, _, err = run("torus-adjoint", u_file, "--q", "rational:1,4")
        assert rc == 2
        assert "--q" in err

    def test_bad_word_flag(self, run):
        rc, _, err = run("torus-mul", "--word", "2,x", "--q", Q14)
        assert rc == 2
        assert "--word" in err

    def test_out_flag_writes_file(self, run, u_file, tmp_path):
        target = tmp_path / "res.json"
        rc, doc, _ = run("torus-adjoint", u_file, "--q", Q14,
                         "--out", str(target))
        assert rc == 0
        assert json.loads(target.read_text()) == doc


class TestOperationCoverage:
    # every public operation is reachable through exactly one subcommand;
    # this list is the contract, so additions must register here
    CANONICAL = {
        "adjoint", "apply_P", "apply_Q", "apply_derivation",
        "associativity_defect", "calibrate_q", "center_scalar_residual",
        "check_derivation_relation", "circle_check_relations", "circle_eval",
        "clock_shift", "composition_phase", "covariance_residual", "d_power",
        "equivariance_check", "eval_section", "fiber_grid", "fourier_2d",
        "fourier_bridge_error", "gauge_iso", "gns_build", "gram_matrix",
        "half_moyal", "hbar_smoothness_probe", "heisenberg_group_conv",
        "homomorphism_residual", "inner_derivation", "intertwiner",
        "inverse_fourier_2d", "is_positive", "l2_state", "moyal_coeff",
        "moyal_series_on_grid", "moyal_star", "opnorm", "other_twisted_conv",
        "plain_conv", "poisson_bracket", "q_mul", "reorder_phase",
        "rep_lattice_measure", "retruncate", "run_suite", "schwarz_check",
        "section_family", "seminorm", "separation_rank", "smooth_seminorm",
        "solve_inner_generator", "star_commutator", "star_residual",
        "state_action", "to_primed", "torus_quotient", "trace",
        "truncated_box", "twisted_conv", "weyl_P", "weyl_Q",
    }

    def test_each_operation_in_exactly_one_subcommand(self):
        seen = {}
        for sub, ops in cli.OPERATIONS.items():
            for op in ops:
                assert op not in seen, f"{op} in both {seen[op]} and {sub}"
                seen[op] = sub
        assert set(seen) == self.CANONICAL

    def test_operations_exist_in_package(self):
        for ops in cli.OPERATIONS.values():
            for op in ops:
                assert callable(getattr(nctorus, op)), op

    def test_every_subcommand_is_wired(self):
        parser_actions = cli._build_parser()._subparsers._group_actions[0]
        assert set(parser_actions.choices) == set(cli.OPERATIONS)


def test_import_does_not_load_scipy():
    code = "import sys, nctorus; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
