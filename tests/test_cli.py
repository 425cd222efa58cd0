import argparse
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nctorus
from nctorus import cli, grids, suite, weyl
from nctorus.grids import (gaussian_1d, gaussian_2d, grid1d_to_obj,
                           grid2d_to_obj)
from nctorus.lattice import (MAX_TWIST_MODULUS, CoeffLattice2, PhaseQ, lattice_to_obj,
                             pairs_to_list)
from nctorus.matrep import clock_shift

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


MISMATCH = 'error: inputs: q mismatch: \'@f\' {"rational": [1, 4]} vs \'@%s\' {"rational": [1, 3]}'


@pytest.mark.parametrize("argv,message", [
    (["torus-mul", "@f", "@g"], MISMATCH % "g"),
    (["torus-derive", "@f", "--inner", "@g"], MISMATCH % "g"),
    (["torus-derive", "@f", "--du", "@g", "--dv", "@z"], MISMATCH % "g"),
    (["torus-check-derivation", "@f", "@z"], MISMATCH % "z"),
    (["matrep-eval", "@f", "@g"], MISMATCH % "g"),
    (["torus-derive", "@f", "--inner", "@g", "--q", Q14],
     "error: field 'q': '@g' embeds a phase that differs from --q"),
], ids=["torus-mul", "inner", "du-dv", "check-derivation", "matrep-eval", "with-q"])
def test_embedded_phase_conflict(run, write, argv, message):
    # f embeds 1/4 and g and z embed 1/3: two operands that cannot be
    # combined, and the message names both files, unless --q was given,
    # which g then contradicts
    coeffs = {"radius_k": 1, "radius_l": 0, "coeffs": [[0, 0], [0.5, 0], [1, 0]]}
    files = {"@f": write("f.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}}),
             "@g": write("g.json", {"coeffs": coeffs, "q": {"rational": [1, 3]}}),
             "@z": write("z.json", {"coeffs": coeffs, "q": {"rational": [1, 3]}})}
    rc, out, err = run(*[files.get(arg, arg) for arg in argv])
    assert (rc, out) == (2, None)
    for name, path in files.items():
        message = message.replace(name, path)
    assert err == message + "\n"


@pytest.mark.parametrize("argv", [
    ["torus-mul", "@f", "@g"],
    ["torus-derive", "@f", "--inner", "@g"],
    ["matrep-eval", "@f", "@g"],
], ids=lambda argv: argv[0])
def test_bare_second_operand_takes_the_first_operands_phase(run, write, argv):
    # f embeds 1/4 and g is a bare lattice: with no --q, g reads as if
    # --q were 1/4, for every subcommand that combines two elements
    coeffs = {"radius_k": 1, "radius_l": 1, "coeffs": [[k + 0.5 * l, 0.25 * k]
                                                       for k in range(3) for l in range(3)]}
    files = {"@f": write("f.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}}),
             "@g": write("g.json", coeffs)}
    argv = [files.get(arg, arg) for arg in argv]
    rc, out, err = run(*argv)
    assert (rc, err) == (0, "")
    assert run(*argv, "--q", Q14)[:2] == (0, out)


@pytest.mark.parametrize("argv", [
    ["torus-mul", "@bad", "@f"],
    ["torus-adjoint", "@bad"],
    ["torus-seminorm", "@bad"],
    ["torus-derive", "@bad", "--inner", "@f"],
    ["torus-check-derivation", "@bad", "@f"],
    ["matrep-eval", "@bad"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("pair", [[1, 0], [1, -4], [7, 10 ** 30],
                                  [1, MAX_TWIST_MODULUS + 1]])
def test_bad_embedded_modulus_exits_2(run, write, argv, pair):
    coeffs = {"radius_k": 0, "radius_l": 0, "coeffs": [[1, 0]]}
    files = {"@bad": write("bad.json", {"coeffs": coeffs, "q": {"rational": pair}}),
             "@f": write("f.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}})}
    rc, out, err = run(*[files.get(arg, arg) for arg in argv])
    assert (rc, out) == (2, None)
    assert err.startswith('error: field "rational": ') and err.count("\n") == 1


@pytest.mark.parametrize("pair", [[7, 10 ** 30], [1, MAX_TWIST_MODULUS + 1],
                                  [3 * 10 ** 18 // 7 + 10 ** 15, 3 * 10 ** 18 + 37]])
def test_q_flag_modulus_above_the_cap_exits_2(run, pair):
    rc, out, err = run("torus-mul", "--word", "2,1,-2", "--q", json.dumps({"rational": pair}))
    assert (rc, out) == (2, None)
    assert "--q" in err and "rational" in err and err.count("\n") == 1


def test_q_flag_reducible_pair_below_the_cap(run):
    # 2^31 / 2^32 is 1/2 in lowest terms, so q = -1
    q = json.dumps({"rational": [2 ** 31, 2 ** 32]})
    rc, doc, _ = run("torus-mul", "--word", "2,1,-2", "--q", q)
    assert rc == 0 and doc["exponents"] == [1, 0]
    assert doc["phase"] == [-1.0, pytest.approx(0.0, abs=1e-15)]


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


CIRCLE = {"spec": {"a": 2, "b": 3, "a_prime": -1, "b_prime": 1, "q": {"rational": [1, 5]}},
          "coeffs": [{"j": 1, "s": 0, "t": 1, "re": 1.0, "im": 0.0}]}


@pytest.mark.parametrize("spec,term,named", [
    ({"a": 1.9}, {}, "spec.a"),
    ({"b": "0"}, {}, "spec.b"),
    ({"a_prime": True}, {}, "spec.a_prime"),
    ({}, {"s": 0.7}, "coeffs[0].s"),
    ({}, {"re": "1.5"}, "coeffs[0].re"),
    ({}, {"im": True}, "coeffs[0].im"),
    ({}, {"j": 10 ** 400}, "coeffs[0].j"),
    ({"a": 10 ** 400, "b": 1, "a_prime": 0, "b_prime": 1}, {}, "spec.a"),
    ({"a": 1, "b": 0, "a_prime": 1, "b_prime": 10 ** 400}, {}, "spec.b_prime"),
], ids=["float-a", "string-b", "boolean-a_prime", "float-s", "string-re", "boolean-im",
        "huge-j", "huge-a", "huge-b_prime"])
def test_circle_fields_are_numbers(run, write, spec, term, named):
    # the same number rules as every other document: no float or string for
    # an integer, no boolean, and no exponent past the limit
    doc = {"spec": {**CIRCLE["spec"], **spec}, "coeffs": [{**CIRCLE["coeffs"][0], **term}]}
    rc, out, err = run("circle-check", write("c.json", doc))
    assert (rc, out) == (2, None)
    assert err.startswith(f"error: field '{named}': ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field", ["coeffs[0].j", "spec.a_prime", "spec.b_prime"])
@pytest.mark.parametrize("past", [0, 1])
def test_circle_exponent_limit(run, write, field, past):
    # N = 4 divides the limit 2^53, so |j N|, |N a'| and |N b'| reach it
    # exactly: at the limit the document is read (its relations may fail
    # their tolerance, exit 1), one past it is refused
    value = -(cli.MAX_EXPONENT // 4 + past)
    spec = {"a": 1, "b": 0, "a_prime": 1, "b_prime": 0, "q": {"rational": [1, 4]}}
    term = {"j": 0, "s": 1, "t": 0, "re": 1.0, "im": 0.0}
    if field == "coeffs[0].j":
        term["j"] = value
    elif field == "spec.a_prime":  # 0 a' + 1 b' = 1 for any a'
        spec.update(a=0, b=1, a_prime=value, b_prime=1)
    else:
        spec["b_prime"] = value
    rc, out, err = run("circle-check", write("c.json", {"spec": spec, "coeffs": [term]}))
    if past:
        assert (rc, out) == (2, None) and err.startswith(f"error: field '{field}': ")
    else:
        assert rc in (0, 1) and out is not None and err == ""


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

    def test_rep_lattice_reads_element_documents(self, run, write):
        # the lattice rule of every element document: a bare lattice, or an
        # element's coeffs, whose embedded phase rep-lattice does not use
        coeffs = {"radius_k": 1, "radius_l": 0, "coeffs": [[0, 0], [1, 0], [0, 0]]}
        rc, bare, _ = run("rep-lattice", write("c.json", coeffs), "--grid-n", "64")
        assert rc == 0
        element = write("e.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}})
        assert run("rep-lattice", element, "--grid-n", "64") == (0, bare, "")
        listed = write("l.json", [coeffs])
        rc, out, err = run("rep-lattice", listed)
        assert (rc, out, err) == (2, None, f"error: input '{listed}': expected a JSON object\n")

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

    @pytest.mark.parametrize("variant", ["ordered", "symplectic", "group"])
    def test_twisted_conv_hbar_zero_is_plain(self, run, write, variant):
        ga = grid2d_file(write, "a.json", width=(1.0, 1.0))
        gb = grid2d_file(write, "b.json", center=(0.3, -0.2))
        rc, doc, _ = run("twisted-conv", ga, gb, "--hbar", "0", "--variant", variant)
        assert rc == 0
        rc, plain, _ = run("twisted-conv", ga, gb, "--variant", "plain")
        assert rc == 0
        got = np.array(doc["result"]["values"])
        want = np.array(plain["result"]["values"])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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

    def test_check_non_hermitian_form_exits_1_with_a_witness(self, run, alg_file, write):
        # the hermitian part of its Gram matrix is positive definite, but
        # phi(U*) = 0 is not conj(phi(U))
        vals = [[1.0, 0.0]] + [[0.0, 0.0]] * 8
        vals[3] = [0.0, 0.1]  # phi(U) = 0.1i; U = U^1 V^0 is slot 3
        rc, doc, err = run("gns-check", alg_file, write("skew.json", {"values": vals}))
        assert (rc, err) == (1, "")
        assert doc["positive"] is False and doc["witness"] is not None
        assert doc["hermiticity_residual"] == pytest.approx(0.1)

    def test_check_with_a_refused_build_exits_1_with_the_error(self, run, write):
        # a density form at N = 9 with eigenvalues over 8 decades is
        # positive, but its GNS triplet fails the homomorphism gate
        u0, v0 = clock_shift(PhaseQ.rational(1, 9))
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
        d = u @ np.diag(np.geomspace(1.0, 1e-8, 9)) @ u.conj().T
        vals = [np.trace(d @ np.linalg.matrix_power(u0, s) @ np.linalg.matrix_power(v0, t))
                / np.trace(d).real for s in range(9) for t in range(9)]
        alg = write("alg9.json", {"kind": "torus_quotient", "q": {"rational": [1, 9]}})
        form = write("decades.json", {"values": [[v.real, v.imag] for v in vals]})
        rc, doc, err = run("gns-check", alg, form)
        assert (rc, err) == (1, "")
        assert doc["positive"] is True and "separation_ranks" not in doc
        assert re.search(r"homomorphism \S+ \(tol 1\.0e-10\)", doc["error"])

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

    def test_raising_criterion_is_a_failed_check(self, run, monkeypatch):
        # a negated Gram matrix makes criterion 11's gns_build raise; the
        # exception is that criterion's one failing check, and the other
        # twelve still run and pass
        from nctorus import gns
        gram = gns.gram_matrix
        monkeypatch.setattr(gns, "gram_matrix", lambda *args: -gram(*args))
        rc, doc, err = run("suite")
        assert (rc, err) == (1, "")
        failed = [c for c in doc["criteria"] if not c["pass"]]
        assert len(doc["criteria"]) == 13 and [c["index"] for c in failed] == [11]
        assert failed[0]["checks"] == [{"name": "ValueError", "residual": 1.0,
                                        "tol": 0.5, "pass": False}]
        assert failed[0]["logs"] == [{"name": "ValueError", "value":
                                      "form is not positive: min eigenvalue -1.000e+00"}]


@pytest.fixture
def failing_inputs(write, u_file, v_file, zero_file):
    # documents on which a subcommand runs to the end and then fails a check
    indefinite = [[0.0, 0.0]] * 9
    indefinite[1] = [1.0, 0.0]  # phi(U) = 1 with phi(1) = 0
    return {
        "@u": u_file, "@v": v_file, "@zero": zero_file,
        "@f": write("f.json", {"radius_k": 1, "radius_l": 1, "coeffs": [
            [0.3, -0.7], [1.1, 0.2], [0.5, 0.5], [-0.4, 0.9], [0.25, -1.3],
            [0.6, 0.1], [0.8, -0.2], [-1.2, 0.35], [0.15, 0.45]]}),
        "@circle": write("circle.json", {
            "spec": {"a": 2, "b": 3, "a_prime": -1, "b_prime": 1,
                     "q": {"rational": [1, 5]}},
            "coeffs": [{"j": 1, "s": 2, "t": 4, "re": 0.7, "im": -0.3}]}),
        "@ga": grid2d_file(write, "a.json", width=(1.0, 1.2)),
        "@gb": grid2d_file(write, "b.json", width=(1.1, 0.9)),
        "@gp": grid2d_file(write, "p.json", center=(0.4, 0.1)),
        "@alg": write("alg.json", {"kind": "torus_quotient", "q": {"rational": [1, 3]}}),
        "@indefinite": write("indefinite.json", {"values": indefinite}),
    }


@pytest.mark.parametrize("argv,failed", [
    (["torus-derive", "@u", "--q", Q14, "--du", "@v", "--dv", "@zero"],
     lambda doc: doc["error"].startswith("derivation relation violated")),
    (["matrep-eval", "@f", "@f", "--q", Q14, "--tol=0"],
     lambda doc: doc["homomorphism_residual"] == doc["failures"]["homomorphism_residual"] > 0),
    (["circle-check", "@circle", "--tol=0"],
     lambda doc: doc["ok"] is False and doc["max_residual"] > 0),
    (["fourier-bridge", "@ga", "@gb", "--order", "4", "--tol=1e-12"],
     lambda doc: doc["relative_error"] > doc["tol"]),
    (["weyl-check", "--grid-n", "8"], lambda doc: doc["pass"] is False),
    (["hbar-probe", "@ga", "@gp", "--delta", "0.5"],
     lambda doc: doc["ok"] is False and not 3.5 <= doc["ratio"] <= 4.5),
    (["gns-build", "@alg", "@indefinite"],
     lambda doc: doc["error"].startswith("form is not positive")),
    (["suite"], lambda doc: doc["pass"] is False
     and doc["criteria"][0]["checks"][0]["name"] == "planted"),
], ids=["torus-derive", "matrep-eval", "circle-check", "fourier-bridge", "weyl-check",
        "hbar-probe", "gns-build", "suite"])
def test_failed_check_exits_1(run, failing_inputs, monkeypatch, argv, failed):
    # exit 1: the command ran, and its report on stdout says what failed
    if argv == ["suite"]:
        monkeypatch.setattr(suite, "CRITERIA", [
            (1, "planted_failure", lambda seed: ([suite._flag("planted", False)], []))])
    rc, doc, err = run(*[failing_inputs.get(arg, arg) for arg in argv])
    assert (rc, err) == (1, "")
    assert failed(doc)


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

    # an integer past the float range, as JSON writes it: digit by digit
    HUGE = 10 ** 400

    @pytest.mark.parametrize("field,named", [("values", "values[3]"),
                                             ("half_extent_t", "half_extent_t")])
    def test_huge_integer_in_grid(self, run, write, field, named):
        doc = grid2d_to_obj(gaussian_2d(10.0, 10.0, 8, 8))
        if field == "values":
            doc["values"][3] = [0.0, self.HUGE]
        else:
            doc[field] = self.HUGE
        ga = write("a.json", doc)
        rc, out, err = run("twisted-conv", ga, ga, "--hbar", "0.3")
        assert (rc, out) == (2, None)
        assert named in err

    @pytest.mark.parametrize("where,named", [
        ("coeffs", "coeffs[1]"),
        ('{"theta": %d}' % HUGE, "theta"),
        ('{"rational": [1, %d]}' % HUGE, "rational"),
    ], ids=["coeffs", "theta", "rational"])
    def test_huge_integer_in_lattice(self, run, write, where, named):
        coeffs = [[0, 0], [self.HUGE, 1], [0, 0]] if where == "coeffs" else [[0, 0]] * 3
        f = write("f.json", {"radius_k": 1, "radius_l": 0, "coeffs": coeffs})
        rc, out, err = run("torus-mul", f, f, "--q", Q14 if where == "coeffs" else where)
        assert (rc, out) == (2, None)
        assert named in err

    @pytest.mark.parametrize("part", ["re", "im"])
    def test_huge_integer_in_symbol(self, run, write, part):
        term = {"exps": [1, 0], "re": 1.0, "im": 0.0}
        term[part] = self.HUGE
        bad = write("bad.json", {"nvars": 2, "terms": [term]})
        x = write("x.json", {"nvars": 2, "terms": []})
        rc, out, err = run("moyal-star", bad, x, "--order", "1")
        assert (rc, out) == (2, None)
        assert f"terms[0].{part}" in err

    def test_huge_integer_in_gns_form(self, run, write):
        alg = write("alg.json", {"kind": "torus_quotient", "q": {"rational": [1, 2]}})
        form = write("f.json", {"values": [[1.0, 0.0], [0.0, -self.HUGE]] + [[0.0, 0.0]] * 2})
        rc, out, err = run("gns-build", alg, form)
        assert (rc, out) == (2, None)
        assert "values[1]" in err

    def test_huge_integer_in_circle_coeffs(self, run, write):
        doc = {"spec": {"a": 2, "b": 3, "a_prime": -1, "b_prime": 1,
                        "q": {"rational": [1, 5]}},
               "coeffs": [{"j": 1, "s": 0, "t": 1, "re": self.HUGE, "im": 0.0}]}
        rc, out, err = run("circle-check", write("c.json", doc))
        assert (rc, out) == (2, None)
        assert "coeffs[0]" in err

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

    @pytest.mark.parametrize("mode", ["full", "half", "commutator", "assoc"])
    def test_moyal_order_limit(self, run, write, mode):
        x1 = write("x1.json", {"nvars": 2, "terms": [{"exps": [2, 1], "re": 1.0, "im": 0.0}]})
        x2 = write("x2.json", {"nvars": 2, "terms": [{"exps": [0, 2], "re": 0.5, "im": 1.0}]})
        rc, doc, _ = run("moyal-star", x1, x2, x1, "--mode", mode,
                         "--order", str(cli.MAX_MOYAL_ORDER))
        assert rc == 0
        key = "defect" if mode == "assoc" else "result"
        assert doc[key]["order"] == cli.MAX_MOYAL_ORDER
        assert all(c["terms"] == [] for c in doc[key]["coeffs"][4:])

    @pytest.mark.parametrize("order", [1, 1 << 40])
    def test_moyal_order_over_limit_refused_before_reading(self, run, write, monkeypatch,
                                                           order):
        def refuse(*args, **kwargs):
            raise AssertionError("a symbol was read despite the limit")

        monkeypatch.setattr(cli, "_read_doc", refuse)
        x = write("x.json", {"nvars": 2, "terms": []})
        rc, out, err = run("moyal-star", x, x, "--order", str(cli.MAX_MOYAL_ORDER + order))
        assert rc == 2
        assert out is None
        assert "--order" in err and str(cli.MAX_MOYAL_ORDER) in err

    @pytest.mark.parametrize("command,args,named", [
        ("torus-seminorm", ["--order", "-1"], "--order"),
        ("torus-seminorm", ["--deriv-word=-1,0"], "--deriv-word"),
        ("torus-seminorm", ["--deriv-word=1,0;0,-2"], "--deriv-word"),
        ("torus-seminorm", ["--truncate=-1,2"], "--truncate"),
        ("torus-derive", ["--power=-1,0"], "--power"),
        ("torus-derive", ["--power=0,-1"], "--power"),
        ("torus-check-derivation", ["--tol=-1e-10"], "--tol"),
        ("torus-mul", ["--word", "2,0"], "--word"),
        # an exponent vector as long as the largest index is never allocated
        ("torus-mul", [f"--word={cli.MAX_WORD_INDEX + 1}"], "--word"),
        ("torus-mul", [f"--word=1,-{cli.MAX_WORD_INDEX + 1}"], "--word"),
        ("torus-mul", ["--word", str(10 ** 20)], "--word"),
        ("torus-derive", [f"--power={2 ** 53 + 1},0"], "--power"),
        ("torus-seminorm", [f"--deriv-word=1,0;0,{10 ** 400}"], "--deriv-word"),
        ("torus-seminorm", ["--order", str(10 ** 400)], "--order"),
    ])
    def test_bad_torus_flags_exit_2(self, run, u_file, zero_file, command, args, named):
        files = [u_file, zero_file] if command == "torus-check-derivation" else [u_file]
        rc, out, err = run(command, *files, "--q", Q14, *args)
        assert rc == 2
        assert out is None
        assert named in err

    @pytest.mark.parametrize("command,args,named", [
        ("hbar-probe", ["--delta", "0"], "--delta"),
        ("hbar-probe", ["--delta=-0.01"], "--delta"),
        ("fourier-bridge", ["--order=-1"], "--order"),
        ("fourier-bridge", ["--tol=-1"], "--tol"),
    ])
    def test_bad_grid_flags_exit_2(self, run, write, command, args, named):
        ga = grid2d_file(write, "a.json")
        gb = grid2d_file(write, "b.json", center=(0.4, 0.1))
        rc, out, err = run(command, ga, gb, *args)
        assert rc == 2
        assert out is None
        assert named in err

    def test_bridge_order_limit(self, run, write):
        ga = grid2d_file(write, "a.json", width=(1.0, 1.2))
        gb = grid2d_file(write, "b.json", width=(1.1, 0.9))
        rc, doc, _ = run("fourier-bridge", ga, gb, "--order", str(cli.MAX_BRIDGE_ORDER))
        assert rc == 0
        assert doc["order"] == cli.MAX_BRIDGE_ORDER and doc["relative_error"] < 1e-5

    @pytest.mark.parametrize("order", [1, 1 << 40])
    def test_bridge_order_over_limit_refused_before_reading(self, run, write, monkeypatch,
                                                            order):
        # 2^40 orders would be about 6e23 derivative transforms per operand
        def refuse(*args, **kwargs):
            raise AssertionError("a grid was read despite the limit")

        monkeypatch.setattr(cli, "_read_doc", refuse)
        ga = grid2d_file(write, "a.json")
        rc, out, err = run("fourier-bridge", ga, ga, "--order",
                           str(cli.MAX_BRIDGE_ORDER + order))
        assert rc == 2
        assert out is None
        assert "--order" in err and str(cli.MAX_BRIDGE_ORDER) in err

    @pytest.mark.parametrize("command,args", [
        ("twisted-conv", ["--variant", "ordered"]),
        ("twisted-conv", ["--variant", "symplectic"]),
        ("twisted-conv", ["--variant", "group"]),
        ("twisted-conv", ["--variant", "plain"]),
        ("fourier-bridge", []),
        ("hbar-probe", []),
        ("solve-inner", []),
    ])
    def test_grid_mismatch_is_an_input_error(self, run, write, command, args):
        ga = grid2d_file(write, "a.json")
        gb = write("b.json", grid2d_to_obj(gaussian_2d(10.0, 10.0, 32, 32)))
        rc, out, err = run(command, ga, gb, *args)
        assert rc == 2
        assert out is None
        assert err.startswith("error: inputs: grid mismatch")

    def test_phase_mismatch_names_both_phases_as_documents_do(self, run, write):
        coeffs = {"radius_k": 0, "radius_l": 0, "coeffs": [[1, 0]]}
        f = write("f.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}})
        g = write("g.json", {"coeffs": coeffs, "q": {"rational": [1, 3]}})
        rc, out, err = run("torus-mul", f, g)
        assert (rc, out) == (2, None)
        assert err == (f'error: inputs: q mismatch: \'{f}\' {{"rational": [1, 4]}} '
                       f'vs \'{g}\' {{"rational": [1, 3]}}\n')

    def test_phase_mismatch_is_an_input_error(self, run, write):
        coeffs = {"radius_k": 1, "radius_l": 0, "coeffs": [[0, 0], [0, 0], [1, 0]]}
        f = write("f.json", {"coeffs": coeffs, "q": {"rational": [1, 4]}})
        g = write("g.json", {"coeffs": coeffs, "q": {"theta": 0.5}})
        rc, out, err = run("torus-mul", f, g)
        assert rc == 2
        assert out is None
        assert err.startswith("error: inputs: q mismatch")

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

    @pytest.mark.parametrize("command", ["twisted-conv", "fourier-bridge"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_hbar_refused(self, run, write, command, value):
        ga = grid2d_file(write, "a.json")
        gb = grid2d_file(write, "b.json", center=(0.5, 0.2))
        rc, out, err = run(command, ga, gb, f"--hbar={value}")
        assert rc == 2
        assert out is None
        assert "--hbar" in err

    @pytest.mark.parametrize("args,named", [
        (["--hbar", "inf"], "--hbar"),
        (["--hbar", "nan"], "--hbar"),
        (["--grid-n", "12"], "--grid-n"),
        (["--grid-n", "4"], "--grid-n"),
        (["--grid-extent", "-1"], "--grid-extent"),
        (["--grid-extent", "nan"], "--grid-extent"),
    ])
    def test_weyl_check_bad_flags_exit_2(self, run, args, named):
        rc, out, err = run("weyl-check", *args)
        assert rc == 2
        assert out is None
        assert named in err

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.0"])
    def test_weyl_check_zero_hbar_refused(self, run, monkeypatch, value):
        # the commutator residual is relative to hbar; nothing may be built
        def refuse(*args, **kwargs):
            raise AssertionError("the battery ran despite hbar 0")

        monkeypatch.setattr(suite, "weyl_battery", refuse)
        rc, out, err = run("weyl-check", f"--hbar={value}")
        assert rc == 2
        assert out is None
        assert "--hbar" in err

    @pytest.mark.parametrize("value", ["0", "-0.0"])
    def test_solve_inner_zero_hbar_refused(self, run, write, value):
        # b s hbar = a_Q cannot be solved for b at hbar 0: bad input, not a
        # failed solvability condition
        ga = grid2d_file(write, "a.json")
        rc, out, err = run("solve-inner", ga, ga, f"--hbar={value}")
        assert rc == 2
        assert out is None
        assert "--hbar" in err

    def test_nonfinite_seminorm_refused(self, write, tmp_path):
        # (1 + |k| + |l|)^m overflows on a radius-(1, 1) box; in a process of
        # its own, so that a NumPy warning would reach the real stderr
        f = write("f.json", {"radius_k": 1, "radius_l": 1, "coeffs": [[1, 0]] * 9})
        target = tmp_path / "res.json"
        proc = subprocess.run([sys.executable, "-m", "nctorus.cli", "torus-seminorm", f,
                               "--q", Q14, "--order", "100000", "--out", str(target)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: report field 'seminorm': not a finite number\n"
        assert not target.exists()

    def test_nonfinite_probe_ratio_refused(self, run, write):
        # zero operands leave both Richardson residuals 0, so the ratio is inf
        g = gaussian_2d(10.0, 10.0, 64, 64)
        zero = write("zero.json", grid2d_to_obj(g.with_values(np.zeros((64, 64)))))
        rc, out, err = run("hbar-probe", zero, zero)
        assert rc == 2
        assert out is None
        assert err == "error: report field 'ratio': not a finite number\n"

    def test_grid_n_limit(self, run):
        rc, doc, _ = run("weyl-check", "--grid-n", str(cli.MAX_GRID_N))
        assert rc == 0 and doc["pass"] is True
        rc, out, err = run("weyl-check", "--grid-n", str(2 * cli.MAX_GRID_N))
        assert rc == 2 and out is None and "--grid-n" in err

    @pytest.mark.parametrize("command", ["weyl-check", "rep-lattice"])
    def test_oversized_grid_n_refused_before_allocation(self, run, u_file, monkeypatch,
                                                        command):
        huge = 1 << 40  # a 16 TB grid
        assert cli.MAX_GRID_N < huge  # else this test would allocate

        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built despite the limit")

        for mod, name in ((suite, "weyl_battery"), (grids, "gaussian_1d"),
                          (weyl, "calibrate_q"), (weyl, "rep_lattice_measure")):
            monkeypatch.setattr(mod, name, refuse)
        extra = [u_file] if command == "rep-lattice" else []
        rc, out, err = run(command, *extra, "--grid-n", str(huge))
        assert rc == 2
        assert out is None
        assert "--grid-n" in err and str(huge) in err

    def test_bad_q_flag(self, run, u_file):
        rc, _, err = run("torus-adjoint", u_file, "--q", "rational:1,4")
        assert rc == 2
        assert "--q" in err

    def test_exponent_flag_limit(self, run, u_file):
        # U's coefficients sit at k = 1, so k^m stays finite at any power
        top = str(cli.MAX_EXPONENT)
        rc, doc, _ = run("torus-derive", u_file, "--q", Q14, f"--power={top},0")
        assert rc == 0 and doc["coeffs"]["coeffs"][-1] == [1.0, 0.0]
        rc, doc, _ = run("torus-seminorm", u_file, "--q", Q14, f"--deriv-word={top},0")
        assert rc == 0 and doc["smooth_seminorm"] == 1.0

    def test_word_index_limit(self, run):
        rc, doc, _ = run("torus-mul", "--word", f"1,-{cli.MAX_WORD_INDEX}", "--q", Q14)
        assert rc == 0 and doc["exponents"] == [1] + [0] * (cli.MAX_WORD_INDEX - 2) + [-1]

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

    def test_unwritable_out_refused(self, run, u_file, tmp_path):
        # an --out that cannot be opened is a usage error: exit 2 naming the
        # flag, no traceback and no report on stdout
        target = tmp_path / "missing" / "res.json"
        rc, out, err = run("torus-adjoint", u_file, "--q", Q14,
                           "--out", str(target))
        assert rc == 2
        assert out is None
        assert "--out" in err and str(target) in err
        assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["weyl-check", "--grid-n", "abc"],
    ["twisted-conv", "a.json", "--variant", "nope"],
    ["weyl-check", "--no-such-flag"],
    ["torus-adjoint"],
    ["no-such-command"],
    [],
], ids=["bad-int", "bad-choice", "unknown-flag", "missing-input", "unknown-subcommand",
        "no-subcommand"])
def test_refused_command_line_is_one_error_line(argv, capsys):
    # argparse's refusals take the path of every other bad input: exit 2
    # returned, not raised as SystemExit, and one error line, no usage block
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _emit_documents(tmp_path):
    # as the subcommands build them: complex arrays kept as ndarrays
    rng = np.random.default_rng(5)
    grid = grid2d_to_obj(gaussian_2d(10.0, 10.0, 64, 64, momentum=(0.3, -0.7)),
                         pairs=np.asarray)
    coeffs = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    lattice = lattice_to_obj(CoeffLattice2(2, 3, coeffs), pairs=np.asarray)
    alg, form = tmp_path / "alg.json", tmp_path / "tr.json"
    alg.write_text(json.dumps({"kind": "torus_quotient",
                               "q": {"rational": [1, 3]}}))
    form.write_text(json.dumps({"values": [[1.0, 0.0]] + [[0.0, 0.0]] * 8}))
    gns, _ = cli._cmd_gns_build(argparse.Namespace(algebra=str(alg),
                                                   form=str(form), tol=None))
    return {"grid": grid, "lattice": lattice, "gns": gns}


@pytest.mark.parametrize("report,field", [
    ({"x": 1, "c": complex(math.nan, 0.0)}, "c"),
    ({"m": np.array([[1.0, 2.0], [3.0, complex(0.0, math.inf)]])}, "m[1][1]"),
])
def test_emit_refuses_nonfinite(report, field, tmp_path, capsys):
    # JSON has no spelling for NaN or an infinity, in a complex number's
    # parts either: nothing is written, to stdout or to the --out file
    target = tmp_path / "out.json"
    with pytest.raises(cli.FormatError, match=rf"report field '{re.escape(field)}'"):
        cli._emit(report, str(target))
    assert capsys.readouterr().out == ""
    assert not target.exists()


@pytest.mark.parametrize("kind", ["grid", "lattice", "gns"])
@pytest.mark.parametrize("to_file", [False, True])
def test_emit_writes_indented_dump(kind, to_file, tmp_path, capsys,
                                   monkeypatch):
    # the writer streams arrays in batches; the bytes must be those of one
    # json.dumps call with each array spelled as [re, im] lists, on stdout
    # and in the --out file alike
    monkeypatch.setattr(cli, "_EMIT_BATCH", 1000)
    doc = _emit_documents(tmp_path)[kind]
    want = json.dumps(doc, indent=2, default=pairs_to_list) + "\n"
    if kind == "grid":  # several batches and a partial one
        pairs = len(doc["values"])
        assert pairs > 2 * cli._EMIT_BATCH and pairs % cli._EMIT_BATCH
    target = tmp_path / "out.json"
    cli._emit(doc, str(target) if to_file else None)
    assert capsys.readouterr().out == want
    if to_file:
        assert target.read_text() == want
    else:
        assert not target.exists()


@pytest.mark.parametrize("obj", [
    [], [3, -7, 2 ** 70], [0.1, -2.5e-300, 1e22, 3.0], [True, False],
    [1, 2.5, True, -0.0], {"word": [1, 2], "flags": [False], "nested": [[1, 2.0], [], [[True]]]},
    [[1, 2], 3, "x", None],
], ids=["empty", "int", "float", "bool", "mixed", "nested", "with-text"])
def test_encode_lists_as_json_dumps(obj):
    # every kind of list, flat or nested, is spelled as json.dumps spells it
    assert "".join(cli._encode(obj)) == json.dumps(obj, indent=2)


class TestOperationCoverage:
    # subcommand -> the public operations it runs: every public operation is
    # reachable through exactly one subcommand, and this mapping is the
    # contract, so additions must register here
    OPERATIONS = {
        "torus-mul": ("q_mul", "reorder_phase"),
        "torus-adjoint": ("adjoint",),
        "torus-seminorm": ("seminorm", "smooth_seminorm", "to_primed",
                           "retruncate", "trace", "l2_state"),
        "torus-derive": ("apply_derivation", "d_power", "inner_derivation"),
        "torus-check-derivation": ("check_derivation_relation",),
        "matrep-eval": ("eval_section", "clock_shift", "opnorm", "section_family",
                        "equivariance_check", "covariance_residual", "fiber_grid",
                        "homomorphism_residual", "star_residual",
                        "center_scalar_residual"),
        "circle-check": ("circle_eval", "circle_check_relations"),
        "weyl-check": ("apply_Q", "apply_P", "weyl_Q", "weyl_P"),
        "rep-lattice": ("rep_lattice_measure", "calibrate_q", "composition_phase"),
        "solve-inner": ("solve_inner_generator",),
        "twisted-conv": ("twisted_conv", "other_twisted_conv",
                         "heisenberg_group_conv", "plain_conv", "gauge_iso"),
        "moyal-star": ("moyal_star", "half_moyal", "star_commutator",
                       "poisson_bracket", "associativity_defect"),
        "fourier-bridge": ("fourier_bridge_error", "moyal_series_on_grid",
                           "fourier_2d", "inverse_fourier_2d"),
        "hbar-probe": ("hbar_smoothness_probe",),
        "gns-build": ("torus_quotient", "truncated_box", "gns_build",
                      "intertwiner"),
        "gns-check": ("gram_matrix", "is_positive", "schwarz_check",
                      "state_action", "separation_rank"),
        "suite": ("run_suite",),
    }

    def test_each_operation_in_exactly_one_subcommand(self):
        seen = {}
        for sub, ops in self.OPERATIONS.items():
            for op in ops:
                assert op not in seen, f"{op} in both {seen[op]} and {sub}"
                seen[op] = sub

    def test_operations_exist_in_package(self):
        for ops in self.OPERATIONS.values():
            for op in ops:
                assert callable(getattr(nctorus, op)), op

    def test_every_subcommand_is_wired(self):
        parser_actions = cli._build_parser()._subparsers._group_actions[0]
        assert set(parser_actions.choices) == set(self.OPERATIONS)
        for name, sp in parser_actions.choices.items():
            assert callable(sp.get_default("run")), name


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_twisted_conv_bytes_do_not_depend_on_cpu_affinity(write):
    # the unmatched routes run one worker thread per CPU at 256^2; a
    # process held to one CPU must print the same bytes
    n = 256
    ga = write("a.json", grid2d_to_obj(gaussian_2d(16.0, 16.0, n, n, center=(0.4, -0.2),
                                                   momentum=(0.5, -0.3))))
    gb = write("b.json", grid2d_to_obj(gaussian_2d(16.0, 16.0, n, n, center=(-0.3, 0.5),
                                                   width=(1.2, 0.9))))
    argv = [sys.executable, "-m", "nctorus.cli", "twisted-conv", ga, gb,
            "--variant", "ordered", "--hbar", "0.7"]
    one_cpu = {min(os.sched_getaffinity(0))}
    pinned = subprocess.run(argv, capture_output=True, timeout=120, check=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
    free = subprocess.run(argv, capture_output=True, timeout=120, check=True)
    assert json.loads(free.stdout)["result"]["n_t"] == n
    assert pinned.stdout == free.stdout


def test_import_does_not_load_scipy():
    code = "import sys, nctorus; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _python(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_cli_import_loads_only_lattice_and_torus():
    # the other subcommands' modules load inside their handlers
    code = ("import sys, nctorus.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('nctorus'))))")
    assert _python(code).split() == ["nctorus", "nctorus.cli", "nctorus.lattice",
                                     "nctorus.torus"]


def test_twisted_import_loads_no_logging():
    # worker threads come from threading, which NumPy imports anyway;
    # concurrent.futures would import logging into every grid process
    code = ("import sys, nctorus.twisted; "
            "print(any(m in sys.modules for m in ('logging', 'concurrent.futures')))")
    assert _python(code) == "False"


def test_package_import_is_lazy():
    code = ("import sys, nctorus; "
            "print(sorted(m for m in sys.modules if m.startswith('nctorus')), "
            "'numpy' in sys.modules)")
    assert _python(code) == "['nctorus'] False"


def test_every_public_name_resolves():
    # in a fresh interpreter: through getattr, through a star import, and the
    # submodule paths the benchmark uses
    code = "\n".join([
        "import nctorus",
        "names = [n for n in nctorus.__all__ if getattr(nctorus, n) is None]",
        "ns = {}",
        "exec('from nctorus import *', ns)",
        "missing = sorted(set(nctorus.__all__) - set(ns))",
        "print(names, missing, len(nctorus.__all__),",
        "      callable(nctorus.lattice.lattice_to_obj),",
        "      callable(nctorus.symbols.symbol_from_obj))",
    ])
    assert _python(code) == f"[] [] {len(nctorus.__all__)} True True"
    for name in nctorus.__all__:
        assert name in dir(nctorus)
    assert {"cli", "lattice", "twisted"} <= set(dir(nctorus))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        nctorus.no_such_name
    assert not hasattr(nctorus, "values_from_list")  # a lattice name not exported
