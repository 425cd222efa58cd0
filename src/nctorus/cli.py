"""Command line interface.

Exit codes: 0 success, 1 a measured residual exceeded its tolerance,
2 malformed input (every message names the offending field or file).
Output is deterministic JSON on stdout; --out additionally writes the
same bytes to a file.

Each subcommand imports the modules it needs when it runs, so a process
loads only those (see the README on import cost).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from .lattice import (CoeffLattice2, FormatError, MismatchError, PhaseQ, is_finite_number,
                      is_number, lattice_from_obj, lattice_to_obj, pairs_to_list,
                      phaseq_from_obj, phaseq_to_obj, retruncate, seminorm, to_primed,
                      values_from_list)
from .torus import (DerivationSpec, TorusElement, _require_same_q, adjoint,
                    apply_derivation, check_derivation_relation, d_power, inner_derivation,
                    l2_state, q_mul, reorder_phase, smooth_seminorm, trace)

__all__ = ["main"]


# 1d grid samples for --grid-n; weyl-check took 0.5 s and 45 MB at the limit
# on a 2-core host
MAX_GRID_N = 1 << 16

# moyal-star --order; a series past the symbols' degree only adds zero
# coefficients, and the full mode took 45 ms with a 56 kB report at the
# limit on degree-3 symbols (1.8 s and 207 kB at 4096) on a 2-core host
MAX_MOYAL_ORDER = 1024

# fourier-bridge --order; the series takes (K+1)(K+2) inverse FFTs but keeps
# only a few grids, so at the limit a 256^2 pair took 1.3-1.5 s and 46 MB
# peak RSS (the same as at order 8) on a 2-core host.  The limit is set by
# accuracy: past it round-off in the derivatives wins, and on 128^2
# Gaussians at hbar 0.3 to 1.0 the error at order 20 was above that at 16
MAX_BRIDGE_ORDER = 16

# torus-mul --word generator index; the report holds one exponent per
# generator, and at the limit a one-letter word took 0.36 s and wrote 29 kB
# (0.32 s at index 1, 0.89 s and 459 kB at 65536) on a 2-core host
MAX_WORD_INDEX = 4096

# |exponent| in --power, --deriv-word, torus-seminorm --order and a
# circle-check document (a, b, N a', N b', j N).  Past 2^53 an exponent is
# not exact as a float.  At the limit the circle relations stay finite
# (residuals up to 3e26 at N = 64, a failed check); they first overflowed
# into a LinAlgError at 2^57 (N = 64) and 2^61 (N = 5)
MAX_EXPONENT = 1 << 53


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals are FormatErrors: one error line, exit 2."""

    def error(self, message):
        raise FormatError(message)


def _checked(convert, ok, need: str):
    """A flag's type=: convert's value, refused unless ok(value) holds.

    argparse names the flag: 'argument --x: must be <need>, got <value>',
    or for text convert cannot read, 'invalid <convert> value: ...'.
    """
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value
    parse.__name__ = convert.__name__
    return parse


# float flags; argparse's float accepts nan and inf, so each is finite first
_FINITE = _checked(float, math.isfinite, "finite")
_POSITIVE = _checked(_FINITE, lambda x: x > 0, "positive")
_NON_NEGATIVE = _checked(_FINITE, lambda x: x >= 0, "non-negative")
# weyl-check checks [Q, P] = i hbar relative to hbar, and solve-inner
# divides by it
_NONZERO = _checked(_FINITE, lambda x: x != 0, "nonzero")

_GRID_N = _checked(int, lambda n: 8 <= n <= MAX_GRID_N and n & (n - 1) == 0,
                   f"a power of two from 8 to {MAX_GRID_N}")


def _order(top: int):
    return _checked(int, lambda n: 0 <= n <= top, f"from 0 to {top}")


def _phase(text: str) -> PhaseQ:
    """--q: a phase document, such as '{"rational": [1, 4]}'."""
    try:
        return phaseq_from_obj(json.loads(text))
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON ({exc})") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, "
                                         f"got '{text}'") from exc


def _word(text: str) -> list[int]:
    """--word: signed generator indices, nonzero and at most MAX_WORD_INDEX."""
    word = _int_list(text)
    if 0 in word:
        raise argparse.ArgumentTypeError(f"entries must be nonzero, got '{text}'")
    if max(map(abs, word), default=0) > MAX_WORD_INDEX:
        raise argparse.ArgumentTypeError(f"entries must be from -{MAX_WORD_INDEX} to "
                                         f"{MAX_WORD_INDEX}, got '{text}'")
    return word


def _pair(form: str):
    """A flag type: two non-negative integers written as form, such as 'm,n',
    each at most MAX_EXPONENT."""
    def parse(text: str) -> tuple[int, int]:
        pair = _int_list(text)
        if len(pair) != 2 or min(pair) < 0:
            raise argparse.ArgumentTypeError(f"expected '{form}', two non-negative "
                                             f"integers, got '{text}'")
        if max(pair) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"entries must be at most {MAX_EXPONENT}, "
                                             f"got '{text}'")
        return pair[0], pair[1]
    return parse


def _deriv_word(text: str) -> list[tuple[int, int]]:
    """--deriv-word: 'm,n' pairs separated by ';'."""
    return [_pair("m,n")(pair) for pair in text.split(";")]


def _point(text: str) -> complex:
    """--u, --v: a complex number 're,im'."""
    try:
        re_part, im_part = map(float, text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 're,im', got '{text}'") from exc
    return complex(re_part, im_part)


def _read_doc(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "rb") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise FormatError(f"input '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"input '{path}': invalid JSON ({exc})") from exc


def _lattice_from_doc(doc, name: str) -> tuple[CoeffLattice2, dict | None]:
    """The lattice of a bare lattice or element document, and the element
    document (None for a bare lattice, whose phase comes from --q)."""
    if not isinstance(doc, dict):
        raise FormatError(f"input '{name}': expected a JSON object")
    if "radius_k" in doc:
        return lattice_from_obj(doc), None
    if "coeffs" in doc:
        return lattice_from_obj(doc["coeffs"]), doc
    raise FormatError(f"input '{name}': expected 'radius_k' (bare lattice) "
                      "or 'coeffs' (element with embedded phase)")


def _read_element(path: str, q_flag: PhaseQ | None,
                  first: tuple[str, TorusElement] | None = None) -> TorusElement:
    """The element in the document at path.

    first is the path and element of the operand it is combined with.  Its
    phase is the embedded one, else --q's, else first's.  An embedded phase
    that differs from --q is a FormatError, and one that differs from
    first's a MismatchError that names both files.
    """
    coeffs, element = _lattice_from_doc(_read_doc(path), path)
    q = phaseq_from_obj(element["q"]) if element is not None and "q" in element else None
    if q is not None and q_flag is not None and q != q_flag:
        raise FormatError(f"field 'q': '{path}' embeds a phase that differs "
                          "from --q")
    if q is None:
        q = q_flag
    if q is None and first is not None:
        q = first[1].q
    if q is None:
        raise FormatError(f"field 'q': missing for '{path}' (no --q flag and "
                          "no embedded phase)")
    if first is not None:
        _require_same_q(first[1].q, q, (first[0], path))
    return TorusElement(coeffs, q)


# Reports hold complex numbers and arrays as they are; _emit writes them as
# [re, im] lists.  The *_to_obj calls pass pairs=np.asarray to keep theirs.

def _element_obj(f: TorusElement) -> dict:
    return {"coeffs": lattice_to_obj(f.coeffs, pairs=np.asarray),
            "q": phaseq_to_obj(f.q)}


# [re, im] pairs per block of array text, about 0.5 MB of a grid document.
# The document is never held whole, so a large grid's text does not add to
# the peak memory; each write is still large, so that a process reading the
# output through a pipe gets full reads, not one short read per write.
_EMIT_BATCH = 6144


def _encode(obj, level: int = 0):
    """Yield the text of json.dumps(obj, indent=2), nested level deep.

    Complex numbers and complex arrays are written as nested [re, im]
    lists; a vector in blocks of _EMIT_BATCH pairs, each block formatted
    by one join.
    """
    nl = "\n" + "  " * (level + 1)
    if isinstance(obj, (complex, np.ndarray)):
        obj = np.asarray(obj, dtype=np.complex128)
        if obj.ndim == 0:  # one [re, im] pair, written by the list branch
            obj = pairs_to_list(obj)
        elif obj.ndim == 1 and len(obj):
            comma, gap = "," + nl + "  ", nl + "]," + nl + "[" + nl + "  "
            head = "[" + nl + "[" + nl + "  "
            for start in range(0, len(obj), _EMIT_BATCH):
                x = np.ascontiguousarray(obj[start:start + _EMIT_BATCH]).view(np.float64)
                # float.__repr__ is json's spelling of a finite float
                texts = map(float.__repr__, x.tolist())
                yield head + gap.join(map(comma.join, zip(texts, texts)))
                head = gap
            yield nl + "]" + nl[:-2] + "]"
            return
    if isinstance(obj, dict) and obj:
        head = "{" + nl
        for key, value in obj.items():
            # json.dumps turns a key that is not a string into its own text
            yield head + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": "
            yield from _encode(value, level + 1)
            head = "," + nl
        yield nl[:-2] + "}"
    elif isinstance(obj, (list, tuple, np.ndarray)) and len(obj):
        head = "[" + nl
        for value in obj:
            yield head
            yield from _encode(value, level + 1)
            head = "," + nl
        yield nl[:-2] + "]"
    else:
        yield "[]" if isinstance(obj, np.ndarray) else json.dumps(obj)


def _nonfinite_field(obj, path: str = "") -> str | None:
    """Path of the first NaN or infinity in a report, None if there is none."""
    if isinstance(obj, (float, complex, np.ndarray)):
        bad = np.argwhere(~np.isfinite(np.asarray(obj, dtype=np.complex128)))
        if len(bad) == 0:
            return None
        return path + "".join(f"[{i}]" for i in bad[0])
    if isinstance(obj, dict):
        items = [(f"{path}.{key}" if path else str(key), v) for key, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    else:
        return None
    for where, value in items:
        found = _nonfinite_field(value, where)
        if found is not None:
            return found
    return None


def _emit(obj: dict, out: str | None) -> None:
    """Write json.dumps(obj, indent=2) + "\n" to stdout and to out, if given.

    A report holding a NaN or an infinity, which JSON cannot spell, is a
    usage error (exit 2) that names the field, and so is an out path that
    cannot be written; both are found before anything is written.
    """
    bad = _nonfinite_field(obj)
    if bad is not None:
        raise FormatError(f"report field '{bad}': not a finite number")
    sinks = [sys.stdout]
    with contextlib.ExitStack() as stack:
        if out:
            try:
                sinks.append(stack.enter_context(open(out, "w")))
            except OSError as exc:
                raise FormatError(f"flag '--out': cannot write '{out}' "
                                  f"({exc.strerror})") from exc
        for text in _encode(obj):
            for fh in sinks:
                fh.write(text)
        for fh in sinks:
            fh.write("\n")


# -- subcommand bodies ---------------------------------------------------
# Each returns (report, ok); ok False, a failed tolerance or condition, is exit 1.

def _cmd_torus_mul(args) -> tuple[dict, bool]:
    if args.word is not None:
        if args.q is None:
            raise FormatError("field 'q': --word needs --q")
        exps, phase = reorder_phase(args.word, args.q)
        return {"exponents": [int(e) for e in exps], "phase": complex(phase)}, True
    if len(args.inputs) != 2:
        raise FormatError("inputs: torus-mul needs two element files "
                          "(or --word)")
    f = _read_element(args.inputs[0], args.q)
    g = _read_element(args.inputs[1], args.q, (args.inputs[0], f))
    return _element_obj(q_mul(f, g)), True


def _cmd_torus_adjoint(args) -> tuple[dict, bool]:
    f = _read_element(args.input, args.q)
    return _element_obj(adjoint(f)), True


def _cmd_torus_seminorm(args) -> tuple[dict, bool]:
    f = _read_element(args.input, args.q)
    out = {
        "order": args.order,
        "seminorm": seminorm(f.coeffs, args.order),
        "l2_state": l2_state(f),
        "trace": complex(trace(f)),
        "primed_coeffs": lattice_to_obj(to_primed(f.coeffs, f.q), pairs=np.asarray),
    }
    if args.deriv_word is not None:
        out["smooth_seminorm"] = smooth_seminorm(f, args.deriv_word)
    if args.truncate is not None:
        cut, tail = retruncate(f.coeffs, *args.truncate)
        out["truncated_coeffs"] = lattice_to_obj(cut, pairs=np.asarray)
        out["truncation_tail"] = tail
    return out, True


def _cmd_torus_derive(args) -> tuple[dict, bool]:
    f = _read_element(args.input, args.q)
    modes = sum(x is not None for x in (args.power, args.inner, args.du))
    if modes != 1:
        raise FormatError("flags: pick exactly one of --power, --inner, "
                          "or --du/--dv")
    if args.power is not None:
        return _element_obj(d_power(f, *args.power)), True
    if args.inner is not None:
        a = _read_element(args.inner, args.q, (args.input, f))
        return _element_obj(inner_derivation(a, f)), True
    if args.dv is None:
        raise FormatError("flag '--dv': required when --du is given")
    du = _read_element(args.du, args.q, (args.input, f))
    dv = _read_element(args.dv, args.q, (args.input, f))
    spec = DerivationSpec(du.coeffs, dv.coeffs, f.q)
    try:
        result = apply_derivation(spec, f, tol=args.tol)
    except ValueError as exc:
        return {"error": str(exc)}, False
    return _element_obj(result), True


def _cmd_torus_check_derivation(args) -> tuple[dict, bool]:
    du = _read_element(args.du, args.q)
    dv = _read_element(args.dv, args.q, (args.du, du))
    rep = check_derivation_relation(DerivationSpec(du.coeffs, dv.coeffs, du.q),
                                    tol=args.tol)
    out = {"ok": rep.ok, "max_residual": rep.max_residual,
           "first_violation": list(rep.first_violation)
           if rep.first_violation else None,
           "tol": rep.tol}
    return out, rep.ok


def _cmd_matrep_eval(args) -> tuple[dict, bool]:
    from . import matrep
    f = _read_element(args.inputs[0], args.q)
    try:  # rational, modulus within the limit, before allocating
        n = matrep._require_rational(f.q)
    except ValueError as exc:
        raise FormatError(f"field 'q': {exc}") from exc
    try:
        mat = matrep.eval_section(f, args.u, args.v)
    except ValueError as exc:
        raise FormatError(f"flags '--u/--v': {exc}") from exc
    # equivariance: the words of the matrix are f's class sums
    # W[s, t] = Sum_{k = s, l = t mod N} f_{k,l} u^k v^l, up to max |W|
    fc = f.coeffs
    k, l = fc.k_range(), fc.l_range()
    want = np.zeros((n, n), dtype=np.complex128)
    np.add.at(want, ((k % n)[:, None], (l % n)[None, :]),
              fc.coeffs * np.outer(np.power(args.u, k), np.power(args.v, l)))
    gaps = (np.abs(matrep.matrices_to_words(mat, f.q) - want)
            / max(float(np.max(np.abs(want))), 1e-300))
    eq_gap, eq_bad = float(np.max(gaps)), np.argwhere(~(gaps <= args.tol))
    grid = matrep.fiber_grid(16)
    cov = max(matrep.covariance_residual(f, args.u, args.v, 1, 1),
              matrep.covariance_residual(f, args.u, args.v, 0, 1))
    out = {
        "n": n,
        "u": args.u,
        "v": args.v,
        "matrix": mat,
        "opnorm": matrep.opnorm(mat),
        "equivariance_ok": not eq_bad.size,
        "equivariance_violation": eq_bad[0].tolist() if eq_bad.size else None,
        "covariance_residual": cov,
        "center_residual": matrep.center_scalar_residual(f, grid),
    }
    # each residual against --tol times the coefficient l1 norms, which
    # bound the norm of every unit-modulus fiber it compares
    l1 = float(np.sum(np.abs(fc.coeffs)))
    gates = []
    if len(args.inputs) > 1:
        g = _read_element(args.inputs[1], args.q, (args.inputs[0], f))
        hom = matrep.homomorphism_residual(f, g, q_mul(f, g), grid)
        star = matrep.star_residual(f, adjoint(f), grid)
        out["homomorphism_residual"] = hom
        out["star_residual"] = star
        gates += [("homomorphism_residual", hom, l1 * float(np.sum(np.abs(g.coeffs.coeffs)))),
                  ("star_residual", star, l1)]
    gates.append(("covariance_residual", cov, l1))
    failures = {name: res / scale for name, res, scale in gates if res > args.tol * scale}
    if eq_bad.size:
        failures["equivariance"] = eq_gap
    if failures:
        out["failures"] = failures
    return out, not failures


def _circle_field(obj, key: str, where: str, ok=lambda x: is_number(x, int),
                  need: str = "an integer"):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"field '{where}.{key}': missing")
    if not ok(obj[key]):
        raise FormatError(f"field '{where}.{key}': must be {need}")
    return obj[key]


def _circle_exponent(exponent: int, field: str) -> None:
    if abs(exponent) > MAX_EXPONENT:
        raise FormatError(f"field '{field}': gives an exponent past the limit "
                          f"{MAX_EXPONENT} (2^53) in size")


def _parse_circle_doc(doc, name: str):
    from . import matrep
    if not isinstance(doc, dict) or not isinstance(doc.get("spec"), dict):
        raise FormatError(f"input '{name}': expected an object with a 'spec' "
                          "field")
    spec_obj = doc["spec"]
    windings = [_circle_field(spec_obj, key, "spec") for key in ("a", "b", "a_prime", "b_prime")]
    if "q" not in spec_obj:
        raise FormatError("field 'spec.q': missing")
    try:
        spec = matrep.CircleSpec(*windings, phaseq_from_obj(spec_obj["q"]))
    except ValueError as exc:
        raise FormatError(f"field 'spec': {exc}") from exc
    n = spec.q.modulus
    for key, exponent in (("a", spec.a), ("b", spec.b), ("a_prime", n * spec.a_prime),
                          ("b_prime", n * spec.b_prime)):
        _circle_exponent(exponent, f"spec.{key}")
    terms = doc.get("coeffs", [])
    if not isinstance(terms, list):
        raise FormatError("field 'coeffs': must be a list")
    coeffs = {}
    for i, term in enumerate(terms):
        j, s, t = (_circle_field(term, key, f"coeffs[{i}]") for key in "jst")
        _circle_exponent(j * n, f"coeffs[{i}].j")
        re_part, im_part = (_circle_field(term, key, f"coeffs[{i}]", is_finite_number,
                                          "a finite number") for key in ("re", "im"))
        coeffs[(j, s, t)] = complex(re_part, im_part)
    return spec, coeffs


def _cmd_circle_check(args) -> tuple[dict, bool]:
    from . import matrep
    spec, coeffs = _parse_circle_doc(_read_doc(args.input), args.input)
    samples = matrep.CIRCLE_SAMPLES
    res = matrep.circle_check_relations(spec, samples)
    out = {"max_residual": res, "tol": args.tol,
           "samples": len(samples), "ok": res <= args.tol}
    if coeffs:
        try:
            mat = matrep.circle_eval(coeffs, spec, samples[0])
        except ValueError as exc:
            raise FormatError(f"field 'coeffs': {exc}") from exc
        out["sample_opnorm"] = matrep.opnorm(mat)
    return out, out["ok"]


def _cmd_weyl_check(args) -> tuple[dict, bool]:
    from . import suite
    checks = suite.weyl_battery(args.grid_extent, args.grid_n, args.hbar)
    out = {"hbar": args.hbar, "grid_n": args.grid_n,
           "grid_extent": args.grid_extent, "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    return out, out["pass"]


def _cmd_rep_lattice(args) -> tuple[dict, bool]:
    from . import weyl
    from .grids import gaussian_1d, grid1d_from_obj, grid1d_to_obj
    c, _ = _lattice_from_doc(_read_doc(args.coeffs), args.coeffs)
    if args.state is not None:
        f = grid1d_from_obj(_read_doc(args.state))
    else:
        f = gaussian_1d(args.grid_extent, args.grid_n, center=0.4, width=1.2)
    result = weyl.rep_lattice_measure(c, args.sigma, args.hbar, f)
    measured = weyl.calibrate_q(args.sigma, args.hbar,
                                half_extent=args.grid_extent, n=args.grid_n)
    closed = weyl.composition_phase(args.sigma, args.hbar)
    return {
        "sigma": args.sigma,
        "hbar": args.hbar,
        "calibrated_q": phaseq_to_obj(measured),
        "closed_form_phase": complex(closed),
        "calibration_gap": abs(measured.q - closed),
        "result": grid1d_to_obj(result, pairs=np.asarray),
    }, True


def _cmd_solve_inner(args) -> tuple[dict, bool]:
    from . import weyl
    from .grids import grid2d_from_obj, grid2d_to_obj
    a_q = grid2d_from_obj(_read_doc(args.a_q))
    a_p = grid2d_from_obj(_read_doc(args.a_p))
    data = weyl.DerivationData(a_q, a_p, args.hbar)
    try:
        result = weyl.solve_inner_generator(data, tol=args.tol)
    except ValueError as exc:
        return {"error": str(exc)}, False
    return {
        "compat_residual": result.compat_residual,
        "overlap_residual": result.overlap_residual,
        "b": grid2d_to_obj(result.b, pairs=np.asarray),
    }, True


def _plane_product(paths, fn, *args):
    """fn(*args) on the grids read from the two files at paths.  Each plane
    product checks its own result at its final scaling, so overflow on the
    way there is not reported twice; a product that is not finite is
    refused as bad input naming both files."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return fn(*args)
        except FormatError as exc:
            raise FormatError(f"inputs '{paths[0]}' and '{paths[1]}': {exc}") from exc


def _cmd_twisted_conv(args) -> tuple[dict, bool]:
    from . import twisted
    from .grids import grid2d_from_obj, grid2d_to_obj
    a = grid2d_from_obj(_read_doc(args.inputs[0]))
    if args.variant == "gauge":
        out = twisted.gauge_iso(a, args.hbar, args.direction)
        return {"variant": "gauge", "hbar": args.hbar,
                "result": grid2d_to_obj(out, pairs=np.asarray)}, True
    if len(args.inputs) != 2:
        raise FormatError("inputs: this variant needs two grid files")
    b = grid2d_from_obj(_read_doc(args.inputs[1]))
    if args.variant == "plain":
        out = _plane_product(args.inputs, twisted.plain_conv, a, b)
    else:
        fn = {"ordered": twisted.twisted_conv, "symplectic": twisted.other_twisted_conv,
              "group": twisted.heisenberg_group_conv}[args.variant]
        out = _plane_product(args.inputs, fn, a, b, args.hbar)
    return {"variant": args.variant, "hbar": args.hbar,
            "result": grid2d_to_obj(out, pairs=np.asarray)}, True


def _cmd_moyal_star(args) -> tuple[dict, bool]:
    from .symbols import (associativity_defect, half_moyal, moyal_star,
                          poisson_bracket, series_to_obj, star_commutator,
                          symbol_from_obj, symbol_to_obj)
    if args.mode == "assoc" and len(args.inputs) != 3:
        raise FormatError("inputs: mode 'assoc' needs three symbol files")
    if len(args.inputs) < 2:
        raise FormatError(f"inputs: mode '{args.mode}' needs two symbol files")
    count = 3 if args.mode == "assoc" else 2
    syms = [symbol_from_obj(_read_doc(path)) for path in args.inputs[:count]]
    nvars = syms[0].nvars
    for path, sym in zip(args.inputs[1:], syms[1:]):
        if sym.nvars != nvars:
            raise FormatError(f"field 'nvars': '{path}' has {sym.nvars}, "
                              f"'{args.inputs[0]}' has {nvars}")
    if nvars % 2:
        raise FormatError("field 'nvars': phase-space symbols need an even "
                          f"variable count, got {nvars}")
    if args.mode == "half" and nvars != 2:
        raise FormatError("field 'nvars': mode 'half' needs one symplectic pair "
                          f"(nvars 2), got {nvars}")
    f, g = syms[:2]
    if args.mode == "assoc":
        defect = associativity_defect(*syms, args.order)
        return {"mode": "assoc", "order": args.order,
                "defect": series_to_obj(defect),
                "is_zero": defect.is_zero()}, True
    if args.mode == "poisson":
        return {"mode": "poisson",
                "result": symbol_to_obj(poisson_bracket(f, g))}, True
    if args.mode == "commutator":
        series = star_commutator(f, g, args.order)
    elif args.mode == "half":
        series = half_moyal(f, g, args.order)
    else:
        series = moyal_star(f, g, args.order)
    return {"mode": args.mode, "order": args.order,
            "result": series_to_obj(series)}, True


def _cmd_fourier_bridge(args) -> tuple[dict, bool]:
    from . import twisted
    from .grids import grid2d_from_obj
    f = grid2d_from_obj(_read_doc(args.inputs[0]))
    g = grid2d_from_obj(_read_doc(args.inputs[1]))
    err = _plane_product(args.inputs, twisted.fourier_bridge_error, f, g, args.hbar, args.order)
    out = {"hbar": args.hbar, "order": args.order, "relative_error": err}
    if args.tol is None:
        return out, True
    out["tol"] = args.tol
    return out, err <= args.tol


def _cmd_hbar_probe(args) -> tuple[dict, bool]:
    from . import twisted
    from .grids import grid2d_from_obj, grid2d_to_obj
    a = grid2d_from_obj(_read_doc(args.inputs[0]))
    b = grid2d_from_obj(_read_doc(args.inputs[1]))
    r = _plane_product(args.inputs, twisted.hbar_smoothness_probe, a, b, args.hbar, args.delta)
    ok = 3.5 <= r.ratio <= 4.5
    out = {"hbar": args.hbar, "delta": args.delta, "ratio": r.ratio,
           "residual_coarse": r.residual_coarse,
           "residual_fine": r.residual_fine,
           "ratio_band": [3.5, 4.5], "ok": ok,
           "derivative": grid2d_to_obj(r.derivative, pairs=np.asarray)}
    return out, ok


def _parse_algebra(doc, name: str):
    from . import gns as gnsmod
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"input '{name}': expected an object with 'kind'")
    kind = doc["kind"]
    try:
        if kind == "torus_quotient":
            return gnsmod.torus_quotient(phaseq_from_obj(doc["q"]))
        if kind == "truncated_box":
            return gnsmod.truncated_box(doc["radius_k"], doc["radius_l"],
                                        phaseq_from_obj(doc["q"]))
    except KeyError as exc:
        raise FormatError(f"field '{exc.args[0]}': missing in '{name}'") from exc
    except ValueError as exc:
        raise FormatError(f"input '{name}': {exc}") from exc
    raise FormatError(f"field 'kind': unknown algebra kind '{kind}'")


def _parse_form(doc, a, name: str):
    from . import gns as gnsmod
    if not isinstance(doc, dict) or "values" not in doc:
        raise FormatError(f"input '{name}': expected an object with 'values'")
    return gnsmod.PositiveForm(values_from_list(doc["values"], a.dim, "values"))


def _cmd_gns_build(args) -> tuple[dict, bool]:
    from . import gns as gnsmod
    a = _parse_algebra(_read_doc(args.algebra), args.algebra)
    phi = _parse_form(_read_doc(args.form), a, args.form)
    try:
        trip = gnsmod.gns_build(phi, a, tol=args.tol)
    except ValueError as exc:
        return {"error": str(exc)}, False
    out = {
        "quotient_dim": trip.quotient_dim,
        "recon_residual": trip.recon_residual,
        "hom_residual": trip.hom_residual,
        "star_residual": trip.star_residual,
        "omega": trip.omega,
    }
    gen_u = (1, 0) if (1, 0) in a.labels else None
    gen_v = (0, 1) if (0, 1) in a.labels else None
    if trip.quotient_dim > 0 and gen_u and gen_v:
        out["pi_u"] = trip.pi_mats[a.index_of(gen_u)]
        out["pi_v"] = trip.pi_mats[a.index_of(gen_v)]
    if trip.quotient_dim > 0 and a.kind == "torus_quotient":  # rho route against Gram route
        _, res = gnsmod.intertwiner(trip, gnsmod._gram_route(phi, a), a)
        out["uniqueness_residual"] = res
    return out, True


def _cmd_gns_check(args) -> tuple[dict, bool]:
    from . import gns as gnsmod
    a = _parse_algebra(_read_doc(args.algebra), args.algebra)
    phi = _parse_form(_read_doc(args.form), a, args.form)
    rep = gnsmod.is_positive(phi, a, tol=args.tol)
    # schwarz_check at every basis vector: |phi(e_i)| against
    # phi(1)^{1/2} phi(e_i* e_i)^{1/2}, with phi(e_i* e_i) the Gram diagonal
    diag = gnsmod.gram_diagonal(phi, a)
    root1 = math.sqrt(max(float(phi.values[a.unit_index].real), 0.0))
    schwarz = float(np.max(np.maximum(
        0.0, np.abs(phi.values) - root1 * np.sqrt(np.maximum(diag.real, 0.0)))))
    out = {
        "positive": rep.ok,
        "min_eigenvalue": rep.min_eigenvalue,
        "hermiticity_residual": rep.hermiticity_residual,
        "star_residual": rep.star_residual,
        "gram_trace": complex(np.sum(diag)),
        "schwarz_max": schwarz,
        "witness": rep.witness,
    }
    if rep.ok:
        try:  # separation_rank builds the GNS triplet, whose checks may refuse
            out["separation_ranks"] = list(gnsmod.separation_rank([phi], a))
        except ValueError as exc:
            return dict(out, error=str(exc)), False
        if (1, 0) in a.labels:  # phi_U(g) = phi(U* g U) is positive with phi
            transported = gnsmod.state_action(phi, a.basis_vector(a.index_of((1, 0))), a)
            out["transported_positive"] = gnsmod.is_positive(transported, a, tol=args.tol).ok
    return out, rep.ok and schwarz <= args.tol


def _cmd_suite(args) -> tuple[dict, bool]:
    from . import suite
    report = suite.run_suite(args.seed)
    return report, report["pass"]


# -- parser --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="nctorus",
        description="exact q-twisted torus arithmetic, twisted convolutions, "
                    "Weyl calculus, and finite GNS constructions")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text, run):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(run=run)
        sp.add_argument("--out", default=None, help="also write the JSON "
                        "report to this file")
        return sp

    sp = add("torus-mul", "multiply two torus elements, or normal order a "
             "generator word with --word", _cmd_torus_mul)
    sp.add_argument("inputs", nargs="*", help="element JSON files")
    sp.add_argument("--q", type=_phase, default=None, help="phase JSON, e.g. "
                    '\'{"rational":[1,4]}\'')
    sp.add_argument("--word", type=_word, default=None, help="signed generator "
                    f"indices up to {MAX_WORD_INDEX}, e.g. '2,1,-2'")

    sp = add("torus-adjoint", "adjoint of a torus element", _cmd_torus_adjoint)
    sp.add_argument("input")
    sp.add_argument("--q", type=_phase, default=None)

    sp = add("torus-seminorm", "seminorms, trace, and convention views of an "
             "element", _cmd_torus_seminorm)
    sp.add_argument("input")
    sp.add_argument("--q", type=_phase, default=None)
    sp.add_argument("--order", type=_order(MAX_EXPONENT), default=0,
                    help="seminorm weight m")
    sp.add_argument("--deriv-word", type=_deriv_word, default=None,
                    help="derivative word 'm,n;m,n;...' for the smooth "
                    "seminorm")
    sp.add_argument("--truncate", type=_pair("radius_k,radius_l"), default=None,
                    help="'radius_k,radius_l' box to truncate to")

    sp = add("torus-derive", "apply a derivation to an element", _cmd_torus_derive)
    sp.add_argument("input")
    sp.add_argument("--q", type=_phase, default=None)
    sp.add_argument("--power", type=_pair("m,n"), default=None,
                    help="'m,n' coordinate powers")
    sp.add_argument("--inner", default=None, help="element file a for ad(a)")
    sp.add_argument("--du", default=None, help="element file with D(U)")
    sp.add_argument("--dv", default=None, help="element file with D(V)")
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-10)

    sp = add("torus-check-derivation", "test whether (D(U), D(V)) extends to "
             "a derivation", _cmd_torus_check_derivation)
    sp.add_argument("du")
    sp.add_argument("dv")
    sp.add_argument("--q", type=_phase, default=None)
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-10)

    sp = add("matrep-eval", "evaluate an element in the clock and shift "
             "fiber at (u, v)", _cmd_matrep_eval)
    sp.add_argument("inputs", nargs="+", help="element file, optionally a "
                    "second element for homomorphism checks")
    sp.add_argument("--q", type=_phase, default=None)
    sp.add_argument("--u", type=_point, default="1,0", help="fiber point 're,im'")
    sp.add_argument("--v", type=_point, default="1,0", help="fiber point 're,im'")
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-10,
                    help="relative gate: covariance and star residuals over ||f||_1, "
                    "homomorphism over ||f||_1 ||g||_1 (coefficient l1 norms), "
                    "equivariance gaps over the largest class sum")

    sp = add("circle-check", "verify the circle-fibered relations for a spec", _cmd_circle_check)
    sp.add_argument("input")
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-12)

    sp = add("weyl-check", "run the Weyl relation battery on a 1d grid", _cmd_weyl_check)
    sp.add_argument("--hbar", type=_NONZERO, default=0.7)
    sp.add_argument("--grid-n", type=_GRID_N, default=512)
    sp.add_argument("--grid-extent", type=_POSITIVE, default=16.0)

    sp = add("rep-lattice", "apply the lattice measure representation and "
             "calibrate its composition phase", _cmd_rep_lattice)
    sp.add_argument("coeffs", help="lattice JSON file")
    sp.add_argument("state", nargs="?", default=None,
                    help="1d grid JSON (default: a fixed gaussian)")
    sp.add_argument("--sigma", type=_FINITE, default=1.0)
    sp.add_argument("--hbar", type=_FINITE, default=1.0)
    sp.add_argument("--grid-n", type=_GRID_N, default=512)
    sp.add_argument("--grid-extent", type=_POSITIVE, default=16.0)

    sp = add("solve-inner", "recover the generator of an inner derivation "
             "from its component data", _cmd_solve_inner)
    sp.add_argument("a_q")
    sp.add_argument("a_p")
    sp.add_argument("--hbar", type=_NONZERO, default=1.0)
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-6)

    sp = add("twisted-conv", "twisted convolutions and the gauge transport "
             "on 2d grids", _cmd_twisted_conv)
    sp.add_argument("inputs", nargs="+", help="grid JSON files")
    sp.add_argument("--hbar", type=_FINITE, default=1.0)
    sp.add_argument("--variant", default="ordered",
                    choices=["ordered", "symplectic", "group", "plain",
                             "gauge"])
    sp.add_argument("--direction", default="forward",
                    choices=["forward", "inverse"],
                    help="gauge variant only")

    sp = add("moyal-star", "formal star products of polynomial symbols", _cmd_moyal_star)
    sp.add_argument("inputs", nargs="+", help="symbol JSON files")
    sp.add_argument("--order", type=_order(MAX_MOYAL_ORDER), default=4)
    sp.add_argument("--mode", default="full",
                    choices=["full", "half", "commutator", "poisson",
                             "assoc"])

    sp = add("fourier-bridge", "compare the convolution route with the "
             "truncated star expansion", _cmd_fourier_bridge)
    sp.add_argument("inputs", nargs=2, help="grid JSON files")
    sp.add_argument("--hbar", type=_FINITE, default=0.05)
    sp.add_argument("--order", type=_order(MAX_BRIDGE_ORDER), default=8)
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=None)

    sp = add("hbar-probe", "Richardson probe of hbar smoothness of the "
             "twisted product", _cmd_hbar_probe)
    sp.add_argument("inputs", nargs=2, help="grid JSON files")
    sp.add_argument("--hbar", type=_FINITE, default=0.5)
    sp.add_argument("--delta", type=_POSITIVE, default=1e-2)

    sp = add("gns-build", "build the GNS triplet of a positive form", _cmd_gns_build)
    sp.add_argument("algebra")
    sp.add_argument("form")
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=None)

    sp = add("gns-check", "positivity, Schwarz, and separation diagnostics "
             "for a form", _cmd_gns_check)
    sp.add_argument("algebra")
    sp.add_argument("form")
    sp.add_argument("--tol", type=_NON_NEGATIVE, default=1e-10)

    sp = add("suite", "run the full deterministic acceptance battery", _cmd_suite)
    sp.add_argument("--seed", type=int, default=42)
    return p


def _glue_point_flags(argv: list[str]) -> list[str]:
    """Rewrite '--u X' as '--u=X' (and --v) so that a fiber point with a
    negative real part, such as '-0.6,0.8', is not taken for a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--u", "--v"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(
            _glue_point_flags(sys.argv[1:] if argv is None else list(argv)))
        report, ok = args.run(args)
        _emit(report, args.out)
        return 0 if ok else 1
    except MismatchError as exc:
        sys.stderr.write(f"error: inputs: {exc}\n")
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
