"""The [re, im] codec: the decoder in lattice.py against the per-pair loops
it replaced, and the CLI writer against json.dumps(indent=2)."""

import json
import math
import re

import numpy as np
import pytest

from nctorus import cli
from nctorus.grids import gaussian_2d, grid2d_from_obj, grid2d_to_obj
from nctorus.lattice import (FormatError, is_number, lattice_from_obj, pairs_to_list,
                             values_from_list)


# -- oracles: the decoding loops of the parent tree, messages included --

def lattice_loop(obj) -> np.ndarray:
    rk, rl, raw = obj["radius_k"], obj["radius_l"], obj["coeffs"]
    cols = 2 * rl + 1
    arr = np.empty(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2
                and is_number(pair[0]) and is_number(pair[1])):
            raise FormatError(f"coeffs[{i}] must be a [re, im] pair")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            k, l = divmod(i, cols)
            raise FormatError(
                f"coeffs[{i}] (k={k - rk}, l={l - rl}) is not finite")
        arr[i] = complex(re, im)
    return arr


def values_loop(raw, what="values") -> np.ndarray:
    out = np.empty(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise FormatError(f"{what}[{i}] must be a [re, im] pair")
        re, im = pair
        if (type(re) is bool or type(im) is bool
                or not (isinstance(re, (int, float)) and isinstance(im, (int, float)))):
            raise FormatError(f"{what}[{i}] must be a [re, im] pair of numbers")
        re, im = float(re), float(im)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise FormatError(f"{what}[{i}] is not finite")
        out[i] = complex(re, im)
    return out


def random_pairs(rng, n: int) -> list:
    """JSON-typed pairs: floats over many magnitudes, signed zeros,
    subnormals, the float extremes and integers past 2**53 and 2**64."""
    pool = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1.7976931348623157e308,
            0, 1, -7, 2 ** 53 + 1, -(2 ** 63) - 1, 2 ** 70 + 3, -(2 ** 64) - 3,
            10 ** 300 + 1]
    vals = []
    for _ in range(2 * n):
        pick = rng.integers(4)
        if pick == 0:
            vals.append(pool[rng.integers(len(pool))])
        elif pick == 1:
            vals.append(int(rng.integers(-10 ** 6, 10 ** 6)))
        else:
            vals.append(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))
    return [vals[2 * i: 2 * i + 2] for i in range(n)]


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_decoder_bit_identical_to_loops(seed):
    rng = np.random.default_rng(seed)
    raw = random_pairs(rng, 3 * 5)
    obj = {"radius_k": 1, "radius_l": 2, "coeffs": raw}
    assert bits(lattice_from_obj(obj).coeffs) == bits(lattice_loop(obj))
    assert bits(values_from_list(raw, len(raw), "values")) == bits(values_loop(raw))


def test_grid_decoder_bit_identical_to_loop():
    f = gaussian_2d(6.0, 6.0, 32, 16, momentum=(0.3, -0.4), amplitude=0.3 - 1.7j)
    doc = json.loads(json.dumps(grid2d_to_obj(f)))
    want = values_loop(doc["values"]).reshape(32, 16)
    assert bits(grid2d_from_obj(doc).values) == bits(want)


BAD_ENTRIES = [
    pytest.param(["1.5", 0.0], id="string"),
    pytest.param([True, 0.0], id="true"),
    pytest.param([0.0, None], id="null"),
    pytest.param([1.0], id="single"),
    pytest.param([1, 2, 3], id="triple"),
    pytest.param([float("nan"), 0.0], id="NaN"),
    pytest.param([0.0, float("inf")], id="Infinity"),
    pytest.param([-float("inf"), 1.0], id="-Infinity"),
    pytest.param([10 ** 400, 0.0], id="huge-int"),
    pytest.param(1.5, id="bare-number"),
    pytest.param({"re": 1.0, "im": 0.0}, id="object"),
]


def message(fn, *args) -> str:
    with pytest.raises(FormatError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("index", [0, 7, 14])
def test_refusals_keep_the_loops_messages(entry, index):
    # the entry goes through JSON text, so NaN and Infinity are the literals
    raw = json.loads(json.dumps([[0.5, -0.25]] * index + [entry]
                                + [[1.0, 2.0]] * (14 - index)))
    obj = {"radius_k": 1, "radius_l": 2, "coeffs": raw}
    got = message(lattice_from_obj, obj)
    assert f"coeffs[{index}]" in got
    if entry == [10 ** 400, 0.0]:  # the loop died with OverflowError here
        assert got == f"coeffs[{index}] (k={index // 5 - 1}, l={index % 5 - 2}) is not finite"
    else:
        assert got == message(lattice_loop, obj)
        assert message(values_from_list, raw, 15, "values") == message(values_loop, raw)
    with pytest.raises(FormatError, match=rf"^values\[{index}\] "):
        values_from_list(raw, 15, "values")


def test_decoder_takes_numpy_scalars():
    # valid values that are int or float subclasses pass, as in the loops
    raw = [[np.float64(1.5), 2], [-0.0, np.float64(-3.25)]]
    assert bits(values_from_list(raw, 2, "values")) == bits(np.array([1.5 + 2j, -0.0 - 3.25j]))


# -- the writer --------------------------------------------------------

def written(obj, capsys) -> str:
    cli._emit(obj, None)
    return capsys.readouterr().out


def dumped(obj) -> str:
    return json.dumps(obj, indent=2, default=pairs_to_list) + "\n"


SPECIAL = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                    -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0, 1e16,
                    1e-7, 2.0 ** 70])
NONFINITE = np.array([float("nan"), float("inf"), -float("inf"), 1.5])


def cplx(re, im) -> np.ndarray:
    # not re + 1j * im, which loses -0.0 and turns 1j * inf into nan + inf j
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def arrays():
    rng = np.random.default_rng(11)
    vec = cplx(SPECIAL, SPECIAL[::-1])
    return {
        "vector": vec,
        "matrix": (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))),
        "columns": (rng.standard_normal((4, 3)) + 1j).T,  # not contiguous
        "empty": np.zeros(0, dtype=np.complex128),
        "empty-rows": np.zeros((2, 0), dtype=np.complex128),
        "real": rng.standard_normal(5),
        "nonfinite": cplx(NONFINITE, NONFINITE[::-1]),
        "scalar": complex(-0.0, 5e-324),
        "array-scalar": np.asarray(2.5 - 1e308j),
    }


def nest(value, depth: int):
    for i in range(depth):
        value = {"level": i, "inner": value, "after": [None, True, "xé"]} if i % 2 \
            else [1, value, {"k": -0.0}]
    return value


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("kind", list(arrays()))
def test_writer_equals_json_dumps(kind, depth, capsys):
    obj = nest(arrays()[kind], depth)
    if kind == "nonfinite":
        # json.dumps would write NaN, which is not JSON: the writer refuses,
        # naming the first bad entry, before it writes anything
        where = ["[0]", "[1][0]", "inner[1][0]", "[1].inner[1][0]"][depth]
        with pytest.raises(cli.FormatError, match=rf"^report field '{re.escape(where)}'"):
            written(obj, capsys)
        assert capsys.readouterr().out == ""
        return
    assert written(obj, capsys) == dumped(obj)


@pytest.mark.parametrize("depth", range(4))
def test_writer_blocks_equal_json_dumps(depth, capsys, monkeypatch):
    # a grid spanning several blocks and a partial one, nested at each depth
    monkeypatch.setattr(cli, "_EMIT_BATCH", 100)
    values = gaussian_2d(8.0, 8.0, 16, 32, momentum=(0.3, -0.7)).values.reshape(-1)
    assert len(values) > 2 * cli._EMIT_BATCH and len(values) % cli._EMIT_BATCH
    obj = nest({"values": values}, depth)
    assert written(obj, capsys) == dumped(obj)


def test_writer_plain_json(capsys):
    obj = {"a": [], "b": {}, "c": [[], {}], 1: "one", None: 2.5, True: [1e-300],
           "d": ("t", 1), "e": "☃\n\"", "f": 1e16}
    assert written(obj, capsys) == json.dumps(obj, indent=2) + "\n"
