"""plane_twisted: in-process twisted products of seeded Gaussian pairs.

One round, sizes fixed, parameters drawn from the seed:

- at 256^2 one case pair and at 128^2 two, each made of a *matched* and an
  *unmatched* case, each case run through ``twisted_conv`` (ordered),
  ``other_twisted_conv`` (symplectic) and ``heisenberg_group_conv`` (group)
  at a fixed hbar from {0.25, 0.5, 1.0} (see SLOT_HBAR);
- matched grids have half-extent sqrt(pi n / (2 hbar)) for the ordered
  twist and sqrt(pi n / hbar) for the other two, where the periodised
  product is exactly the twisted group algebra of Z_n x Z_n; unmatched grids
  have half-extent 16.  Symplectic and group share a pair, so group =
  symplectic is checked on every case; on unmatched grids their pair is the
  gauge image of the ordered pair, so gauge transport is checked too;
- ``plain_conv``, ``gauge_iso`` and ``fourier_bridge_error`` (order 4,
  hbar 0.25) at 128^2.

18 products plus 3 extras: the 256^2 products hold most of the busy time,
and the median latency falls among the twelve 128^2 products.
"""

from __future__ import annotations

import math

import numpy as np

import nctorus as nc
import oracles as O
from bench import Op, Tracer, rng_for

COPIES = {256: 1, 128: 2}
# hbar per (n, copy, matched): each of 0.25, 0.5, 1.0 on matched and on
# unmatched grids.  Fixed rather than drawn, because the grid extent and so
# the share of subnormal tail values (which slow the FFT passes) follow
# hbar; widths vary only 5% for the same reason.
SLOT_HBAR = {(256, 0, True): 0.5, (256, 0, False): 1.0,
             (128, 0, True): 0.25, (128, 0, False): 0.5,
             (128, 1, True): 1.0, (128, 1, False): 0.25}
UNMATCHED_L = 16.0
MAX_SPACING_PER_WIDTH = 0.35
FNS = {"twisted_conv": "ordered", "other_twisted_conv": "symplectic",
       "heisenberg_group_conv": "group"}
CONV_TOL = 1e-11       # against the closed form; measured gaps are 1e-16..1e-14
GROUP_TOL = 1e-10      # group against symplectic, as in criterion 8
TRANSPORT_TOL = 1e-6   # gauge transport on unmatched grids, as in criterion 8
ASSOC_TOL = 1e-12      # exact associativity on matched grids
BRIDGE_HBAR = 0.25
BRIDGE_TOL = 1e-3
LAYERS = ("twisted", "grids")


class Workload:
    def __init__(self, seed: int, tr: Tracer):
        rng = rng_for(seed, "plane_twisted")
        self.ops: list[Op] = []
        self.cases = {}    # op name -> (kind, Gauss a, Gauss b, hbar, grid a, grid b)
        self.triples = []  # (op name, third grid for the associativity check)

        def bump(half_extent: float, n: int):
            # widths grow with the spacing on coarse matched grids, so that the
            # grid sum matches the integral to round-off
            spread = max(1.0, 2.0 * half_extent / n / MAX_SPACING_PER_WIDTH)
            par = dict(center=tuple(rng.uniform(-0.8, 0.8, 2)),
                       width=tuple(spread * rng.uniform(0.95, 1.05, 2)),
                       momentum=tuple(rng.uniform(-1.0, 1.0, 2)),
                       amplitude=complex(rng.standard_normal(), rng.standard_normal()))
            grid = tr.call("grids", "gaussian_2d", nc.gaussian_2d,
                           half_extent, half_extent, n, n, **par)
            return grid, O.Gauss.bump(par["center"], par["width"], par["momentum"], par["amplitude"])

        for n, copies in COPIES.items():
            for copy in range(copies):
                for matched in (True, False):
                    hbar = SLOT_HBAR[(n, copy, matched)]
                    tag = f"{'matched' if matched else 'unmatched'}.n{n}"
                    l_ord = math.sqrt(math.pi * n / (2 * hbar)) if matched else UNMATCHED_L
                    l_sym = math.sqrt(math.pi * n / hbar) if matched else UNMATCHED_L
                    (a, ga), (b, gb) = bump(l_ord, n), bump(l_ord, n)
                    if matched:
                        (c, gc), (d, gd) = bump(l_sym, n), bump(l_sym, n)
                    else:
                        gc, gd = ga.gauged(hbar), gb.gauged(hbar)
                        x1, x2 = O.grid_axes(a)
                        c, d = a.with_values(gc.values(x1, x2)), b.with_values(gd.values(x1, x2))
                    for fn, kind in FNS.items():
                        name = f"{fn}.{tag}.{copy}"
                        x, y, gx, gy = (a, b, ga, gb) if kind == "ordered" else (c, d, gc, gd)
                        self._add(name, "twisted", f"{fn}.{tag}", getattr(nc, fn), x, y, hbar)
                        self.cases[name] = (kind, gx, gy, hbar, x, y)
                        if matched and n == 128:
                            self.triples.append((name, bump(x.half_extent_t, n)[0]))
        a, ga = bump(UNMATCHED_L, 128)
        b, gb = bump(UNMATCHED_L, 128)
        hbar = 0.5
        self._add("plain_conv", "twisted", "plain_conv", nc.plain_conv, a, b)
        self.cases["plain_conv"] = ("ordered", ga, gb, 0.0, a, b)
        self._add("gauge_iso", "twisted", "gauge_iso", nc.gauge_iso, a, hbar)
        self.gauge_case = (ga, hbar, a)
        self.ops.append(Op("fourier_bridge_error", lambda t: t.call(
            "twisted", "fourier_bridge_error", nc.fourier_bridge_error, a, b, BRIDGE_HBAR, 4)))

    def _add(self, name, layer, key, fn, *args):
        self.ops.append(Op(name, lambda t: t.call(layer, key, fn, *args).values))

    def warmup(self) -> None:
        """The 128^2 unmatched products and the extras, untraced."""
        off = Tracer(False)
        for op in self.ops:
            if op.name.endswith("unmatched.n128.0") or "." not in op.name:
                op.fn(off)

    def check(self, outputs: dict) -> list[str]:
        errs = []
        for name, (kind, ga, gb, hbar, grid, _) in self.cases.items():
            if name in outputs:
                x1, x2 = O.grid_axes(grid)
                errs += O.check_close(name, outputs[name],
                                      O.gauss_product(kind, ga, gb, hbar, x1, x2), CONV_TOL)
        for name, out in outputs.items():
            if name.startswith("heisenberg_group_conv."):
                sym = outputs.get(name.replace("heisenberg_group_conv", "other_twisted_conv"))
                if sym is not None:
                    errs += O.check_close(f"{name} vs symplectic", out, sym, GROUP_TOL)
            if name.startswith("twisted_conv.unmatched"):
                sym = outputs.get(name.replace("twisted_conv", "other_twisted_conv"))
                hbar, grid = self.cases[name][3], self.cases[name][4]
                if sym is not None:
                    x1, x2 = O.grid_axes(grid)
                    moved = out * np.exp(-0.5j * hbar * x1 * x2)
                    gap = O.rel_l2(sym, moved)
                    if not gap <= TRANSPORT_TOL:
                        errs.append(f"{name}: gauge transport gap {gap:.3e}")
        for name, c in self.triples:
            if name in outputs:
                errs += self._associativity(name, outputs[name], c)
        if "gauge_iso" in outputs:
            ga, hbar, grid = self.gauge_case
            x1, x2 = O.grid_axes(grid)
            errs += O.check_close("gauge_iso", outputs["gauge_iso"],
                                  ga.gauged(hbar).values(x1, x2), 1e-13)
        if "fourier_bridge_error" in outputs:
            err = outputs["fourier_bridge_error"]
            if not 0.0 <= err <= BRIDGE_TOL:
                errs.append(f"fourier_bridge_error {err!r} outside [0, {BRIDGE_TOL}]")
        return errs

    def _associativity(self, name: str, ab: np.ndarray, c) -> list[str]:
        """(a*b)*c against a*(b*c) with the program's own product, on a
        matched grid where the identity is exact."""
        fn = getattr(nc, name.split(".")[0])
        hbar, a, b = self.cases[name][3:]
        left = fn(a.with_values(ab), c, hbar).values
        right = fn(a, fn(b, c, hbar), hbar).values
        gap = O.rel_l2(left, right)
        return [] if gap <= ASSOC_TOL else [f"{name}: associativity gap {gap:.3e}"]

    def layer_metrics(self, tr: Tracer, outputs: dict) -> dict:
        m = {}
        for fn in FNS:
            for tag in ("matched", "unmatched"):
                for n in COPIES:
                    key = f"{fn}.{tag}.n{n}"
                    m[f"twisted.{fn}.{tag}.n{n}.ms"] = tr.median_ms("twisted", key)
        for key in ("plain_conv", "gauge_iso", "fourier_bridge_error"):
            m[f"twisted.{key}.ms"] = tr.median_ms("twisted", key)
        sizes = {op: self.cases[op][4].values.size if op in self.cases else 128 * 128
                 for op in (o.name for o in self.ops)}
        spans = [(t1 - t0, op) for lay, _, t0, t1, op in tr.spans if lay == "twisted"]
        m["twisted.points_per_s"] = sum(sizes[op] for _, op in spans) / sum(d for d, _ in spans)
        m["grids.gaussian_2d.ms"] = tr.median_ms("grids", "gaussian_2d")
        m.update(tr.busy_shares(LAYERS))
        return m
