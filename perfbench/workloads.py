"""The benchmark workloads: seeded inputs, requests and output checks.

A workload goes through the same steps on every run:

``write_inputs(workdir, rng, smoke)``
    writes the pattern files the program reads (untimed);
``setup(files)``
    loads and validates every file, then builds its constraint system and
    spanning tree; this is what ``setup_s`` times;
``requests(ctx, rng, smoke)``
    builds one pass of requests from the seed (untimed);
``run(ctx, req)``
    serves one request through the public library or the CLI (timed);
``check(ctx, req, out)``
    checks one output and raises :class:`CheckFailed` when it is wrong
    (untimed);
``final_check(ctx)``
    checks what needs the whole run, once, after the timed phase.

``smoke`` selects the smallest size of every workload, used by the
benchmark's own test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rigidori as ro
import rigidori.cli
from rigidori import patterns
from rigidori.model import Crease, CreasePattern

# The Miura guess lands on a regular 1-DOF folded state at this shear; at
# 0.35 or 0.4 it falls to the flat state or to a rigid state instead.
SHEAR = 0.3
RESIDUAL_TOL = 1e-9


class CheckFailed(Exception):
    """A request returned an output that fails its correctness check."""


@dataclass
class Request:
    kind: str
    args: tuple


@dataclass
class Loaded:
    pattern: CreasePattern
    system: ro.ConstraintSystem
    chains: dict


@dataclass
class Context:
    files: list[Path]
    loaded: list[Loaded]
    state: dict = field(default_factory=dict)   # per-run check memo


def _save(path: Path, pattern: CreasePattern) -> Path:
    path.write_text(ro.dumps_pattern(pattern), encoding="utf-8")
    return path


def _close(a, b, tol=1e-12) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    name = ""

    def setup(self, files: list[Path]) -> Context:
        loaded = []
        for f in files:
            pattern = ro.load_pattern(f)
            loaded.append(Loaded(pattern, ro.build_system(pattern),
                                 ro.build_spanning_tree(pattern)))
        return Context(list(files), loaded)

    def final_check(self, ctx: Context) -> None:
        pass

    def counts(self, req: Request, out) -> dict[str, float]:
        """Layer counts that only the caller of the program can see."""
        return {}


# -- Miura mode of the sheared grid -------------------------------------------

def miura_guess(pattern: CreasePattern) -> np.ndarray:
    """Horizontal creases +0.4, zigzag creases +-0.8 alternating by column.

    ``pattern`` is a square ``sheared_grid``, whose rows hold n + 1 vertices.
    """
    guess = np.zeros(pattern.n_vars)
    row_len = int(round(pattern.vertices[:, 1].max())) + 1
    for k, ci in enumerate(pattern.inner_creases):
        c = pattern.creases[ci]
        if pattern.vertices[c.u][1] == pattern.vertices[c.v][1]:
            guess[k] = 0.4
        else:
            guess[k] = 0.8 if (c.u % row_len) % 2 else -0.8
    return guess


def miura_state(loaded: Loaded, scale: float):
    """The Miura guess scaled by ``scale`` and projected by Gauss-Newton.

    Returns (rho, flex) with the flex pointing away from the flat state,
    which is singular, or None when the projection lands on another
    component (a spurious half-turn root, the flat state, a rigid state).
    """
    rho, _, ok = ro.gauss_newton_correct(loaded.system,
                                         scale * miura_guess(loaded.pattern),
                                         max_iter=50)
    if not ok or ro.residual(loaded.system, rho).max_norm > RESIDUAL_TOL:
        return None
    report = ro.classify(loaded.system, rho)
    if report.deg != 1 or float(np.abs(rho).max()) < 0.1:
        return None
    flex = report.flex_basis[:, 0]
    return rho, (flex if flex @ rho > 0 else -flex)


def miura_starts(loaded: Loaded, rng, count: int):
    """``count`` regular 1-DOF states on the Miura mode, with outward flexes.

    The seed scales the guess, which picks the point along the mode; scales
    that project to another component are redrawn.
    """
    out = []
    for _ in range(50 * count):
        if len(out) == count:
            break
        start = miura_state(loaded, float(rng.uniform(0.3, 1.6)))
        if start is not None:
            out.append(start)
    if len(out) < count:
        raise RuntimeError("the Miura guess found too few 1-DOF states")
    return out


# -- motion ----------------------------------------------------------------------

class Motion(Workload):
    """``track_flex`` along the Miura mode of ``sheared_grid(8, 8)``."""

    name = "motion"
    STEPS = 10

    def write_inputs(self, workdir, rng, smoke):
        n = 3 if smoke else 8
        return [_save(workdir / "miura.json", patterns.sheared_grid(n, n, shear=SHEAR))]

    def requests(self, ctx, rng, smoke):
        starts = miura_starts(ctx.loaded[0], rng, 2 if smoke else 6)
        return [Request("track", (rho, flex)) for rho, flex in starts]

    def run(self, ctx, req):
        lo = ctx.loaded[0]
        rho, flex = req.args
        path = ro.track_flex(lo.system, rho, flex, steps=self.STEPS)
        deg = ro.classify(lo.system, path.samples[-1]).deg
        # the work of `track --obj-dir`, without the disk writes
        meshes = [ro.fold_mesh(lo.pattern, s, chains=lo.chains) for s in path.samples]
        return path, deg, meshes

    def check(self, ctx, req, out):
        path, deg, meshes = out
        _require(path.termination == "steps", f"termination {path.termination}")
        _require(len(path.samples) == self.STEPS + 1, f"{len(path.samples)} samples")
        _require(max(path.residuals) <= RESIDUAL_TOL,
                 f"residual {max(path.residuals):.3e}")
        _require(deg == 1, f"end state has deg {deg}")
        # every folded panel keeps the edge lengths of its flat polygon
        pattern = ctx.loaded[0].pattern
        for mesh in meshes:
            _require(len(mesh) == len(pattern.panels), "mesh panel count")
            for p, poly in enumerate(mesh):
                flat = pattern.panel_polygon(p)
                want = np.linalg.norm(flat - np.roll(flat, -1, axis=0), axis=1)
                got = np.linalg.norm(poly - np.roll(poly, -1, axis=0), axis=1)
                _require(_close(want, got, 1e-9), f"panel {p} is not rigid")


# -- contact ---------------------------------------------------------------------

# Angles of the 7 horizontal crease lines of the 8x8 grid, bottom to top.
# Each row is one state; together they give every verdict: "free" (2),
# "ordered" with 8 or 24 overlap slots (3) and "crossing" (1).  The states
# are fixed, so that a pass costs the same for every seed.
PI = math.pi
LINE_FOLDS = ((1.0, 0.0, PI, -1.0, 2.0, -PI, -2.0),      # crossing
              (-PI, -1.0, 0.0, -2.0, 2.0, PI, 1.0),      # free
              (PI, -1.0, 2.0, 0.0, -2.0, 1.0, -PI),      # free
              (0.0, 1.0, 2.0, -PI, -2.0, -1.0, PI),      # ordered, 24 slots
              (-2.0, -PI, PI, 1.0, 2.0, -1.0, 0.0),      # ordered, 8 slots
              (-1.0, 0.0, -PI, PI, 2.0, -2.0, 1.0))      # ordered, 8 slots
# Miura-mode states: the guess scaled by these before projection
MIURA_SCALES = (0.8, 1.4)


def horizontal_lines(pattern: CreasePattern) -> list[list[int]]:
    """Variable indices of each inner horizontal crease line, bottom to top."""
    rows: dict[float, list[int]] = {}
    for k, ci in enumerate(pattern.inner_creases):
        c = pattern.creases[ci]
        y = pattern.vertices[c.u][1]
        if y == pattern.vertices[c.v][1]:
            rows.setdefault(float(y), []).append(k)
    return [rows[y] for y in sorted(rows)]


def _contact_summary(report):
    return (report.verdict, tuple(map(tuple, report.crossing_pairs)),
            tuple(tuple(r["pair"]) for r in report.overlap_pairs))


class Contact(Workload):
    """``check_state`` on straight-line folds and Miura-mode samples."""

    name = "contact"

    def write_inputs(self, workdir, rng, smoke):
        n = 3 if smoke else 8
        return [_save(workdir / "grid.json", patterns.sheared_grid(n, n, shear=SHEAR))]

    def requests(self, ctx, rng, smoke):
        lo = ctx.loaded[0]
        lines = horizontal_lines(lo.pattern)
        states = []
        for folds in LINE_FOLDS[:2] if smoke else LINE_FOLDS:
            # the seed may mirror the grid top to bottom, which reverses the
            # order of the lines and keeps every verdict and its cost; the
            # zigzag creases stay flat, so the state lies exactly on the variety
            folds = folds[:len(lines)]
            if rng.integers(2):
                folds = folds[::-1]
            rho = np.zeros(lo.pattern.n_vars)
            for var_ids, angle in zip(lines, folds):
                rho[var_ids] = angle
            states.append(rho)
        for scale in MIURA_SCALES[:1] if smoke else MIURA_SCALES:
            start = miura_state(lo, scale)
            if start is None:
                raise RuntimeError(f"Miura scale {scale} gives no 1-DOF state")
            states.append(start[0])
        order = rng.permutation(len(states))
        # each state is followed by its mirror image, which must give the
        # same verdict and pairs
        return [Request("check", (int(i), sign, sign * states[i]))
                for i in order for sign in (1, -1)]

    def run(self, ctx, req):
        lo = ctx.loaded[0]
        return ro.check_state(lo.pattern, req.args[2], system=lo.system,
                              chains=lo.chains)

    def check(self, ctx, req, out):
        i, sign, _ = req.args
        seen = ctx.state.setdefault("summaries", {})
        summary = _contact_summary(out)
        for key in ((i, sign), (i, -sign)):
            if key in seen:
                _require(seen[key] == summary,
                         f"state {i}: {summary[0]} differs from {seen[key][0]}")
        seen[(i, sign)] = summary

    def final_check(self, ctx):
        lo = ctx.loaded[0]
        flat = ro.check_state(lo.pattern, np.zeros(lo.pattern.n_vars),
                              system=lo.system, chains=lo.chains)
        _require(flat.verdict == "free", f"flat state is {flat.verdict}")


# -- generic ---------------------------------------------------------------------

def dumbbell(block: int, strip: int = 2, row: int = 0) -> CreasePattern:
    """Two ``block`` x ``block`` grids joined by a one-panel-wide strip.

    The strip's single hinges cannot carry six edge-disjoint trees through
    the five-fold hinge graph, so packing fails although the counting bound
    holds.  Built directly as a cell complex of unit squares.
    """
    index: dict[tuple[int, int], int] = {}

    def vid(x, y):
        return index.setdefault((x, y), len(index))

    panels = []
    for x0, width, y0, height in ((0, block, 0, block),
                                  (block, strip, row, 1),
                                  (block + strip, block, 0, block)):
        for y in range(y0, y0 + height):
            for x in range(x0, x0 + width):
                panels.append([vid(x, y), vid(x + 1, y), vid(x + 1, y + 1),
                               vid(x, y + 1)])
    sides: dict[tuple[int, int], int] = {}
    for cycle in panels:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            key = (min(a, b), max(a, b))
            sides[key] = sides.get(key, 0) + 1
    creases = [Crease(a, b, "inner" if n == 2 else "outer")
               for (a, b), n in sorted(sides.items())]
    coords = [None] * len(index)
    for (x, y), k in index.items():
        coords[k] = (float(x), float(y))
    return ro.validate_pattern(CreasePattern(coords, creases, panels))


class Generic(Workload):
    """``is_generically_rigid`` on feasible grids and infeasible dumbbells.

    A pass is three grids and two dumbbells, the dumbbells slowest: with
    at least six passes in a run the dumbbells alone are the eleven
    slowest requests, so they set the tail.
    """

    name = "generic"

    def write_inputs(self, workdir, rng, smoke):
        files = []
        for n in ((2, 3) if smoke else (5, 6, 7)):
            shear = float(rng.uniform(0.1, 0.4))
            files.append(_save(workdir / f"grid{n}.json",
                               patterns.sheared_grid(n, n, shear=shear)))
        # strips along the bottom and the top edge; their cost differs less
        # than that of inner rows, so every seed gets the same mix
        block = 3 if smoke else 4
        rows = rng.permutation([0, block - 1])
        for k, row in enumerate(rows):
            files.append(_save(workdir / f"dumbbell{k}.json", dumbbell(block, row=int(row))))
        return files

    def requests(self, ctx, rng, smoke):
        # grids are generically rigid; the dumbbells (the last two files) are not
        return [Request("generic", (int(i), bool(i < len(ctx.files) - 2)))
                for i in rng.permutation(len(ctx.files))]

    def run(self, ctx, req):
        return ro.is_generically_rigid(ctx.loaded[req.args[0]].pattern)

    def check(self, ctx, req, out):
        i, feasible = req.args
        pattern = ctx.loaded[i].pattern
        _require(out.generically_rigid == feasible,
                 f"file {ctx.files[i].name}: rigid={out.generically_rigid}")
        edges = ctx.state.setdefault("edges", {})
        if i not in edges:
            edges[i] = ro.multigraph(ro.genericity.panel_hinge_multigraph(pattern), 5)
        n = len(pattern.panels)
        if feasible:
            _require(ro.verify_packing(out.packing, n, edges[i]), "bad tree packing")
            return
        parts = out.packing.partition
        _require(sorted(v for part in parts for v in part) == list(range(n)),
                 "certificate is not a partition of the panels")
        cross, bound = out.packing.violation(edges[i])
        _require(cross < bound, f"certificate has {cross} >= {bound} cross edges")


# -- small-batch -----------------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ro.cli.main(argv)
    return code, buf.getvalue()


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class SmallBatch(Workload):
    """Many small requests through the in-process CLI and the library."""

    name = "small-batch"

    def write_inputs(self, workdir, rng, smoke):
        # a degree-3 cone (sector sum below 2*pi) with a folded solution
        while True:
            alphas = rng.uniform(0.6, 1.6, 3)
            if ro.solve_degree3(alphas).points:
                break
        return [_save(workdir / "cross.json", patterns.cross_vertex()),
                _save(workdir / "pentagon_ring.json", patterns.pentagon_ring()),
                _save(workdir / "cone.json", patterns.single_vertex_cone(alphas)),
                _save(workdir / "square_ring.json", patterns.square_ring())]

    def requests(self, ctx, rng, smoke):
        cross, ring, cone, square = (str(f) for f in ctx.files)
        t = float(rng.uniform(-2.5, 2.5))
        cone_lo = ctx.loaded[2]
        cone_rho = ro.solve_degree3(cone_lo.pattern.sector_angles(
            cone_lo.pattern.inner_vertices[0])).points[0]
        # the cone's variables follow its crease order, not its fan order
        fan = cone_lo.pattern.vertex_creases[cone_lo.pattern.inner_vertices[0]]
        rho = np.zeros(3)
        for j, ci in enumerate(fan):
            rho[cone_lo.pattern.var_of_crease[ci]] = cone_rho[j]
        reqs = [Request("validate", (f,)) for f in (cross, ring, cone, square)]
        reqs += [Request("analyze", (cross, (0.0, t, 0.0, t))),
                 Request("analyze", (ring, tuple(np.zeros(5)))),
                 Request("analyze", (cone, tuple(rho))),
                 Request("analyze", (square, tuple(np.zeros(8))))]
        reqs.append(Request("track", (cross, (0.0, 1.0, 0.0, 1.0))))
        # explore_vertex takes 4 to 24 ms depending on the triple; a dozen
        # triples keep the mean cost of a pass about the same for every seed
        for _ in range(2 if smoke else 12):
            alphas = tuple(rng.uniform(0.05, 2 * math.pi - 0.05, 3))
            reqs += [Request("solve-vertex", (alphas,)), Request("explore", (alphas,))]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def run(self, ctx, req):
        a = req.args
        if req.kind == "explore":
            return ro.explore_vertex(np.asarray(a[0]))
        if req.kind == "solve-vertex":
            return call_cli(["solve-vertex", "--alphas", _csv(a[0])])
        if req.kind == "validate":
            return call_cli(["validate", a[0]])
        if req.kind == "analyze":
            return call_cli(["analyze", a[0], "--rho", _csv(a[1])])
        return call_cli(["track", a[0], "--direction", _csv(a[1])])

    def counts(self, req, out):
        if req.kind == "explore":
            return {}
        return {"cli.bytes_out": len(out[1].encode("utf-8"))}

    def _loaded(self, ctx, path):
        return ctx.loaded[[str(f) for f in ctx.files].index(path)]

    def check(self, ctx, req, out):
        if req.kind == "explore":
            sol = ro.solve_degree3(np.asarray(req.args[0]))
            _require(not (sol.empty and out), "roots where the closed form has none")
            for root in out:
                _require(sol.distance(root) <= 1e-6,
                         f"root {root} is {sol.distance(root):.2e} from the closed form")
            return
        code, text = out
        _require(code == 0, f"{req.kind} exited with {code}: {text[:200]}")
        got = json.loads(text)
        if req.kind == "solve-vertex":
            sol = ro.solve_degree3(np.asarray(req.args[0]))
            _require(len(got["points"]) == len(sol.points), "point count")
            for p, q in zip(got["points"], sol.points):
                _require(_close(p, q), "solve-vertex point differs from the library")
            _require(len(got["families"]) == len(sol.families), "family count")
            return
        lo = self._loaded(ctx, req.args[0])
        if req.kind == "validate":
            want = {"panels": len(lo.pattern.panels),
                    "inner_creases": lo.pattern.n_vars,
                    "inner_vertices": len(lo.pattern.inner_vertices),
                    "holes": len(lo.pattern.holes),
                    "vertex_loops": lo.system.n_vertex_loops,
                    "hole_loops": lo.system.n_hole_loops,
                    "residual_dim": lo.system.residual_dim}
            _require(all(got[k] == v for k, v in want.items()), f"validate {got}")
            return
        if req.kind == "analyze":
            rep = ro.classify(lo.system, np.asarray(req.args[1]))
            _require(got["rank"] == rep.rank and got["deg"] == rep.deg,
                     f"analyze rank {got['rank']} deg {got['deg']}")
            return
        key = ("track",) + req.args
        ref = ctx.state.setdefault("tracks", {})
        if key not in ref:
            ref[key] = ro.track_flex(lo.system, lo.pattern.initial_state().rho,
                                     np.asarray(req.args[1]), steps=100)
        path = ref[key]
        _require(got["termination"] == path.termination == "steps", "track termination")
        _require(_close(got["samples"], path.samples), "track samples differ from the library")
        _require(max(got["residuals"]) <= RESIDUAL_TOL, "track residual")


# -- generic-batch -----------------------------------------------------------------

class Combined(Workload):
    """Several workloads served as one: their requests share one shuffled pass.

    Each part keeps its own files (in a subdirectory named after it), its
    own context and its own checks.
    """

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts

    def write_inputs(self, workdir, rng, smoke):
        files = []
        for part in self.parts:
            sub = workdir / part.name
            sub.mkdir()
            files += part.write_inputs(sub, rng, smoke)
        return files

    def setup(self, files):
        subs = [part.setup([f for f in files if f.parent.name == part.name])
                for part in self.parts]
        return Context(list(files), [lo for c in subs for lo in c.loaded],
                       {"parts": subs})

    def requests(self, ctx, rng, smoke):
        reqs = [Request(r.kind, (k, r)) for k, part in enumerate(self.parts)
                for r in part.requests(ctx.state["parts"][k], rng, smoke)]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def run(self, ctx, req):
        k, inner = req.args
        return self.parts[k].run(ctx.state["parts"][k], inner)

    def check(self, ctx, req, out):
        k, inner = req.args
        self.parts[k].check(ctx.state["parts"][k], inner, out)

    def counts(self, req, out):
        k, inner = req.args
        return self.parts[k].counts(inner, out)

    def final_check(self, ctx):
        for part, sub in zip(self.parts, ctx.state["parts"]):
            part.final_check(sub)


# The tree packing and the short calls share one workload because the
# shared host's speed swings for tens of seconds at a time: three
# workloads leave each run enough time to average over those swings.
WORKLOADS = {w.name: w for w in (Motion(), Contact(),
                                 Combined("generic-batch", [Generic(), SmallBatch()]))}
