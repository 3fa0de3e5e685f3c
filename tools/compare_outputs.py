"""Compare the kernel, contact, genericity, tracking, single-vertex and validation outputs of two rigidori trees.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--tol 1e-12]

Each ``src`` directory is imported in its own subprocess.  The OLD run picks
the input states: the Miura state of ``sheared_grid(8, 8)`` found as the
benchmark's ``miura_state`` finds it, and seeded random states of
``pentagon_ring``, ``square_ring`` and a degree-3 cone.  The NEW run reuses
those states.  Both record the residual vector and max-norm, the Jacobian,
the transfer matrix of every spanning-tree chain and every ``fold_mesh``
polygon.  They also record, at seeded random states that the OLD run
draws, ``fold_mesh`` and ``panel_frames`` on ``sheared_grid(16, 16)`` and
the cross vertex, ``fold_mesh`` of both with a random ``rho0`` in place of
the flat default, and ``fold_mesh`` of the cross vertex with chains that
are not its spanning tree (panel 2 reached through panel 3 instead of
panel 1), so that placement off the cached tree is compared too.  At the
same states they record ``fold_point`` of six seeded points in seeded
panels, with the panel given and looked up.  They record
``angular_velocities`` along the flex of the Miura states of
``sheared_grid(8, 8)`` and ``sheared_grid(16, 16)`` and along both branches
of the cross vertex at a seeded angle, every flex scaled to max-norm 1.  The
largest difference of each output is printed; the exit code is 1 when one
exceeds ``--tol``, or 1e-14 for the angular velocities.

Both runs also record ``check_state`` reports: on every request the
benchmark's ``contact`` workload can make (each line fold of the 8x8 grid in
both line orders and each Miura state, all with their mirrors), on one
line fold of ``sheared_grid(16, 16)``, on ``sheared_grid(32, 32)`` (1,024
panels) flat and with its lines folded by the benchmark's line folds in
turn, on the strip of five squares folded
flat, whose stacks hold three panels, on ``sheared_grid(8, 8)`` folded flat
(every crease at +pi, at -pi and at four seeded +-pi sign patterns), the
densest coplanar stacks, and on the test fixtures of
``rigidori.patterns`` at their flat state, at every crease folded to +pi or
-pi and at seeded random angles (off the variety, so their residual is not
checked).  Every state is checked without
stacking signs and with signs that the OLD run picks from its own overlap
pairs, so that signs, stray pairs and cyclic orders are compared as well.
Reports must match exactly (verdict, crossing pairs, overlap pairs with
signs, stray pairs, cyclic orders and conflicts); the number of equal
reports is printed, and any difference makes the exit code 1.

Both runs also record the ``is_generically_rigid`` verdict on the same
fixtures, on ``sheared_grid(n, n)`` for n = 5, 6, 7, 10 and 16 and on the
benchmark's two dumbbells.  The trees or the partition may legitimately
differ between the runs, so each run checks its own certificate with the
checker of this file (the trees are edge-disjoint spanning trees of the
five-fold hinge graph; the partition has fewer than 6(parts - 1) cross
edges) and only the verdict and that check are compared.  A different
verdict or a failed check makes the exit code 1.

Both runs also record ``pack_spanning_trees`` on 2,000 seeded random
connected multigraphs: up to 40 vertices, with loops and parallel edges,
and k from 1 to 6 trees, so that both verdicts occur.  The verdict and the
partition of an infeasible one (the maximal rigid regions, which are unique)
must be equal; the trees may differ, so each run checks its own certificate
with the checker of this file, and a failed check makes the exit code 1.

Both runs also record ``track_flex`` paths: 100 steps from each of the six
8x8 Miura starts of the benchmark's ``motion`` workload (seed 1), and the
fixture tracks of ``tests/test_tracking_rows.py``: the cross vertex from
flat along (0, 1, 0, 1), the cross vertex from (0.4, 0, 0.4, 0) with
``rank_tol=0.1``, ``square_ring``, ``pentagon_ring``, ``hexagon_fan`` and
``miura_3x3`` from their flat states, and a 6x6 Miura state; 20 steps
on the 16x16 Miura mode and 10 on the 24x24 Miura mode; and 10 steps of
``three_squares`` (no loops, so J has no rows) from flat along 200 seeded
random directions.  The OLD run picks the starts and directions.  Samples
must agree within 1e-9 (the tracker may take its steps from a different but
equivalent linear solve); residuals within ``--tol``; the termination, the
sample count, the predictor lengths and the corrector iterations must match
exactly.

Both runs also record the ordered list of ``explore_vertex`` roots on 40
seeded degree-3 triples drawn as the benchmark's ``generic-batch`` workload
draws them (each sector angle uniform in (0.05, 2 pi - 0.05)), on 10 seeded
degree-4 tuples drawn the same way, and on the cube corner (pi/2)*3 and the
flat cross (pi/2)*4.  The OLD run draws the angles.  The roots must be equal
bit for bit, in the same order and with the same duplicates.

Both runs also record, bit for bit, the samples, residuals, termination
and length of these paths: ``track_to`` on the cross vertex from
(0.3, 0, 0.3, 0) to its mirror (through the flat state) and to
(0, 0.3, 0, 0.3) (a branch switch), and ``track_to`` on the locked fixture
in both directions with ``max_steps=2500`` (the stall).  They record
``loop_flex_path`` of each loop of ``forest_two_vertices`` from flat with
their ``compose_forest``.  These ``forest`` paths are ``track_flex``
outputs, so they are compared as the tracks are: termination and length
exactly, samples within 1e-9 and residuals within ``--tol`` (a tracker
whose linear solve rounds differently moved them by at most 3.7e-15).  They also record ``gauss_newton_correct`` with
``max_iter=50`` from 20 seeded guesses on each of ``cross_vertex``,
``pentagon_ring``, ``square_ring`` and ``miura_3x3``, which the OLD run
draws: the corrected states, the iteration counts and the convergence
flags must be equal bit for bit.

Both runs also record whether ``track_flex`` and ``angular_velocities``
raise ``NotAFlex``, the one flex-tolerance decision both make.  At the flat
state of the cross vertex and of ``miura_3x3``, the OLD run tilts a flex
toward the direction that J moves most, to |J d|max of 0.5, 0.99, 1.01 and
2 times 1e-6 with |d| = 1.  The outcomes must be equal.

Both runs also record ``validate_pattern`` on perturbed copies of the
fixtures: 150 per fixture for each of three perturbations, which move one
vertex, snap one vertex onto a crease or snap one vertex onto another
vertex.  The OLD run draws the vertices.  The outcome (the panels, or the
error type and message) must be equal; the one exception is an old
outcome that is not a ``PatternError`` (a crash), where the new tree must
raise a ``PatternError``.  The number of such crashes is printed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_TOL = 1e-9
ANGULAR_TOL = 1e-14     # flexes are scaled to max-norm 1
VALIDATE_DRAWS = 150
THREE_SQUARES_DRAWS = 200
PACKING_DRAWS = 2000
# outputs compared bit for bit
EXACT = ("explore", "track_to", "correct", "flextol")


def dump(out: str, states_from: str | None) -> None:
    import rigidori as ro
    from rigidori import patterns
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SHEAR, Loaded, miura_state

    cases = {"miura8": patterns.sheared_grid(8, 8, shear=SHEAR),
             "pentagon_ring": patterns.pentagon_ring(),
             "square_ring": patterns.square_ring(),
             "cone3": patterns.single_vertex_cone([1.9, 2.1, 1.7])}
    given = np.load(states_from) if states_from else None
    rng = np.random.default_rng(7)
    data = {}
    for name, pat in cases.items():
        system = ro.build_system(pat)
        chains = ro.build_spanning_tree(pat)
        if given is not None:
            states = given[f"{name}/states"]
        elif name == "miura8":
            states = miura_state(Loaded(pat, system, chains), 1.0)[0][None]
        else:
            states = rng.uniform(-math.pi, math.pi, (5, pat.n_vars))
        data[f"{name}/states"] = states
        for i, rho in enumerate(states):
            res = ro.residual(system, rho)
            data[f"{name}/{i}/residual"] = res.vector
            data[f"{name}/{i}/max_norm"] = res.max_norm
            data[f"{name}/{i}/jacobian"] = ro.jacobian(system, rho)
            data[f"{name}/{i}/transfer_matrix"] = np.array(
                [ro.transfer_matrix(chains[p], rho) for p in sorted(chains)])
            for p, poly in enumerate(ro.fold_mesh(pat, rho, chains=chains)):
                data[f"{name}/{i}/fold_mesh/{p}"] = poly
    dump_placement(data, given)
    dump_angular(data, given)
    dump_flex_tol(data, given)
    dump_contact(data, given)
    dump_generic(data)
    dump_packing(data)
    dump_tracks(data, given)
    dump_solvers(data, given)
    dump_explore(data, given)
    dump_validate(data, given)
    np.savez(out, **data)


def fixtures() -> dict:
    from rigidori import patterns
    return {"plain_square": patterns.plain_square(),
            "square_diagonal": patterns.square_diagonal(),
            "cross_vertex": patterns.cross_vertex(),
            "cross_with_free_crease": patterns.cross_with_free_crease(),
            "three_squares": patterns.three_squares(),
            "hexagon_fan": patterns.hexagon_fan(),
            "miura_3x3": patterns.miura_3x3(),
            "pentagon_ring": patterns.pentagon_ring(),
            "square_ring": patterns.square_ring(),
            "forest_two_vertices": patterns.forest_two_vertices(),
            "cone3": patterns.single_vertex_cone([1.9, 2.1, 1.7]),
            "jittered_grid4": patterns.sheared_grid(4, 4, jitter=0.05, seed=3)}


def certificate_valid(packing, n: int, edges) -> bool:
    """Trees: k edge-disjoint spanning trees; else a partition of range(n)
    with fewer than k*(parts-1) cross edges."""
    if packing.feasible:
        used = [e for tree in packing.trees for e in tree]
        if (len(packing.trees) != packing.k or len(used) != len(set(used))
                or not all(0 <= e < len(edges) for e in used)):
            return False
        for tree in packing.trees:
            root = list(range(n))
            for u, v in (edges[e] for e in tree):
                while root[u] != u:
                    u = root[u]
                while root[v] != v:
                    v = root[v]
                if u == v:
                    return False
                root[u] = v
            if len(tree) != n - 1:
                return False
        return True
    block = {v: i for i, part in enumerate(packing.partition) for v in part}
    if sorted(v for part in packing.partition for v in part) != list(range(n)):
        return False
    cross = sum(block[u] != block[v] for u, v in edges)
    return cross < packing.k * (len(packing.partition) - 1)


def dump_placement(data: dict, given) -> None:
    import rigidori as ro
    from rigidori import patterns
    from workloads import SHEAR

    cross = patterns.cross_vertex()
    other = ro.build_spanning_tree(cross)
    other[2] = ro.chain_for_path(cross, [0, 3, 2])
    rng = np.random.default_rng(19)
    for name, pat in (("place16", patterns.sheared_grid(16, 16, shear=SHEAR)),
                      ("place_cross", cross)):
        # each state is a pair (rho, rho0)
        states = (given[f"{name}/states"] if given is not None
                  else rng.uniform(-math.pi, math.pi, (2, 2, pat.n_vars)))
        data[f"{name}/states"] = states
        for i, (rho, rho0) in enumerate(states):
            out = {"fold_mesh": ro.fold_mesh(pat, rho),
                   "fold_mesh_rho0": ro.fold_mesh(pat, rho, rho0)}
            if pat is cross:
                out["fold_mesh_other_chains"] = ro.fold_mesh(pat, rho, rho0, chains=other)
            for what, mesh in out.items():
                for p, poly in enumerate(mesh):
                    data[f"{name}/{i}/{what}/{p}"] = poly
            data[f"{name}/{i}/panel_frames"] = np.array(
                [f.transform for f in ro.panel_frames(pat, rho)])
            # seeded points in seeded panels: (panel, x, y) rows
            if given is not None:
                points = given[f"{name}/{i}/points"]
            else:
                panels = rng.integers(0, len(pat.panels), 6)
                points = np.array([
                    (p, *(rng.dirichlet(np.ones(len(pat.panels[p]))) @ pat.panel_polygon(p)))
                    for p in panels])
            data[f"{name}/{i}/points"] = points
            data[f"{name}/{i}/fold_point"] = np.array(
                [ro.fold_point(pat, rho, rho0, (x, y), panel=int(p)) for p, x, y in points]
                + [ro.fold_point(pat, rho, rho0, (x, y)) for _, x, y in points])


def dump_angular(data: dict, given) -> None:
    """Angular velocities along the flex of the 8x8 and 16x16 Miura states
    and along both branches of the cross vertex, flexes scaled to max-norm 1."""
    import rigidori as ro
    from rigidori import patterns
    from workloads import SHEAR, Loaded, miura_state

    rng = np.random.default_rng(23)
    cases = {}
    for n in (8, 16):
        pat = patterns.sheared_grid(n, n, shear=SHEAR)
        system = ro.build_system(pat)
        if given is None:
            rho, flex = miura_state(Loaded(pat, system, None), 1.0)
            cases[f"miura{n}"] = (pat, system, rho, flex)
        else:
            cases[f"miura{n}"] = (pat, system, None, None)
    cross = patterns.cross_vertex()
    for k, branch in enumerate(([1.0, 0, 1, 0], [0, 1.0, 0, 1])):
        t = rng.uniform(-math.pi, math.pi)
        cases[f"cross{k}"] = (cross, ro.build_system(cross), t * np.array(branch),
                              np.array(branch))
    for name, (pat, system, rho, flex) in cases.items():
        if given is not None:
            rho, flex = given[f"angular/{name}/state"], given[f"angular/{name}/flex"]
        flex = flex / np.abs(flex).max()
        data[f"angular/{name}/state"] = rho
        data[f"angular/{name}/flex"] = flex
        data[f"angular/{name}/angular_velocities"] = ro.angular_velocities(
            pat, rho, flex, system=system)


def dump_flex_tol(data: dict, given) -> None:
    """``NotAFlex`` or not from ``track_flex`` and ``angular_velocities`` on
    flexes of the flat cross vertex and ``miura_3x3`` tilted out of the null
    space to |J d|max of 0.5 to 2 times 1e-6."""
    import rigidori as ro
    from rigidori import patterns
    from rigidori.errors import NotAFlex

    def outcome(call, *args, **kwargs) -> str:
        try:
            call(*args, **kwargs)
        except NotAFlex:
            return "NotAFlex"
        return "flex"

    for name in ("cross_vertex", "miura_3x3"):
        pat = getattr(patterns, name)()
        system = ro.build_system(pat)
        rho = np.zeros(pat.n_vars)
        J = ro.jacobian(system, rho)
        flex = ro.classify(system, rho).flex_basis[:, 0]
        across = np.linalg.svd(J)[2][0]
        for c in (0.5, 0.99, 1.01, 2.0):
            key = f"flextol/{name}-{c}"
            if given is not None:
                d = given[f"{key}/direction"]
            else:
                d = flex + c * 1e-6 / np.abs(J @ across).max() * across
                d /= np.linalg.norm(d)
            data[f"{key}/direction"] = d
            data[f"{key}/outcome"] = np.array(json.dumps({
                "track_flex": outcome(ro.track_flex, system, rho, d, steps=0),
                "angular_velocities": outcome(ro.angular_velocities, pat, rho, d,
                                              system=system)}))


def dump_generic(data: dict) -> None:
    import rigidori as ro
    from rigidori import patterns
    from rigidori.errors import RigidOrigamiError
    from workloads import SHEAR, dumbbell

    cases = {f"grid{n}": patterns.sheared_grid(n, n, shear=SHEAR)
             for n in (5, 6, 7, 10, 16)}
    cases.update({f"dumbbell_row{row}": dumbbell(4, row=row) for row in (0, 3)})
    cases.update(fixtures())
    for name, pat in cases.items():
        try:
            rep = ro.is_generically_rigid(pat)
        except RigidOrigamiError as exc:
            verdict = {"error": type(exc).__name__}
        else:
            edges = ro.multigraph(rep.body_edges, 5)
            valid = certificate_valid(rep.packing, len(pat.panels), edges)
            verdict = {"generically_rigid": rep.generically_rigid,
                       "certificate": "valid" if valid else "INVALID"}
        data[f"generic/{name}/verdict"] = np.array(json.dumps(verdict, sort_keys=True))


def random_multigraph(rng) -> tuple[int, list[tuple[int, int]], int]:
    """A connected multigraph on at most 40 vertices, with loops and parallel
    copies, and a tree count k in 1..6 that it may or may not pack."""
    n, k = int(rng.integers(1, 41)), int(rng.integers(1, 7))
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * k * n + 2))):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        edges += [(u, v)] * int(rng.integers(1, k + 1))
    rng.shuffle(edges)
    return n, edges, k


def dump_packing(data: dict) -> None:
    import rigidori as ro

    rng = np.random.default_rng(17)
    for i in range(PACKING_DRAWS):
        n, edges, k = random_multigraph(rng)
        packing = ro.pack_spanning_trees(n, edges, k=k)
        verdict = {"feasible": packing.feasible,
                   "partition": sorted(map(sorted, packing.partition or [])),
                   "certificate": ("valid" if certificate_valid(packing, n, edges)
                                   else "INVALID")}
        data[f"packing/{i}/verdict"] = np.array(json.dumps(verdict, sort_keys=True))


def dump_tracks(data: dict, given) -> None:
    import rigidori as ro
    from rigidori import patterns
    from rigidori.errors import CorrectorDiverged
    from workloads import SHEAR, WORKLOADS, Loaded, miura_state

    def loaded(pat):
        return Loaded(pat, ro.build_system(pat), ro.build_spanning_tree(pat))

    def flat(name):
        lo = loaded(getattr(patterns, name)())
        rho = np.zeros(lo.pattern.n_vars)
        return lo.system, rho, ro.classify(lo.system, rho).flex_basis[:, 0], {}

    cross = loaded(patterns.cross_vertex()).system
    cases = {"cross_flat": lambda: (cross, np.zeros(4), np.array([0.0, 1, 0, 1]), {}),
             "cross_rank_tol": lambda: (cross, np.array([0.4, 0, 0.4, 0]),
                                        np.array([-1.0, 0, -1, 0]), {"rank_tol": 0.1})}
    for name in ("square_ring", "pentagon_ring", "hexagon_fan", "miura_3x3"):
        cases[name] = lambda name=name: flat(name)
    miura6 = loaded(patterns.sheared_grid(6, 6, shear=SHEAR))
    cases["miura6"] = lambda: (miura6.system, *miura_state(miura6, 1.0), {})
    miura16 = loaded(patterns.sheared_grid(16, 16, shear=SHEAR))
    cases["miura16"] = lambda: (miura16.system, *miura_state(miura16, 1.0),
                                {"steps": 20})
    miura24 = loaded(patterns.sheared_grid(24, 24, shear=SHEAR))
    cases["miura24"] = lambda: (miura24.system, *miura_state(miura24, 1.0),
                                {"steps": 10})
    # no loops: J is 0 x 2, and every direction is a flex
    strip = ro.build_system(patterns.three_squares())
    rng = np.random.default_rng(29)
    for k, direction in enumerate(rng.normal(size=(THREE_SQUARES_DRAWS, 2))):
        cases[f"three_squares{k}"] = lambda direction=direction: (
            strip, np.zeros(2), direction, {"steps": 10})
    # the motion workload's requests at seed 1
    motion = WORKLOADS["motion"]
    _, req_seq = np.random.SeedSequence(1).spawn(2)
    with tempfile.TemporaryDirectory() as tmp:
        ctx = motion.setup(motion.write_inputs(Path(tmp), None, False))
    reqs = motion.requests(ctx, np.random.default_rng(req_seq), False)
    for k, req in enumerate(reqs):
        cases[f"motion{k}"] = lambda req=req: (ctx.loaded[0].system, *req.args, {})

    for name, make in cases.items():
        system, rho, direction, kwargs = make()
        if given is not None:
            rho = given[f"track/{name}/start"]
            direction = given[f"track/{name}/direction"]
        try:
            path = ro.track_flex(system, rho, direction, **{"steps": 100, **kwargs})
            error = None
        except CorrectorDiverged as exc:
            path, error = exc.path, type(exc).__name__
        data[f"track/{name}/start"] = rho
        data[f"track/{name}/direction"] = direction
        data[f"track/{name}/samples"] = path.samples
        data[f"track/{name}/residuals"] = np.array(path.residuals)
        data[f"track/{name}/path"] = np.array(json.dumps({
            "termination": path.termination, "error": error,
            "samples": len(path.samples),
            "predictor_lengths": [float(h) for h in path.predictor_lengths],
            "corrector_iterations": [int(i) for i in path.corrector_iterations]}))


def record_path(data: dict, key: str, path) -> None:
    data[f"{key}/samples"] = path.samples
    data[f"{key}/residuals"] = np.array(path.residuals)
    data[f"{key}/path"] = np.array(json.dumps({"termination": path.termination,
                                               "samples": len(path.samples)}))


def dump_solvers(data: dict, given) -> None:
    """``track_to``, ``loop_flex_path``, ``compose_forest`` and
    ``gauss_newton_correct`` from seeded guesses; all but the ``forest``
    paths compared bit for bit."""
    import rigidori as ro
    from rigidori import patterns

    cross = ro.build_system(patterns.cross_vertex())
    start = np.array([0.3, 0, 0.3, 0])
    record_path(data, "track_to/cross_mirror", ro.track_to(cross, start, -start))
    record_path(data, "track_to/cross_branch",
                ro.track_to(cross, start, np.array([0, 0.3, 0, 0.3])))
    lock_sys, lock_rho = patterns.locked_two_vertex_system()
    for name, (a, b) in (("fwd", (lock_rho, -lock_rho)), ("bwd", (-lock_rho, lock_rho))):
        record_path(data, f"track_to/lock_{name}",
                    ro.track_to(lock_sys, a, b, max_steps=2500))

    forest = ro.build_system(patterns.forest_two_vertices())
    rho0 = np.zeros(forest.n_vars)
    paths = {k: ro.loop_flex_path(forest, rho0, k, prefer_var=0)
             for k in range(len(forest.loops))}
    for k, path in paths.items():
        record_path(data, f"forest/loop{k}", path)
    record_path(data, "forest/composed", ro.compose_forest(forest, rho0, paths))

    rng = np.random.default_rng(31)
    for name in ("cross_vertex", "pentagon_ring", "square_ring", "miura_3x3"):
        system = ro.build_system(getattr(patterns, name)())
        key = f"correct/{name}"
        guesses = (given[f"{key}/guesses"] if given is not None
                   else rng.uniform(-math.pi, math.pi, (20, system.n_vars)))
        out = [ro.gauss_newton_correct(system, g, max_iter=50) for g in guesses]
        data[f"{key}/guesses"] = guesses
        data[f"{key}/rho"] = np.array([rho for rho, _, _ in out])
        data[f"{key}/outcome"] = np.array(json.dumps([[int(it), bool(ok)]
                                                      for _, it, ok in out]))


def dump_explore(data: dict, given) -> None:
    import rigidori as ro

    rng = np.random.default_rng(29)
    cases = {f"triple{i}": (3,) for i in range(40)}
    cases.update({f"quad{i}": (4,) for i in range(10)})
    cases.update({"cube_corner": [math.pi / 2] * 3, "flat_cross": [math.pi / 2] * 4})
    for name, alphas in cases.items():
        if given is not None:
            alphas = given[f"explore/{name}/alphas"]
        elif isinstance(alphas, tuple):
            alphas = rng.uniform(0.05, 2 * math.pi - 0.05, alphas)
        roots = ro.explore_vertex(alphas)
        data[f"explore/{name}/alphas"] = np.asarray(alphas, dtype=float)
        data[f"explore/{name}/roots"] = np.array(roots).reshape(len(roots), len(alphas))


def perturbed(pat, kind: str, rng) -> np.ndarray:
    """The vertex array with one vertex moved (by 1e-10 to 0.5 of the median
    crease length), snapped onto a crease (half of them then moved by up to
    1e-9) or snapped onto another vertex."""
    V = pat.vertices.copy()
    v = int(rng.integers(len(V)))
    if kind == "move":
        size = np.median([np.linalg.norm(V[c.u] - V[c.v]) for c in pat.creases])
        V[v] += rng.normal(size=2) * size * 10.0 ** rng.choice([-10, -6, -1, -0.3])
    elif kind == "snap_crease":
        c = pat.creases[int(rng.integers(len(pat.creases)))]
        V[v] = V[c.u] + rng.uniform(0, 1) * (V[c.v] - V[c.u])
        if rng.random() < 0.5:
            V[v] += rng.uniform(-1e-9, 1e-9, 2)
    else:
        V[v] = V[int(rng.integers(len(V)))]
    return V


def dump_validate(data: dict, given) -> None:
    from rigidori import CreasePattern, validate_pattern
    from rigidori.errors import PatternError

    rng = np.random.default_rng(13)
    for name, pat in fixtures().items():
        for kind in ("move", "snap_crease", "snap_vertex"):
            for k in range(VALIDATE_DRAWS):
                key = f"validate/{name}-{k}/{kind}"
                verts = (perturbed(pat, kind, rng) if given is None
                         else given[f"{key}/vertices"])
                try:
                    out = validate_pattern(CreasePattern(
                        verts, pat.creases, pat.panels, pat.holes, pat.base_panel,
                        pat.alpha_override, pat.rho0))
                    result = {"panels": out.panels}
                except PatternError as exc:
                    result = {"error": type(exc).__name__, "message": str(exc)}
                except Exception as exc:  # the outcome under test, whatever it is
                    result = {"crash": type(exc).__name__}
                data[f"{key}/vertices"] = verts
                data[key] = np.array(json.dumps(result, sort_keys=True))


def validate_same(old: str, new: str) -> bool:
    """Equal outcomes, or a crash of the old tree that the new one reports
    as a ``PatternError``."""
    return old == new or ("crash" in json.loads(old) and "error" in json.loads(new))


def report_text(report) -> np.ndarray:
    return np.array(json.dumps({
        "verdict": report.verdict,
        "crossing_pairs": [list(p) for p in report.crossing_pairs],
        "overlap_pairs": [[*r["pair"], r["sign"]] for r in report.overlap_pairs],
        "stray_pairs": [list(p) for p in report.stray_pairs],
        "cyclic_orders": report.cyclic_orders,
        "conflicts": report.conflicts}))


def dump_contact(data: dict, given) -> None:
    import rigidori as ro
    from rigidori import patterns
    from rigidori.constraints import RESIDUAL_TOL
    from workloads import (LINE_FOLDS, MIURA_SCALES, SHEAR, Loaded,
                           horizontal_lines, miura_state)

    def line_fold(pat, folds):
        rho = np.zeros(pat.n_vars)
        for var_ids, angle in zip(horizontal_lines(pat), folds):
            rho[var_ids] = angle
        return rho

    cases = {"contact8": patterns.sheared_grid(8, 8, shear=SHEAR),
             "contact16": patterns.sheared_grid(16, 16, shear=SHEAR),
             "contact32": patterns.sheared_grid(32, 32, shear=SHEAR),
             "strip5": patterns.sheared_grid(5, 1, shear=0.0),
             "stack8": patterns.sheared_grid(8, 8, shear=SHEAR)}
    cases.update({f"fixture_{k}": v for k, v in fixtures().items()})
    rng = np.random.default_rng(11)
    for name, pat in cases.items():
        system = ro.build_system(pat)
        chains = ro.build_spanning_tree(pat)
        if given is not None:
            states = given[f"{name}/states"]
        elif name == "contact8":
            base = [line_fold(pat, f) for folds in LINE_FOLDS
                    for f in (folds, folds[::-1])]
            base += [miura_state(Loaded(pat, system, chains), s)[0]
                     for s in MIURA_SCALES]
            states = np.array([sign * rho for rho in base for sign in (1, -1)])
        elif name == "contact16":
            states = line_fold(pat, LINE_FOLDS[3] + LINE_FOLDS[4] + (0.0,))[None]
        elif name == "contact32":
            states = np.array([np.zeros(pat.n_vars), line_fold(pat, sum(LINE_FOLDS, ()))])
        elif name == "strip5":
            states = np.array([np.full(pat.n_vars, sign * math.pi) for sign in (1, -1)])
        elif name == "stack8":
            signs = np.vstack([np.ones(pat.n_vars), -np.ones(pat.n_vars),
                               np.random.default_rng(37).choice([-1.0, 1.0],
                                                                (4, pat.n_vars))])
            states = math.pi * signs
        else:
            # the flat state, every crease at +-pi, and seeded random states;
            # these need not lie on the variety, so the residual is not checked
            states = np.vstack([np.zeros(pat.n_vars), np.full(pat.n_vars, math.pi),
                                np.full(pat.n_vars, -math.pi),
                                rng.uniform(-math.pi, math.pi, (6, pat.n_vars))])
        tol = math.inf if name.startswith("fixture_") else RESIDUAL_TOL
        data[f"{name}/states"] = states
        for i, rho in enumerate(states):
            plain = ro.check_state(pat, rho, residual_tol=tol, system=system,
                                   chains=chains)
            data[f"{name}/{i}/check_state"] = report_text(plain)
            if given is not None:
                signs = given[f"{name}/{i}/lambda"]
            else:
                # a above b above c, but c above a, wherever (a, b), (b, c)
                # and (a, c) are all slots; plus one pair that is not a slot
                slots = {r["pair"] for r in plain.overlap_pairs}
                signs = np.array([(a, c, -1 if any((a, b) in slots and (b, c) in slots
                                                   for b in range(a + 1, c)) else 1)
                                  for a, c in sorted(slots)]
                                 + [(0, len(pat.panels) - 1, 1)], dtype=int)
            data[f"{name}/{i}/lambda"] = signs
            signed = ro.check_state(pat, rho, lambda_pairs=signs.tolist(),
                                    residual_tol=tol, system=system, chains=chains)
            data[f"{name}/{i}/check_state_signed"] = report_text(signed)


def run(src: str, out: Path, states_from: Path | None = None) -> None:
    cmd = [sys.executable, __file__, "--dump", str(out)]
    if states_from is not None:
        cmd += ["--states", str(states_from)]
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run(cmd, env=env, check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*")
    ap.add_argument("--tol", type=float, default=1e-12)
    ap.add_argument("--dump")
    ap.add_argument("--states")
    args = ap.parse_args()
    if args.dump:
        dump(args.dump, args.states)
        return 0
    old_src, new_src = args.src
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old.npz", Path(tmp) / "new.npz"
        run(old_src, old)
        run(new_src, new, states_from=old)
        a, b = np.load(old), np.load(new)
        if set(a.files) != set(b.files):
            print("the two trees record different outputs")
            return 1
        worst: dict[str, float] = {}
        reports: dict[str, list[int]] = {}   # output -> [equal, total]
        crashes = 0
        for key in a.files:
            name, *rest = key.split("/")
            what = f"{name} {rest[1] if len(rest) > 1 else rest[0]}"
            if a[key].dtype.kind == "U":
                if name == "validate":
                    same = validate_same(str(a[key]), str(b[key]))
                    crashes += same and "crash" in str(a[key])
                else:
                    same = bool(a[key] == b[key]) and "INVALID" not in str(b[key])
                tally = reports.setdefault(what, [0, 0])
                tally[0] += same
                tally[1] += 1
                if not same:
                    print(f"{key} differs:\n  old {a[key]}\n  new {b[key]}")
                continue
            if name in EXACT:
                same = a[key].shape == b[key].shape and a[key].tobytes() == b[key].tobytes()
                tally = reports.setdefault(what, [0, 0])
                tally[0] += same
                tally[1] += 1
                if not same:
                    print(f"{key} differs:\n  old {a[key]}\n  new {b[key]}")
                continue
            diff = float(np.abs(a[key] - b[key]).max(initial=0.0))
            worst[what] = max(worst.get(what, 0.0), diff)
    for what, diff in sorted(worst.items()):
        print(f"{what:40s} {diff:.3e}")
    for what, (equal, total) in sorted(reports.items()):
        print(f"{what:40s} {equal}/{total} reports equal")
    print(f"validate: {crashes} old crashes now raise a PatternError")
    tol = {"track samples": SAMPLE_TOL, "forest samples": SAMPLE_TOL,
           "angular angular_velocities": ANGULAR_TOL}
    within = all(diff <= tol.get(what, args.tol) for what, diff in worst.items())
    return 0 if within and all(e == t for e, t in reports.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
