import itertools

import numpy as np
import pytest

import rigidori.analysis
from rigidori.errors import Disconnected
from rigidori.genericity import (TreePacking, _PebbleGame, dual_graph,
                                 is_generically_rigid, multigraph,
                                 pack_spanning_trees, panel_hinge_multigraph,
                                 to_dot, verify_packing)
from rigidori.model import Crease, CreasePattern, validate_pattern
from rigidori import patterns

from conftest import exhaustive_tree_packing, random_connected_multigraph


def test_dual_single_square():
    d = dual_graph(patterns.plain_square())
    assert d.n_faces == 2
    assert len(d.dual_edges) == 4
    assert all(set(e) == {0, 1} for e in d.dual_edges)
    assert d.face_kinds.count("outer") == 1


def test_dual_2x2_grid():
    d = dual_graph(patterns.sheared_grid(2, 2, shear=0.0))
    assert d.n_faces == 5
    assert len(d.dual_edges) == 12
    assert d.face_kinds.count("panel") == 4


def test_dual_hexagon_fan():
    d = dual_graph(patterns.hexagon_fan())
    assert d.n_faces == 7


def test_dual_ring_counts_hole_face():
    d = dual_graph(patterns.pentagon_ring())
    assert d.n_faces == 7  # 5 panels + hole + outer
    assert d.face_kinds.count("hole") == 1


@pytest.mark.parametrize("make", [
    patterns.plain_square, patterns.square_diagonal, patterns.cross_vertex,
    patterns.miura_3x3, patterns.hexagon_fan, patterns.forest_two_vertices,
    patterns.square_ring,
])
def test_dual_satisfies_euler(make):
    pat = make()
    d = dual_graph(pat)
    assert d.n_vertices - len(d.edges) + d.n_faces == 2
    assert len(d.dual_edges) == len(d.edges)


def test_k5_packs_two_trees():
    k5 = list(itertools.combinations(range(5), 2))
    p = pack_spanning_trees(5, k5, k=2)
    assert p.feasible
    assert verify_packing(p, 5, k5)


def test_tree_cannot_pack_two():
    edges = [(0, 1), (1, 2), (2, 3)]
    p = pack_spanning_trees(4, edges, k=2)
    assert not p.feasible
    assert p.partition == [[0], [1], [2], [3]]
    cross, bound = p.violation(edges)
    assert cross < bound


def test_packing_matches_exhaustive_oracle(rng):
    for _ in range(120):
        n, edges = random_connected_multigraph(rng, max_edges=8)
        for k in (1, 2, 3):
            got = pack_spanning_trees(n, edges, k=k)
            want = exhaustive_tree_packing(n, edges, k)
            assert got.feasible == want, (n, edges, k)
            if got.feasible:
                assert verify_packing(got, n, edges)
                assert len(edges) >= k * (n - 1)
            else:
                cross, bound = got.violation(edges)
                assert cross < bound, (n, edges, k, got.partition)


def _set_partitions(n):
    """Every partition of range(n) as a block-label row (restricted growth)."""
    rows = [[]]
    for _ in range(n):
        rows = [r + [b] for r in rows for b in range(max(r, default=-1) + 2)]
    labels = np.array(rows, dtype=int).reshape(len(rows), n)
    return labels, labels.max(axis=1, initial=-1) + 1


_PARTITIONS = {n: _set_partitions(n) for n in range(8)}


def _nwt_packs(vertices, edges, k):
    """Nash-Williams/Tutte: k trees span ``vertices`` with ``edges`` inside it
    iff every partition of it has at least k*(parts-1) cross edges."""
    index = {v: i for i, v in enumerate(vertices)}
    inside = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    labels, parts = _PARTITIONS[len(vertices)]
    a, b = np.array(inside, dtype=int).reshape(-1, 2).T
    cross = (labels[:, a] != labels[:, b]).sum(axis=1)
    return bool(np.all(cross >= k * (parts - 1)))


def test_packing_matches_nash_williams_tutte_oracle(rng):
    """Denser instances than the exhaustive oracle: up to 5n edges with loops
    and parallels on n <= 7; an infeasible answer must name the maximal rigid
    regions, i.e. every part packs k trees and every rigid set lies in a part."""
    infeasible = 0
    for _ in range(300):
        n = int(rng.integers(1, 8))
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        edges += [(int(rng.integers(0, n)), int(rng.integers(0, n)))
                  for _ in range(int(rng.integers(0, 4 * n + 2)))]
        rng.shuffle(edges)
        for k in (1, 2, 3, 4):
            got = pack_spanning_trees(n, edges, k=k)
            assert got.feasible == _nwt_packs(range(n), edges, k), (n, edges, k)
            if got.feasible:
                assert verify_packing(got, n, edges)
                continue
            infeasible += 1
            cross, bound = got.violation(edges)
            assert cross < bound
            assert sorted(v for part in got.partition for v in part) == list(range(n))
            block = {v: i for i, part in enumerate(got.partition) for v in part}
            for part in got.partition:
                assert _nwt_packs(part, edges, k), (n, edges, k, got.partition)
            for size in range(2, n + 1):
                for subset in itertools.combinations(range(n), size):
                    if _nwt_packs(subset, edges, k):
                        assert len({block[v] for v in subset}) == 1, (
                            n, edges, k, got.partition, subset)
    assert infeasible > 100


def _random_multigraph(rng):
    """A connected multigraph on at most 40 vertices, with loops and parallel
    copies, and a tree count k in 1..6 that it may or may not pack."""
    n, k = int(rng.integers(1, 41)), int(rng.integers(1, 7))
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    for _ in range(int(rng.integers(0, 2 * k * n + 2))):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        edges += [(u, v)] * int(rng.integers(1, k + 1))
    rng.shuffle(edges)
    return n, edges, k


def _assert_colours_are_forests(game, n, k, edges, accepted):
    """Each colour an in-forest rooted at the free pebbles of that colour,
    the colours together holding every accepted edge once."""
    held = []
    for x in range(n):
        assert game.peb[x] == game.out[x].count(None)
        for c, y in enumerate(game.out[x]):
            if y is not None:
                assert sorted(edges[game.eid[x][c]]) == sorted((x, y))
                held.append(game.eid[x][c])
    assert sorted(held) == accepted
    for c in range(k):
        state = [0] * n   # 1: on the current walk, 2: known to reach a root
        for x in range(n):
            walk = []
            while state[x] == 0 and game.out[x][c] is not None:
                state[x] = 1
                walk.append(x)
                x = game.out[x][c]
            assert state[x] != 1, f"colour {c} has a cycle"
            for z in walk:
                state[z] = 2


# A walk-back that must re-root a colour tree at a path vertex nearer the
# pulling vertex than x: re-rooting at x would reverse an earlier path edge.
_REROOT_BEFORE_X = (17, [
    (9, 2), (14, 16), (13, 2), (6, 15), (9, 2), (13, 5), (16, 13), (12, 13),
    (16, 6), (0, 14), (10, 13), (10, 13), (9, 6), (9, 2), (14, 0), (15, 5),
    (13, 11), (7, 14), (2, 3), (0, 8), (10, 15), (16, 4), (7, 4), (5, 11),
    (8, 4), (8, 1), (14, 0), (2, 3), (12, 13), (1, 2), (10, 15), (14, 0),
    (10, 13), (16, 6), (1, 4), (2, 13), (11, 2), (5, 10), (13, 1), (16, 6),
    (9, 3), (0, 1), (10, 8), (12, 13), (8, 4), (3, 15), (9, 2), (10, 13),
    (13, 1), (0, 14), (14, 7), (7, 8), (7, 1), (9, 3), (2, 13), (13, 1),
    (13, 2), (1, 3), (15, 0), (14, 13), (5, 0), (7, 14)], 5)


def test_coloured_pebble_game_keeps_each_colour_a_forest(rng):
    """Beyond the reach of the oracles: after every accepted edge the colours
    are forests; a feasible verdict's trees pass the checker, and each part of
    an infeasible one packs k trees on its induced edges."""
    verdicts = set()
    cases = [_REROOT_BEFORE_X] + [_random_multigraph(rng) for _ in range(120)]
    for n, edges, k in cases:
        game, accepted = _PebbleGame(n, k), []
        for e, (u, v) in enumerate(edges):
            if game.add(u, v, e):
                accepted.append(e)
                _assert_colours_are_forests(game, n, k, edges, accepted)
        got = pack_spanning_trees(n, edges, k=k)
        verdicts.add(got.feasible)
        assert got.feasible == (len(accepted) == k * (n - 1)), (n, edges, k)
        if got.feasible:
            assert verify_packing(got, n, edges)
            continue
        cross, bound = got.violation(edges)
        assert cross < bound
        for part in got.partition:
            index = {v: i for i, v in enumerate(part)}
            inside = [(index[u], index[v]) for u, v in edges
                      if u in index and v in index]
            sub = pack_spanning_trees(len(part), inside, k=k)
            assert sub.feasible and verify_packing(sub, len(part), inside), part
    assert verdicts == {True, False}


def test_verify_packing_rejects_malformed_trees():
    edges = [(0, 1), (0, 1), (1, 2), (1, 2)]
    good = TreePacking(True, 2, 3, trees=[[0, 2], [1, 3]])
    assert verify_packing(good, 3, edges)
    assert not verify_packing(TreePacking(True, 2, 3, trees=[]), 3, edges)
    assert not verify_packing(TreePacking(True, 2, 3, trees=[[0, 2]]), 3, edges)
    assert not verify_packing(TreePacking(True, 2, 3, trees=[[0, -1], [1, 2]]), 3, edges)
    assert not verify_packing(TreePacking(True, 2, 3, trees=[[0, 2], [1, 4]]), 3, edges)


def test_packing_invariant_under_relabelling(rng):
    for _ in range(20):
        n, edges = random_connected_multigraph(rng, max_edges=8)
        perm = rng.permutation(n)
        mapped = [(int(perm[u]), int(perm[v])) for u, v in edges]
        for k in (2, 3):
            assert (pack_spanning_trees(n, edges, k=k).feasible
                    == pack_spanning_trees(n, mapped, k=k).feasible)


def test_packing_requires_connected():
    with pytest.raises(Disconnected):
        pack_spanning_trees(4, [(0, 1), (2, 3)], k=1)


def test_grid_2x2_generically_rigid():
    rep = is_generically_rigid(patterns.sheared_grid(2, 2, shear=0.0))
    assert rep.generically_rigid
    body5 = multigraph(rep.body_edges, 5)
    assert verify_packing(rep.packing, 4, body5)
    assert rep.counting_lower_bound


def test_free_crease_patterns_generically_foldable():
    assert not is_generically_rigid(patterns.square_diagonal()).generically_rigid
    strip = is_generically_rigid(patterns.three_squares())
    assert not strip.generically_rigid
    cross, bound = strip.packing.violation(multigraph(strip.body_edges, 5))
    assert cross < bound


def test_miura_pattern_generically_rigid_but_flat_samples_flex():
    rep = is_generically_rigid(patterns.miura_3x3(), sample_realizations=6, seed=3)
    assert rep.generically_rigid
    # developable realizations are systematically non-generic: every sampled
    # flat state flexes, and the disagreement is surfaced
    assert rep.samples and all(s["deg"] > 0 for s in rep.samples)
    assert rep.sampled_rigid_realization is False
    assert rep.disagreement


def test_panel_hinge_graph_shape():
    pat = patterns.pentagon_ring()
    hinges = panel_hinge_multigraph(pat)
    assert len(hinges) == 5
    assert all(0 <= a < 5 and 0 <= b < 5 for a, b in hinges)


def test_dot_export():
    d = dual_graph(patterns.square_diagonal())
    text = to_dot(d)
    assert text.startswith("graph G {") and "f0 -- " in text
    assert "v0 -- v1" in to_dot(d, which="pattern")


def test_sampling_errors_outside_the_toolkit_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in classify")

    monkeypatch.setattr(rigidori.analysis, "classify", broken)
    with pytest.raises(RuntimeError, match="bug in classify"):
        is_generically_rigid(patterns.miura_3x3(), sample_realizations=2)


def test_256_panel_grid_generically_rigid():
    pat = patterns.sheared_grid(16, 16)
    rep = is_generically_rigid(pat)
    assert rep.generically_rigid
    assert verify_packing(rep.packing, len(pat.panels), multigraph(rep.body_edges, 5))


def _dumbbell(block):
    """Two block x block grids of unit squares joined by a one-panel strip."""
    index = {}

    def vid(x, y):
        return index.setdefault((x, y), len(index))

    cells = [(x, y) for y in range(block) for x in range(block)]
    cells += [(block, 0)]
    cells += [(x + block + 1, y) for y in range(block) for x in range(block)]
    panels = [[vid(x, y), vid(x + 1, y), vid(x + 1, y + 1), vid(x, y + 1)]
              for x, y in cells]
    sides = {}
    for cycle in panels:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            key = (min(a, b), max(a, b))
            sides[key] = sides.get(key, 0) + 1
    creases = [Crease(a, b, "inner" if n == 2 else "outer")
               for (a, b), n in sorted(sides.items())]
    coords = sorted(index, key=index.get)
    return validate_pattern(CreasePattern(coords, creases, panels))


def test_201_panel_dumbbell_certificate_names_rigid_blocks():
    pat = _dumbbell(10)
    n = len(pat.panels)
    assert n == 201
    rep = is_generically_rigid(pat)
    assert not rep.generically_rigid and rep.counting_lower_bound
    parts = rep.packing.partition
    assert sorted(v for part in parts for v in part) == list(range(n))
    cross, bound = rep.packing.violation(multigraph(rep.body_edges, 5))
    assert cross < bound
    # the two blocks are rigid and the strip's hinges are not
    assert sorted(map(len, parts)) == [1, 100, 100]
