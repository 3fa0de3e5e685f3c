import math

import numpy as np
import pytest

from rigidori import check_state, ear_clip, first_contact, validate_pattern
from rigidori.collision import _find_cycles
from rigidori.errors import NotOnVariety
from rigidori import patterns


def _poly_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def test_ear_clip_square_and_concave():
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float)
    tris = ear_clip(square)
    assert len(tris) == 2
    lshape = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], float)
    tris = ear_clip(lshape)
    assert len(tris) == 4
    area = sum(_poly_area(lshape[list(t)]) for t in tris)
    assert abs(area - _poly_area(lshape) * 0 - 3.0) < 1e-12


def test_cross_branch_states_free():
    pat = patterns.cross_vertex()
    for s in (0.3, 1.2, 2.5, -2.9):
        rep = check_state(pat, np.array([s, 0, s, 0]))
        assert rep.verdict == "free"
        assert not rep.crossing_pairs and not rep.overlap_pairs


def test_single_inner_crease_always_free():
    pat = patterns.square_diagonal()
    for s in np.linspace(-math.pi, math.pi, 9):
        assert check_state(pat, np.array([s])).verdict == "free"


def test_three_squares_flat_ordering():
    pat = patterns.three_squares()
    flat = np.array([-math.pi, -math.pi])
    rep = check_state(pat, flat)
    assert rep.verdict == "ordered"
    assert [r["pair"] for r in rep.overlap_pairs] == [(0, 2)]

    ok = check_state(pat, flat, lambda_pairs=[(0, 2, 1)])
    assert ok.verdict == "ordered"
    assert ok.overlap_pairs[0]["sign"] == 1

    ok2 = check_state(pat, flat, lambda_pairs=[(2, 0, -1)])
    assert ok2.verdict == "ordered"
    assert ok2.overlap_pairs[0]["sign"] == 1  # antisymmetry normalizes

    bad = check_state(pat, flat, lambda_pairs=[(0, 2, 1), (2, 0, 1)])
    assert bad.verdict == "crossing" and bad.conflicts


def test_lambda_stray_pairs_reported():
    pat = patterns.three_squares()
    rep = check_state(pat, np.array([-0.4, -0.4]), lambda_pairs=[(0, 2, 1)])
    assert rep.verdict == "free"
    assert rep.stray_pairs == [(0, 2)]


def test_check_state_requires_variety():
    pat = patterns.cross_vertex()
    with pytest.raises(NotOnVariety):
        check_state(pat, np.array([0.4, 0.4, 0.0, 0.0]))


def test_sequential_fold_contacts_only_at_flat():
    pat = patterns.three_squares()
    n = 25
    seq = [np.array([-t, 0.0]) for t in np.linspace(0, math.pi, n)]
    seq += [np.array([-math.pi, -t]) for t in np.linspace(0, math.pi, n)[1:]]
    assert first_contact(pat, seq) is None
    final = check_state(pat, seq[-1])
    assert final.verdict == "ordered"


def test_simultaneous_fold_crosses_at_known_angle():
    # folding both creases together drives the outer squares through each
    # other once the fold passes 2*pi/3
    pat = patterns.three_squares()
    path = [np.array([-t, -t]) for t in np.linspace(0, math.pi, 61)]
    hit = first_contact(pat, path)
    assert hit is not None
    onset = 2 * math.pi / 3
    assert np.abs(path[hit.index - 1]).max() <= onset + 1e-9
    assert np.abs(hit.rho).max() >= onset - 1e-9
    # the refined contact angle matches the analytic onset
    assert abs(np.abs(hit.rho).max() - onset) < 1e-5


def test_mirror_invariance_with_lambda_flip():
    pat = patterns.three_squares()
    flat = np.array([-math.pi, -math.pi])
    rep = check_state(pat, flat, lambda_pairs=[(0, 2, 1)])
    mirror = check_state(pat, -flat, lambda_pairs=[(0, 2, -1)])
    assert rep.verdict == mirror.verdict == "ordered"
    assert [r["pair"] for r in rep.overlap_pairs] == \
        [r["pair"] for r in mirror.overlap_pairs]
    assert rep.overlap_pairs[0]["sign"] == -mirror.overlap_pairs[0]["sign"]


def test_scale_invariance_of_verdicts():
    pat = patterns.three_squares()
    big = validate_pattern(pat.scaled(5.0))
    for rho in (np.array([-1.0, -1.0]), np.array([-2.5, -2.5]),
                np.array([-math.pi, -math.pi])):
        assert check_state(pat, rho).verdict == check_state(big, rho).verdict


def test_adjacent_panels_never_cross_while_folding():
    pat = patterns.square_diagonal()
    for s in np.linspace(-math.pi, math.pi, 13):
        rep = check_state(pat, np.array([s]))
        assert rep.verdict == "free"


def test_cyclic_order_reported_not_rejected():
    pat = patterns.sheared_grid(5, 1, shear=0.0)
    rho = np.full(4, -math.pi)
    rep = check_state(pat, rho)
    pairs = [r["pair"] for r in rep.overlap_pairs]
    assert (0, 2) in pairs and (2, 4) in pairs and (0, 4) in pairs
    cyc = check_state(pat, rho, lambda_pairs=[(0, 2, 1), (2, 4, 1), (4, 0, 1)])
    assert cyc.verdict == "ordered"
    assert cyc.cyclic_orders == [[0, 2, 4]]


def test_free_iff_both_lists_empty():
    pat = patterns.three_squares()
    rep = check_state(pat, np.array([-0.5, 0.7]))
    assert rep.free and not rep.crossing_pairs and not rep.overlap_pairs


def _recursive_cycles(adj):
    """Recursive Tarjan, the oracle for the iterative ``_find_cycles``."""
    index, low, on_stack, stack, out = {}, {}, set(), [], []

    def strong(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in adj.get(v, ()):
            if w not in index:
                strong(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1:
                out.append(sorted(comp))

    nodes = set(adj).union(*adj.values())
    for v in sorted(nodes):
        if v not in index:
            strong(v)
    return out


def test_find_cycles_on_long_chains():
    assert _find_cycles({k: {k + 1} for k in range(1100)}) == []
    ring = {k: {(k + 1) % 1101} for k in range(1101)}
    assert _find_cycles(ring) == [list(range(1101))]


def test_find_cycles_matches_recursive_tarjan():
    rng = np.random.default_rng(53)
    found = 0
    for _ in range(300):
        n = int(rng.integers(1, 41))
        adj = {}
        for _ in range(int(rng.integers(0, 3 * n))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            adj.setdefault(u, set()).add(v)
        cycles = _find_cycles(adj)
        assert cycles == _recursive_cycles(adj)
        found += len(cycles)
    assert found
