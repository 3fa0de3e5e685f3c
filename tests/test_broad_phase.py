"""The sort-and-sweep broad phase against brute-force all-pairs box tests.

``model._box_pairs`` serves validation (2-d crease boxes) and
``check_state`` (3-d panel boxes).  The oracle below tests every pair of
boxes, as ``check_state`` did before it swept.
"""

import math

import numpy as np
import pytest

from rigidori import build_system, check_state, gauss_newton_correct, patterns
from rigidori import collision
from rigidori.collision import EPS_CONTACT, panel_triangles
from rigidori.kinematics import fold_mesh
from rigidori.model import _box_pairs


def all_pairs(lo, hi):
    """Every pair (a, b), a < b, of closed boxes that meet, in lexicographic order."""
    return [(a, b) for a in range(len(lo)) for b in range(a + 1, len(lo))
            if np.all((lo[a] <= hi[b]) & (lo[b] <= hi[a]))]


def sweep(lo, hi):
    a, b = _box_pairs(lo, hi)
    assert np.all(a < b)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert len(set(pairs)) == len(pairs)
    return sorted(pairs)


@pytest.mark.parametrize("dim", [2, 3])
def test_box_pairs_match_all_pairs_on_random_boxes(dim):
    rng = np.random.default_rng(19 + dim)
    for trial in range(60):
        n = int(rng.integers(0, 40))
        # integer corners make exact touching, zero widths and duplicates common
        lo = rng.integers(0, 12, (n, dim)).astype(float)
        hi = lo + rng.integers(0, 4, (n, dim))
        if n > 1:
            lo[-1], hi[-1] = lo[0], hi[0]
        assert sweep(lo, hi) == all_pairs(lo, hi), trial


@pytest.mark.parametrize("dim", [2, 3])
def test_box_pairs_edge_cases(dim):
    empty = np.zeros((0, dim))
    assert sweep(empty, empty) == []
    one = np.zeros((1, dim))
    assert sweep(one, one + 1.0) == []
    # touching on a face, on a corner, zero-width boxes, and a duplicate
    lo = np.array([[0.0] * dim, [1.0] * dim, [1.0] + [0.0] * (dim - 1),
                   [2.0] * dim, [2.0] * dim, [3.5] * dim])
    hi = np.array([[1.0] * dim, [2.0] * dim, [1.0] + [0.5] * (dim - 1),
                   [2.0] * dim, [2.0] * dim, [4.0] * dim])
    pairs = sweep(lo, hi)
    assert pairs == all_pairs(lo, hi)
    assert {(0, 1), (0, 2), (1, 3), (3, 4)} <= set(pairs)
    assert not any(5 in pr for pr in pairs)


# -- check_state on a 576-panel grid ------------------------------------------

def _crease_classes(pat, n):
    """Direction, column parity and row parity of every inner crease."""
    out = []
    for ci in pat.inner_creases:
        c = pat.creases[ci]
        y = pat.vertices[c.u][1]
        out.append((y == pat.vertices[c.v][1], c.u % (n + 1) % 2, int(y) % 2))
    return out


def _miura_state(pat, n):
    """A Miura-mode state of ``pat = sheared_grid(n, n)``, n even, tiled from
    4x4: every crease takes the angle of the 4x4 creases of its class."""
    small = patterns.sheared_grid(4, 4, shear=0.3)
    classes = _crease_classes(small, 4)
    guess = [0.4 if line else 0.8 if col else -0.8 for line, col, _ in classes]
    rho, _, ok = gauss_newton_correct(build_system(small), np.array(guess), max_iter=50)
    assert ok and np.abs(rho).max() > 0.1
    angle = dict(zip(classes, rho))
    return np.array([angle[k] for k in _crease_classes(pat, n)])


def _line_fold(pat, folds):
    """Each horizontal crease line at the next angle of ``folds``, cyclically."""
    rows: dict[float, list[int]] = {}
    for k, ci in enumerate(pat.inner_creases):
        c = pat.creases[ci]
        if pat.vertices[c.u][1] == pat.vertices[c.v][1]:
            rows.setdefault(pat.vertices[c.u][1], []).append(k)
    rho = np.zeros(pat.n_vars)
    for (_, var_ids), angle in zip(sorted(rows.items()), folds * len(rows)):
        rho[var_ids] = angle
    return rho


def test_check_state_near_pairs_match_all_pairs_on_24x24(monkeypatch):
    pat = patterns.sheared_grid(24, 24, shear=0.3)
    system = build_system(pat)
    tri = panel_triangles(pat)
    adjacent = {(min(p, q), max(p, q)) for p, adj in enumerate(pat.panel_adjacency)
                for q, _ in adj}
    seen = []
    tri_pairs = collision._tri_pairs

    def spy(tri, a, b):
        seen.append(list(zip(a.tolist(), b.tolist())))
        return tri_pairs(tri, a, b)

    monkeypatch.setattr(collision, "_tri_pairs", spy)
    states = [np.zeros(pat.n_vars),
              _line_fold(pat, (1.0, 0.0, math.pi, -1.0, 2.0, -math.pi, -2.0)),
              _line_fold(pat, (0.0, 1.0, 2.0, -math.pi, -2.0, -1.0, math.pi)),
              _miura_state(pat, 24)]
    for rho in states:
        seen.clear()
        check_state(pat, rho, system=system)
        # the narrow phase gets the coplanar pairs, then the others
        coplanar, other = seen
        assert coplanar == sorted(coplanar) and other == sorted(other)
        ring = np.concatenate(fold_mesh(pat, rho))[tri.ring]
        lo, hi = ring.min(axis=1) - 10 * EPS_CONTACT, ring.max(axis=1) + 10 * EPS_CONTACT
        meet = np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]), axis=2)
        a, b = np.nonzero(np.triu(meet, 1))
        expected = [pr for pr in zip(a.tolist(), b.tolist()) if pr not in adjacent]
        assert sorted(coplanar + other) == expected
        assert len(expected) > 1000
