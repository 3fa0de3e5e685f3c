"""The batched pair tests of ``check_state`` against scalar reference forms.

The scalar functions below are the per-pair triangle tests that
``check_state`` ran one pair at a time before its narrow phase was batched:
Moller's interval test with an ``eps`` contact band, and Sutherland-Hodgman
clipping of coplanar triangles, whose overlap counted when its area exceeded
``EPS_AREA``.  They are kept here as the oracle.
"""

import math

import numpy as np
import pytest

from rigidori import check_state, patterns, validate_pattern
from rigidori.collision import (EPS_CONTACT, PanelTriangles, _coplanar_overlaps,
                                _crossing_flags, _tri_planes, ear_clip,
                                panel_triangles)
from rigidori.kinematics import fold_mesh
from rigidori.model import CreasePattern

EPS_AREA = 1e-10   # the overlap area above which the oracle reports a slot


# -- scalar oracle -----------------------------------------------------------

def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _plane(tri):
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nrm = np.linalg.norm(n)
    if nrm == 0.0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    n = n / nrm
    return n, float(n @ tri[0])


def _plane_poly(pts):
    n = np.zeros(3)
    m = len(pts)
    for i in range(m):
        p, q = pts[i], pts[(i + 1) % m]
        n[0] += (p[1] - q[1]) * (p[2] + q[2])
        n[1] += (p[2] - q[2]) * (p[0] + q[0])
        n[2] += (p[0] - q[0]) * (p[1] + q[1])
    nrm = np.linalg.norm(n)
    if nrm == 0.0:
        return np.array([0.0, 0.0, 1.0]), 0.0
    n = n / nrm
    return n, float(n @ pts.mean(axis=0))


def _interval_on_line(tri, dists, direction, eps):
    proj = tri @ direction
    cand = []
    for i in range(3):
        if abs(dists[i]) <= eps:
            cand.append(proj[i])
        j = (i + 1) % 3
        if dists[i] * dists[j] < 0.0:
            t = dists[i] / (dists[i] - dists[j])
            cand.append(proj[i] + t * (proj[j] - proj[i]))
    return min(cand), max(cand)


def _tri_pair_crossing(t1, t2, eps):
    n1, d1 = _plane(t1)
    s2 = t2 @ n1 - d1
    if s2.min() > -eps or s2.max() < eps:
        return False
    n2, d2 = _plane(t2)
    s1 = t1 @ n2 - d2
    if s1.min() > -eps or s1.max() < eps:
        return False
    direction = np.cross(n1, n2)
    nrm = np.linalg.norm(direction)
    if nrm < 1e-14:
        return False
    direction = direction / nrm
    lo1, hi1 = _interval_on_line(t1, s1, direction, eps)
    lo2, hi2 = _interval_on_line(t2, s2, direction, eps)
    return min(hi1, hi2) - max(lo1, lo2) > eps


def _clip_convex(subject, cx):
    out = [p for p in subject]
    m = len(cx)
    for i in range(m):
        a, b = cx[i], cx[(i + 1) % m]
        edge = (b[0] - a[0], b[1] - a[1])
        inp = out
        out = []
        if not inp:
            break
        prev = inp[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= -1e-15
        for cur in inp:
            cur_in = edge[0] * (cur[1] - a[1]) - edge[1] * (cur[0] - a[0]) >= -1e-15
            if cur_in != prev_in:
                den = (edge[0] * (cur[1] - prev[1]) - edge[1] * (cur[0] - prev[0]))
                if abs(den) > 1e-300:
                    t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / den
                    out.append((prev[0] + t * (cur[0] - prev[0]),
                                prev[1] + t * (cur[1] - prev[1])))
            if cur_in:
                out.append(cur)
            prev, prev_in = cur, cur_in
    return out


def _poly_area2(pts):
    if len(pts) < 3:
        return 0.0
    s = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def _tri2_is_ccw(t):
    return _cross2(t[0], t[1], t[2]) > 0


def _tri_overlap_area(pa, pb):
    pa, pb = [tuple(p) for p in pa], [tuple(p) for p in pb]
    if not _tri2_is_ccw(pa):
        pa.reverse()
    if not _tri2_is_ccw(pb):
        pb.reverse()
    return _poly_area2(_clip_convex(pa, pb))


def _coplanar_overlap_area(tris_a, tris_b, normal):
    axis = np.argmax(np.abs(normal))
    u = np.zeros(3)
    u[(axis + 1) % 3] = 1.0
    u = u - (u @ normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    area = 0.0
    for ta in tris_a:
        for tb in tris_b:
            area += _tri_overlap_area([(p @ u, p @ v) for p in ta],
                                      [(p @ u, p @ v) for p in tb])
    return area


def oracle_pairs(pattern, rho, eps=EPS_CONTACT):
    """Crossing and overlapping panel pairs, one scalar pair test at a time."""
    mesh = fold_mesh(pattern, rho)
    tris = [[mesh[p][list(t)] for t in ear_clip(pattern.panel_polygon(p))]
            for p in range(len(pattern.panels))]
    planes = [_plane_poly(poly) for poly in mesh]
    adjacent = {(min(p, q), max(p, q)) for p, adj in enumerate(pattern.panel_adjacency)
                for q, _ in adj}
    crossing, overlaps = [], []
    for a in range(len(mesh)):
        for b in range(a + 1, len(mesh)):
            if (a, b) in adjacent:
                continue
            (na, da), (nb, db) = planes[a], planes[b]
            if (np.abs(mesh[b] @ na - da).max() <= 10 * eps
                    and np.abs(mesh[a] @ nb - db).max() <= 10 * eps):
                if _coplanar_overlap_area(tris[a], tris[b], na) > EPS_AREA:
                    overlaps.append((a, b))
            elif any(_tri_pair_crossing(ta, tb, eps)
                     for ta in tris[a] for tb in tris[b]):
                crossing.append((a, b))
    return crossing, overlaps


# -- triangle-pair fixtures --------------------------------------------------

def _rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _moved(rng, t1, t2):
    """Both triangles under one random rigid motion."""
    R, shift = _rotation(rng), rng.uniform(-3, 3, 3)
    return t1 @ R.T + shift, t2 @ R.T + shift


def _flat(rng):
    return np.column_stack([rng.uniform(-1, 1, (3, 2)), np.zeros(3)])


def _triangle_pairs_3d(seed=11, per_case=60):
    rng = np.random.default_rng(seed)
    eps = EPS_CONTACT
    out = []
    for _ in range(per_case):
        # general position, mostly crossing or apart
        out.append((rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))))
        t1 = _flat(rng)
        # touching: t2 pokes at t1's plane from above, within the band
        apex = np.append(rng.uniform(-0.2, 0.2, 2), rng.uniform(-eps, eps))
        t2 = np.array([apex, apex + (0.3, 0.1, 1.0), apex + (-0.2, 0.4, 1.2)])
        out.append(_moved(rng, t1, t2))
        # touching from just beyond the band, piercing by a few eps
        apex = apex.copy()
        apex[2] = -rng.uniform(2, 5) * eps
        t2 = np.array([apex, apex + (0.3, 0.1, 1.0), apex + (-0.2, 0.4, 1.2)])
        out.append(_moved(rng, t1, t2))
        # resting: t2 stands on t1 along an edge that lies within the band
        big = np.array([(-2.0, -2.0, 0.0), (2.0, -2.0, 0.0), (0.0, 2.0, 0.0)])
        foot = np.append(rng.uniform(-0.3, 0.3, 2), 0.0)
        t2 = np.array([foot + (0.0, 0.0, rng.uniform(-eps, eps)),
                       foot + (0.3, 0.1, rng.uniform(-eps, eps)),
                       foot + (0.1, 0.2, rng.choice([-1.0, 1.0]))])
        out.append(_moved(rng, big, t2))
        # shared edge, hinged at a random angle
        ang = rng.uniform(-math.pi, math.pi)
        far = (rng.uniform(-0.5, 0.5), math.cos(ang), math.sin(ang))
        t1 = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 1.0, 0.0)])
        t2 = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), far])
        out.append(_moved(rng, t1, t2))
        # shared vertex
        t2 = np.array([(0.0, 0.0, 0.0), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)])
        out.append(_moved(rng, t1, t2))
        # exactly coplanar, overlapping
        out.append(_moved(rng, _flat(rng), _flat(rng)))
        # near-parallel: t2 tilted off t1's plane by a tiny angle, straddling it
        tilt = rng.choice([1e-16, 1e-13, 1e-10, 1e-7])
        t2 = _flat(rng)
        t2[:, 2] = tilt * t2[:, 0]
        out.append(_moved(rng, _flat(rng), t2))
        # degenerate: a zero-area (collinear) triangle against a plain one
        p, d = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        sliver = np.array([p, p + d, p + 0.5 * d])
        other = rng.uniform(-1, 1, (3, 3))
        out.append((sliver, other) if rng.integers(2) else (other, sliver))
        # both degenerate: a repeated vertex
        t2 = rng.uniform(-1, 1, (3, 3))
        t2[2] = t2[0]
        out.append((t2, rng.uniform(-1, 1, (3, 3))))
    return out


def _triangle_pairs_2d(seed=12, per_case=80):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(per_case):
        out.append((rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, (3, 2))))
        t = rng.uniform(-1, 1, (3, 2))
        out.append((t, t[::-1].copy()))                              # identical
        out.append((t, t + rng.uniform(-1e-9, 1e-9, (3, 2))))       # nearly so
        out.append((t, np.array([t[0], t[1], t[0] + t[1] - t[2]])))    # shared edge
        out.append((t, np.array([t[0], *rng.uniform(-1, 1, (2, 2))])))  # shared vertex
        out.append((t, t.mean(axis=0) + 0.2 * (t - t.mean(axis=0))))  # contained
        out.append((t, t + 5.0))                                      # apart
        p, d = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        out.append((np.array([p, p + d, p + 0.5 * d]), t))            # degenerate
        out.append((t, np.array([p, p, p + d])))                      # repeated vertex
    return out


# -- tests ---------------------------------------------------------------------

def test_crossing_flags_match_scalar_test():
    pairs = _triangle_pairs_3d()
    t1 = np.array([a for a, _ in pairs])
    t2 = np.array([b for _, b in pairs])
    (n1, d1), (n2, d2) = _tri_planes(t1), _tri_planes(t2)
    got = _crossing_flags(t1, n1, d1, t2, n2, d2, EPS_CONTACT)
    want = np.array([_tri_pair_crossing(a, b, EPS_CONTACT) for a, b in pairs])
    assert got.tolist() == want.tolist()
    assert 0 < want.sum() < len(want)   # the fixtures hold both outcomes


def _overlaps_2d(pairs):
    """``_coplanar_overlaps`` on 2-d triangle pairs, each triangle one panel
    lifted to z = 0."""
    tris = np.array([t for pair in pairs for t in pair]).reshape(-1, 3, 2)
    verts = np.column_stack([tris.reshape(-1, 2), np.zeros(3 * len(tris))])
    n = len(tris)
    tri = PanelTriangles(None, np.arange(3 * n).reshape(n, 3), np.arange(n),
                         np.ones(n, dtype=np.intp), None, None, None)
    normal = np.tile((0.0, 0.0, 1.0), (n, 1))
    return _coplanar_overlaps(verts, tri, np.arange(0, n, 2), np.arange(1, n, 2),
                              normal, EPS_CONTACT)


@pytest.mark.parametrize("seed", [12, 13, 14, 15, 16, 17])
def test_coplanar_overlaps_match_scalar_clip(seed):
    pairs = _triangle_pairs_2d(seed)
    got = _overlaps_2d(pairs)
    want = np.array([_tri_overlap_area(a, b) > EPS_AREA for a, b in pairs])
    assert got.tolist() == want.tolist()
    assert 0 < want.sum() < len(want)   # the fixtures hold both outcomes


def test_coplanar_overlaps_of_no_pairs():
    assert _overlaps_2d([]).shape == (0,)


@pytest.mark.parametrize("folds, verdict", [
    ((math.pi, math.pi, math.pi), "ordered"),
    ((1.0, -math.pi, math.pi), "ordered"),
    ((2.0, 2.0, 2.0), "crossing"),
    # flat-folded stacks: every crease at +pi (its mirror at -pi), and every
    # crease at +-pi with seeded signs; each vertex satisfies Kawasaki's
    # condition, so these states lie on the variety
    ("all", "ordered"),
    ("seeded", "ordered"),
])
def test_check_state_matches_scalar_loop(folds, verdict):
    pat = patterns.sheared_grid(4, 4, shear=0.3)
    if folds == "all":
        rho = np.full(pat.n_vars, math.pi)
    elif folds == "seeded":
        rho = math.pi * np.random.default_rng(5).choice([-1.0, 1.0], pat.n_vars)
    else:
        rows: dict[float, list[int]] = {}
        for k, ci in enumerate(pat.inner_creases):
            c = pat.creases[ci]
            if pat.vertices[c.u][1] == pat.vertices[c.v][1]:
                rows.setdefault(float(pat.vertices[c.u][1]), []).append(k)
        rho = np.zeros(pat.n_vars)
        for y, angle in zip(sorted(rows), folds):
            rho[rows[y]] = angle
    for state in (rho, -rho):
        rep = check_state(pat, state)
        crossing, overlaps = oracle_pairs(pat, state)
        assert rep.verdict == verdict
        assert rep.crossing_pairs == crossing
        assert [r["pair"] for r in rep.overlap_pairs] == overlaps


@pytest.mark.parametrize("shift", [(0.0, 0.0), (-2.0, 0.0), (5.0, 3.0),
                                   (-7.0, 11.0), (100.0, -40.0)])
def test_coplanarity_does_not_depend_on_translation(shift):
    base = patterns.three_squares()
    pat = validate_pattern(CreasePattern(base.vertices + np.array(shift),
                                         base.creases, base.panels, base_panel=1))
    tilted = check_state(pat, np.array([-math.pi, -math.pi + 1e-6]))
    assert tilted.verdict == "free"
    flat = check_state(pat, np.array([-math.pi, -math.pi]))
    assert flat.verdict == "ordered"
    assert [r["pair"] for r in flat.overlap_pairs] == [(0, 2)]


def test_panel_triangles_built_once_per_pattern():
    pat = patterns.sheared_grid(3, 3)
    tri = panel_triangles(pat)
    assert panel_triangles(pat) is tri
    assert tri.corners.shape == (2 * len(pat.panels), 3)
    # the twelve shared edges of the 3x3 grid, as sorted keys a * P + b, a < b
    keys = sorted({min(p, q) * 9 + max(p, q) for p, adj in enumerate(pat.panel_adjacency)
                   for q, _ in adj})
    assert len(keys) == 12
    assert tri.adjacent.tolist() == keys
    pat._derive()
    assert panel_triangles(pat) is not tri
