"""Batched planarity check against the scalar segment test it replaced.

``_segments_cross`` and ``reference_check_planar`` below are the scalar
predicate and the O(E^2 + E V) loop that ``model._check_planar`` used to
run, kept here as the oracle.  The only change to the loop is the
zero-length check, which it reached as a ``ZeroDivisionError``.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rigidori import CreasePattern, patterns, validate_pattern
from rigidori.cli import main
from rigidori.errors import NonPlanar, PatternError
from rigidori.model import (Crease, _check_planar, _crossing, pattern_to_dict,
                            save_pattern)


def _segments_cross(p1, p2, q1, q2, eps=1e-12) -> bool:
    """True when the open segments intersect, or one's interior hits the
    other's endpoint.  Sharing endpoints only is fine."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    r = q1 - p1
    if abs(denom) < eps:
        # parallel: overlap iff collinear with overlapping interiors
        if abs(r[0] * d1[1] - r[1] * d1[0]) > eps:
            return False
        L = np.dot(d1, d1)
        if L < eps:
            return False
        t1 = np.dot(q1 - p1, d1) / L
        t2 = np.dot(q2 - p1, d1) / L
        lo, hi = min(t1, t2), max(t1, t2)
        return min(hi, 1.0) - max(lo, 0.0) > 1e-9
    t = (r[0] * d2[1] - r[1] * d2[0]) / denom
    s = (r[0] * d1[1] - r[1] * d1[0]) / denom
    inside = 1e-9
    if -inside < t < 1 + inside and -inside < s < 1 + inside:
        # endpoint-to-endpoint contact is allowed
        tb = t < inside or t > 1 - inside
        sb = s < inside or s > 1 - inside
        return not (tb and sb)
    return False


def reference_check_planar(pat: CreasePattern):
    V = pat.vertices
    segs = [(V[c.u], V[c.v]) for c in pat.creases]
    for i in range(len(segs)):
        p1, p2 = segs[i]
        ci = pat.creases[i]
        for j in range(i + 1, len(segs)):
            cj = pat.creases[j]
            if ci.u in (cj.u, cj.v) or ci.v in (cj.u, cj.v):
                continue
            if _segments_cross(p1, p2, segs[j][0], segs[j][1]):
                raise NonPlanar(f"creases {i} and {j} cross")
        # vertices must not sit in a crease interior
        d = p2 - p1
        L2 = float(np.dot(d, d))
        if L2 == 0.0:
            raise NonPlanar(f"crease {i} has zero length")
        for v in range(pat.n_vertices):
            if v in (ci.u, ci.v):
                continue
            t = float(np.dot(V[v] - p1, d)) / L2
            if 1e-9 < t < 1 - 1e-9:
                perp = V[v] - (p1 + t * d)
                if float(np.dot(perp, perp)) < 1e-18:
                    raise NonPlanar(f"vertex {v} lies inside crease {i}")


def outcome(check, pat):
    try:
        check(pat)
    except NonPlanar as exc:
        return str(exc)
    return None


# -- segment pairs of each class ------------------------------------------------

N_PAIRS = 300


def _place(rng, segs, scale=None):
    """Rotate, scale and shift a batch of segment pairs (m, 4, 2) at random;
    a third of them are turned by a multiple of 90 degrees, so that boxes
    are thin and only their padding keeps them apart or together."""
    m = len(segs)
    angle = np.where(rng.random(m) < 1 / 3, rng.integers(4, size=m) * (math.pi / 2),
                     rng.uniform(0, 2 * math.pi, m))
    rot = np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)],
                   axis=1).reshape(m, 2, 2)
    if scale is None:
        scale = 10.0 ** rng.uniform(-1, 1, m)
    shift = rng.uniform(-5, 5, (m, 1, 2))
    return np.einsum("mij,mkj->mki", rot, segs) * scale[:, None, None] + shift


def _pairs(kind, rng):
    m = N_PAIRS
    u = rng.uniform(0.1, 0.9, m)
    h = rng.uniform(0.3, 2.0, m)
    if kind == "proper":
        segs = [((0, 0), (1, 0), (x, -a), (x + b, c))
                for x, a, b, c in zip(u, h, rng.uniform(-0.05, 0.05, m), h[::-1])]
    elif kind == "t_junction":
        # q starts within 2e-9 of p, anywhere along it or just past its ends
        along = np.where(rng.random(m) < 0.5, u, rng.choice([0.0, 1.0], m)
                         + rng.uniform(-3e-9, 3e-9, m))
        off = rng.uniform(-2e-9, 2e-9, m)
        segs = [((0, 0), (1, 0), (x, y), (x + 0.3, y + a))
                for x, y, a in zip(along, off, h)]
    elif kind == "shared_endpoint":
        segs = [((0, 0), (1, 0), (1, 0), (1 + c, a))
                for a, c in zip(h, rng.uniform(-1, 1, m))]
    elif kind == "collinear_overlap":
        segs = [((0, 0), (1, 0), (x, 0), (x + a, 0)) for x, a in zip(u, h)]
    elif kind == "collinear_touching":
        gap = rng.uniform(-3e-9, 3e-9, m)
        segs = [((0, 0), (1, 0), (1 + g, 0), (1 + g + a, 0)) for g, a in zip(gap, h)]
    elif kind == "parallel_apart":
        gap = 10.0 ** rng.uniform(-14, -1, m)
        segs = [((0, 0), (1, 0), (x, g), (x + a, g)) for x, g, a in zip(u - 0.5, gap, h)]
    elif kind == "near_parallel":
        tilt = 10.0 ** rng.uniform(-15, -8, m) * rng.choice([-1, 1], m)
        gap = 10.0 ** rng.uniform(-14, -8, m) * rng.choice([-1, 0, 1], m)
        segs = [((0, 0), (1, 0), (x, g), (x + a, g + a * e))
                for x, g, a, e in zip(u - 0.5, gap, h, tilt)]
    else:
        raise ValueError(kind)
    return _place(rng, np.array(segs, dtype=float))


def _two_creases(seg):
    """Two creases on four vertices (0, 1) and (2, 3), no panels."""
    return CreasePattern(seg, [Crease(0, 1, "outer"), Crease(2, 3, "outer")], [])


CLASSES = ["proper", "t_junction", "shared_endpoint", "collinear_overlap",
           "collinear_touching", "parallel_apart", "near_parallel"]


@pytest.mark.parametrize("kind", CLASSES)
def test_predicate_matches_scalar_oracle(kind):
    rng = np.random.default_rng(CLASSES.index(kind))
    segs = _pairs(kind, rng)
    want = [_segments_cross(*s) for s in segs]
    got = _crossing(segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3])
    assert got.tolist() == want
    # every pair also goes through the sweep, in both crease orders
    for s in segs:
        for pat in (_two_creases(s), _two_creases(s[[2, 3, 0, 1]])):
            assert outcome(_check_planar, pat) == outcome(reference_check_planar, pat)
    if kind == "proper":
        assert all(want)
    elif kind == "shared_endpoint":
        assert not any(want)
    elif kind == "collinear_overlap":
        assert all(want)
    else:
        assert 0 < sum(want) < N_PAIRS, "the class should straddle the tolerance"


def _noise_decided(seg) -> bool:
    """The scalar test takes its non-parallel branch on a denominator no
    larger than its own rounding error, so its verdict is rounding noise."""
    d1, d2 = seg[1] - seg[0], seg[3] - seg[2]
    denom = abs(d1[0] * d2[1] - d1[1] * d2[0])
    bound = 8 * np.finfo(float).eps * np.linalg.norm(d1) * np.linalg.norm(d2)
    return 1e-12 <= denom <= bound


@pytest.mark.parametrize("kind", CLASSES)
@pytest.mark.parametrize("scale", [1e-4, 1e-3, 1e3])
def test_scaled_pairs(kind, scale):
    """Both creases of length about 1e-4, 1e-3 or 1e3.  Below 2e-3 the reach
    of the parallel test, 2e-12 / |d|, is the largest part of the box pad.

    At 1e3 the denominator's rounding error exceeds the parallel cutoff
    1e-12, so for nearly collinear creases the scalar test decides from
    rounding noise and may report two creases that lie apart on one line as
    crossing.  No box can follow noise: there the sweep may prune the pair,
    and the check then passes it.  Every other pair must give the scalar
    loop's outcome.
    """
    rng = np.random.default_rng(100 + CLASSES.index(kind))
    segs = _place(rng, _pairs(kind, rng), scale=np.full(N_PAIRS, scale))
    noise = 0
    for s in segs:
        for pat in (_two_creases(s), _two_creases(s[[2, 3, 0, 1]])):
            got, want = outcome(_check_planar, pat), outcome(reference_check_planar, pat)
            if _noise_decided(pat.vertices):
                noise += 1
                assert got in (want, None)
            else:
                assert got == want
    if scale < 1:
        assert noise == 0


RELATIONS = ["crossing", "t_junction", "touching_end", "parallel", "end_on_short"]


@pytest.mark.parametrize("relation", RELATIONS)
def test_short_and_long_crease(relation):
    """A crease of length 1e-3 beside one of length 1e3.  The long crease
    reaches 1e-6 past its ends, the short one 1e-12; the boxes are padded
    by each crease's own reach."""
    rng = np.random.default_rng(200 + RELATIONS.index(relation))
    m, L, ell = N_PAIRS, 1e3, 1e-3
    x = rng.uniform(0.1, 0.9, m) * L
    angle = rng.uniform(0.2, math.pi - 0.2, m)
    heading = ell * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    if relation == "crossing":
        q1 = np.stack([x, np.zeros(m)], axis=1) - heading * rng.uniform(0.1, 0.9, (m, 1))
    elif relation == "t_junction":
        q1 = np.stack([x, rng.uniform(-2e-9, 2e-9, m)], axis=1)
    elif relation == "touching_end":
        q1 = np.array([L, 0.0]) + rng.uniform(-3e-9, 3e-9, (m, 2))
    elif relation == "parallel":
        h = 10.0 ** rng.uniform(-14, -6, m) * rng.choice([-1, 1], m)
        q1 = np.stack([x, h], axis=1)
        heading = np.array([ell, 0.0]) * rng.choice([-1, 1], (m, 1))
    else:
        # the long crease's end near the short crease's interior
        q1 = np.stack([L + rng.uniform(-3e-6, 3e-6, m), np.full(m, -0.5 * ell)], axis=1)
        heading = np.array([rng.uniform(-1e-5, 1e-5), ell]) * np.ones((m, 1))
    long_ = np.broadcast_to(np.array([[0.0, 0.0], [L, 0.0]]), (m, 2, 2))
    segs = _place(rng, np.concatenate([long_, np.stack([q1, q1 + heading], axis=1)],
                                      axis=1), scale=np.ones(m))
    flagged = 0
    for s in segs:
        for pat in (_two_creases(s), _two_creases(s[[2, 3, 0, 1]])):
            want = outcome(reference_check_planar, pat)
            assert outcome(_check_planar, pat) == want
            flagged += want is not None
    if relation == "crossing":
        assert flagged == 2 * m
    else:
        assert 0 < flagged < 2 * m


@pytest.mark.parametrize("length", [1e-3, 0.05, 1.0, 1e3])
@pytest.mark.parametrize("off", [0.0, 5e-10, 2e-9])
def test_vertex_near_crease_interior(length, off):
    """A vertex within 1e-9 of a crease lies inside it whatever the crease's
    length; the box pad has an absolute part for that."""
    verts = [(0.0, 0.0), (length, 0.0), (0.3 * length, off)]
    pat = CreasePattern(verts, [Crease(0, 1, "outer")], [])
    want = outcome(reference_check_planar, pat)
    assert outcome(_check_planar, pat) == want
    assert (want is not None) == (off < 1e-9)


# -- perturbed fixtures -----------------------------------------------------------

# the fixtures and perturbations that tools/compare_outputs.py runs on two trees
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


@pytest.mark.parametrize("kind", ["move", "snap_crease", "snap_vertex"])
def test_first_violation_matches_scalar_loop(kind):
    rng = np.random.default_rng(["move", "snap_crease", "snap_vertex"].index(kind) + 7)
    raised = 0
    for pat in compare_outputs.fixtures().values():
        for _ in range(40):
            bad = CreasePattern(compare_outputs.perturbed(pat, kind, rng), pat.creases,
                                pat.panels)
            want = outcome(reference_check_planar, bad)
            assert outcome(_check_planar, bad) == want
            raised += want is not None
    assert raised > 0


def test_bow_tie_panel_rejected():
    verts = [(0, 0), (1, 1), (1, 0), (0, 1)]
    creases = [Crease(0, 1, "outer"), Crease(1, 2, "outer"),
               Crease(2, 3, "outer"), Crease(3, 0, "outer")]
    with pytest.raises(NonPlanar, match="creases 0 and 2 cross"):
        validate_pattern(CreasePattern(verts, creases, [[0, 1, 2, 3]]))


def test_large_grid_validates():
    pat = patterns.sheared_grid(24, 24)
    assert len(pat.panels) == 24 * 24


# -- input checks -------------------------------------------------------------------

def _square_diagonal_with(vertex, xy):
    pat = patterns.square_diagonal()
    verts = pat.vertices.copy()
    verts[vertex] = xy
    return CreasePattern(verts, pat.creases, pat.panels)


def test_zero_length_crease_rejected(tmp_path, capsys):
    pat = patterns.square_diagonal()
    c = pat.creases[0]
    bad = _square_diagonal_with(c.v, pat.vertices[c.u])
    with pytest.raises(NonPlanar, match="crease 0 has zero length"):
        validate_pattern(bad)
    f = tmp_path / "zero.json"
    save_pattern(bad, f)
    code = main(["validate", str(f)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "NonPlanar"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(value):
    with pytest.raises(PatternError, match="vertex 2 has a non-finite coordinate"):
        validate_pattern(_square_diagonal_with(2, (value, 1.0)))


def test_short_edges_assignment_rejected():
    data = pattern_to_dict(patterns.square_diagonal())
    data["edges_assignment"].pop()
    with pytest.raises(PatternError, match="edges_assignment has 4 entries for 5 "
                                           "edges_vertices"):
        validate_pattern(data)
