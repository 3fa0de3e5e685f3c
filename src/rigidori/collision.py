"""Panel self-intersection detection and stacking-order validation.

States on the constraint variety still have to avoid interpenetration of
panels; those excluded states form the boundary constraints of the
configuration space.  Panels are ear-clipped into triangles once per pattern
(in reference coordinates, see ``panel_triangles``); ``check_state`` then
runs three array stages over the folded triangles:

* broad phase: the sort and sweep of validation (``model._box_pairs``) on
  every panel's 3-d box finds the pairs whose boxes overlap; adjacent pairs
  are dropped by key, their hinge and their +-pi stacking being encoded by
  the folding angle itself;
* crossing: Moller's interval test ("A fast triangle-triangle intersection
  test", 1997) on every triangle pair of the non-coplanar panel pairs at
  once.  Separations below ``eps`` count as contact, never as crossing,
  because flat stacked states live exactly on the boundary of the excluded
  set;
* coplanar overlap: the separating axis test (Gottschalk, Lin & Manocha,
  "OBBTree", 1996) on every triangle pair of the coplanar panel pairs, over
  the six in-plane edge normals of the pair; triangles overlap when they
  overlap by more than ``eps`` on every axis.  Coplanar overlapping pairs
  are the slots where a stacking sign is meaningful.

``eps`` is the one tolerance of all three stages, a length: coplanarity is
decided within 10 eps, and crossing and coplanar overlap need a depth
beyond eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import RESIDUAL_TOL, ConstraintSystem, build_system, residual
from .errors import NotOnVariety
from .kinematics import fold_mesh
from .model import CreasePattern, _box_pairs

EPS_CONTACT = 1e-9


# -- triangulation ---------------------------------------------------------

def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _point_in_tri2(p, a, b, c, eps=1e-12):
    d1 = _cross2(a, b, p)
    d2 = _cross2(b, c, p)
    d3 = _cross2(c, a, p)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def ear_clip(poly: np.ndarray) -> list[tuple[int, int, int]]:
    """Deterministic ear clipping of a simple CCW polygon (2-d)."""
    idx = list(range(len(poly)))
    tris: list[tuple[int, int, int]] = []
    while len(idx) > 3:
        n = len(idx)
        clipped = False
        for pos in range(n):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % n]
            a, b, c = poly[i0], poly[i1], poly[i2]
            if _cross2(a, b, c) <= 1e-12:
                continue  # reflex or flat corner
            if any(_point_in_tri2(poly[j], a, b, c)
                   for j in idx if j not in (i0, i1, i2)):
                continue
            tris.append((i0, i1, i2))
            del idx[pos]
            clipped = True
            break
        if not clipped:
            # numerically stuck (collinear runs); fall back to a fan
            for k in range(1, len(idx) - 1):
                tris.append((idx[0], idx[k], idx[k + 1]))
            return tris
    tris.append(tuple(idx))
    return tris


@dataclass(frozen=True)
class PanelTriangles:
    """Ear-clipped panels, index arrays of the batched pair tests, adjacent pair keys.

    Vertex indices address the ``fold_mesh`` polygons concatenated in panel
    order; the triangles of panel ``p`` are rows ``first[p]`` to
    ``first[p] + count[p] - 1`` of ``corners``.
    """

    local: list[list[tuple[int, int, int]]]  # per panel, corners in its own polygon
    corners: np.ndarray   # (T, 3) triangle corners
    first: np.ndarray     # (P,) first triangle of each panel
    count: np.ndarray     # (P,) triangles per panel
    ring: np.ndarray      # (P, L) polygon vertices, padded with the first vertex
    size: np.ndarray      # (P,) polygon vertex counts
    adjacent: np.ndarray  # sorted keys a * P + b of the adjacent panel pairs, a < b


def panel_triangles(pattern: CreasePattern) -> PanelTriangles:
    """Triangles and adjacent-pair keys of a pattern, built once per pattern."""
    if pattern._panel_triangles is None:
        pattern._panel_triangles = _triangulate(pattern)
    return pattern._panel_triangles


def _triangulate(pattern: CreasePattern) -> PanelTriangles:
    n = len(pattern.panels)
    if pattern.is_cone:
        # fold_mesh places every cone panel as one triangle
        local = [[(0, 1, 2)] for _ in range(n)]
        size = np.full(n, 3)
    else:
        local = [ear_clip(pattern.panel_polygon(p)) for p in range(n)]
        size = np.array([len(cycle) for cycle in pattern.panels])
    start = np.cumsum(size) - size
    count = np.array([len(ts) for ts in local])
    corners = (np.array([t for ts in local for t in ts], dtype=np.intp).reshape(-1, 3)
               + np.repeat(start, count)[:, None])
    slot = np.arange(size.max())
    ring = start[:, None] + np.where(slot < size[:, None], slot, 0)
    adjacent = np.array(sorted({p * n + q for p, adj in enumerate(pattern.panel_adjacency)
                                for q, _ in adj if p < q}), dtype=np.intp)
    return PanelTriangles(local, corners, np.cumsum(count) - count, count, ring,
                          size, adjacent)


# -- batched pair tests ------------------------------------------------------

def _unit_planes(normal, point):
    """Unit normals and offsets of planes; a zero normal gives the z = 0 plane."""
    nrm = np.linalg.norm(normal, axis=-1)
    flat = nrm == 0.0
    normal = np.where(flat[:, None], (0.0, 0.0, 1.0),
                      normal / np.where(flat, 1.0, nrm)[:, None])
    return normal, np.where(flat, 0.0, np.einsum("ij,ij->i", normal, point))


def _panel_planes(ring, size):
    """Newell plane of every placed panel polygon through its centroid.

    ``ring`` is (P, L, 3), each polygon padded with its first vertex; the
    padding adds only zero-length edges to the Newell sums.
    """
    p, q = ring, np.roll(ring, -1, axis=1)
    normal = np.stack([(p[..., 1] - q[..., 1]) * (p[..., 2] + q[..., 2]),
                       (p[..., 2] - q[..., 2]) * (p[..., 0] + q[..., 0]),
                       (p[..., 0] - q[..., 0]) * (p[..., 1] + q[..., 1])],
                      axis=-1).sum(axis=1)
    real = np.arange(ring.shape[1]) < size[:, None]
    centroid = np.where(real[..., None], ring, 0.0).sum(axis=1) / size[:, None]
    return _unit_planes(normal, centroid)


def _tri_planes(tris):
    """Unit normal and offset of every triangle of a (T, 3, 3) stack."""
    return _unit_planes(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                        tris[:, 0])


def _tri_pairs(tri: PanelTriangles, a, b):
    """Every (triangle of a, triangle of b) of the panel pairs, a's triangles outer.

    Returns the panel-pair index of each triangle pair and both triangles.
    """
    na, nb = tri.count[a], tri.count[b]
    per = na * nb
    pair = np.repeat(np.arange(len(a)), per)
    k = np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per)
    return (pair, tri.first[a][pair] + k // nb[pair],
            tri.first[b][pair] + k % nb[pair])


def _intervals(tris, dist, direction, eps):
    """Projection interval of each triangle's plane crossing onto its line."""
    proj = np.einsum("kij,kj->ki", tris, direction)
    dist_next, proj_next = np.roll(dist, -1, axis=1), np.roll(proj, -1, axis=1)
    on = np.abs(dist) <= eps
    cut = dist * dist_next < 0.0
    t = np.divide(dist, dist - dist_next, out=np.zeros_like(dist), where=cut)
    at = proj + t * (proj_next - proj)
    lo = np.minimum(np.where(on, proj, np.inf).min(axis=1),
                    np.where(cut, at, np.inf).min(axis=1))
    hi = np.maximum(np.where(on, proj, -np.inf).max(axis=1),
                    np.where(cut, at, -np.inf).max(axis=1))
    return lo, hi


def _crossing_flags(t1, n1, d1, t2, n2, d2, eps):
    """Do triangle pairs interpenetrate beyond the eps contact band (Moller)?

    ``t1``, ``t2`` are (K, 3, 3) triangle stacks with their planes ``(n, d)``.
    A pair crosses only when each triangle straddles the other's plane by
    more than ``eps`` and their intervals on the planes' common line overlap
    by more than ``eps``; parallel planes count as contact.
    """
    s2 = np.einsum("kij,kj->ki", t2, n1) - d1[:, None]
    s1 = np.einsum("kij,kj->ki", t1, n2) - d2[:, None]
    direction = np.cross(n1, n2)
    nrm = np.linalg.norm(direction, axis=1)
    live = ((s2.min(axis=1) <= -eps) & (s2.max(axis=1) >= eps)
            & (s1.min(axis=1) <= -eps) & (s1.max(axis=1) >= eps) & (nrm >= 1e-14))
    direction = direction[live] / nrm[live, None]
    lo1, hi1 = _intervals(t1[live], s1[live], direction, eps)
    lo2, hi2 = _intervals(t2[live], s2[live], direction, eps)
    out = np.zeros(len(t1), dtype=bool)
    out[live] = np.minimum(hi1, hi2) - np.maximum(lo1, lo2) > eps
    return out


def _coplanar_overlaps(verts, tri: PanelTriangles, a, b, normal, eps):
    """Do the coplanar panel pairs (a, b) overlap by more than ``eps``?

    Separating axis test on every triangle pair: the axes are the six
    in-plane edge normals ``normal[a] x edge`` of both triangles, and a pair
    overlaps when on every axis the projections of its corners overlap by
    more than ``eps`` times the axis length.  A degenerate triangle projects
    to a point on some axis (or has a zero axis), so it overlaps nothing.
    """
    pair, t1, t2 = _tri_pairs(tri, a, b)
    p1, p2 = verts[tri.corners[t1]], verts[tri.corners[t2]]
    edges = np.concatenate([p1[:, [1, 2, 0]] - p1, p2[:, [1, 2, 0]] - p2], axis=1)
    axes = np.cross(normal[a[pair]][:, None], edges)          # (K, 6, 3)
    # corners projected onto the axes, (K, 3, 6): reducing over the corners
    # of a middle axis is several times faster than over a last axis of 3
    s1, s2 = p1 @ axes.transpose(0, 2, 1), p2 @ axes.transpose(0, 2, 1)
    depth = np.minimum(s1.max(axis=1), s2.max(axis=1)) - np.maximum(s1.min(axis=1),
                                                                    s2.min(axis=1))
    hit = (depth > eps * np.sqrt(np.einsum("kaj,kaj->ka", axes, axes))).all(axis=1)
    return np.bincount(pair[hit], minlength=len(a)) > 0


# -- reports -----------------------------------------------------------------

@dataclass
class ContactReport:
    verdict: str                                   # "free" | "ordered" | "crossing"
    crossing_pairs: list[tuple[int, int]] = field(default_factory=list)
    overlap_pairs: list[dict] = field(default_factory=list)  # {pair, sign}
    conflicts: list[str] = field(default_factory=list)
    cyclic_orders: list[list[int]] = field(default_factory=list)
    stray_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def free(self) -> bool:
        return self.verdict == "free"


def _normalize_lambda(lambda_pairs):
    """Canonical (a<b) sign table; contradictions become conflict records."""
    table: dict[tuple[int, int], int] = {}
    conflicts = []
    for a, b, s in lambda_pairs or []:
        if s not in (1, -1):
            conflicts.append(f"lambda({a},{b}) has sign {s}, expected +-1")
            continue
        key, sig = ((a, b), s) if a < b else ((b, a), -s)
        if key in table and table[key] != sig:
            conflicts.append(f"lambda conflict on panels {key}")
        else:
            table[key] = sig
    return table, conflicts


def check_state(pattern: CreasePattern, rho, lambda_pairs=None, rho0=None,
                eps: float = EPS_CONTACT, residual_tol: float = RESIDUAL_TOL,
                system: ConstraintSystem | None = None,
                chains=None) -> ContactReport:
    """Boundary-constraint check of a solved state.

    Non-adjacent panel pairs are tested for interpenetration; coplanar
    overlapping pairs become stacking-order slots.  ``eps`` is the contact
    band: panels within 10 eps of each other's planes are coplanar, and
    crossing triangles must interpenetrate, coplanar ones overlap, by more
    than eps.  Declared ``lambda_pairs`` are validated for antisymmetry and
    contradiction (a contradiction makes the verdict "crossing"); cyclic
    orders within a coplanar cluster are reported, not rejected.
    """
    rho = np.asarray(rho, dtype=float)
    if system is None:
        system = build_system(pattern)
    res = residual(system, rho)
    if not res.satisfied(residual_tol):
        raise NotOnVariety(f"residual max-norm {res.max_norm:.3e} > {residual_tol:.1e}")
    tri = panel_triangles(pattern)
    verts = np.concatenate(fold_mesh(pattern, rho, rho0=rho0, chains=chains))
    ring = verts[tri.ring]
    normal, offset = _panel_planes(ring, tri.size)

    # Broad phase.  Coplanar panels lie within 10 eps of each other's planes,
    # so boxes padded by 10 eps prune no pair that could overlap or cross.
    # Sorted keys a * P + b give the pairs in lexicographic order.
    a, b = _box_pairs(ring.min(axis=1) - 10 * eps, ring.max(axis=1) + 10 * eps)
    key = np.sort(a * len(tri.size) + b)
    a, b = np.divmod(key[~np.isin(key, tri.adjacent, assume_unique=True)], len(tri.size))

    def spread(p, q):
        """Largest distance of q's vertices from p's plane, pair by pair."""
        return np.abs(np.einsum("mlj,mj->ml", ring[q], normal[p])
                      - offset[p][:, None]).max(axis=1)

    # coplanar: every vertex of each panel lies within 10 eps of the other's
    # plane, which does not depend on where the pattern sits in space
    coplanar = (spread(a, b) <= 10 * eps) & (spread(b, a) <= 10 * eps)

    ca, cb = a[coplanar], b[coplanar]
    stacked = _coplanar_overlaps(verts, tri, ca, cb, normal, eps)
    overlaps = list(zip(ca[stacked].tolist(), cb[stacked].tolist()))

    xa, xb = a[~coplanar], b[~coplanar]
    pair, t1, t2 = _tri_pairs(tri, xa, xb)
    tris = verts[tri.corners]
    tri_n, tri_d = _tri_planes(tris)
    hit = _crossing_flags(tris[t1], tri_n[t1], tri_d[t1],
                          tris[t2], tri_n[t2], tri_d[t2], eps)
    crossed = np.bincount(pair[hit], minlength=len(xa)) > 0
    crossing = list(zip(xa[crossed].tolist(), xb[crossed].tolist()))

    table, conflicts = _normalize_lambda(lambda_pairs)
    overlap_set = set(overlaps)
    stray = sorted(set(table) - overlap_set)
    overlap_records = [{"pair": pr, "sign": table.get(pr)} for pr in overlaps]

    # strongly-connected "above" relations among coplanar clusters are cycles
    above: dict[int, set[int]] = {}
    for pr, sig in table.items():
        if pr in overlap_set and sig is not None:
            top, bot = (pr[0], pr[1]) if sig > 0 else (pr[1], pr[0])
            above.setdefault(top, set()).add(bot)
    cycles = _find_cycles(above)

    if crossing or conflicts:
        verdict = "crossing"
    elif overlaps:
        verdict = "ordered"
    else:
        verdict = "free"
    return ContactReport(verdict=verdict, crossing_pairs=crossing,
                         overlap_pairs=overlap_records, conflicts=conflicts,
                         cyclic_orders=cycles, stray_pairs=stray)


def _find_cycles(adj: dict[int, set[int]]) -> list[list[int]]:
    """Strongly connected components of size > 1 (cyclic stacking orders).

    Tarjan's algorithm, with an explicit stack of (node, successor iterator)
    frames in place of recursion, so chains of any length fit.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    calls: list = []
    out: list[list[int]] = []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        calls.append((v, iter(adj.get(v, ()))))

    nodes = set(adj)
    for vs in adj.values():
        nodes.update(vs)
    for root in sorted(nodes):
        if root in index:
            continue
        visit(root)
        while calls:
            v, succ = calls[-1]
            for w in succ:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                calls.pop()
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
                if calls:
                    u = calls[-1][0]
                    low[u] = min(low[u], low[v])
    return out


@dataclass
class FirstContact:
    index: int
    rho: np.ndarray


def first_contact(pattern: CreasePattern, samples, lambda_pairs=None,
                  eps: float = EPS_CONTACT,
                  refine_tol: float = 1e-6) -> FirstContact | None:
    """Earliest crossing sample of a path, bisection-refined between samples.

    The refinement interpolates linearly in the folding angles, which is the
    documented approximation for localizing the contact; interpolants are
    therefore not re-checked against the constraint variety.  The returned
    state is the first crossing point of the interpolant to ``refine_tol``.
    """
    samples = [np.asarray(s, dtype=float) for s in
               (samples.samples if hasattr(samples, "samples") else samples)]
    system = build_system(pattern)

    def crossing_at(r):
        rep = check_state(pattern, r, lambda_pairs=lambda_pairs, eps=eps,
                          residual_tol=math.inf, system=system)
        return rep.verdict == "crossing"

    hit = None
    for k, s in enumerate(samples):
        if crossing_at(s):
            hit = k
            break
    if hit is None:
        return None
    if hit == 0:
        return FirstContact(0, samples[0])
    lo, hi = samples[hit - 1], samples[hit]
    while float(np.abs(hi - lo).max()) > refine_tol:
        mid = 0.5 * (lo + hi)
        if crossing_at(mid):
            hi = mid
        else:
            lo = mid
    return FirstContact(hit, hi)
