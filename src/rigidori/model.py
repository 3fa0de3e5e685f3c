"""Crease-pattern data model, validation, and serialization.

A pattern is a planar straight-line graph whose faces are rigid panels.
Creases are ``inner`` (hinge between two panels) or ``outer`` (paper
boundary).  The flat reference embedding fixes all sector angles; folding
angles live on inner creases only and are collected in a plain numpy
vector indexed by ``pattern.inner_creases`` order.

Non-developable cones cannot be embedded flat, so sector angles may be
overridden per vertex (``alpha_override``); the stored coordinates then
carry only the combinatorics (incidence and rotational order).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DanglingCrease, Disconnected, NonPlanar, OpenPanel, PatternError

TWO_PI = 2.0 * math.pi

INNER = "inner"
OUTER = "outer"


@dataclass(frozen=True)
class Crease:
    u: int
    v: int
    kind: str  # "inner" or "outer"

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


@dataclass
class FoldState:
    """Folding-angle vector plus optional stacking signs.

    ``rho[k]`` is the folding angle of ``pattern.inner_creases[k]``, each in
    [-pi, pi].  ``lambda_pairs`` lists ``(panel_a, panel_b, sign)`` for
    coplanar stacked panels; sign +1 means ``panel_a`` lies on the top side
    of ``panel_b``.  The reversed pair with negated sign is implied.
    """

    rho: np.ndarray
    lambda_pairs: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.ndim != 1:
            raise ValueError("rho must be a 1-d vector")
        if np.any(np.abs(self.rho) > math.pi + 1e-12):
            raise ValueError("folding angles must lie in [-pi, pi]")

    def mirrored(self) -> "FoldState":
        return FoldState(-self.rho, [(a, b, -s) for a, b, s in self.lambda_pairs])


class CreasePattern:
    """Validated, immutable creased paper.

    Use :func:`validate_pattern` (or :func:`load_pattern`) to construct one;
    the constructor itself only stores fields and derives index structures,
    assuming the invariants already hold.
    """

    def __init__(self, vertices, creases, panels, holes=None, base_panel=0,
                 alpha_override=None, rho0=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.creases: list[Crease] = [
            c if isinstance(c, Crease) else Crease(int(c[0]), int(c[1]), c[2])
            for c in creases
        ]
        self.panels: list[list[int]] = [list(map(int, p)) for p in panels]
        self.holes: list[list[int]] = [list(map(int, h)) for h in (holes or [])]
        self.base_panel = int(base_panel)
        self.alpha_override: dict[int, list[float]] = {
            int(k): [float(a) for a in v] for k, v in (alpha_override or {}).items()
        }
        self.rho0 = None if rho0 is None else np.asarray(rho0, dtype=float)
        self._derive()

    # -- derived structure -------------------------------------------------

    def _derive(self):
        self.n_vertices = len(self.vertices)
        self.inner_creases = [i for i, c in enumerate(self.creases) if c.kind == INNER]
        self.outer_creases = [i for i, c in enumerate(self.creases) if c.kind == OUTER]
        self.var_of_crease = {c: k for k, c in enumerate(self.inner_creases)}
        self.n_vars = len(self.inner_creases)

        self._edge_index = {}
        for i, c in enumerate(self.creases):
            self._edge_index[(c.u, c.v)] = i
            self._edge_index[(c.v, c.u)] = i

        # panels flanking each crease, and the panel containing each
        # directed boundary edge (panel cycles are CCW, interior on the left)
        self.crease_panels: list[list[int]] = [[] for _ in self.creases]
        self._panel_of_directed: dict[tuple[int, int], int] = {}
        for p, cycle in enumerate(self.panels):
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                ci = self._edge_index.get((a, b))
                if ci is not None:
                    self.crease_panels[ci].append(p)
                    self._panel_of_directed[(a, b)] = p

        self.panel_adjacency: list[list[tuple[int, int]]] = [[] for _ in self.panels]
        for ci in self.inner_creases:
            ps = self.crease_panels[ci]
            if len(ps) == 2:
                a, b = ps
                self.panel_adjacency[a].append((b, ci))
                self.panel_adjacency[b].append((a, ci))
        for adj in self.panel_adjacency:
            adj.sort()

        # incident creases per vertex, CCW by reference angle
        self.vertex_creases: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for i, c in enumerate(self.creases):
            self.vertex_creases[c.u].append(i)
            self.vertex_creases[c.v].append(i)
        for v in range(self.n_vertices):
            self.vertex_creases[v].sort(key=lambda ci: self._ray_angle(v, ci))

        hole_vertices = set()
        for h in self.holes:
            hole_vertices.update(h)
        boundary = set(hole_vertices)
        for ci in self.outer_creases:
            boundary.add(self.creases[ci].u)
            boundary.add(self.creases[ci].v)
        self.inner_vertices = sorted(
            v for v in range(self.n_vertices)
            if v not in boundary and self.vertex_creases[v]
        )
        # filled on first use by collision.panel_triangles and kinematics._tree
        # (the spanning tree as arrays, with the reference panel polygons)
        self._panel_triangles = None
        self._tree = None

    def _ray_angle(self, v: int, crease_index: int) -> float:
        c = self.creases[crease_index]
        w = c.other(v)
        d = self.vertices[w] - self.vertices[v]
        return math.atan2(d[1], d[0])

    # -- queries -----------------------------------------------------------

    def crease_index(self, u: int, v: int) -> int:
        return self._edge_index[(u, v)]

    def crease_ends(self, crease_index: int, into_panel: int) -> tuple[int, int]:
        """(start, end) vertices of a crease oriented with ``into_panel`` on
        its left; the start is the origin of the crease frame."""
        c = self.creases[crease_index]
        if self._panel_of_directed.get((c.u, c.v)) == into_panel:
            return c.u, c.v
        if self._panel_of_directed.get((c.v, c.u)) == into_panel:
            return c.v, c.u
        raise PatternError(f"panel {into_panel} does not border crease {crease_index}")

    def sector_angles(self, v: int) -> np.ndarray:
        """CCW sector angles at vertex ``v``, aligned with ``vertex_creases[v]``.

        Entry ``j`` is the angle from crease ``j-1`` to crease ``j`` (wrapping),
        so for an inner vertex the entries sum to 2*pi in the reference
        embedding unless overridden by a cone input.
        """
        if v in self.alpha_override:
            return np.asarray(self.alpha_override[v], dtype=float)
        ids = self.vertex_creases[v]
        if not ids:
            return np.zeros(0)
        angs = [self._ray_angle(v, ci) for ci in ids]
        out = []
        for j in range(len(ids)):
            a = angs[j] - angs[j - 1]
            out.append(a % TWO_PI if len(ids) > 1 else TWO_PI)
        return np.asarray(out)

    def panel_polygon(self, p: int) -> np.ndarray:
        return self.vertices[self.panels[p]]

    def panel_area(self, p: int) -> float:
        x, y = self.panel_polygon(p)[:, :2].T
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))

    def scaled(self, factor: float) -> "CreasePattern":
        return CreasePattern(self.vertices * factor, self.creases, self.panels,
                             self.holes, self.base_panel, self.alpha_override,
                             self.rho0)

    @property
    def is_cone(self) -> bool:
        return bool(self.alpha_override)

    def initial_state(self) -> FoldState:
        if self.rho0 is not None:
            return FoldState(self.rho0.copy())
        return FoldState(np.zeros(self.n_vars))


# -- geometry helpers ----------------------------------------------------

def _dot(a, b) -> np.ndarray:
    """Row-wise ``np.dot``, rounded alike: a 1x2 @ 2x1 matmul is a BLAS dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _crossing(p1, p2, q1, q2, eps=1e-12) -> np.ndarray:
    """Per row: the open segments intersect, or one's interior hits the
    other's endpoint.  Sharing endpoints only is fine."""
    d1, d2, r = p2 - p1, q2 - q1, q1 - p1
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r_d1 = r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]
    L = _dot(d1, d1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # parallel: overlap iff collinear with overlapping interiors
        lo, hi = np.sort([_dot(r, d1) / L, _dot(q2 - p1, d1) / L], axis=0)
        overlap = np.minimum(hi, 1.0) - np.maximum(lo, 0.0) > 1e-9
        t, s = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / denom, r_d1 / denom
    hit = (-1e-9 < t) & (t < 1 + 1e-9) & (-1e-9 < s) & (s < 1 + 1e-9)
    # endpoint-to-endpoint contact is allowed
    at_ends = ((t < 1e-9) | (t > 1 - 1e-9)) & ((s < 1e-9) | (s > 1 - 1e-9))
    return np.where(np.abs(denom) < eps, (np.abs(r_d1) <= eps) & (L >= eps) & overlap,
                    hit & ~at_ends)


def _box_pairs(lo, hi):
    """Index pairs (a, b), a < b, in sweep order, of the overlapping closed
    boxes [lo, hi] of shape (N, d): in order of low x, box k meets in x the
    boxes after it that start by its high x, tested then on the other axes
    (sort and sweep, Cohen, Lin, Manocha & Ponamgi, "I-COLLIDE", 1995)."""
    order = np.argsort(lo[:, 0], kind="stable")
    k = np.arange(len(order))
    count = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - k - 1
    second = np.arange(count.sum()) + np.repeat(k + 1 - np.cumsum(count) + count, count)
    a, b = order[np.repeat(k, count)], order[second]
    near = np.all((lo[a, 1:] <= hi[b, 1:]) & (lo[b, 1:] <= hi[a, 1:]), axis=1)
    return np.minimum(a, b)[near], np.maximum(a, b)[near]


def _is_connected(n: int, edges) -> bool:
    """Whether the graph on range(n) with ``edges`` is connected."""
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    q = deque([0])
    while q:
        x = q.popleft()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                q.append(y)
    return len(seen) == n


# -- validation ----------------------------------------------------------

def validate_pattern(raw) -> CreasePattern:
    """Check all pattern invariants and return the validated pattern.

    ``raw`` may be a dict in the file schema (see :func:`pattern_from_dict`)
    or an unvalidated :class:`CreasePattern`.  No crease may cross another or
    hold a vertex (one sort-and-sweep pass), so panel boundaries are simple.
    Raises :class:`PatternError` or its subclasses :class:`NonPlanar`,
    :class:`OpenPanel`, :class:`DanglingCrease` and :class:`Disconnected`.
    """
    if isinstance(raw, dict):
        pat = pattern_from_dict(raw)
    elif isinstance(raw, CreasePattern):
        pat = raw
    else:
        raise PatternError(f"cannot validate object of type {type(raw)!r}")

    finite = np.isfinite(pat.vertices).all(axis=-1)
    if not finite.all():
        raise PatternError(f"vertex {int(np.argmin(finite))} has a non-finite coordinate")
    n = pat.n_vertices
    seen_edges = set()
    for c in pat.creases:
        if not (0 <= c.u < n and 0 <= c.v < n) or c.u == c.v:
            raise PatternError(f"crease {c} has invalid endpoints")
        if c.kind not in (INNER, OUTER):
            raise PatternError(f"crease kind {c.kind!r} unknown")
        key = (min(c.u, c.v), max(c.u, c.v))
        if key in seen_edges:
            raise PatternError(f"duplicate crease between vertices {key}")
        seen_edges.add(key)
    for h, cycle in enumerate(pat.holes):
        if len(cycle) < 3:
            raise PatternError(f"hole {h} cycle too short")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (a, b) not in pat._edge_index:
                raise PatternError(f"hole {h} edge ({a},{b}) is not a crease")

    if pat.creases and not pat.is_cone:
        _check_planar(pat)

    for p, cycle in enumerate(pat.panels):
        if len(cycle) < 3:
            raise OpenPanel(f"panel {p} has fewer than 3 vertices")
        if len(set(cycle)) != len(cycle):
            raise OpenPanel(f"panel {p} repeats a vertex")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if (a, b) not in pat._edge_index:
                raise OpenPanel(f"panel {p} edge ({a},{b}) is not a crease")
        if not pat.is_cone:
            area = pat.panel_area(p)
            if abs(area) < 1e-12:
                raise OpenPanel(f"panel {p} has zero area")
            if area < 0:
                pat.panels[p] = cycle[::-1]
    pat._derive()  # pick up any orientation flips

    for i, c in enumerate(pat.creases):
        want = 2 if c.kind == INNER else 1
        have = len(pat.crease_panels[i])
        if have != want:
            raise DanglingCrease(
                f"{c.kind} crease {i} ({c.u},{c.v}) borders {have} panels, expected {want}")

    if not _is_connected(len(pat.panels), [cp for cp in pat.crease_panels if len(cp) == 2]):
        raise Disconnected("panel adjacency graph is not connected")

    if not (0 <= pat.base_panel < len(pat.panels)):
        raise PatternError(f"base panel {pat.base_panel} out of range")

    for v, alphas in pat.alpha_override.items():
        arr = np.asarray(alphas, float)
        deg = len(pat.vertex_creases[v])
        if len(arr) != deg:
            raise PatternError(f"alpha override at vertex {v} has wrong length")
        if deg == 1:
            if abs(arr[0] - TWO_PI) > 1e-9:
                raise PatternError("degree-1 vertex must have alpha = 2*pi")
        elif np.any(arr <= 0) or np.any(arr >= TWO_PI):
            raise PatternError(f"alpha override at vertex {v} outside (0, 2*pi)")

    if pat.rho0 is not None and len(pat.rho0) != pat.n_vars:
        raise PatternError("initial rho has wrong length")
    return pat


def _check_planar(pat: CreasePattern):
    """Raise :class:`NonPlanar` at the first violation in crease order: for
    the lowest crease i that has one, its crossings with creases j > i, a
    zero length, then the vertices inside it."""
    V, m = pat.vertices, len(pat.creases)
    # creases, then each vertex v as the segment (v, v); a crease is tested
    # against the creases and vertices that share no endpoint with it
    ends = np.array([(c.u, c.v) for c in pat.creases] + [(v, v) for v in range(len(V))])
    p, q = V[ends.T]
    d = q - p
    L2 = _dot(d, d)
    # Boxes are padded by the reach of the tests below, so the sweep prunes
    # no pair they could flag: a crossing up to 1e-9 |d| past an end, a
    # parallel overlap up to 2e-12 / |d| off the line (|d| of the lower
    # crease), a vertex up to 1e-9 off the segment.
    pad = (1e-9 * (1 + np.sqrt(L2)) + 2e-12 / np.sqrt(np.where(L2 > 0, L2, np.inf)))[:, None]
    a, b = _box_pairs(np.minimum(p, q) - pad, np.maximum(p, q) + pad)
    keep = (a < m) & (ends[a, :, None] != ends[b, None, :]).all(axis=(1, 2))
    a, b = a[keep], b[keep]
    i, j = a[b < m], b[b < m]
    cross = _crossing(p[i], q[i], p[j], q[j])
    c, w = a[b >= m], b[b >= m] - m
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _dot(V[w] - p[c], d[c]) / L2[c]
        perp = V[w] - (p[c] + t[:, None] * d[c])
    inside = (1e-9 < t) & (t < 1 - 1e-9) & (_dot(perp, perp) < 1e-18)
    stride = m + 1 + len(V)   # by crease, then: crease j, zero length, vertex
    zero = np.flatnonzero(L2[:m] == 0)
    keys = np.concatenate([i[cross] * stride + j[cross], zero * stride + m,
                           c[inside] * stride + m + 1 + w[inside]])
    if keys.size:
        i, k = divmod(int(keys.min()), stride)
        raise NonPlanar(f"creases {i} and {k} cross" if k < m else
                        f"crease {i} has zero length" if k == m else
                        f"vertex {k - m - 1} lies inside crease {i}")


# -- serialization -------------------------------------------------------

_EXT = "rigidori"


def pattern_from_dict(data: dict, degrees: bool = False) -> CreasePattern:
    """Build an (unvalidated) pattern from the JSON schema.

    The schema is a FOLD-compatible subset: ``vertices_coords``,
    ``edges_vertices``, ``edges_assignment`` ("B" boundary, anything else
    inner), ``faces_vertices``, plus one extension block carrying the base
    panel, declared holes, the initial folding angles, and any per-vertex
    sector-angle overrides for cone inputs.
    """
    verts = data["vertices_coords"]
    edges = data["edges_vertices"]
    assign = data.get("edges_assignment", ["F"] * len(edges))
    if len(assign) != len(edges):
        raise PatternError(f"edges_assignment has {len(assign)} entries for "
                           f"{len(edges)} edges_vertices")
    creases = [Crease(int(u), int(v), OUTER if a == "B" else INNER)
               for (u, v), a in zip(edges, assign)]
    ext = data.get(_EXT, {})
    rho0 = ext.get("rho0")
    if rho0 is not None and (degrees or ext.get("angle_unit") == "degrees"):
        rho0 = [math.radians(r) for r in rho0]
    override = ext.get("sector_angles", {})
    if override and (degrees or ext.get("angle_unit") == "degrees"):
        override = {k: [math.radians(a) for a in v] for k, v in override.items()}
    return CreasePattern(
        vertices=verts,
        creases=creases,
        panels=data.get("faces_vertices", []),
        holes=ext.get("holes", []),
        base_panel=ext.get("base_panel", 0),
        alpha_override=override,
        rho0=rho0,
    )


def pattern_to_dict(pat: CreasePattern) -> dict:
    data = {
        "vertices_coords": [[float(x), float(y)] for x, y in pat.vertices],
        "edges_vertices": [[c.u, c.v] for c in pat.creases],
        "edges_assignment": ["B" if c.kind == OUTER else "F" for c in pat.creases],
        "faces_vertices": [list(p) for p in pat.panels],
    }
    ext = {"base_panel": pat.base_panel}
    if pat.holes:
        ext["holes"] = [list(h) for h in pat.holes]
    if pat.rho0 is not None:
        ext["rho0"] = [float(r) for r in pat.rho0]
    if pat.alpha_override:
        ext["sector_angles"] = {str(k): [float(a) for a in v]
                                for k, v in sorted(pat.alpha_override.items())}
    data[_EXT] = ext
    return data


def load_pattern(path, degrees: bool = False) -> CreasePattern:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return validate_pattern(pattern_from_dict(data, degrees=degrees))


def save_pattern(pat: CreasePattern, path) -> None:
    Path(path).write_text(dumps_pattern(pat), encoding="utf-8")


def dumps_pattern(pat: CreasePattern) -> str:
    """Canonical JSON text; stable field order makes round trips bit-identical."""
    return json.dumps(pattern_to_dict(pat), indent=2, sort_keys=True) + "\n"
