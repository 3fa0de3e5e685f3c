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


def to_normalized(rho) -> np.ndarray:
    """Half-angle normalization t = tan(rho/2); +-pi maps to +-inf."""
    rho = np.asarray(rho, dtype=float)
    t = np.empty_like(rho)
    at_pi = np.abs(np.abs(rho) - math.pi) < 1e-15
    t[at_pi] = np.sign(rho[at_pi]) * np.inf
    t[~at_pi] = np.tan(rho[~at_pi] / 2.0)
    return t


def from_normalized(t) -> FoldState:
    t = np.asarray(t, dtype=float)
    rho = np.empty_like(t)
    inf = np.isinf(t)
    rho[inf] = np.sign(t[inf]) * math.pi
    rho[~inf] = 2.0 * np.arctan(t[~inf])
    return FoldState(rho)


def cos_sin_from_normalized(t):
    """Algebraic cos/sin of the folding angle from its normalized form.

    cos rho = (1 - t^2)/(1 + t^2), sin rho = 2 t/(1 + t^2); the +-inf
    representation of +-pi yields (-1, 0) exactly.
    """
    t = np.asarray(t, dtype=float)
    c = np.empty_like(t)
    s = np.empty_like(t)
    inf = np.isinf(t)
    c[inf], s[inf] = -1.0, 0.0
    tt = t[~inf]
    c[~inf] = (1.0 - tt * tt) / (1.0 + tt * tt)
    s[~inf] = 2.0 * tt / (1.0 + tt * tt)
    return c, s


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
        self.boundary_vertices = boundary
        self.inner_vertices = sorted(
            v for v in range(self.n_vertices)
            if v not in boundary and self.vertex_creases[v]
        )
        # filled on first use by collision.panel_triangles, kinematics._tree
        # (the spanning tree) and kinematics._panel_groups (its chain groups)
        self._panel_triangles = None
        self._tree = None
        self._tree_groups = None

    def _ray_angle(self, v: int, crease_index: int) -> float:
        c = self.creases[crease_index]
        w = c.other(v)
        d = self.vertices[w] - self.vertices[v]
        return math.atan2(d[1], d[0])

    # -- queries -----------------------------------------------------------

    def crease_index(self, u: int, v: int) -> int:
        return self._edge_index[(u, v)]

    def crease_vector(self, crease_index: int, into_panel: int) -> np.ndarray:
        """Reference direction of a crease oriented with ``into_panel`` on its left."""
        c = self.creases[crease_index]
        if self._panel_of_directed.get((c.u, c.v)) == into_panel:
            return self.vertices[c.v] - self.vertices[c.u]
        if self._panel_of_directed.get((c.v, c.u)) == into_panel:
            return self.vertices[c.u] - self.vertices[c.v]
        raise PatternError(f"panel {into_panel} does not border crease {crease_index}")

    def crease_origin(self, crease_index: int, into_panel: int) -> np.ndarray:
        """Start point of the oriented crease (the frame origin)."""
        c = self.creases[crease_index]
        if self._panel_of_directed.get((c.u, c.v)) == into_panel:
            return self.vertices[c.u].astype(float)
        return self.vertices[c.v].astype(float)

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
        return _signed_area(self.panel_polygon(p))

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

def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


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


def _polygon_is_simple(poly: np.ndarray) -> bool:
    n = len(poly)
    for i in range(n):
        a1, a2 = poly[i], poly[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(a1, a2, poly[j], poly[(j + 1) % n]):
                return False
    return True


# -- validation ----------------------------------------------------------

def validate_pattern(raw) -> CreasePattern:
    """Check all pattern invariants and return the validated pattern.

    ``raw`` may be a dict in the file schema (see :func:`pattern_from_dict`)
    or an unvalidated :class:`CreasePattern`.  Raises :class:`NonPlanar`,
    :class:`OpenPanel`, :class:`DanglingCrease` or :class:`Disconnected`.
    """
    if isinstance(raw, dict):
        pat = pattern_from_dict(raw)
    elif isinstance(raw, CreasePattern):
        pat = raw
    else:
        raise PatternError(f"cannot validate object of type {type(raw)!r}")

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

    if not pat.is_cone:
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
            poly = pat.panel_polygon(p)
            if not _polygon_is_simple(poly):
                raise OpenPanel(f"panel {p} boundary self-intersects")
            area = _signed_area(poly)
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

    if pat.panels:
        seen = {0}
        stack = [0]
        while stack:
            p = stack.pop()
            for q, _ in pat.panel_adjacency[p]:
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        if len(seen) != len(pat.panels):
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
        for v in range(pat.n_vertices):
            if v in (ci.u, ci.v):
                continue
            t = float(np.dot(V[v] - p1, d)) / L2
            if 1e-9 < t < 1 - 1e-9:
                perp = V[v] - (p1 + t * d)
                if float(np.dot(perp, perp)) < 1e-18:
                    raise NonPlanar(f"vertex {v} lies inside crease {i}")


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
    creases = []
    for (u, v), a in zip(edges, assign):
        kind = OUTER if a == "B" else INNER
        creases.append(Crease(int(u), int(v), kind))
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
