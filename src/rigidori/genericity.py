"""Combinatorial generic rigidity of a crease pattern.

The pattern graph H (all vertices and creases) determines whether almost
all realizations are first-order rigid: H is generically rigid exactly when
the five-fold panel-hinge graph packs six edge-disjoint spanning trees.  That
graph is the planar dual H* restricted to panels: the outer face is left out
(see :func:`panel_hinge_multigraph`).  One (6, 6) pebble game with coloured
pebbles decides the packing and keeps each colour a forest.  A rigid verdict
ships the six colours as the trees, a flexible one the maximal rigid
regions: a vertex partition violating the Nash-Williams/Tutte count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Disconnected, RigidOrigamiError
from .model import CreasePattern, _is_connected


@dataclass
class PatternGraph:
    """Crease-pattern graph H and its planar dual H*."""

    n_vertices: int
    edges: list[tuple[int, int]]          # H edges, one per crease
    faces: list[list[int]]                # vertex cycle of each face of H
    dual_edges: list[tuple[int, int]]     # per crease: the two faces it separates
    outer_face: int
    face_kinds: list[str]                 # "panel" | "hole" | "outer"

    @property
    def n_faces(self) -> int:
        return len(self.faces)


def dual_graph(pattern: CreasePattern) -> PatternGraph:
    """Enumerate the faces of the embedded pattern and build the dual.

    Faces are traced with their interior on the left of each directed edge;
    the single clockwise cycle is the outer face.  Holes are ordinary faces
    of the graph (and dual vertices).  Indexing is deterministic: faces are
    numbered in order of their lowest directed edge.
    """
    # position of each crease in the CCW fan of each endpoint
    fan_pos: dict[tuple[int, int], int] = {}
    for v in range(pattern.n_vertices):
        for pos, ci in enumerate(pattern.vertex_creases[v]):
            fan_pos[(v, ci)] = pos

    half_edges = []
    for ci, c in enumerate(pattern.creases):
        half_edges.append((c.u, c.v, ci))
        half_edges.append((c.v, c.u, ci))
    face_of: dict[tuple[int, int, int], int] = {}
    faces: list[list[int]] = []
    for he in half_edges:
        if he in face_of:
            continue
        cycle_vertices = []
        fid = len(faces)
        cur = he
        while cur not in face_of:
            face_of[cur] = fid
            u, v, ci = cur
            cycle_vertices.append(u)
            fan = pattern.vertex_creases[v]
            pos = fan_pos[(v, ci)]
            nxt_ci = fan[(pos - 1) % len(fan)]
            w = pattern.creases[nxt_ci].other(v)
            cur = (v, w, nxt_ci)
        faces.append(cycle_vertices)

    areas = []
    for cyc in faces:
        pts = pattern.vertices[cyc]
        x, y = pts[:, 0], pts[:, 1]
        areas.append(0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    outer = int(np.argmin(areas))

    hole_sets = [frozenset(h) for h in pattern.holes]
    panel_sets = [frozenset(p) for p in pattern.panels]
    kinds = []
    for fid, cyc in enumerate(faces):
        s = frozenset(cyc)
        if fid == outer:
            kinds.append("outer")
        elif s in hole_sets:
            kinds.append("hole")
        elif s in panel_sets:
            kinds.append("panel")
        else:
            kinds.append("hole" if areas[fid] > 0 else "outer")

    dual_edges = []
    for ci, c in enumerate(pattern.creases):
        dual_edges.append((face_of[(c.u, c.v, ci)], face_of[(c.v, c.u, ci)]))

    return PatternGraph(
        n_vertices=pattern.n_vertices,
        edges=[(c.u, c.v) for c in pattern.creases],
        faces=faces,
        dual_edges=dual_edges,
        outer_face=outer,
        face_kinds=kinds,
    )


def multigraph(edges, k: int) -> list[tuple[int, int]]:
    """Each edge replaced by k parallel copies."""
    return [e for e in edges for _ in range(k)]


# -- spanning-tree packing ----------------------------------------------------

@dataclass
class TreePacking:
    feasible: bool
    k: int
    n_vertices: int
    trees: list[list[int]] = field(default_factory=list)       # edge ids
    # if infeasible: the maximal rigid regions (vertex sets whose induced edges
    # pack k trees), with fewer than k*(parts-1) edges between them
    partition: list[list[int]] | None = None

    def violation(self, edges) -> tuple[int, int] | None:
        """(cross-edge count, k*(parts-1)) of the certificate partition."""
        if self.partition is None:
            return None
        block = {}
        for bid, part in enumerate(self.partition):
            for v in part:
                block[v] = bid
        cross = sum(1 for u, v in edges if block[u] != block[v])
        return cross, self.k * (len(self.partition) - 1)


class _PebbleGame:
    """(k, k) pebble game (Lee and Streinu, 2008) with coloured pebbles
    (Streinu and Theran, 2009) and tight components.

    Each vertex owns one pebble of each of k colours.  An accepted edge takes
    a pebble of one end and points away from it: ``out[x][c]`` is the head of
    the edge x's colour-c pebble covers (None while it is free), ``eid[x][c]``
    its id.  So at most k|X| - k accepted edges lie in any vertex set X, and
    the edges of colour c form an in-forest rooted at the vertices with
    pebble c free.  Union-find classes are tight (exactly k|X| - k); tight
    sets that meet have a tight union.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.peb = [k] * n
        self.out: list[list[int | None]] = [[None] * k for _ in range(n)]
        self.eid: list[list[int | None]] = [[None] * k for _ in range(n)]
        self.root = list(range(n))

    def find(self, x: int) -> int:
        root = self.root
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    def _reroot(self, x: int, c: int):
        """Reverse x's colour-c path, so that its root's pebble c moves to x."""
        out, eid = self.out, self.eid
        y, e = out[x][c], eid[x][c]
        out[x][c] = None
        self.peb[x] += 1
        while y is not None:
            nxt, e_nxt = out[y][c], eid[y][c]
            out[y][c], eid[y][c] = x, e
            x, y, e = y, nxt, e_nxt
        self.peb[x] -= 1

    def _pull(self, a: int, b: int):
        """Free one more pebble on a; on failure return the vertices searched,
        closed under out-edges, free pebbles on a, b only.

        First a colour tree of a rooted elsewhere than b is re-rooted at a.
        Else a free pebble found by a search avoiding b walks back along its
        path, edge x -> y by edge: y's pebble of the edge's colour, or else
        any, covers the edge reversed, unless x lies in y's tree of that
        colour; then that tree is re-rooted at the path vertex nearest a on
        x's path, which leaves the path before it untouched.
        """
        out, eid, peb = self.out, self.eid, self.peb
        for c, y in enumerate(out[a]):
            if y is None:
                continue
            while out[y][c] is not None:
                y = out[y][c]
            if y != b:
                self._reroot(a, c)
                return None
        prev, stack = {a: None, b: None}, [a]
        while stack:
            y = stack.pop()
            if y != a and peb[y]:
                break
            for c, z in enumerate(out[y]):
                if z is not None and z not in prev:
                    prev[z] = (y, c)
                    stack.append(z)
        else:
            return prev
        path, colours = [y], []   # edge path[i + 1] -> path[i] has colour colours[i]
        while y != a:
            y, c = prev[y]
            path.append(y)
            colours.append(c)
        pos = {x: i for i, x in enumerate(path)}
        i = 0
        while i < len(colours):
            x, y, c_edge = path[i + 1], path[i], colours[i]
            c = c_edge if out[y][c_edge] is None else out[y].index(None)
            j, z = i + 1, x
            while out[z][c] is not None:
                z = out[z][c]
                j = max(j, pos.get(z, j))
            if z == y:   # x lies in y's colour-c tree
                self._reroot(path[j], c)
                i = j
            else:        # recolour: the edge becomes y -> x in colour c
                out[y][c], eid[y][c] = x, eid[x][c_edge]
                out[x][c_edge] = None
                peb[x] += 1
                peb[y] -= 1
                i += 1

    def dependent(self, u: int, v: int) -> bool:
        """Whether one more edge uv would break sparsity; records its tight set.

        Ends in one class, loops included, are dependent at once, so parallel
        copies run out.  Pebbles are pulled to u, then to v (whose paths
        avoid the set u reached); short of k + 1 both form a tight set.
        """
        if self.find(u) == self.find(v):
            return True
        reached = {}
        for a, b in ((u, v), (v, u)):
            while self.peb[u] + self.peb[v] <= self.k:
                seen = self._pull(a, b)
                if seen is not None:
                    reached.update(seen)
                    break
            else:
                return False
        ru = self.find(u)     # stays a root: only other roots are pointed at it
        for x in reached:
            self.root[self.find(x)] = ru
        return True

    def add(self, u: int, v: int, e: int) -> bool:
        """Accept edge e = uv unless it is dependent.  It is covered from u if
        u holds a pebble, else from v, in a colour free at both ends (k + 1
        pebbles on two vertices share one), so it joins two trees."""
        if self.dependent(u, v):
            return False
        a, b = (u, v) if self.peb[u] else (v, u)
        out, c = self.out, 0
        while out[a][c] is not None or out[b][c] is not None:
            c += 1
        out[a][c], self.eid[a][c] = b, e
        self.peb[a] -= 1
        return True


def pack_spanning_trees(n_vertices: int, edges, k: int = 6) -> TreePacking:
    """k edge-disjoint spanning trees of a multigraph, or a counting certificate.

    One coloured pebble game pass keeps a maximal (k, k)-sparse subset; the
    trees exist exactly when it has k(n - 1) edges, and then its k colours are
    the trees.  Otherwise accepted edges across classes are offered again,
    so the classes grow to the maximal tight sets; rejected edges lie inside
    them, so fewer than k(parts - 1) edges cross.  Edge ids index ``edges``.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    if not _is_connected(n_vertices, edges):
        raise Disconnected("tree packing needs a connected multigraph")

    game = _PebbleGame(n_vertices, k)
    target = k * (n_vertices - 1)
    accepted = []
    for eid, (u, v) in enumerate(edges):
        if len(accepted) == target:
            break  # the whole vertex set is tight: every later edge is dependent
        if game.add(u, v, eid):
            accepted.append(eid)

    if len(accepted) == target:
        trees = [sorted(game.eid[x][c] for x in range(n_vertices)
                        if game.out[x][c] is not None) for c in range(k)]
        if any(len(tree) != n_vertices - 1 for tree in trees):
            raise AssertionError("a colour of the pebble game is not a spanning tree")
        return TreePacking(True, k, n_vertices, trees=trees)

    for eid in accepted:
        game.dependent(*edges[eid])
    classes: dict[int, list[int]] = {}
    for x in range(n_vertices):
        classes.setdefault(game.find(x), []).append(x)
    packing = TreePacking(False, k, n_vertices, partition=list(classes.values()))
    cross, bound = packing.violation(edges)
    if cross >= bound:
        raise AssertionError("certificate construction failed")
    return packing


def verify_packing(packing: TreePacking, n_vertices: int, edges) -> bool:
    """Independent check that the returned trees are ``packing.k``
    edge-disjoint spanning trees whose ids index ``edges``."""
    if not packing.feasible or len(packing.trees) != packing.k:
        return False
    seen: set[int] = set()
    for tree in packing.trees:
        if len(tree) != n_vertices - 1 or not all(0 <= e < len(edges) for e in tree):
            return False
        if seen & set(tree):
            return False
        seen.update(tree)
        if not _is_connected(n_vertices, [edges[e] for e in tree]):
            return False
    return True


# -- pattern-level verdict ----------------------------------------------------

@dataclass
class GenericRigidityReport:
    generically_rigid: bool
    packing: TreePacking
    body_edges: list[tuple[int, int]]
    counting_lower_bound: bool       # enough multigraph edges for 6 trees
    samples: list[dict] = field(default_factory=list)
    sampled_rigid_realization: bool | None = None
    disagreement: bool = False


def panel_hinge_multigraph(pattern: CreasePattern) -> list[tuple[int, int]]:
    """Body graph of the pattern: panels as nodes, inner creases as hinges.

    This is the dual graph restricted to material faces.  The outer face
    must not act as a body: hinging boundary panels to a fictitious rigid
    exterior would certify always-flexible patterns (e.g. a strip of panels
    with free creases) as rigid.
    """
    edges = []
    for ci in pattern.inner_creases:
        a, b = pattern.crease_panels[ci]
        edges.append((min(a, b), max(a, b)))
    return edges


def is_generically_rigid(pattern: CreasePattern, sample_realizations: int = 0,
                         seed: int = 0) -> GenericRigidityReport:
    """Combinatorial generic-rigidity verdict with optional numeric cross-check.

    The verdict packs 6 edge-disjoint spanning trees into the five-fold
    panel-hinge body graph (panels as bodies, inner creases as hinges).
    Real creased-paper realizations keep the hinges at each vertex
    concurrent, which is a non-generic hinge placement: symmetric patterns
    such as grids therefore flex even when the graph is generically rigid.
    When ``sample_realizations`` > 0, jittered developable realizations are
    classified at the flat state and a missing first-order rigid sample is
    reported as a disagreement, but never overrides the combinatorial
    verdict.  Mere DOF counting can mislead, so both the count and the
    packing result are surfaced.
    """
    body_edges = panel_hinge_multigraph(pattern)
    edges5 = multigraph(body_edges, 5)
    packing = pack_spanning_trees(len(pattern.panels), edges5, k=6)
    counting = len(edges5) >= 6 * (len(pattern.panels) - 1)
    report = GenericRigidityReport(
        generically_rigid=packing.feasible,
        packing=packing,
        body_edges=body_edges,
        counting_lower_bound=counting,
    )
    if sample_realizations > 0 and not pattern.is_cone:
        from .analysis import classify
        from .constraints import build_system
        from .model import validate_pattern
        rng = np.random.default_rng(seed)
        scale = float(np.abs(pattern.vertices).max() or 1.0)
        for _ in range(sample_realizations):
            jitter = rng.normal(scale=0.02 * scale, size=pattern.vertices.shape)
            try:
                pat2 = validate_pattern(CreasePattern(
                    pattern.vertices + jitter, pattern.creases, pattern.panels,
                    pattern.holes, pattern.base_panel))
                rep = classify(build_system(pat2), np.zeros(pat2.n_vars))
            except RigidOrigamiError:
                continue  # e.g. the jitter made the pattern non-planar
            report.samples.append({"deg": rep.deg, "rank": rep.rank})
        report.sampled_rigid_realization = any(s["deg"] == 0 for s in report.samples)
        report.disagreement = report.sampled_rigid_realization != packing.feasible
    return report


def to_dot(graph: PatternGraph, which: str = "dual") -> str:
    """DOT text of H or H* for external inspection."""
    lines = ["graph G {"]
    if which == "dual":
        for fid, kind in enumerate(graph.face_kinds):
            lines.append(f'  f{fid} [label="f{fid} ({kind})"];')
        for ci, (a, b) in enumerate(graph.dual_edges):
            lines.append(f'  f{a} -- f{b} [label="c{ci}"];')
    else:
        for u, v in graph.edges:
            lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
