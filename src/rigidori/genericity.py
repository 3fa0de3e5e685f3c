"""Combinatorial generic rigidity of a crease pattern.

The pattern graph H (all vertices and creases) determines whether almost
all realizations are first-order rigid: H is generically rigid exactly when
the five-fold panel-hinge graph packs six edge-disjoint spanning trees.  That
graph is the planar dual H* restricted to panels: the outer face is left out
(see :func:`panel_hinge_multigraph`).  One (6, 6) pebble game decides the
packing.  A rigid verdict ships the six trees, a flexible one the maximal
rigid regions: a vertex partition violating the Nash-Williams/Tutte count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import Disconnected, RigidOrigamiError
from .model import CreasePattern


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


class _ForestSet:
    """k edge-disjoint forests over n vertices with path queries."""

    def __init__(self, n: int, k: int, edges):
        self.edges = edges
        self.adj = [[[] for _ in range(n)] for _ in range(k)]  # (nbr, edge id)
        self.holder: dict[int, int] = {}

    def path(self, i: int, a: int, b: int):
        """Edge ids of the a-b path in forest i (a != b), or None if apart."""
        prev = {a: None}
        q = deque([a])
        while q:
            x = q.popleft()
            for (y, eid) in self.adj[i][x]:
                if y in prev:
                    continue
                prev[y] = (x, eid)
                if y == b:
                    path = []
                    while prev[y] is not None:
                        y, eid = prev[y]
                        path.append(eid)
                    return path
                q.append(y)
        return None

    def add(self, i: int, eid: int):
        u, v = self.edges[eid]
        self.adj[i][u].append((v, eid))
        self.adj[i][v].append((u, eid))
        self.holder[eid] = i

    def remove(self, eid: int):
        i = self.holder.pop(eid)
        u, v = self.edges[eid]
        self.adj[i][u] = [(y, e) for (y, e) in self.adj[i][u] if e != eid]
        self.adj[i][v] = [(y, e) for (y, e) in self.adj[i][v] if e != eid]


def _try_place(fs: _ForestSet, e0: int) -> bool:
    """Matroid-union augmenting search placing edge e0 in some forest."""
    label: dict[int, tuple[int, int] | None] = {e0: None}
    q = deque([e0])
    while q:
        f = q.popleft()
        for i in range(len(fs.adj)):
            cycle = fs.path(i, *fs.edges[f])
            if cycle is None:
                # unwind the label chain, moving each edge one forest over
                step = (f, i)
                while step is not None:
                    g, ins = step
                    if g in fs.holder:
                        fs.remove(g)
                    fs.add(ins, g)
                    step = label[g]
                return True
            for g in cycle:
                if g not in label:
                    label[g] = (f, i)
                    q.append(g)
    return False


def _is_connected(n: int, edges) -> bool:
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


class _PebbleGame:
    """(k, k) pebble game (Lee and Streinu) with tight components.

    Each vertex owns k pebbles; an accepted edge takes one from an end and
    points away from it (``out[x]`` lists the heads, at most k), so at most
    k|X| - k accepted edges lie in any vertex set X.  Union-find classes are
    tight (exactly k|X| - k); tight sets that meet have a tight union.
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.peb = [k] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.root = list(range(n))

    def find(self, x: int) -> int:
        root = self.root
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    def _pull(self, a: int, b: int):
        """Free a pebble on a by reversing a path avoiding b; on failure return
        the vertices searched, closed under out-edges, free pebbles on a, b only."""
        out, prev, stack = self.out, {a: None, b: None}, [a]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in prev:
                    continue
                prev[y] = x
                if self.peb[y]:
                    self.peb[y] -= 1
                    self.peb[a] += 1
                    while y != a:
                        x = prev[y]
                        out[x].remove(y)
                        out[y].append(x)
                        y = x
                    return None
                stack.append(y)
        return prev

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
        for x in reached:
            self.root[self.find(x)] = self.find(u)
        return True


def pack_spanning_trees(n_vertices: int, edges, k: int = 6) -> TreePacking:
    """k edge-disjoint spanning trees of a multigraph, or a counting certificate.

    One pebble game pass keeps a maximal (k, k)-sparse subset; the trees exist
    exactly when it has k(n - 1) edges, split into k forests by matroid-union
    augmentation.  Otherwise accepted edges across classes are offered again,
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
        if not game.dependent(u, v):
            a, b = (u, v) if game.peb[u] else (v, u)
            game.peb[a] -= 1
            game.out[a].append(b)
            accepted.append(eid)

    if len(accepted) == target:
        fs = _ForestSet(n_vertices, k, edges)
        for eid in accepted:
            if not _try_place(fs, eid):
                raise AssertionError("sparse edge set does not split into k forests")
        trees = [sorted(e for e, i in fs.holder.items() if i == t) for t in range(k)]
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
    """Independent check that returned trees are edge-disjoint spanning trees."""
    if not packing.feasible:
        return False
    seen: set[int] = set()
    for tree in packing.trees:
        if len(tree) != n_vertices - 1:
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
