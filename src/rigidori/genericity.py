"""Combinatorial generic rigidity of a crease pattern.

The pattern graph H (all vertices and creases) determines whether almost
all realizations are first-order rigid: H is generically rigid exactly when
the five-fold panel-hinge graph packs six edge-disjoint spanning trees.  That
graph is the planar dual H* restricted to panels: the outer face is left out
(see :func:`panel_hinge_multigraph`).  The packing itself runs a
matroid-union augmentation that either produces the trees or a vertex
partition violating the Nash-Williams/Tutte count, so every verdict ships
with an independently checkable certificate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import Disconnected
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
    partition: list[list[int]] | None = None                   # NWT violator

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
    """k edge-disjoint forests over n vertices with cycle queries."""

    def __init__(self, n: int, k: int, edges):
        self.n = n
        self.k = k
        self.edges = edges
        self.adj = [[[] for _ in range(n)] for _ in range(k)]  # (nbr, edge id)
        self.holder: dict[int, int] = {}

    def connected(self, i: int, a: int, b: int) -> bool:
        return self._path(i, a, b) is not None

    def _path(self, i: int, a: int, b: int):
        if a == b:
            return []
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
                    cur = y
                    while prev[cur] is not None:
                        px, eid2 = prev[cur]
                        path.append(eid2)
                        cur = px
                    return path
                q.append(y)
        return None

    def fundamental_cycle(self, i: int, eid: int):
        u, v = self.edges[eid]
        return self._path(i, u, v)

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


def _try_place(fs: _ForestSet, e0: int):
    """Augmenting search placing edge e0; returns labels on failure."""
    label: dict[int, tuple[int, int] | None] = {e0: None}
    q = deque([e0])
    while q:
        f = q.popleft()
        u, v = fs.edges[f]
        for i in range(fs.k):
            if not fs.connected(i, u, v):
                # unwind the label chain, moving each edge one forest over
                g, ins = f, i
                while True:
                    if g in fs.holder:
                        fs.remove(g)
                    fs.add(ins, g)
                    prev = label[g]
                    if prev is None:
                        return True, label
                    h, j = prev
                    g, ins = h, j
            else:
                for g in fs.fundamental_cycle(i, f):
                    if g not in label:
                        label[g] = (f, i)
                        q.append(g)
    return False, label


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


def _pack_once(n: int, edges, k: int):
    """One packing pass; returns (forest set, failed edge ids).

    Edges that fail after every forest spans are expected (surplus parallel
    copies); failures only witness infeasibility while some forest is still
    incomplete.
    """
    fs = _ForestSet(n, k, edges)
    failed = []
    placed = 0
    target = k * (n - 1)
    for eid in range(len(edges)):
        u, v = edges[eid]
        if u == v:
            continue
        if placed == target:
            break  # all forests already span
        ok, _ = _try_place(fs, eid)
        if ok:
            placed += 1
        else:
            failed.append(eid)
    return fs, failed


def pack_spanning_trees(n_vertices: int, edges, k: int = 6) -> TreePacking:
    """k edge-disjoint spanning trees of a multigraph, or a counting certificate.

    Feasible answers return the trees (verified disjoint and spanning by the
    caller at will); infeasible answers return a partition of the vertices
    with fewer than k*(parts-1) cross edges, found by contracting saturated
    clumps until the deficit is a plain edge count.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    if not _is_connected(n_vertices, edges):
        raise Disconnected("tree packing needs a connected multigraph")

    fs, failed = _pack_once(n_vertices, edges, k)
    sizes = [sum(len(a) for a in fs.adj[i]) // 2 for i in range(k)]
    if all(s == n_vertices - 1 for s in sizes):
        trees = [[] for _ in range(k)]
        for eid, i in fs.holder.items():
            trees[i].append(eid)
        for t in trees:
            t.sort()
        if len(edges) < k * (n_vertices - 1):
            raise AssertionError("packed more trees than edges allow")
        return TreePacking(True, k, n_vertices, trees=trees)

    # iterative clump contraction for the certificate partition
    blocks = [[v] for v in range(n_vertices)]
    cur_edges = list(edges)
    while True:
        n_cur = len(blocks)
        live = [(u, v) for u, v in cur_edges if u != v]
        if len(live) < k * (n_cur - 1):
            packing = TreePacking(False, k, n_vertices,
                                  partition=[sorted(b) for b in blocks])
            chk = packing.violation(edges)
            if chk is None or chk[0] >= chk[1]:
                raise AssertionError("certificate construction failed")
            return packing
        fs, failed = _pack_once(n_cur, live, k)
        sizes = [sum(len(a) for a in fs.adj[i]) // 2 for i in range(k)]
        if all(s == n_cur - 1 for s in sizes) or not failed:
            raise AssertionError("contracted instance unexpectedly feasible")
        _, label = _try_place(fs, failed[0])
        # vertex clump spanned by the labelled edges; every forest restricted
        # to it is connected, so it is over-saturated and safe to contract
        W = set()
        for eid in label:
            u, v = live[eid]
            W.add(u)
            W.add(v)
        if len(W) >= n_cur:
            raise AssertionError("saturated clump spans the whole graph")
        W_sorted = sorted(W)
        keep = W_sorted[0]
        remap = {}
        new_blocks = []
        for old in range(n_cur):
            if old in W and old != keep:
                continue
            remap[old] = len(new_blocks)
            if old == keep:
                merged = []
                for w in W_sorted:
                    merged.extend(blocks[w])
                new_blocks.append(sorted(merged))
            else:
                new_blocks.append(blocks[old])
        for w in W_sorted:
            remap[w] = remap[keep]
        cur_edges = [(remap[u], remap[v]) for u, v in live]
        blocks = new_blocks


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
    dual: PatternGraph
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
    dual = dual_graph(pattern)
    body_edges = panel_hinge_multigraph(pattern)
    edges5 = multigraph(body_edges, 5)
    packing = pack_spanning_trees(len(pattern.panels), edges5, k=6)
    counting = len(edges5) >= 6 * (len(pattern.panels) - 1)
    report = GenericRigidityReport(
        generically_rigid=packing.feasible,
        packing=packing,
        dual=dual,
        body_edges=body_edges,
        counting_lower_bound=counting,
    )
    if sample_realizations > 0 and not pattern.is_cone:
        from .analysis import classify
        from .constraints import build_system
        from .model import CreasePattern as CP, validate_pattern
        rng = np.random.default_rng(seed)
        scale = float(np.abs(pattern.vertices).max() or 1.0)
        found = False
        for _ in range(sample_realizations):
            jitter = rng.normal(scale=0.02 * scale, size=pattern.vertices.shape)
            try:
                pat2 = validate_pattern(CP(pattern.vertices + jitter,
                                           pattern.creases, pattern.panels,
                                           pattern.holes, pattern.base_panel))
                rep = classify(build_system(pat2), np.zeros(pat2.n_vars))
            except Exception:
                continue
            report.samples.append({"deg": rep.deg, "rank": rep.rank})
            if rep.deg == 0:
                found = True
        report.sampled_rigid_realization = found
        report.disagreement = (found != packing.feasible)
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
