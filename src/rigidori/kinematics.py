"""Folded-state map: rigid placement of panels from the folding angles.

Every panel is reached from the base panel through a chain of crease
crossings.  Crossing into panel B over crease c uses a frame whose x-axis
runs along c oriented so that B lies on its left; positive folding angle
then rotates B toward the +z (top) side.  The chain transform is the
post-multiplied product of per-crossing factors

    [rotate beta_k about z, translate (a_k, b_k)] . [rotate rho_k about x]

and a material point p of panel K placed at the reference state rho0 moves
to  T_K(rho) T_K(rho0)^{-1} p.  The pattern's spanning tree is built once,
as arrays: one node per tree edge with its parent node and hinge data,
numbered depth by depth, and each panel's node.  All factors of a state come
from one call of ``constraints.hinge_factors``, and the tree is walked root
to leaf, one batched product per depth (the forward kinematics of a
kinematic tree).  Chains a caller builds are merged on their shared
prefixes into a tree of the same form.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constraints import hinge_factors
from .errors import PatternError, PointOutsidePanel
from .model import CreasePattern

__all__ = [
    "ChainStep", "TransferChain", "PanelFrame", "build_spanning_tree",
    "transfer_matrix", "placement", "fold_point", "fold_mesh",
    "panel_frames", "chain_for_path",
]


@dataclass(frozen=True)
class ChainStep:
    crease: int      # global crease index
    var: int         # folding-angle variable index
    beta: float
    a: float
    b: float


@dataclass
class TransferChain:
    panel: int
    steps: list[ChainStep]

    def __len__(self):
        return len(self.steps)


@dataclass
class PanelFrame:
    panel: int
    transform: np.ndarray  # 4x4, chain frame -> global


class _Tree(NamedTuple):
    """Chains merged on their shared prefixes, as arrays.

    Node k is one crossing: the hinge data ``betas[k]``, ``offsets[k]`` and
    ``vars[k]``, under the node ``parent[k]``.  Nodes are numbered depth by
    depth, ``levels`` holding one node slice per depth; the root, the empty
    prefix, is node -1, the slot after the last node.  ``leaf[c]`` is the
    node of chain c.  The pattern's spanning tree also holds the steps of
    each panel's chain (``paths``, one shared ``ChainStep`` per tree edge)
    and the reference polygons: (panels, polygons) groups by vertex count,
    or for a cone each panel's polygon in its chain frame.
    """
    betas: np.ndarray
    offsets: np.ndarray
    vars: np.ndarray
    parent: np.ndarray
    levels: list[slice]
    leaf: np.ndarray
    paths: list[list[ChainStep]] | None = None
    polygons: list | np.ndarray | None = None


def _arrays(steps: list[ChainStep], parent: list[int], depth: list[int],
            leaf: list[int], **extra) -> _Tree:
    """The ``_Tree`` of depth-ordered nodes, one step per node."""
    starts = [k for k in range(len(depth)) if k == 0 or depth[k] != depth[k - 1]]
    return _Tree(np.array([st.beta for st in steps]),
                 np.array([(st.a, st.b) for st in steps]).reshape(len(steps), 2),
                 np.array([st.var for st in steps], dtype=np.intp),
                 np.array(parent, dtype=np.intp),
                 [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [len(steps)])],
                 np.array(leaf, dtype=np.intp), **extra)


def _rigid_inverse(T: np.ndarray) -> np.ndarray:
    Rt = T[..., :3, :3].swapaxes(-1, -2)
    out = np.zeros(T.shape)
    out[..., :3, :3] = Rt
    out[..., :3, 3] = -(Rt @ T[..., :3, 3:])[..., 0]
    out[..., 3, 3] = 1.0
    return out


def _prefix_tree(chains: list[TransferChain]) -> _Tree:
    """The chains merged on their shared prefixes.

    A node is a chain prefix, keyed on (parent node, last ChainStep), so
    chains that start alike share nodes; the nodes of depth k + 1 are made
    from the chains still longer than k, so the build is linear in steps.
    """
    node: dict[tuple[int, ChainStep], int] = {}
    steps, parents, depth = [], [], []
    leaf = [-1] * len(chains)
    active = [c for c, chain in enumerate(chains) if chain.steps]
    k = 0
    while active:
        for c in active:
            key = (leaf[c], chains[c].steps[k])
            if key not in node:
                node[key] = len(steps)
                steps.append(key[1])
                parents.append(leaf[c])
                depth.append(k)
            leaf[c] = node[key]
        k += 1
        active = [c for c in active if len(chains[c]) > k]
    return _arrays(steps, parents, depth, leaf)


def _walk(tree: _Tree, rho):
    """Hinge factors F (..., nodes, 4, 4) and node transforms T
    (..., nodes + 1, 4, 4) at a state (j,) or a batch (..., j).

    Every factor is built at once; each depth then takes one batched product
    T[node] = T[parent] @ F[node], the one ``chain_products`` forms per step.
    """
    rho = np.asarray(rho, dtype=float)
    F = hinge_factors(tree.betas, tree.offsets, rho[..., tree.vars])
    T = np.empty(rho.shape[:-1] + (len(tree.betas) + 1, 4, 4))
    T[..., -1, :, :] = np.eye(4)       # the root
    for nodes in tree.levels:
        np.matmul(T[..., tree.parent[nodes], :, :], F[..., nodes, :, :],
                  out=T[..., nodes, :, :])
    return F, T


def _transforms(tree: _Tree, rho) -> np.ndarray:
    """Chain transforms at a state (j,) or a batch (..., j): (..., chains, 4, 4)."""
    return _walk(tree, rho)[1][..., tree.leaf, :, :]


def _placements(tree: _Tree, rho, rho0) -> np.ndarray:
    """Rigid motions taking the rho0 placement of each chain's panel to the rho one."""
    T = _transforms(tree, np.stack([np.asarray(rho, dtype=float),
                                    np.asarray(rho0, dtype=float)]))
    return T[0] @ _rigid_inverse(T[1])


def transfer_matrix(chain: TransferChain, rho) -> np.ndarray:
    return _transforms(_prefix_tree([chain]), rho)[0]


def placement(chain: TransferChain, rho, rho0) -> np.ndarray:
    """Rigid motion taking the rho0 placement of the panel to the rho one."""
    return _placements(_prefix_tree([chain]), rho, rho0)[0]


def build_spanning_tree(pattern: CreasePattern) -> dict[int, TransferChain]:
    """Breadth-first chains from the base panel, lowest-index tie-breaking.

    Views of the tree built once per pattern: each call returns new chains
    over its (frozen) steps.
    """
    return {p: TransferChain(p, list(path)) for p, path in enumerate(_tree(pattern).paths)}


def _tree(pattern: CreasePattern, chains=None, panels=()) -> _Tree:
    """The pattern's spanning tree, built once and cached on the pattern, or
    the chains of ``panels`` merged when they do not hold its steps.

    The tree's steps are shared, so comparing the step lists of chains from
    ``build_spanning_tree`` is an identity check; chains edited since are
    told apart by value.
    """
    if pattern._tree is None:
        pattern._tree = _cone_tree(pattern) if pattern.is_cone else _bfs_tree(pattern)
    if chains is not None:
        ordered = [chains[p] for p in panels]
        if [c.steps for c in ordered] != pattern._tree.paths:
            return _prefix_tree(ordered)
    return pattern._tree


def _spanning_tree(pattern: CreasePattern, edges, polygons) -> _Tree:
    """The ``_Tree`` of tree edges (parent panel, panel, step) given in
    depth order, leaves in panel order."""
    node = {pattern.base_panel: -1}
    paths = {pattern.base_panel: []}
    steps, parent, depth = [], [], []
    for p, q, step in edges:
        node[q] = len(steps)
        steps.append(step)
        parent.append(node[p])
        paths[q] = paths[p] + [step]
        depth.append(len(paths[p]))
    panels = range(len(pattern.panels))
    return _arrays(steps, parent, depth, [node[p] for p in panels],
                   paths=[paths[p] for p in panels], polygons=polygons)


def _cross(pattern: CreasePattern, xy, frame, ci: int, q: int):
    """The step over crease ``ci`` into panel ``q`` from a chain frame
    (x-axis angle, origin), and the frame after it.  ``xy`` holds the vertex
    coordinates as Python floats (``pattern.vertices.tolist()``)."""
    theta_p, (xp, yp) = frame
    start, end = pattern.crease_ends(ci, into_panel=q)
    xq, yq = xy[start]
    theta_q = math.atan2(xy[end][1] - yq, xy[end][0] - xq)
    c, s = math.cos(-theta_p), math.sin(-theta_p)
    dx, dy = xq - xp, yq - yp
    return (ChainStep(ci, pattern.var_of_crease[ci], theta_q - theta_p,
                      c * dx - s * dy, s * dx + c * dy),
            (theta_q, (xq, yq)))


def _bfs_tree(pattern: CreasePattern) -> _Tree:
    xy = pattern.vertices.tolist()

    def edges():
        frame = {pattern.base_panel: (0.0, (0.0, 0.0))}
        queue = deque([pattern.base_panel])
        while queue:
            p = queue.popleft()
            for q, ci in pattern.panel_adjacency[p]:
                if q not in frame:
                    step, frame[q] = _cross(pattern, xy, frame[p], ci, q)
                    queue.append(q)
                    yield p, q, step

    sizes = np.array([len(panel) for panel in pattern.panels])
    polygons = [(idx, pattern.vertices[[pattern.panels[p] for p in idx]])
                for idx in (np.flatnonzero(sizes == m) for m in sorted(set(sizes.tolist())))]
    return _spanning_tree(pattern, edges(), polygons)


def chain_for_path(pattern: CreasePattern, panel_path: list[int]) -> TransferChain:
    """Chain along an explicit panel path (for loop-closure cross-checks)."""
    xy = pattern.vertices.tolist()
    frame = (0.0, (0.0, 0.0))
    steps = []
    for p, q in zip(panel_path, panel_path[1:]):
        shared = [ci for (r, ci) in pattern.panel_adjacency[p] if r == q]
        if not shared:
            raise PatternError(f"panels {p} and {q} are not adjacent")
        step, frame = _cross(pattern, xy, frame, shared[0], q)
        steps.append(step)
    return TransferChain(panel_path[-1], steps)


# -- cone patterns (sector angles overridden at a single inner vertex) -----

def _cone_tree(pattern: CreasePattern) -> _Tree:
    """Chains around a cone vertex, developed over the cut at the base panel.

    The walk runs counter-clockwise from the base so the seam crease (the
    base panel's lower fan crease) is never crossed; its folding angle is
    fixed by loop closure rather than by the tree.  Each panel's polygon is
    the unit wedge of its sector in its chain frame.
    """
    if len(pattern.alpha_override) != 1:
        raise PatternError("kinematics supports cone angles at one vertex only")
    (v,) = pattern.alpha_override
    if pattern.inner_vertices != [v]:
        raise PatternError("cone kinematics needs the overridden vertex to be "
                           "the only inner vertex")
    fan = pattern.vertex_creases[v]
    alphas = pattern.sector_angles(v)
    n = len(fan)
    # panel at fan position j sits between creases fan[j] and fan[j+1]
    panel_at = []
    polygons = np.zeros((len(pattern.panels), 3, 3))
    for j in range(n):
        ci, cj = fan[j], fan[(j + 1) % n]
        shared = set(pattern.crease_panels[ci]) & set(pattern.crease_panels[cj])
        if len(shared) != 1:
            raise PatternError("cone panels must be simple wedges")
        panel_at.append(shared.pop())
        span = float(alphas[(j + 1) % n])
        polygons[panel_at[-1], 1:, :2] = (1.0, 0.0), (math.cos(span), math.sin(span))
    j0 = panel_at.index(pattern.base_panel)
    edges = []
    for m in range(1, n):
        j = (j0 + m) % n
        ci = fan[j]
        edges.append((panel_at[j - 1], panel_at[j],
                      ChainStep(ci, pattern.var_of_crease[ci], float(alphas[j]), 0.0, 0.0)))
    return _spanning_tree(pattern, edges, polygons)


# -- folded-state map ------------------------------------------------------

def _lift(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape == (2,):
        return np.array([p[0], p[1], 0.0, 1.0])
    if p.shape == (3,):
        return np.array([p[0], p[1], p[2], 1.0])
    raise ValueError("point must be 2- or 3-dimensional")


def _point_in_panel(pattern: CreasePattern, p, panel: int, tol=1e-9) -> bool:
    poly = pattern.panel_polygon(panel)
    x, y = float(p[0]), float(p[1])
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        # on-edge counts as inside (panel closure)
        dx, dy = x2 - x1, y2 - y1
        t = ((x - x1) * dx + (y - y1) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        if (x - x1 - t * dx) ** 2 + (y - y1 - t * dy) ** 2 <= tol * tol:
            return True
        if (y1 > y) != (y2 > y):
            xs = x1 + (y - y1) * dx / dy
            if xs > x:
                inside = not inside
    return inside


def fold_point(pattern: CreasePattern, rho, rho0, point, panel: int | None = None,
               chains: dict[int, TransferChain] | None = None) -> np.ndarray:
    """Image of a material point under the folded-state map.

    ``point`` is given in reference coordinates (z lifted to 0 when 2-d) and
    must lie in the closure of ``panel``; when ``panel`` is omitted the
    lowest-indexed panel containing the point is used.
    """
    if panel is None:
        if pattern.is_cone:
            raise PatternError("cone patterns need an explicit panel index")
        for p in range(len(pattern.panels)):
            if _point_in_panel(pattern, point, p):
                panel = p
                break
        else:
            raise PointOutsidePanel(f"point {point} lies in no panel")
    elif not pattern.is_cone and not _point_in_panel(pattern, point, panel):
        raise PointOutsidePanel(f"point {point} not in closure of panel {panel}")
    chain = (TransferChain(panel, _tree(pattern).paths[panel]) if chains is None
             else chains[panel])
    return (placement(chain, rho, rho0) @ _lift(point))[:3]


def fold_mesh(pattern: CreasePattern, rho, rho0=None,
              chains: dict[int, TransferChain] | None = None) -> list[np.ndarray]:
    """Placed 3-d polygon per panel (indexed like ``pattern.panels``)."""
    polygons = _tree(pattern).polygons
    tree = _tree(pattern, chains, range(len(pattern.panels)))
    if pattern.is_cone:
        T = _transforms(tree, rho)
        return [(T[p, :3, :3] @ poly.T).T + T[p, :3, 3] for p, poly in enumerate(polygons)]
    if rho0 is None:
        rho0 = pattern.initial_state().rho
    T = _placements(tree, rho, rho0)
    out: list[np.ndarray] = [None] * len(pattern.panels)
    for idx, polys in polygons:
        # reference points lie at z = 0, so only the first two columns act
        placed = (np.einsum("kij,klj->kli", T[idx, :3, :2], polys)
                  + T[idx, :3, 3][:, None])
        for p, pts in zip(idx.tolist(), placed):
            out[p] = pts
    return out


def panel_frames(pattern: CreasePattern, rho,
                 chains: dict[int, TransferChain] | None = None) -> list[PanelFrame]:
    panels = range(len(pattern.panels)) if chains is None else sorted(chains)
    T = _transforms(_tree(pattern, chains, panels), rho)
    return [PanelFrame(p, T[i]) for i, p in enumerate(panels)]
