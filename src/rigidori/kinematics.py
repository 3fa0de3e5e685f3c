"""Folded-state map: rigid placement of panels from the folding angles.

Every panel is reached from the base panel through a chain of crease
crossings.  Crossing into panel B over crease c uses a frame whose x-axis
runs along c oriented so that B lies on its left; positive folding angle
then rotates B toward the +z (top) side.  The chain transform is the
post-multiplied product of per-crossing factors

    [rotate beta_k about z, translate (a_k, b_k)] . [rotate rho_k about x]

and a material point p of panel K placed at the reference state rho0 moves
to  T_K(rho) T_K(rho0)^{-1} p.  The chains of a call are merged into one
prefix tree, so a step that several chains share is one node.  All of its
factors come from one call of ``constraints.hinge_factors``, and the tree
is walked root to leaf, one batched product per depth (the forward
kinematics of a kinematic tree); the spanning tree's prefix tree is cached
on the pattern.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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

    @property
    def origin(self) -> np.ndarray:
        return self.transform[:3, 3]

    @property
    def x_axis(self) -> np.ndarray:
        return self.transform[:3, 0]

    @property
    def z_axis(self) -> np.ndarray:
        return self.transform[:3, 2]


def _rigid_inverse(T: np.ndarray) -> np.ndarray:
    Rt = T[..., :3, :3].swapaxes(-1, -2)
    out = np.zeros(T.shape)
    out[..., :3, :3] = Rt
    out[..., :3, 3] = -(Rt @ T[..., :3, 3:])[..., 0]
    out[..., 3, 3] = 1.0
    return out


def _prefix_tree(chains: list[TransferChain]):
    """The chains merged on their shared prefixes, numbered level by level.

    A node is a chain prefix, keyed on (parent node, last ChainStep), so
    chains that start alike share nodes; the nodes of depth k + 1 are made
    from the chains still longer than k, so the build is linear in steps.
    Returns (betas, offsets, vars, levels, leaf): the hinge data of each
    node's last step, one (node slice, parent nodes) pair per depth, and the
    node of each chain.  The root, the empty prefix, is node -1: the slot
    after the last node.
    """
    node: dict[tuple[int, ChainStep], int] = {}
    steps, parents, levels = [], [], []
    leaf = [-1] * len(chains)
    active = [c for c, chain in enumerate(chains) if chain.steps]
    k = 0
    while active:
        lo = len(steps)
        for c in active:
            key = (leaf[c], chains[c].steps[k])
            if key not in node:
                node[key] = len(steps)
                steps.append(key[1])
                parents.append(leaf[c])
            leaf[c] = node[key]
        levels.append((slice(lo, len(steps)), np.array(parents[lo:], dtype=np.intp)))
        k += 1
        active = [c for c in active if len(chains[c]) > k]
    return (np.array([st.beta for st in steps]),
            np.array([(st.a, st.b) for st in steps]).reshape(len(steps), 2),
            np.array([st.var for st in steps], dtype=np.intp),
            levels, np.array(leaf, dtype=np.intp))


def _panel_tree(pattern: CreasePattern, ordered: list[TransferChain]):
    """``_prefix_tree`` of one chain per panel, in panel order.

    Chains equal to the pattern's own spanning tree, as those of
    ``build_spanning_tree(pattern)`` are, get the tree's prefix tree, built
    on first use and cached on the pattern; any other chains are merged
    afresh.
    """
    _, tree = _tree(pattern)
    if ordered != tree:
        return _prefix_tree(ordered)
    if pattern._tree_prefix is None:
        pattern._tree_prefix = _prefix_tree(tree)
    return pattern._tree_prefix


def _transforms(chains: list[TransferChain], rho, tree=None) -> np.ndarray:
    """Chain transforms at a state (j,) or a batch (..., j): (..., len(chains), 4, 4).

    ``tree`` is ``_prefix_tree(chains)`` when the caller has it.  Every hinge
    factor is built at once; each depth then takes one batched product
    T[node] = T[parent] @ F[node], the one ``chain_products`` forms per step.
    """
    rho = np.asarray(rho, dtype=float)
    betas, offsets, vars_, levels, leaf = _prefix_tree(chains) if tree is None else tree
    F = hinge_factors(betas, offsets, rho[..., vars_])
    T = np.empty(rho.shape[:-1] + (len(betas) + 1, 4, 4))
    T[..., -1, :, :] = np.eye(4)       # the root
    for nodes, parents in levels:
        np.matmul(T[..., parents, :, :], F[..., nodes, :, :], out=T[..., nodes, :, :])
    return T[..., leaf, :, :]


def _placements(chains: list[TransferChain], rho, rho0, tree=None) -> np.ndarray:
    """Rigid motions taking the rho0 placement of each chain's panel to the rho one."""
    T = _transforms(chains, np.stack([np.asarray(rho, dtype=float),
                                      np.asarray(rho0, dtype=float)]), tree)
    return T[0] @ _rigid_inverse(T[1])


def transfer_matrix(chain: TransferChain, rho) -> np.ndarray:
    return _transforms([chain], rho)[0]


def placement(chain: TransferChain, rho, rho0) -> np.ndarray:
    """Rigid motion taking the rho0 placement of the panel to the rho one."""
    return _placements([chain], rho, rho0)[0]


def build_spanning_tree(pattern: CreasePattern) -> dict[int, TransferChain]:
    """Breadth-first chains from the base panel, lowest-index tie-breaking.

    The tree is built once per pattern; each call returns new chains over
    its (frozen) steps.
    """
    tree, _ = _tree(pattern)
    return {p: TransferChain(c.panel, list(c.steps)) for p, c in tree.items()}


def _tree(pattern: CreasePattern):
    """The pattern's spanning tree and its chains in panel order, built
    once and cached on the pattern."""
    if pattern._tree is None:
        tree = _cone_chains(pattern) if pattern.is_cone else _bfs_chains(pattern)
        pattern._tree = (tree, [tree[p] for p in sorted(tree)])
    return pattern._tree


def _bfs_chains(pattern: CreasePattern) -> dict[int, TransferChain]:
    chains = {pattern.base_panel: TransferChain(pattern.base_panel, [])}
    frame = {pattern.base_panel: (0.0, np.zeros(2))}  # (x-axis angle, origin)
    queue = deque([pattern.base_panel])
    while queue:
        p = queue.popleft()
        theta_p, origin_p = frame[p]
        for q, ci in pattern.panel_adjacency[p]:
            if q in chains:
                continue
            d = pattern.crease_vector(ci, into_panel=q)
            theta_q = math.atan2(d[1], d[0])
            origin_q = pattern.crease_origin(ci, into_panel=q)
            beta = theta_q - theta_p
            delta = origin_q - origin_p
            c, s = math.cos(-theta_p), math.sin(-theta_p)
            a = c * delta[0] - s * delta[1]
            b = s * delta[0] + c * delta[1]
            step = ChainStep(ci, pattern.var_of_crease[ci], beta, a, b)
            chains[q] = TransferChain(q, chains[p].steps + [step])
            frame[q] = (theta_q, origin_q)
            queue.append(q)
    return chains


def chain_for_path(pattern: CreasePattern, panel_path: list[int]) -> TransferChain:
    """Chain along an explicit panel path (for loop-closure cross-checks)."""
    theta_p, origin_p = 0.0, np.zeros(2)
    steps = []
    for p, q in zip(panel_path, panel_path[1:]):
        shared = [ci for (r, ci) in pattern.panel_adjacency[p] if r == q]
        if not shared:
            raise PatternError(f"panels {p} and {q} are not adjacent")
        ci = shared[0]
        d = pattern.crease_vector(ci, into_panel=q)
        theta_q = math.atan2(d[1], d[0])
        origin_q = pattern.crease_origin(ci, into_panel=q)
        c, s = math.cos(-theta_p), math.sin(-theta_p)
        delta = origin_q - origin_p
        steps.append(ChainStep(ci, pattern.var_of_crease[ci], theta_q - theta_p,
                               c * delta[0] - s * delta[1],
                               s * delta[0] + c * delta[1]))
        theta_p, origin_p = theta_q, origin_q
    return TransferChain(panel_path[-1], steps)


# -- cone patterns (sector angles overridden at a single inner vertex) -----

def _cone_data(pattern: CreasePattern):
    if len(pattern.alpha_override) != 1:
        raise PatternError("kinematics supports cone angles at one vertex only")
    (v,) = pattern.alpha_override
    if pattern.inner_vertices != [v]:
        raise PatternError("cone kinematics needs the overridden vertex to be "
                           "the only inner vertex")
    fan = pattern.vertex_creases[v]
    alphas = pattern.sector_angles(v)
    # panel at fan position j sits between creases fan[j] and fan[j+1]
    panel_at = []
    for j in range(len(fan)):
        ci, cj = fan[j], fan[(j + 1) % len(fan)]
        shared = set(pattern.crease_panels[ci]) & set(pattern.crease_panels[cj])
        if len(shared) != 1:
            raise PatternError("cone panels must be simple wedges")
        panel_at.append(shared.pop())
    return v, fan, alphas, panel_at


def _cone_chains(pattern: CreasePattern) -> dict[int, TransferChain]:
    """Chains around a cone vertex, developed over the cut at the base panel.

    The walk runs counter-clockwise from the base so the seam crease (the
    base panel's lower fan crease) is never crossed; its folding angle is
    fixed by loop closure rather than by the tree.
    """
    v, fan, alphas, panel_at = _cone_data(pattern)
    n = len(fan)
    j0 = panel_at.index(pattern.base_panel)
    chains = {pattern.base_panel: TransferChain(pattern.base_panel, [])}
    steps: list[ChainStep] = []
    for m in range(1, n):
        j = (j0 + m) % n
        ci = fan[j]
        steps = steps + [ChainStep(ci, pattern.var_of_crease[ci],
                                   float(alphas[j]), 0.0, 0.0)]
        chains[panel_at[j]] = TransferChain(panel_at[j], steps)
    return chains


def _cone_local_polygon(pattern: CreasePattern, panel: int, radius: float = 1.0):
    v, fan, alphas, panel_at = _cone_data(pattern)
    j = panel_at.index(panel)
    span = float(alphas[(j + 1) % len(fan)])
    return np.array([[0.0, 0.0, 0.0],
                     [radius, 0.0, 0.0],
                     [radius * math.cos(span), radius * math.sin(span), 0.0]])


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
    if chains is None:
        chains = build_spanning_tree(pattern)
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
    T = placement(chains[panel], rho, rho0)
    return (T @ _lift(point))[:3]


def fold_mesh(pattern: CreasePattern, rho, rho0=None,
              chains: dict[int, TransferChain] | None = None,
              cone_radius: float = 1.0) -> list[np.ndarray]:
    """Placed 3-d polygon per panel (indexed like ``pattern.panels``)."""
    if chains is None:
        chains, _ = _tree(pattern)
    panels = range(len(pattern.panels))
    ordered = [chains[p] for p in panels]
    tree = _panel_tree(pattern, ordered)
    if pattern.is_cone:
        T = _transforms(ordered, rho, tree)
        return [(T[p, :3, :3] @ _cone_local_polygon(pattern, p, cone_radius).T).T
                + T[p, :3, 3] for p in panels]
    if rho0 is None:
        rho0 = pattern.initial_state().rho
    T = _placements(ordered, rho, rho0, tree)
    by_length: dict[int, list[int]] = {}
    for p in panels:
        by_length.setdefault(len(pattern.panels[p]), []).append(p)
    out: list[np.ndarray] = [None] * len(panels)
    for idx in by_length.values():
        polys = pattern.vertices[[pattern.panels[p] for p in idx]]
        # reference points lie at z = 0, so only the first two columns act
        placed = (np.einsum("kij,klj->kli", T[idx, :3, :2], polys)
                  + T[idx, :3, 3][:, None])
        for p, pts in zip(idx, placed):
            out[p] = pts
    return out


def panel_frames(pattern: CreasePattern, rho,
                 chains: dict[int, TransferChain] | None = None) -> list[PanelFrame]:
    if chains is None:
        chains, _ = _tree(pattern)
    panels = sorted(chains)
    ordered = [chains[p] for p in panels]
    T = _transforms(ordered, rho, _panel_tree(pattern, ordered))
    return [PanelFrame(p, T[i]) for i, p in enumerate(panels)]
