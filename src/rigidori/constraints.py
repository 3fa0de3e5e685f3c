"""Loop-closure constraint system over the folding angles.

Each inner vertex contributes one rotation loop (3 independent scalars),
each hole with non-concurrent incident creases one rigid-motion loop
(3 rotation + 3 translation scalars).  A loop is the post-multiplied
product of per-crease factors

    [in-plane rotation beta_k, translation (a_k, b_k)] . [x-axis rotation rho_k]

and the constraint is that the product equals the identity.

The residual vector extracts the skew part of the rotation block (plus the
translation column for holes); these are the three/six independent scalars
whose derivatives carry the tangent-space information.  Because the skew
part also vanishes for half-turn rotations, the reported per-loop max-norm
always includes the full matrix deviation from the identity, so spurious
roots are never accepted as solved states.

:func:`hinge_factors` builds the one per-crease factor.
:func:`chain_products` is the one implementation of its product along
equal-length loops and of the derivatives; the single-vertex solvers use it
too.  The folded-state map and the angular velocities multiply the same
factors down the pattern's spanning tree (``kinematics._walk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import TWO_PI, CreasePattern

RESIDUAL_TOL = 1e-9
# distance of every angle from +-pi below which a state counts as flat folded
FLAT_TOL = 1e-9
# shared read-only identities, so that no per-iterate product builds its own
_I3, _I4 = np.eye(3), np.eye(4)
_I3.flags.writeable = _I4.flags.writeable = False


def hinge_factors(betas, offsets, ang) -> np.ndarray:
    """Hinge factors ``[Rz(betas), offsets] . Rx(ang)``, shape ang.shape + (4, 4).

    ``betas`` broadcasts against ``ang``, ``offsets`` has a trailing axis of
    (a, b).  This is the one place the 4x4 factor is built.
    """
    offsets = np.asarray(offsets, dtype=float)
    cb, sb = np.cos(betas), np.sin(betas)
    cr, sr = np.cos(ang), np.sin(ang)
    F = np.zeros(np.shape(ang) + (4, 4))
    F[..., 0, 0] = cb
    F[..., 0, 1] = -sb * cr
    F[..., 0, 2] = sb * sr
    F[..., 0, 3] = offsets[..., 0]
    F[..., 1, 0] = sb
    F[..., 1, 1] = cb * cr
    F[..., 1, 2] = -cb * sr
    F[..., 1, 3] = offsets[..., 1]
    F[..., 2, 1] = sr
    F[..., 2, 2] = cr
    F[..., 3, 3] = 1.0
    return F


def chain_products(betas, offsets, vars, rho, derivatives: bool = False):
    """Products of hinge factors along a stack of equal-length chains.

    Chain c is the product over k of the 4x4 factors
    ``F_ck = hinge_factors(betas[c, k], offsets[c, k], rho[vars[c, k]])``, with
    ``betas`` and ``vars`` of shape (C, n) and ``offsets`` (C, n, 2).  ``rho``
    is one state (j,) or a batch (..., j).  Returns T, shape (..., C, 4, 4).
    With ``derivatives`` returns (T, D, P): the prefix products P_k of the
    first k factors, shape (..., C, n + 1, 4, 4), and the derivatives by the
    k-th crossed angle D_k = P_k F_k S_x S_{k+1}, shape (..., C, n, 4, 4),
    where S_x generates x-rotations and S_{k+1} is the suffix product.
    """
    betas = np.asarray(betas, dtype=float)
    ang = np.asarray(rho, dtype=float)[..., np.asarray(vars, dtype=np.intp)]
    n = betas.shape[-1]
    F = hinge_factors(betas, offsets, ang)
    P = np.empty(F.shape[:-3] + (n + 1, 4, 4))
    P[..., 0, :, :] = _I4
    for k in range(n):
        np.matmul(P[..., k, :, :], F[..., k, :, :], out=P[..., k + 1, :, :])
    if not derivatives:
        return P[..., n, :, :]
    S = np.empty(P.shape)
    S[..., n, :, :] = _I4
    for k in reversed(range(n)):
        np.matmul(F[..., k, :, :], S[..., k + 1, :, :], out=S[..., k, :, :])
    # P_{k+1} S_x: S_x moves column 2 to column 1 and minus column 1 to column 2
    PS = np.zeros(F.shape)
    PS[..., 1] = P[..., 1:, :, 2]
    PS[..., 2] = -P[..., 1:, :, 1]
    return P[..., n, :, :], PS @ S[..., 1:, :, :], P


def loop_scalars(T, kind: str) -> np.ndarray:
    """Independent closure scalars of loop products ``T`` (..., 4, 4), or of
    rotation blocks (..., 3, 3) for a vertex.

    The skew part of the rotation block, plus the translation column for a
    hole; shape (..., 3) or (..., 6).
    """
    k = T.shape[-1]
    M = T.reshape(T.shape[:-2] + (k * k,))
    # entries (2, 1), (0, 2), (1, 0) less their mirrors, read row-major
    skew = (M[..., [2 * k + 1, 2, k]] - M[..., [k + 2, 2 * k, 1]]) / 2.0
    if kind == "hole":
        return np.concatenate([skew, T[..., :3, 3]], axis=-1)
    return skew


def loop_deviation(T, kind: str) -> np.ndarray:
    """Full elementwise deviation from the identity (spurious-root guard)."""
    if kind == "hole":
        return np.abs(T - _I4).max(axis=(-2, -1))
    return np.abs(T[..., :3, :3] - _I3).max(axis=(-2, -1))


@dataclass
class Loop:
    """One closure loop: crossing order, in-plane geometry, variable indices."""

    kind: str                    # "vertex" or "hole"
    vars: list[int]              # variable index of each crossed crease
    betas: np.ndarray            # in-plane rotation before each crossing
    offsets: np.ndarray          # (n, 2) frame-origin offsets; zero at a vertex
    label: str = ""

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        if self.offsets is None:
            self.offsets = np.zeros((len(self.vars), 2))
        self.offsets = np.asarray(self.offsets, dtype=float)

    @property
    def rows(self) -> int:
        return 6 if self.kind == "hole" else 3

    def transform(self, rho: np.ndarray) -> np.ndarray:
        return chain_products([self.betas], [self.offsets], [self.vars], rho)[..., 0, :, :]

    def max_deviation(self, T: np.ndarray) -> float:
        return float(loop_deviation(T, self.kind))


@dataclass
class Residual:
    vector: np.ndarray
    loop_deviations: np.ndarray  # max_deviation of each loop, in system order
    max_norm: float              # an array over the states of a batch

    def satisfied(self, tol: float = RESIDUAL_TOL) -> bool:
        return self.max_norm <= tol


@dataclass
class ConstraintSystem:
    n_vars: int
    loops: list[Loop]
    free_vars: list[int] = field(init=False)

    def __post_init__(self):
        offsets = []
        pos = 0
        for lp in self.loops:
            offsets.append(pos)
            pos += lp.rows
        self.row_offsets = offsets
        self.residual_dim = pos
        in_loop = set()
        for lp in self.loops:
            in_loop.update(lp.vars)
        self.free_vars = sorted(set(range(self.n_vars)) - in_loop)
        # loops of one kind and length, stacked for chain_products: (kind,
        # positions in loops (C,), residual rows (C, 3|6), betas (C, n),
        # offsets (C, n, 2), vars (C, n))
        members: dict[tuple[str, int], list[int]] = {}
        for i, lp in enumerate(self.loops):
            members.setdefault((lp.kind, len(lp.vars)), []).append(i)
        self.groups = []
        for (kind, _), idx in members.items():
            loops = [self.loops[i] for i in idx]
            rows = (np.array([self.row_offsets[i] for i in idx])[:, None]
                    + np.arange(loops[0].rows))
            self.groups.append((kind, np.array(idx), rows,
                                np.array([lp.betas for lp in loops]),
                                np.array([lp.offsets for lp in loops]),
                                np.array([lp.vars for lp in loops], dtype=np.intp)))

    @property
    def n_vertex_loops(self) -> int:
        return sum(1 for lp in self.loops if lp.kind == "vertex")

    @property
    def n_hole_loops(self) -> int:
        return sum(1 for lp in self.loops if lp.kind == "hole")


def residual(system: ConstraintSystem, rho) -> Residual:
    return _linearise(system, rho, derivatives=False)[0]


def _linearise(system: ConstraintSystem, rho, derivatives: bool = True):
    """``(Residual, J)`` at one state (j,) or a batch (..., j), from one
    :func:`chain_products` call per loop group; J, shape (..., 3i+6h, j), is
    None without ``derivatives``.  This is the one pass over the loops."""
    rho = np.asarray(rho, dtype=float)
    batch = rho.shape[:-1]
    vec = np.zeros(batch + (system.residual_dim,))
    dev = np.zeros(batch + (len(system.loops),))
    J = np.zeros(batch + (system.residual_dim, system.n_vars)) if derivatives else None
    for kind, index, rows, betas, offsets, vars_ in system.groups:
        if derivatives:
            T, D, _ = chain_products(betas, offsets, vars_, rho, derivatives=True)
            # a crease crossed twice by one loop adds both derivatives
            np.add.at(J, (..., rows[:, None, :], vars_[:, :, None]),
                      loop_scalars(D, kind))
        else:
            T = chain_products(betas, offsets, vars_, rho)
        vec[..., rows] = loop_scalars(T, kind)
        dev[..., index] = loop_deviation(T, kind)
    norm = dev.max(axis=-1, initial=0.0)
    return Residual(vec, dev, norm if batch else float(norm)), J


def build_system(pattern: CreasePattern) -> ConstraintSystem:
    """Assemble one loop per inner vertex and per hole of the pattern.

    Loop crease order follows the counter-clockwise path convention of the
    reference embedding and starts at the lowest-indexed crease.  Holes whose
    incident creases are concurrent are converted to vertex-style rotation
    loops about the concurrence point.
    """
    loops = []
    for v in pattern.inner_vertices:
        fan = pattern.vertex_creases[v]
        alphas = pattern.sector_angles(v)
        r = min(range(len(fan)), key=lambda j: fan[j])
        order = [fan[(r + j) % len(fan)] for j in range(len(fan))]
        betas = [alphas[(r + j) % len(fan)] for j in range(len(fan))]
        loops.append(Loop(
            kind="vertex",
            vars=[pattern.var_of_crease[ci] for ci in order],
            betas=np.asarray(betas),
            offsets=np.zeros((len(order), 2)),
            label=f"vertex {v}",
        ))
    for h, cycle in enumerate(pattern.holes):
        loops.append(_hole_loop(pattern, h, cycle))
    return ConstraintSystem(n_vars=pattern.n_vars, loops=loops)


def _hole_loop(pattern: CreasePattern, hole_index: int, cycle: list[int]) -> Loop:
    # orient the cycle so the hole lies on the left of travel
    oriented = list(cycle)
    a, b = oriented[0], oriented[1]
    if (a, b) in pattern._panel_of_directed:
        # a panel claims this directed edge, so material is on the left: flip
        oriented = oriented[::-1]
    m = len(oriented)

    crossings = []  # (crease_index, origin vertex, outward angle)
    for j, v in enumerate(oriented):
        prev_v = oriented[j - 1]
        next_v = oriented[(j + 1) % m]
        ang_in = pattern._ray_angle(v, pattern.crease_index(v, prev_v))
        fan = pattern.vertex_creases[v]
        boundary = {pattern.crease_index(v, prev_v), pattern.crease_index(v, next_v)}
        inner = [(((pattern._ray_angle(v, ci) - ang_in) % TWO_PI), ci)
                 for ci in fan if ci not in boundary and
                 pattern.creases[ci].kind == "inner"]
        inner.sort()
        for rel, ci in inner:
            crossings.append((ci, v, ang_in + rel))

    if not crossings:
        raise ValueError(f"hole {hole_index} has no incident inner creases")

    # start at the lowest-indexed crease for determinism
    r = min(range(len(crossings)), key=lambda j: crossings[j][0])
    crossings = crossings[r:] + crossings[:r]

    n = len(crossings)
    betas = np.zeros(n)
    offsets = np.zeros((n, 2))
    for j in range(n):
        ci, v, theta = crossings[j]
        cj, vp, theta_p = crossings[j - 1]
        betas[j] = theta - theta_p
        d = pattern.vertices[v] - pattern.vertices[vp]
        c, s = math.cos(-theta_p), math.sin(-theta_p)
        offsets[j] = (c * d[0] - s * d[1], s * d[0] + c * d[1])

    vars_ = [pattern.var_of_crease[ci] for ci, _, _ in crossings]

    if _creases_concurrent(pattern, [ci for ci, _, _ in crossings]):
        return Loop(kind="vertex", vars=vars_, betas=betas,
                    offsets=np.zeros((n, 2)), label=f"hole {hole_index} (concurrent)")
    return Loop(kind="hole", vars=vars_, betas=betas, offsets=offsets,
                label=f"hole {hole_index}")


def _creases_concurrent(pattern: CreasePattern, crease_ids: list[int],
                        tol: float = 1e-9) -> bool:
    """Do the supporting lines of these creases share a common point?"""
    if len(crease_ids) < 2:
        return True
    A = []
    rhs = []
    for ci in crease_ids:
        c = pattern.creases[ci]
        p = pattern.vertices[c.u]
        d = pattern.vertices[c.v] - pattern.vertices[c.u]
        nrm = np.hypot(d[0], d[1])
        nvec = np.array([-d[1], d[0]]) / nrm
        A.append(nvec)
        rhs.append(float(nvec @ p))
    A = np.asarray(A)
    rhs = np.asarray(rhs)
    q, res, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return float(np.abs(A @ q - rhs).max()) <= tol


def system_from_loops(loops: list[Loop], n_vars: int) -> ConstraintSystem:
    """Assemble a system directly from loops (cone inputs, test fixtures)."""
    return ConstraintSystem(n_vars=n_vars, loops=loops)


def vertex_loop(alphas, var_indices, label="") -> Loop:
    """Rotation loop for an abstract single vertex given its sector angles."""
    alphas = np.asarray(alphas, dtype=float)
    return Loop(kind="vertex", vars=list(var_indices), betas=alphas,
                offsets=np.zeros((len(alphas), 2)), label=label)


def is_flat_state(rho) -> bool:
    """Every folding angle at +-pi (a flat folded state distinct from 0)."""
    rho = np.asarray(rho, dtype=float)
    if rho.size == 0:
        return False
    return bool(np.all(np.abs(np.abs(rho) - math.pi) <= FLAT_TOL))

