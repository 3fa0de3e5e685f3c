"""Tangent-space rigidity analysis: Jacobian, DOF, flexes, self-stresses.

:func:`jacobian` differentiates one state or a batch of states; ``classify``
and the correctors of ``tracking`` read the residual and the Jacobian
together from one ``constraints._linearise`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (RESIDUAL_TOL, ConstraintSystem, _linearise, build_system,
                          loop_scalars)
from .errors import NotAFlex, NotDevelopable, NotOnVariety
from .kinematics import TransferChain, _tree, _walk
from .model import TWO_PI, CreasePattern

RANK_REL_TOL = 1e-8
# largest max-norm of J d, relative to d, for which d counts as a flex
FLEX_TOL = 1e-6
# agreement required of the two angular-velocity recursions, relative to rho_dot
IDENTITY_TOL = 1e-8
# generator of rotations about x: d/d rho Rx(rho) = Rx(rho) S_x
_S_X = np.array([[0.0, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])


def jacobian(system: ConstraintSystem, rho) -> np.ndarray:
    """Analytic derivative of the stacked loop residuals, shape (3i+6h) x j.

    ``rho`` is one state (j,) or a batch (..., j), giving (..., 3i+6h, j).
    Columns of creases appearing in no loop are identically zero; such
    creases fold freely.
    """
    return _linearise(system, rho)[1]


def _rank_split(J: np.ndarray, rel_tol: float = RANK_REL_TOL):
    """Numeric rank of J under the relative cutoff, with orthonormal bases of
    its null space (flexes, j x deg) and left null space (self-stresses)."""
    m, n = J.shape
    if J.size == 0:
        return 0, np.eye(n), np.zeros((m, m))
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    rank = int(np.sum(s > rel_tol * s[0])) if s[0] > 0 else 0
    return rank, Vt[rank:].T, U[:, rank:]


@dataclass
class RigidityReport:
    jacobian: np.ndarray
    rank: int
    deg: int
    flex_basis: np.ndarray       # j x deg, orthonormal
    stress_basis: np.ndarray     # (3i+6h) x corank, orthonormal
    first_order_rigid: bool
    regular: bool
    residual_norm: float

    @property
    def corank(self) -> int:
        return self.stress_basis.shape[1]


def classify(system: ConstraintSystem, rho, residual_tol: float = RESIDUAL_TOL,
             rank_tol: float = RANK_REL_TOL) -> RigidityReport:
    """Rank/DOF classification of a solved state.

    Raises :class:`NotOnVariety` when the residual exceeds ``residual_tol``.
    """
    res, J = _linearise(system, rho)
    if not res.satisfied(residual_tol):
        raise NotOnVariety(f"residual max-norm {res.max_norm:.3e} > {residual_tol:.1e}")
    m, n = J.shape
    rank, flex, stress = _rank_split(J, rank_tol)
    deg = n - rank
    return RigidityReport(
        jacobian=J,
        rank=rank,
        deg=deg,
        flex_basis=flex,
        stress_basis=stress,
        first_order_rigid=(deg == 0),
        regular=(rank == min(m, n)),
        residual_norm=res.max_norm,
    )


def deg_formula_developable(pattern: CreasePattern) -> int:
    """Flat-state DOF count j - 2i for a developable pattern without holes.

    When every inner vertex has degree at least 4 the count is always
    positive, so that case is asserted rather than validated.
    """
    if pattern.holes:
        raise NotDevelopable("formula applies to patterns without holes")
    for v in pattern.inner_vertices:
        total = float(np.sum(pattern.sector_angles(v)))
        if abs(total - TWO_PI) > 1e-9:
            raise NotDevelopable(f"vertex {v} has sector sum {total:.12f} != 2*pi")
    i = len(pattern.inner_vertices)
    j = pattern.n_vars
    deg0 = j - 2 * i
    if pattern.inner_vertices:
        min_degree = min(len(pattern.vertex_creases[v]) for v in pattern.inner_vertices)
        if min_degree >= 4 and deg0 <= 0:
            raise AssertionError("j - 2i must be positive when all inner degrees >= 4")
    return deg0


# -- angular velocities -----------------------------------------------------

def angular_velocities(pattern: CreasePattern, rho, rho_dot,
                       system: ConstraintSystem | None = None,
                       chains: dict[int, TransferChain] | None = None) -> np.ndarray:
    """Per-panel angular velocity of the flex ``rho_dot``.

    Down the spanning tree, omega jumps by rho_dot_k c_k at each crossing,
    c_k the folded direction of the crossed crease (the x-axis of the frame
    after it).  The same walk carries the time derivative of the transforms
    forward, dT_child = dT_parent F + T_child S_x rho_dot_k with S_x the
    generator of x-rotations, and skew(omega) = dR/dt . R^T read off it must
    agree with the recursion; a mismatch raises, since it would mean the
    chain algebra is broken.
    """
    rho = np.asarray(rho, dtype=float)
    rho_dot = np.asarray(rho_dot, dtype=float)
    if system is None:
        system = build_system(pattern)
    J = jacobian(system, rho)
    if J.size and rho_dot.size:
        drive = float(np.abs(J @ rho_dot).max())
        scale = max(1.0, float(np.abs(rho_dot).max(initial=0.0)))
        if drive > FLEX_TOL * scale:
            raise NotAFlex(f"J . rho_dot has max entry {drive:.3e}")
    panels = range(len(pattern.panels)) if chains is None else sorted(chains)
    tree = _tree(pattern, chains, panels)
    F, T = _walk(tree, rho)
    rate = rho_dot[tree.vars]
    omega = np.zeros((len(T), 3))
    dT = np.zeros(T.shape)
    for nodes in tree.levels:
        up = tree.parent[nodes]
        omega[nodes] = omega[up] + rate[nodes, None] * T[nodes, :3, 0]
        dT[nodes] = dT[up] @ F[nodes] + rate[nodes, None, None] * (T[nodes] @ _S_X)
    skew = loop_scalars(dT[:, :3, :3] @ T[:, :3, :3].swapaxes(-1, -2), "vertex")
    err = float(np.abs(skew - omega).max())
    limit = IDENTITY_TOL * max(1.0, float(np.abs(rho_dot).max(initial=0.0)))
    if err > limit:
        raise RuntimeError(f"angular-velocity identity violated: {err:.3e}")
    omegas = np.zeros((len(pattern.panels), 3))
    omegas[list(panels)] = omega[tree.leaf]
    return omegas

