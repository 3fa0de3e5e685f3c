"""Tangent-space rigidity analysis: Jacobian, DOF, flexes, self-stresses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import (RESIDUAL_TOL, ConstraintSystem, build_system,
                          chain_products, loop_scalars, residual)
from .errors import NotAFlex, NotDevelopable, NotOnVariety
from .kinematics import TransferChain, build_spanning_tree
from .model import TWO_PI, CreasePattern

RANK_REL_TOL = 1e-8


def jacobian(system: ConstraintSystem, rho) -> np.ndarray:
    """Analytic derivative of the stacked loop residuals, shape (3i+6h) x j.

    Columns of creases appearing in no loop are identically zero; such
    creases fold freely.
    """
    J = np.zeros((system.residual_dim, system.n_vars))
    for kind, _, rows, betas, offsets, vars_ in system.groups:
        _, D, _ = chain_products(betas, offsets, vars_, rho, derivatives=True)
        # a crease crossed twice by one loop adds both derivatives
        np.add.at(J, (rows[:, None, :], vars_[:, :, None]), loop_scalars(D, kind))
    return J


def _rank_split(J: np.ndarray, rel_tol: float = RANK_REL_TOL):
    """Numeric rank of J under the relative cutoff, with orthonormal bases of
    its null space (flexes, j x deg) and left null space (self-stresses)."""
    m, n = J.shape
    if J.size == 0:
        return 0, np.eye(n), np.zeros((m, m))
    U, s, Vt = np.linalg.svd(J, full_matrices=True)
    rank = int(np.sum(s > rel_tol * s[0])) if s[0] > 0 else 0
    return rank, Vt[rank:].T, U[:, rank:]


def numeric_rank(J: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    return _rank_split(J, rel_tol)[0]


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
    rho = np.asarray(rho, dtype=float)
    res = residual(system, rho)
    if not res.satisfied(residual_tol):
        raise NotOnVariety(f"residual max-norm {res.max_norm:.3e} > {residual_tol:.1e}")
    J = jacobian(system, rho)
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

def _chain_groups(chains: list[TransferChain]):
    """Stack the chains by length: (positions, betas, offsets, vars) per length."""
    by_length: dict[int, list[int]] = {}
    for i, chain in enumerate(chains):
        by_length.setdefault(len(chain), []).append(i)
    for n, idx in by_length.items():
        steps = [st for i in idx for st in chains[i].steps]
        yield (np.array(idx),
               np.array([st.beta for st in steps]).reshape(len(idx), n),
               np.array([(st.a, st.b) for st in steps]).reshape(len(idx), n, 2),
               np.array([st.var for st in steps], dtype=np.intp).reshape(len(idx), n))


def angular_velocities(pattern: CreasePattern, rho, rho_dot,
                       system: ConstraintSystem | None = None,
                       chains: dict[int, TransferChain] | None = None,
                       flex_tol: float = 1e-6,
                       identity_tol: float = 1e-8) -> np.ndarray:
    """Per-panel angular velocity of the flex ``rho_dot``.

    omega_K is read off skew(omega_K) = dT_K/dt . T_K^T.  It must satisfy
    rho_dot_K c_K = omega_K - omega_{K-1} along every chain, with c_K the
    folded direction of the crossed crease; the recursion built from that
    identity is compared against the skew computation and a mismatch raises,
    since it would mean the chain algebra is broken.
    """
    rho = np.asarray(rho, dtype=float)
    rho_dot = np.asarray(rho_dot, dtype=float)
    if system is None:
        system = build_system(pattern)
    J = jacobian(system, rho)
    if J.size and rho_dot.size:
        drive = float(np.abs(J @ rho_dot).max())
        scale = max(1.0, float(np.abs(rho_dot).max()))
        if drive > flex_tol * scale:
            raise NotAFlex(f"J . rho_dot has max entry {drive:.3e}")
    if chains is None:
        chains = build_spanning_tree(pattern)

    omegas = np.zeros((len(pattern.panels), 3))
    limit = identity_tol * max(1.0, float(np.abs(rho_dot).max()))
    panels = np.array(list(chains), dtype=np.intp)
    for idx, betas, offsets, vars_ in _chain_groups(list(chains.values())):
        T, D, P = chain_products(betas, offsets, vars_, rho, derivatives=True)
        rate = rho_dot[vars_]
        dR = np.einsum("ck,ckij->cij", rate, D[..., :3, :3])
        omega = loop_scalars(dR @ T[..., :3, :3].swapaxes(-1, -2), "vertex")
        omegas[panels[idx]] = omega
        # independent accumulation: omega jumps by rho_dot_k c_k per crossing,
        # c_k the x-axis of the frame after the k-th crossing
        omega_rec = np.einsum("ck,cki->ci", rate, P[:, 1:, :3, 0])
        err = float(np.abs(omega_rec - omega).max())
        if err > limit:
            raise RuntimeError(f"angular-velocity identity violated: {err:.3e}")
    return omegas


def flex_growth_order(system: ConstraintSystem, rho, direction,
                      eps: float = 1e-3) -> float:
    """Heuristic order of residual growth along a first-order flex.

    Fits the exponent p in ||r(rho + eps d)|| ~ eps^p from two step sizes.
    Values near 2 suggest the flex is blocked at second order; large values
    (or tiny residuals at both steps) suggest a genuine finite motion.  This
    is an experimental probe, not a second-order rigidity test.
    """
    rho = np.asarray(rho, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.abs(d).max()
    r1 = residual(system, rho + eps * d).max_norm
    r2 = residual(system, rho + 2 * eps * d).max_norm
    if r2 < 1e-14:
        return math.inf
    if r1 < 1e-14:
        return math.inf
    return math.log(r2 / r1) / math.log(2.0)
