"""Numeric rigid-folding motions on the constraint variety.

``gauss_newton_correct`` is the one corrector of single states: least-norm
Gauss-Newton, with least-squares steps or, given a flex basis, steps from
the Gram matrix of the Jacobian and those flexes.  ``track_flex`` runs
tangent-predictor / corrector continuation from a solved state and carries
N, an orthonormal basis (j x d) of the flexes of its last certified
Jacobian; at the start N is the caller's direction.  Every Jacobian J the
tracker evaluates, each corrector iterate included, is certified on
A = J^T J + N N^T (``_flex_solve``): the rank is j - d with the margin
``ROW_MARGIN`` on both sides of the SVD cutoff.  One solve with A gives the
flexes Q of J (A^-1 N, orthonormalised) and the least-norm step J^+ b
(A^-1 J^T b with its flex part removed).  The new tangent is the projection
Q Q^T t, and Q is the next N.  An iterate that does not certify takes the
least-squares step.  The tracker decides a rank by SVD
(``analysis._rank_split``), with its null basis as the next N, only where
the certificate refuses: at a start whose null space has more than one
dimension, and at an accepted sample after a rank event.  A regular track
takes no SVD.

``track_to`` steers greedily toward a target state and switches branches
through special points when the straight tangent stalls; its failure is
evidence (not proof) that the endpoints are not 0-connected.
``compose_forest`` glues single-loop motions over shared crease angles when
the sharing structure of the loops is a forest.  Both correct without a
flex basis, so with least-squares steps only: they start from arbitrary
guesses.

``correct_batch`` is the multi-start corrector: least-norm Gauss-Newton on
a stack of states, each on its own, iterating only the states still active.
``singlevertex.explore_vertex`` is its one-loop case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import RANK_REL_TOL, _rank_split, _require_flex, jacobian
from .constraints import (RESIDUAL_TOL, ConstraintSystem, Loop, Residual, _linearise,
                          residual)
from .errors import (CorrectorDiverged, NonGenericIntersection, NotAFlex,
                     NotForest, NotOnVariety)

DEFAULT_STEP = math.pi / 200
CORRECTOR_TOL = 1e-11
MAX_CORRECTOR_ITER = 25
# factor by which a certified Jacobian keeps its rank from the SVD cutoff
ROW_MARGIN = 100.0
# max-norm distance from the target at which track_to has reached it
TARGET_TOL = 1e-6
# each side of a loop_flex_path, and the rows of a compose_forest path
LOOP_PATH_STEPS = 60
LOOP_PATH_STEP = DEFAULT_STEP * 4
FOREST_SAMPLES = 41


@dataclass
class FoldPath:
    samples: np.ndarray                    # (m, width)
    residuals: list[float]
    termination: str
    predictor_lengths: list[float] = field(default_factory=list)
    corrector_iterations: list[int] = field(default_factory=list)
    crease_indices: list[int] | None = None  # global variable ids per column

    def __len__(self):
        return len(self.samples)

    @property
    def success(self) -> bool:
        return self.termination in ("target-reached", "composed")

    def monotonicity(self) -> list[str]:
        """Per-crease flag: increasing / decreasing / constant / mixed."""
        out = []
        for col in range(self.samples.shape[1]):
            d = np.diff(self.samples[:, col])
            if np.all(np.abs(d) <= 1e-12):
                out.append("constant")
            elif np.all(d >= -1e-12):
                out.append("increasing")
            elif np.all(d <= 1e-12):
                out.append("decreasing")
            else:
                out.append("mixed")
        return out

    def max_step(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return float(np.abs(np.diff(self.samples, axis=0)).max())


@dataclass
class Correction:
    """Outcome of :func:`gauss_newton_correct`; unpacks as (rho, iterations,
    converged)."""
    rho: np.ndarray
    iterations: int
    converged: bool
    residual: Residual | None    # at rho; None after a step longer than 2 pi
    jacobian: np.ndarray | None  # at rho; None with the residual
    certified: bool              # every step came from the Gram factor of ``flex``

    def __iter__(self):
        return iter((self.rho, self.iterations, self.converged))


def gauss_newton_correct(system: ConstraintSystem, rho,
                         tol: float = CORRECTOR_TOL,
                         max_iter: int = MAX_CORRECTOR_ITER,
                         flex=None, rank_tol: float = RANK_REL_TOL) -> Correction:
    """Least-norm Gauss-Newton projection onto the variety.

    The system is usually under-determined, so the minimum-norm step keeps
    the corrected point close to the predictor.  With ``flex``, the
    orthonormal flexes of a nearby certified Jacobian, a step comes from the
    Gram factor of :func:`_flex_solve` wherever the iterate's Jacobian
    certifies; without them, or at an iterate that does not, it is the
    least-squares step.
    """
    rho = np.asarray(rho, dtype=float).copy()
    certified = flex is not None
    for it in range(max_iter + 1):
        res, J = _linearise(system, rho)
        if res.max_norm <= tol or it == max_iter:
            return Correction(rho, it, res.max_norm <= tol, res, J, certified)
        solved = None if flex is None else _flex_solve(J, flex, rank_tol, -res.vector)
        if solved is None:
            certified = False
            step, *_ = np.linalg.lstsq(J, -res.vector, rcond=1e-12)
        else:
            step = solved[1]
        if not np.all(np.isfinite(step)):
            return Correction(rho, it, False, res, J, certified)
        rho = rho + step
        if np.abs(step).max() > 2.0 * math.pi:
            return Correction(rho, it + 1, False, None, None, certified)


def correct_batch(system: ConstraintSystem, states,
                  max_iter: int = MAX_CORRECTOR_ITER) -> np.ndarray:
    """Least-norm Gauss-Newton on a stack of states (B, j), each on its own.

    Every iteration gathers the still-active states, reads their residual
    scalars r and Jacobians J from one batched :func:`chain_products` call
    per loop group, steps by J^T (J J^T + 1e-12 I)^-1 (-r) and scatters the
    results back.  A state stops once its step is at most 1e-13 or once it
    leaves the box |rho| < 2 pi.  States are independent: each comes out bit
    for bit as it would in a batch of one.  Returns the corrected stack;
    callers filter it by residual.
    """
    R = np.array(states, dtype=float)
    reg = 1e-12 * np.eye(system.residual_dim)
    live = np.arange(len(R))
    for _ in range(max_iter):
        if not len(live):
            break
        X = R[live]
        res, J = _linearise(system, X)
        lam = np.linalg.solve(J @ J.transpose(0, 2, 1) + reg, -res.vector[..., None])
        dx = (J.transpose(0, 2, 1) @ lam)[..., 0]
        X += dx
        R[live] = X
        live = live[(np.abs(dx).max(axis=1) > 1e-13)
                    & (np.abs(X).max(axis=1) < 2.0 * math.pi)]
    return R


def _flex_solve(J, N, rank_tol, b=None):
    """``(Q, x)``: orthonormal flexes Q of J and, given ``b``, the least-norm
    least-squares solution x = J^+ b; or None when J does not certify that
    its rank is j - d.  N (j x d, orthonormal) holds the flexes of a nearby
    certified Jacobian.

    With A = J^T J + N N^T, ``hi`` the Frobenius norm of J and ``lo`` its
    largest row norm, so that ``lo <= |J|_2 <= hi``, and M = ``ROW_MARGIN``,
    the certificate is
      - no drop: A - (M rank_tol hi)^2 I has a Cholesky factor, so
        |Jx| > M rank_tol hi |x| for x orthogonal to N, and
        sigma_(j-d)(J) > M rank_tol |J|_2 (Courant-Fischer);
      - no rise: Q, the orthonormalised A^-1 N, has |J Q|_F <= rank_tol lo / M,
        so sigma_(j-d+1)(J) <= rank_tol |J|_2 / M.  The bound holds for any
        orthonormal Q, so an inexact Q can only refuse.
    Then ``_rank_split`` finds rank j - d, with the margin M on both sides of
    its cutoff, and A^-1 N spans the null space of J: A v = N N^T v for every
    flex v.  The same solve gives A^-1 J^T b, which differs from J^+ b by a
    flex, so x is its part orthogonal to Q.  numpy has no triangular solve,
    so A^-1 is applied by ``np.linalg.solve``.  N N^T has eigenvalue 1, so
    with d > 0 no J with M rank_tol hi >= 1 certifies.  Where hi = 0 (J has
    no rows, or J = 0) the shift is zero, and a Cholesky factor of the
    singular N N^T proves nothing, so the call refuses unless d = j: J = 0
    has rank 0.
    """
    row_sq = np.einsum("ij,ij->i", J, J).tolist()
    hi = math.sqrt(sum(row_sq))
    lo = math.sqrt(max(row_sq, default=0.0))
    n, d = N.shape
    if hi == 0.0 and d < n:
        return None
    A = J.T @ J + N @ N.T
    shifted = A.copy()
    shifted.flat[::n + 1] -= (ROW_MARGIN * rank_tol * hi) ** 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    if b is None:
        Y = np.linalg.solve(A, N)
    else:
        rhs = np.empty((n, d + 1))
        rhs[:, :d] = N
        rhs[:, d] = J.T @ b
        Y = np.linalg.solve(A, rhs)
    Z = Y[:, :d]
    Q = Z / math.sqrt(np.vdot(Z, Z)) if d == 1 else np.linalg.qr(Z)[0]
    JQ = J @ Q
    if np.vdot(JQ, JQ) > (rank_tol * lo / ROW_MARGIN) ** 2:
        return None
    if b is None:
        return Q, None
    x = Y[:, d]
    return Q, x - Q @ (Q.T @ x)


def _certified_split(J, N, rank_tol):
    """``(rank, flexes)`` of J: from the Gram certificate on N where it
    holds (:func:`_flex_solve`), else from the SVD (``_rank_split``)."""
    solved = _flex_solve(J, N, rank_tol)
    if solved is None:
        return _rank_split(J, rank_tol)[:2]
    return J.shape[1] - N.shape[1], solved[0]


def track_flex(system: ConstraintSystem, rho0, direction, steps: int = 100,
               step_size: float = DEFAULT_STEP,
               residual_tol: float = RESIDUAL_TOL,
               corrector_tol: float = CORRECTOR_TOL,
               rank_tol: float = RANK_REL_TOL,
               collision_check=None) -> FoldPath:
    """Continuation from ``rho0`` along a first-order flex.

    ``direction`` is a flex when |J d|max <= ``analysis.FLEX_TOL`` |d|_2.
    The rank at the start and at each accepted sample comes from the Gram
    certificate on the last flexes, at the start the direction itself; only
    where it refuses does the tracker take an SVD.

    Terminates on the step budget, on any folding angle reaching +-pi, on a
    rank drop (branch point), on loss of the tangent, or -- when a
    ``collision_check(rho) -> bool`` is supplied -- on the first crossing
    sample, which is not emitted.  Raises :class:`NotOnVariety`,
    :class:`NotAFlex` or :class:`CorrectorDiverged`.
    """
    rho = np.asarray(rho0, dtype=float).copy()
    res0, J = _linearise(system, rho)
    if not res0.satisfied(residual_tol):
        raise NotOnVariety(f"start residual {res0.max_norm:.3e}")
    direction = np.asarray(direction, dtype=float).copy()
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        raise NotAFlex("zero direction")
    direction /= nrm
    _require_flex(J, direction, "direction")

    samples = [rho.copy()]
    residuals = [res0.max_norm]
    pred_lengths: list[float] = []
    corr_iters: list[int] = []
    tangent = direction
    max_rank_seen, flex = _certified_split(J, direction[:, None], rank_tol)
    termination = "steps"

    for _ in range(steps):
        h = step_size
        accepted = None
        while h >= step_size / 64.0:
            c = gauss_newton_correct(system, rho + h * tangent, corrector_tol,
                                     flex=flex, rank_tol=rank_tol)
            if (c.converged and c.residual.max_norm <= residual_tol
                    and float(np.abs(c.rho - rho).max()) <= 3.0 * h):
                # the continuity bound rejects correctors that jumped branches
                accepted = c
                break
            h *= 0.5
        if accepted is None:
            err = CorrectorDiverged(
                f"corrector failed after step halving at sample {len(samples)}")
            err.path = FoldPath(np.array(samples), residuals, "corrector-diverged",
                                pred_lengths, corr_iters)
            raise err
        cand, J = accepted.rho, accepted.jacobian
        if float(np.abs(cand).max()) >= math.pi - 1e-12:
            termination = "angle-bound"
        else:
            rank_here, flex = _certified_split(J, flex, rank_tol)
            if rank_here < max_rank_seen:
                termination = "branch-point"
            elif collision_check is not None and collision_check(cand):
                termination = "collision"
                break
            max_rank_seen = max(max_rank_seen, rank_here)

        samples.append(cand)
        residuals.append(accepted.residual.max_norm)
        pred_lengths.append(h)
        corr_iters.append(accepted.iterations)
        if termination != "steps":
            break
        new_tan = flex @ (flex.T @ tangent)
        nrm = math.sqrt(new_tan @ new_tan)
        if nrm < 1e-9:
            termination = "flex-lost"
            break
        tangent = new_tan / nrm
        rho = cand

    return FoldPath(np.array(samples), residuals, termination,
                    pred_lengths, corr_iters)


def track_to(system: ConstraintSystem, rho_start, rho_target,
             max_steps: int = 20000) -> FoldPath:
    """Greedy continuation steering the tangent toward a target state.

    Both endpoints must be on the variety.  Success means the terminal
    sample lies within ``TARGET_TOL`` of the target in max-norm; failure
    (termination "stalled") is evidence, not proof, that the states are not
    0-connected.  Branch switches through special points are attempted by
    re-projecting short hops toward the target when progress stops.
    """
    rho = np.asarray(rho_start, dtype=float).copy()
    target = np.asarray(rho_target, dtype=float)
    start, J = _linearise(system, rho)
    for name, r in (("start", start), ("target", residual(system, target))):
        if not r.satisfied():
            raise NotOnVariety(f"{name} residual {r.max_norm:.3e}")

    samples = [rho.copy()]
    residuals = [start.max_norm]
    termination = "stalled"
    best_dist = float(np.linalg.norm(rho - target))
    no_progress = 0
    basis = None  # the flexes at rho, decomposed again only after rho moves

    for _ in range(max_steps):
        diff = target - rho
        if float(np.abs(diff).max()) <= TARGET_TOL:
            termination = "target-reached"
            break

        if basis is None:
            _, basis, _ = _rank_split(J)
        proj = basis @ (basis.T @ diff)
        pnorm = float(np.linalg.norm(proj))
        moved = False
        if pnorm > 1e-9:
            u = proj / pnorm
            h = min(DEFAULT_STEP, float(np.linalg.norm(diff)))
            while h >= DEFAULT_STEP / 64.0:
                c = gauss_newton_correct(system, rho + h * u)
                if (c.converged and c.residual.max_norm <= RESIDUAL_TOL
                        and float(np.abs(c.rho).max()) <= math.pi + 1e-9):
                    rho, J, basis = c.rho, c.jacobian, None
                    samples.append(rho.copy())
                    residuals.append(c.residual.max_norm)
                    moved = True
                    break
                h *= 0.5

        new_dist = float(np.linalg.norm(rho - target))
        if moved and new_dist < best_dist - 1e-12:
            best_dist = new_dist
            no_progress = 0
            continue
        no_progress += 1

        if no_progress >= 12:
            hopped = _hop_toward(system, rho, target, best_dist)
            if hopped is None:
                break
            rho, J, basis = hopped.rho, hopped.jacobian, None
            samples.append(rho.copy())
            residuals.append(hopped.residual.max_norm)
            best_dist = float(np.linalg.norm(rho - target))
            no_progress = 0

    return FoldPath(np.array(samples), residuals, termination)


def _hop_toward(system, rho, target, best_dist):
    """Short re-projected hops across a special point toward the target:
    the :class:`Correction` of the first that gets closer, or None."""
    diff = target - rho
    nrm = float(np.linalg.norm(diff))
    if nrm == 0.0:
        return None
    u = diff / nrm
    for scale in (1.0, 0.5, 2.0, 0.25, 4.0):
        h = min(DEFAULT_STEP * scale, nrm)
        c = gauss_newton_correct(system, rho + h * u)
        if not c.converged or c.residual.max_norm > RESIDUAL_TOL:
            continue
        if float(np.abs(c.rho).max()) > math.pi + 1e-9:
            continue
        if float(np.linalg.norm(c.rho - target)) < best_dist - 1e-10:
            return c
    return None


# -- single-loop restrictions and forest composition -------------------------

def single_loop_system(system: ConstraintSystem, loop_index: int):
    """Restriction of the system to one loop, with its variable map."""
    loop = system.loops[loop_index]
    var_ids = sorted(set(loop.vars))
    local = {g: k for k, g in enumerate(var_ids)}
    sub = Loop(kind=loop.kind, vars=[local[g] for g in loop.vars],
               betas=loop.betas.copy(), offsets=loop.offsets.copy(),
               label=loop.label)
    return ConstraintSystem(n_vars=len(var_ids), loops=[sub]), var_ids


def loop_flex_path(system: ConstraintSystem, rho, loop_index: int,
                   prefer_var: int | None = None) -> FoldPath:
    """Two-sided flex path of one loop's restriction through the base state.

    The flex direction is chosen to move ``prefer_var`` (a global variable
    index, typically a shared crease) as much as possible.  Samples span the
    loop's own variables; ``crease_indices`` records their global ids.
    """
    sub, var_ids = single_loop_system(system, loop_index)
    base = np.asarray(rho, dtype=float)[var_ids]
    _, basis, _ = _rank_split(jacobian(sub, base))
    if basis.shape[1] == 0:
        return FoldPath(np.array([base]), [residual(sub, base).max_norm],
                        "rigid", crease_indices=var_ids)
    if prefer_var is not None and prefer_var in var_ids:
        row = var_ids.index(prefer_var)
        weights = basis[row, :]
        if np.abs(weights).max() < 1e-12:
            direction = basis[:, 0]
        else:
            direction = basis @ weights
    else:
        direction = basis[:, 0]
    direction = direction / np.linalg.norm(direction)

    fwd = track_flex(sub, base, direction, steps=LOOP_PATH_STEPS,
                     step_size=LOOP_PATH_STEP)
    back = track_flex(sub, base, -direction, steps=LOOP_PATH_STEPS,
                      step_size=LOOP_PATH_STEP)
    merged = np.vstack([back.samples[::-1], fwd.samples[1:]])
    resid = back.residuals[::-1] + fwd.residuals[1:]
    return FoldPath(merged, resid, "two-sided", crease_indices=var_ids)


def _sharing_forest(system: ConstraintSystem):
    """Edges of the loop-sharing multigraph; NotForest on any cycle.

    Two loops sharing more than one crease already close a cycle through the
    shared panels, so multi-edges are rejected along with genuine cycles.
    """
    n = len(system.loops)
    var_sets = [set(lp.vars) for lp in system.loops]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            shared = sorted(var_sets[a] & var_sets[b])
            if not shared:
                continue
            if len(shared) > 1:
                raise NotForest(
                    f"loops {a} and {b} share {len(shared)} creases")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise NotForest(f"loop sharing graph has a cycle through loops "
                                f"{a} and {b}")
            parent[ra] = rb
            edges.append((a, b, shared[0]))
    return edges


def _monotone_window(values: np.ndarray, center: int):
    """Largest strictly monotone index window of ``values`` containing center."""
    lo = hi = center
    if len(values) < 2:
        return lo, hi
    inc = None
    while hi + 1 < len(values):
        d = values[hi + 1] - values[hi]
        if abs(d) < 1e-15:
            break
        s = d > 0
        if inc is None:
            inc = s
        if s != inc:
            break
        hi += 1
    while lo - 1 >= 0:
        d = values[lo] - values[lo - 1]
        if abs(d) < 1e-15:
            break
        s = d > 0
        if inc is None:
            inc = s
        if s != inc:
            break
        lo -= 1
    return lo, hi


def compose_forest(system: ConstraintSystem, rho,
                   per_loop_paths: dict[int, FoldPath]) -> FoldPath:
    """Glue single-loop motions into a global path through ``rho``.

    Requires the loop-sharing structure to be a forest (else
    :class:`NotForest`).  Neighbouring paths are re-parameterized by their
    shared crease angle over the intersection of attainable ranges; an
    intersection that degenerates to a single point raises
    :class:`NonGenericIntersection` rather than guessing.  Loops without a
    supplied path are held fixed at their ``rho`` restriction.
    """
    rho = np.asarray(rho, dtype=float)
    edges = _sharing_forest(system)  # structural check first
    base_res = residual(system, rho)
    if not base_res.satisfied():
        raise NotOnVariety(f"base residual {base_res.max_norm:.3e}")

    n_loops = len(system.loops)
    paths: dict[int, FoldPath] = {}
    for k in range(n_loops):
        if k in per_loop_paths:
            paths[k] = per_loop_paths[k]
        else:
            _, var_ids = single_loop_system(system, k)
            paths[k] = FoldPath(np.array([rho[var_ids]]), [0.0], "rigid",
                                crease_indices=var_ids)

    # master grid rows; every loop contributes an angle track per row, and
    # rows whose shared angle leaves a child's attainable range are dropped
    composed = np.tile(rho, (FOREST_SAMPLES, 1))
    valid = np.ones(FOREST_SAMPLES, dtype=bool)
    placed: set[int] = set()
    adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(n_loops)}
    for a, b, shared in edges:
        adj[a].append((b, shared))
        adj[b].append((a, shared))

    for root in range(n_loops):
        if root in placed:
            continue
        _place_root(composed, paths[root], rho)
        placed.add(root)
        stack = [root]
        while stack:
            a = stack.pop()
            for b, shared in adj[a]:
                if b in placed:
                    continue
                _glue_child(composed, valid, paths[b], rho, shared)
                placed.add(b)
                stack.append(b)

    kept = composed[valid]
    if len(kept) < 2:
        raise NonGenericIntersection(
            "shared-angle ranges intersect in at most one point")
    polished = []
    residuals = []
    for row in kept:
        c = gauss_newton_correct(system, row)
        if not c.converged or not c.residual.satisfied():
            raise CorrectorDiverged("composed sample failed to polish")
        polished.append(c.rho)
        residuals.append(c.residual.max_norm)
    return FoldPath(np.array(polished), residuals, "composed")


def _monotone_track(path: FoldPath, base_sub: np.ndarray, col: int):
    """Monotone stretch of the path's ``col`` angle around the base state."""
    d = np.abs(path.samples - base_sub).max(axis=1)
    center = int(np.argmin(d))
    lo, hi = _monotone_window(path.samples[:, col], center)
    return path.samples[lo:hi + 1]


def _place_root(composed, path: FoldPath, rho):
    """Resample a root path evenly over the master grid rows."""
    var_ids = path.crease_indices
    m = len(path.samples)
    if m == 1:
        composed[:, var_ids] = path.samples[0]
        return
    src = np.linspace(0, m - 1, len(composed))
    for k, g in enumerate(var_ids):
        composed[:, g] = np.interp(src, np.arange(m), path.samples[:, k])


def _glue_child(composed, valid, path: FoldPath, rho, shared_var):
    """Re-parameterize a child path by the shared angle already in place."""
    var_ids = path.crease_indices
    if shared_var not in var_ids:
        raise NotForest("child path does not cover the shared crease")
    col = var_ids.index(shared_var)
    base_sub = np.asarray(rho, dtype=float)[var_ids]
    track = _monotone_track(path, base_sub, col)
    svals = track[:, col]
    if len(svals) < 2 or abs(svals[-1] - svals[0]) < 1e-12:
        raise NonGenericIntersection(
            f"shared-angle range of crease {shared_var} degenerates to a point")
    order = np.argsort(svals)
    svals_sorted = svals[order]
    track_sorted = track[order]
    want = composed[:, shared_var]
    in_range = (want >= svals_sorted[0] - 1e-12) & (want <= svals_sorted[-1] + 1e-12)
    valid &= in_range
    for k, g in enumerate(var_ids):
        if g == shared_var:
            continue
        composed[:, g] = np.interp(np.clip(want, svals_sorted[0], svals_sorted[-1]),
                                   svals_sorted, track_sorted[:, k])
