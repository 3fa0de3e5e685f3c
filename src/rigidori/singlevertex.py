"""Closed-form configuration spaces of small single creased papers.

Degree-3 vertices reduce to spherical triangles: the folding angles are
supplements of the triangle's interior angles, which pins each cos(rho)
as a rational expression in the sector cosines.  Degree-1 and degree-2
loops have explicit case lists (vertex and hole variants).  Higher degrees
get a classification by sector-angle shape plus a numeric sweep fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import RESIDUAL_TOL, loop_deviation, system_from_loops, vertex_loop
from .errors import BadAngles, NoCase, NotDegree3
from .model import TWO_PI
from .tracking import correct_batch

ANGLE_TOL = 1e-9
SOLUTION_RESIDUAL_TOL = 1e-10
# corrector iterations of each explore_vertex start
EXPLORE_MAX_ITER = 40


@dataclass
class EqualPairFamily:
    """One-parameter branch: the paired angles share a value, the rest are 0."""

    pair: tuple[int, int]
    zeros: tuple[int, ...]
    n: int

    def point(self, t: float) -> np.ndarray:
        rho = np.zeros(self.n)
        rho[self.pair[0]] = rho[self.pair[1]] = t
        return rho

    def distance(self, rho) -> float:
        rho = np.asarray(rho, dtype=float)
        t = float(np.clip(0.5 * (rho[self.pair[0]] + rho[self.pair[1]]),
                          -math.pi, math.pi))
        return float(np.abs(rho - self.point(t)).max())


@dataclass
class VertexSolutionSet:
    """Solution set of one loop: isolated points plus equal-pair families."""

    n: int
    points: list[np.ndarray] = field(default_factory=list)
    families: list[EqualPairFamily] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.points and not self.families

    def distance(self, rho) -> float:
        rho = np.asarray(rho, dtype=float)
        best = math.inf
        for p in self.points:
            best = min(best, float(np.abs(rho - p).max()))
        for f in self.families:
            best = min(best, f.distance(rho))
        return best


def _check_alphas(alphas, n_expected=None):
    alphas = np.asarray(alphas, dtype=float)
    n = len(alphas)
    if n_expected is not None and n != n_expected:
        raise NotDegree3(f"expected {n_expected} sector angles, got {n}")
    if n == 1:
        if abs(alphas[0] - TWO_PI) > ANGLE_TOL:
            raise BadAngles("a degree-1 vertex must have sector angle 2*pi")
        return alphas
    if np.any(alphas <= 0.0) or np.any(alphas >= TWO_PI):
        raise BadAngles("sector angles must lie in (0, 2*pi)")
    return alphas


def solve_degree3(alphas) -> VertexSolutionSet:
    """Full solution set of a degree-3 single-vertex loop.

    Cases: one sector angle equal to pi gives (when the other two are
    supplementary) a one-parameter family folding the collinear crease pair
    together; the exact developable triple gives only the flat point; the
    generic case gives a +- pair of isolated solutions with

        cos rho_1 = (cos a_1 cos a_2 - cos a_3) / (sin a_1 sin a_2)

    and cyclic permutations, empty when no spherical triangle exists.  Signs
    are resolved by checking the loop residual of each candidate.
    """
    alphas = _check_alphas(alphas, 3)
    sol = VertexSolutionSet(n=3)

    flat_idx = [m for m in range(3) if abs(alphas[m] - math.pi) <= ANGLE_TOL]
    if flat_idx:
        for m in flat_idx:
            j, k = [x for x in range(3) if x != m]
            if abs(alphas[j] + alphas[k] - math.pi) <= ANGLE_TOL:
                # creases bounding the flat sector fold together
                pair = ((m - 1) % 3, m)
                zero = tuple(x for x in range(3) if x not in pair)
                sol.families.append(EqualPairFamily(pair=pair, zeros=zero, n=3))
        return sol

    if abs(float(np.sum(alphas)) - TWO_PI) <= ANGLE_TOL:
        sol.points.append(np.zeros(3))
        return sol

    c = np.cos(alphas)
    s = np.sin(alphas)
    cos_rho = np.array([
        (c[0] * c[1] - c[2]) / (s[0] * s[1]),
        (c[1] * c[2] - c[0]) / (s[1] * s[2]),
        (c[2] * c[0] - c[1]) / (s[2] * s[0]),
    ])
    if np.any(np.abs(cos_rho) > 1.0 + 1e-12):
        return sol  # no spherical triangle: empty configuration space
    mag = np.arccos(np.clip(cos_rho, -1.0, 1.0))
    cands = mag * np.array([[s1, s2, s3] for s1 in (1, -1) for s2 in (1, -1)
                            for s3 in (1, -1)], dtype=float)
    dev = loop_deviation(vertex_loop(alphas, range(3)).transform(cands), "vertex")
    seen = []
    for cand in cands[dev <= SOLUTION_RESIDUAL_TOL]:
        if any(np.abs(cand - p).max() < 1e-9 for p in seen):
            continue
        seen.append(cand)
    sol.points = seen
    return sol


@dataclass
class Degree12Result:
    degree: int
    variant: str                 # "vertex" or "hole"
    cases: list[str]             # applicable case labels
    solutions: VertexSolutionSet


def solve_degree_1_2(betas, offsets=None) -> Degree12Result:
    """Degree-1/2 loop cases, vertex or hole variant.

    ``betas`` are the loop's in-plane rotations (for a vertex these are the
    sector angles); ``offsets`` the per-crossing (a, b) origin shifts, zero
    or omitted for a vertex.  Raises :class:`NoCase` when no case condition
    holds, meaning the loop's solution set is empty.
    """
    betas = np.asarray(betas, dtype=float)
    n = len(betas)
    if offsets is None:
        offsets = np.zeros((n, 2))
    offsets = np.asarray(offsets, dtype=float)
    variant = "vertex" if np.abs(offsets).max() == 0.0 else "hole"

    if n == 1:
        if abs(betas[0] - TWO_PI) > ANGLE_TOL or np.abs(offsets).max() > ANGLE_TOL:
            raise NoCase("a degree-1 loop needs beta = 2*pi and zero offsets")
        sol = VertexSolutionSet(n=1, points=[np.zeros(1)])
        return Degree12Result(1, variant, ["zero"], sol)
    if n != 2:
        raise NoCase(f"closed forms cover degrees 1 and 2, got {n}")

    b1, b2 = betas
    (a1, o1), (a2, o2) = offsets  # (a_j, b_j) per crossing
    sol = VertexSolutionSet(n=2)
    cases = []

    if (abs(b1 - math.pi) <= ANGLE_TOL and abs(b2 - math.pi) <= ANGLE_TOL
            and abs(a1 - a2) <= ANGLE_TOL and abs(o1) <= ANGLE_TOL
            and abs(o2) <= ANGLE_TOL):
        cases.append("family")
        sol.families.append(EqualPairFamily(pair=(0, 1), zeros=(), n=2))

    cb, sb = math.cos(b1), math.sin(b1)
    if (abs(b1 + b2 - TWO_PI) <= ANGLE_TOL
            and abs(a1 + a2 * cb - o2 * sb) <= ANGLE_TOL
            and abs(o1 + a2 * sb + o2 * cb) <= ANGLE_TOL):
        cases.append("zero")
        sol.points.append(np.zeros(2))

    if (abs(b1 - b2) <= ANGLE_TOL
            and abs(a1 + a2 * cb + o2 * sb) <= ANGLE_TOL
            and abs(o1 + a2 * sb - o2 * cb) <= ANGLE_TOL):
        cases.append("flat")
        flat = np.array([math.pi, math.pi])
        if not any(np.abs(p - flat).max() < 1e-12 for p in sol.points):
            sol.points.extend([flat, -flat])

    if not cases:
        raise NoCase("no degree-2 case condition holds; empty solution set")
    return Degree12Result(2, variant, cases, sol)


# -- classification of degree-n single vertices ------------------------------

COLLINEAR_PAIR = "collinearPair"
SUM_LESS = "sumLessThan2Pi"
DEVELOPABLE_CONVEX = "developableConvex"
GENERAL = "general"


@dataclass
class SingleVertexCase:
    degree: int
    alphas: np.ndarray
    tag: str
    detail: dict
    solutions: VertexSolutionSet | None = None


def _collinear_pairs(alphas) -> list[tuple[int, int]]:
    """Crease pairs separated by a contiguous sector sum of exactly pi."""
    n = len(alphas)
    pairs = set()
    for p in range(n):
        acc = 0.0
        for step in range(1, n):
            q = (p + step) % n
            acc += alphas[q]
            if abs(acc - math.pi) <= ANGLE_TOL:
                pairs.add(tuple(sorted((p, q))))
    return sorted(pairs)


def classify_vertex(alphas) -> SingleVertexCase:
    """Shape classification of a degree-n (n >= 3) single-vertex loop.

    Tags are mutually exclusive: a developable vertex with all sectors
    convex is tagged ``developableConvex`` even when it contains collinear
    pairs (the cross); ``collinearPair`` covers the remaining collinear
    geometries; ``sumLessThan2Pi`` the pointed cones; everything else is
    ``general`` with no closed-form result.
    """
    alphas = np.asarray(alphas, dtype=float)
    n = len(alphas)
    if n < 3:
        raise BadAngles("classification needs degree >= 3; use solve_degree_1_2")
    _check_alphas(alphas)
    total = float(np.sum(alphas))
    pairs = _collinear_pairs(alphas)
    solutions = solve_degree3(alphas) if n == 3 else None

    if total < TWO_PI - ANGLE_TOL:
        detail = {
            "sum": total,
            # one sector equal to the sum of all others collapses the cone
            # to two isolated mirror configurations
            "isolated_pair": bool(abs(2.0 * float(np.max(alphas)) - total) <= ANGLE_TOL),
            "components": "two disjoint components symmetric to 0 (or a +- point pair)",
        }
        return SingleVertexCase(n, alphas, SUM_LESS, detail, solutions)

    if abs(total - TWO_PI) <= ANGLE_TOL and bool(np.all(alphas < math.pi - ANGLE_TOL)):
        is_cross = (n == 4
                    and abs(alphas[0] + alphas[1] - math.pi) <= ANGLE_TOL
                    and abs(alphas[0] - alphas[2]) <= ANGLE_TOL)
        detail = {
            "sum": total,
            "flexible": n >= 4,
            "is_cross": is_cross,
            "has_all_nonzero_branches": n >= 4 and not is_cross,
            "collinear_pairs": pairs,
        }
        return SingleVertexCase(n, alphas, DEVELOPABLE_CONVEX, detail, solutions)

    if pairs:
        detail = {
            "sum": total,
            "pairs": pairs,
            "branch": "rho_i = rho_j subspace per pair"
                      + (", other angles 0" if abs(total - TWO_PI) <= ANGLE_TOL else ""),
        }
        return SingleVertexCase(n, alphas, COLLINEAR_PAIR, detail, solutions)

    return SingleVertexCase(n, alphas, GENERAL,
                            {"sum": total, "note": "no closed-form result"},
                            solutions)


# -- numeric exploration ------------------------------------------------------

def explore_vertex(alphas, grid_step: float = math.pi / 50) -> list[np.ndarray]:
    """Grid-seeded Gauss-Newton search for all loop solutions.

    The first folding angle is swept over a grid and, together with a few start
    templates for the remaining angles, seeds a least-norm Gauss-Newton
    solve over all n angles at once; fixing the swept angle would miss
    isolated solutions lying between grid values.  The solve is the
    one-loop case of :func:`tracking.correct_batch`, which iterates only the
    starts that are still active.  Returns every converged in-range solution
    in start order (duplicates included; callers cluster as needed).
    This is the numeric fallback for degrees with no closed form and an
    independent check of the degree-3 solver, not a proof of completeness:
    the grid seeds can miss whole arcs, such as the regular arc of the
    degree-4 vertex (1.0, 1.3, 1.9, 2 pi - 4.2) from the face rho_1 = -pi to
    rho_4 = -pi, which no returned root comes within 2.57 of.
    """
    alphas = np.asarray(alphas, dtype=float)
    n = len(alphas)
    grid = np.arange(-math.pi, math.pi + grid_step / 2, grid_step)
    G = len(grid)

    starts = [np.zeros(n), np.full(n, 1.5), np.full(n, -1.5)]
    R = np.vstack([np.tile(x0, (G, 1)) for x0 in starts])
    R[:, 0] = np.tile(grid, len(starts))
    loop = vertex_loop(alphas, range(n))
    R = correct_batch(system_from_loops([loop], n), R, EXPLORE_MAX_ITER)
    dev = loop_deviation(loop.transform(R), "vertex")
    ok = (dev <= RESIDUAL_TOL) & (np.abs(R).max(axis=1) <= math.pi + 1e-9)
    return list(R[ok])
