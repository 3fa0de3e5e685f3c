"""``track_flex`` with its certified Gram factor against a per-sample-SVD tracker.

``reference_track`` below is the tracker without a certificate: one SVD of
the Jacobian at every accepted sample for the rank and the tangent, and a
least-squares (``lstsq``) step at every corrector iterate.  It is kept here
as the oracle.
"""

import math

import numpy as np
import pytest

from rigidori import (build_system, classify, gauss_newton_correct, patterns,
                      residual, track_flex)
from rigidori.analysis import RANK_REL_TOL, _rank_split, jacobian
from rigidori.constraints import RESIDUAL_TOL
from rigidori.errors import CorrectorDiverged
from rigidori.tracking import (CORRECTOR_TOL, DEFAULT_STEP, MAX_CORRECTOR_ITER,
                               ROW_MARGIN, _flex_solve)


# -- per-sample-SVD oracle ---------------------------------------------------

def _lstsq_correct(system, rho, tol):
    rho = np.asarray(rho, dtype=float).copy()
    for it in range(MAX_CORRECTOR_ITER):
        res = residual(system, rho)
        if res.max_norm <= tol:
            return rho, it, True, res
        J = jacobian(system, rho)
        step, *_ = np.linalg.lstsq(J, -res.vector, rcond=1e-12)
        if not np.all(np.isfinite(step)):
            return rho, it, False, res
        rho = rho + step
        if np.abs(step).max() > 2.0 * math.pi:
            return rho, it + 1, False, None
    res = residual(system, rho)
    return rho, MAX_CORRECTOR_ITER, res.max_norm <= tol, res


def reference_track(system, rho0, direction, steps=100, step_size=DEFAULT_STEP,
                    residual_tol=RESIDUAL_TOL, corrector_tol=CORRECTOR_TOL,
                    rank_tol=RANK_REL_TOL):
    """(samples, residuals, termination, predictor lengths, corrector
    iterations); termination "corrector-diverged" where track_flex raises."""
    rho = np.asarray(rho0, dtype=float).copy()
    tangent = np.asarray(direction, dtype=float)
    tangent = tangent / np.linalg.norm(tangent)
    samples, residuals = [rho.copy()], [residual(system, rho).max_norm]
    lengths, iters_seen = [], []
    max_rank = _rank_split(jacobian(system, rho), rank_tol)[0]
    for _ in range(steps):
        h = step_size
        accepted = None
        while h >= step_size / 64.0:
            cand, iters, ok, res = _lstsq_correct(system, rho + h * tangent,
                                                  corrector_tol)
            if (ok and res.max_norm <= residual_tol
                    and float(np.abs(cand - rho).max()) <= 3.0 * h):
                accepted = (cand, iters, h, res.max_norm)
                break
            h *= 0.5
        if accepted is None:
            return samples, residuals, "corrector-diverged", lengths, iters_seen
        cand, iters, h, norm = accepted
        if float(np.abs(cand).max()) >= math.pi - 1e-12:
            samples.append(cand), residuals.append(norm)
            lengths.append(h), iters_seen.append(iters)
            return samples, residuals, "angle-bound", lengths, iters_seen
        rank, basis, _ = _rank_split(jacobian(system, cand), rank_tol)
        samples.append(cand), residuals.append(norm)
        lengths.append(h), iters_seen.append(iters)
        if rank < max_rank:
            return samples, residuals, "branch-point", lengths, iters_seen
        max_rank = max(max_rank, rank)
        new_tan = basis @ (basis.T @ tangent)
        nrm = np.linalg.norm(new_tan)
        if nrm < 1e-9:
            return samples, residuals, "flex-lost", lengths, iters_seen
        tangent = new_tan / nrm
        rho = cand
    return samples, residuals, "steps", lengths, iters_seen


# -- inputs --------------------------------------------------------------------

def miura_state(n, scale=1.0):
    """A regular 1-DOF state on the Miura mode of ``sheared_grid(n, n)``:
    horizontal creases at 0.4 and zigzag creases at +-0.8 by column, scaled
    and projected by Gauss-Newton.  Returns (system, rho, flex)."""
    pat = patterns.sheared_grid(n, n, shear=0.3)
    guess = np.zeros(pat.n_vars)
    for k, ci in enumerate(pat.inner_creases):
        c = pat.creases[ci]
        if pat.vertices[c.u][1] == pat.vertices[c.v][1]:
            guess[k] = 0.4
        else:
            guess[k] = 0.8 if (c.u % (n + 1)) % 2 else -0.8
    system = build_system(pat)
    rho, _, ok = gauss_newton_correct(system, scale * guess, max_iter=50)
    report = classify(system, rho)
    assert ok and report.deg == 1
    return system, rho, report.flex_basis[:, 0]


def flat_start(name):
    pat = getattr(patterns, name)()
    system = build_system(pat)
    rho = np.zeros(pat.n_vars)
    return system, rho, classify(system, rho).flex_basis[:, 0]


def _cross():
    return build_system(patterns.cross_vertex())


TRACKS = {
    # the rank rises from 2 to 3 at the first step
    "cross-flat": lambda: (_cross(), np.zeros(4), np.array([0.0, 1, 0, 1]), {}),
    # ends at a branch point at sample 19
    "cross-rank-tol": lambda: (_cross(), np.array([0.4, 0, 0.4, 0]),
                               np.array([-1.0, 0, -1, 0]), {"rank_tol": 0.1}),
    "square_ring": lambda: (*flat_start("square_ring"), {}),
    "pentagon_ring": lambda: (*flat_start("pentagon_ring"), {}),
    "hexagon_fan": lambda: (*flat_start("hexagon_fan"), {}),
    "miura_3x3": lambda: (*flat_start("miura_3x3"), {}),
    "miura6": lambda: (*miura_state(6), {}),
}


@pytest.mark.parametrize("name", sorted(TRACKS))
def test_track_matches_per_sample_svd_reference(name):
    system, rho, direction, kwargs = TRACKS[name]()
    want = reference_track(system, rho, direction, steps=100, **kwargs)
    try:
        path = track_flex(system, rho, direction, steps=100, **kwargs)
    except CorrectorDiverged as exc:
        path = exc.path
    assert path.termination == want[2]
    assert len(path.samples) == len(want[0])
    assert np.abs(path.samples - np.array(want[0])).max() <= 1e-9
    assert path.predictor_lengths == want[3]
    assert path.corrector_iterations == want[4]
    if name == "cross-rank-tol":
        assert (path.termination, len(path)) == ("branch-point", 19)


def test_regular_miura_track_takes_one_svd_and_no_lstsq(monkeypatch):
    system, rho, flex = miura_state(8)
    calls = {"svd": 0, "lstsq": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    path = track_flex(system, rho, flex, steps=30)
    assert path.termination == "steps" and len(path) == 31
    assert calls == {"svd": 1, "lstsq": 0}


# -- the certificate -------------------------------------------------------------

def _rank4_of_7(seed):
    """A 7 x 7 Jacobian of rank 4 (three rows are combinations of the others)
    and its SVD flexes (7 x 3)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 7))
    J = np.vstack([A, rng.normal(size=(3, 4)) @ A])
    rank, flex, _ = _rank_split(J)
    assert rank == 4
    return J, flex, rng


def _tilted(flex, rng):
    """An orthonormal basis about 1e-3 from ``flex``, as the flexes of a
    nearby Jacobian would be."""
    return np.linalg.qr(flex + 1e-3 * rng.normal(size=flex.shape))[0]


def test_flex_solve_is_the_least_norm_solution():
    J, flex, rng = _rank4_of_7(3)
    for N in (flex, _tilted(flex, rng)):
        for b in (J @ rng.normal(size=7),      # consistent right side
                  rng.normal(size=7)):         # inconsistent right side
            Q, x = _flex_solve(J, N, RANK_REL_TOL, b)
            want, *_ = np.linalg.lstsq(J, b, rcond=None)
            assert np.abs(x - want).max() <= 1e-12
            assert np.abs(Q @ Q.T - flex @ flex.T).max() <= 1e-12


def test_flex_solve_refuses_a_rank_rise():
    J, flex, rng = _rank4_of_7(4)
    bump = rng.normal(size=7)
    bump /= np.linalg.norm(bump)
    scale = np.linalg.norm(J, 2)
    for size, certified in ((1e-6, False),     # above the cutoff
                            (1e-9, False),     # below it, but within the margin
                            (1e-14, True)):    # below it by more than the margin
        raised = J.copy()
        raised[6] += size * scale * bump
        got = _flex_solve(raised, flex, RANK_REL_TOL, np.zeros(7))
        assert (got is not None) == certified, size


def test_flex_solve_refuses_a_rank_drop_near_the_cutoff():
    J = np.diag([1.0, 1.0, 1.0])
    none = np.zeros((3, 0))
    assert _flex_solve(J, none, RANK_REL_TOL, np.ones(3)) is not None
    # sigma_min ten times the cutoff: the SVD keeps the rank, but it lies
    # within the margin, so the SVD must decide
    J[2, 2] = 10 * RANK_REL_TOL
    assert _rank_split(J)[0] == 3
    assert _flex_solve(J, none, RANK_REL_TOL, np.ones(3)) is None
    J[2, 2] = 10 * ROW_MARGIN * RANK_REL_TOL
    assert _flex_solve(J, none, RANK_REL_TOL, np.ones(3)) is not None


def test_flex_solve_rank_zero_and_empty():
    every = np.eye(3)
    empty = np.zeros((0, 3))
    assert _flex_solve(empty, every, RANK_REL_TOL, np.zeros(0))[1].tolist() == [0, 0, 0]
    zero = np.zeros((2, 3))
    rank, flex, _ = _rank_split(zero)
    assert rank == 0 and flex.shape == (3, 3)
    assert _flex_solve(zero, every, RANK_REL_TOL, np.zeros(2))[1].tolist() == [0, 0, 0]
    assert _flex_solve(np.eye(2, 3), every, RANK_REL_TOL, np.zeros(2)) is None


@pytest.mark.parametrize("name", ["miura_3x3", "square_ring"])
def test_flex_solve_spans_several_flexes(name):
    system, rho, _ = flat_start(name)
    J = jacobian(system, rho)
    flex = _rank_split(J)[1]
    assert flex.shape[1] > 1
    rng = np.random.default_rng(5)
    t = rng.normal(size=len(rho))
    b = rng.normal(size=len(J))
    for N in (flex, _tilted(flex, rng)):
        Q, x = _flex_solve(J, N, RANK_REL_TOL, b)
        assert Q.shape == flex.shape
        assert np.abs(Q @ Q.T - flex @ flex.T).max() <= 1e-12
        assert np.abs(Q @ (Q.T @ t) - flex @ (flex.T @ t)).max() <= 1e-12
        want, *_ = np.linalg.lstsq(J, b, rcond=1e-12)
        assert np.abs(x - want).max() <= 1e-12
