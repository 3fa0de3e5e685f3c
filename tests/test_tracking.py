import math

import numpy as np
import pytest

from rigidori import (build_system, classify, compose_forest, correct_batch,
                      gauss_newton_correct, jacobian, loop_flex_path, residual,
                      single_loop_system, system_from_loops, track_flex,
                      track_to, vertex_loop)
from rigidori.errors import (NonGenericIntersection, NotAFlex, NotForest,
                             NotOnVariety)
from rigidori import patterns, tracking


def test_cross_branches_from_flat():
    sys4 = build_system(patterns.cross_vertex())
    up = track_flex(sys4, np.zeros(4), [0, 1, 0, 1], steps=100)
    assert len(up) == 101
    assert max(up.residuals) <= 1e-9
    assert np.abs(up.samples[:, [0, 2]]).max() < 1e-9
    diffs = np.diff(up.samples[:, 1])
    assert np.all(diffs > 0)
    assert np.abs(up.samples[:, 1] - up.samples[:, 3]).max() < 1e-9

    other = track_flex(sys4, np.zeros(4), [1, 0, 1, 0], steps=100)
    assert np.abs(other.samples[:, [1, 3]]).max() < 1e-9


def test_samples_independently_on_variety():
    sys4 = build_system(patterns.cross_vertex())
    path = track_flex(sys4, np.zeros(4), [0, 1, 0, 1], steps=40)
    for s in path.samples:
        assert residual(sys4, s).max_norm <= 1e-9
        assert np.abs(s).max() <= math.pi + 1e-12
    assert path.max_step() <= 2 * math.pi / 200 + 1e-12


def test_reversed_direction_gives_mirror_path():
    sys4 = build_system(patterns.cross_vertex())
    fwd = track_flex(sys4, np.zeros(4), [0, 1, 0, 1], steps=30)
    bwd = track_flex(sys4, np.zeros(4), [0, -1, 0, -1], steps=30)
    assert np.abs(fwd.samples + bwd.samples).max() < 1e-9


def test_angle_bound_termination():
    sys4 = build_system(patterns.cross_vertex())
    path = track_flex(sys4, np.zeros(4), [0, 1, 0, 1], steps=100000,
                      step_size=math.pi / 40)
    assert path.termination == "angle-bound"
    assert np.abs(path.samples[-1]).max() >= math.pi - 1e-9


def test_deg_constant_along_branch_except_flagged():
    sys4 = build_system(patterns.cross_vertex())
    start = np.array([0.5, 0.0, 0.5, 0.0])
    path = track_flex(sys4, start, [-1, 0, -1, 0], steps=80, step_size=0.02)
    degs = [classify(sys4, s).deg for s in path.samples]
    if path.termination == "branch-point":
        assert degs[-1] > degs[0]
        assert all(d == degs[0] for d in degs[:-1])
    else:
        assert all(d == degs[0] for d in degs)


def test_track_flex_guards():
    sys4 = build_system(patterns.cross_vertex())
    with pytest.raises(NotOnVariety):
        track_flex(sys4, np.array([0.4, 0.4, 0.0, 0.0]), [1, 0, 1, 0])
    with pytest.raises(NotAFlex):
        track_flex(sys4, np.zeros(4), [1, 1, 0, 0])
    cone = build_system(patterns.single_vertex_cone([math.pi / 2] * 3))
    with pytest.raises(NotAFlex):
        track_flex(cone, np.array([math.pi / 2] * 3), [1, 0, 0])


def test_monotonicity_flags():
    sys4 = build_system(patterns.cross_vertex())
    path = track_flex(sys4, np.zeros(4), [0, 1, 0, 1], steps=25)
    assert path.monotonicity() == ["constant", "increasing", "constant", "increasing"]


def test_collision_truncation():
    pat = patterns.three_squares()
    system = build_system(pat)
    from rigidori import check_state

    def crossing(rho):
        return check_state(pat, rho, system=system).verdict == "crossing"

    path = track_flex(system, np.zeros(2), [-1.0, -1.0], steps=120,
                      step_size=0.05, collision_check=crossing)
    assert path.termination == "collision"
    onset = 2 * math.pi / 3
    assert np.abs(path.samples[-1]).max() <= onset + 1e-6


def test_track_to_through_special_point():
    sys4 = build_system(patterns.cross_vertex())
    path = track_to(sys4, np.array([0.3, 0, 0.3, 0]), np.array([-0.3, 0, -0.3, 0]))
    assert path.success
    assert np.abs(path.samples[-1] - [-0.3, 0, -0.3, 0]).max() <= 1e-6


def test_track_to_switches_branch():
    sys4 = build_system(patterns.cross_vertex())
    path = track_to(sys4, np.array([0.3, 0, 0.3, 0]), np.array([0, 0.3, 0, 0.3]))
    assert path.success


def test_track_to_fails_at_lock():
    lock_sys, lock_rho = patterns.locked_two_vertex_system()
    fwd = track_to(lock_sys, lock_rho, -lock_rho, max_steps=2500)
    bwd = track_to(lock_sys, -lock_rho, lock_rho, max_steps=2500)
    assert not fwd.success and fwd.termination == "stalled"
    assert not bwd.success and bwd.termination == "stalled"


def test_single_loop_restriction():
    sysf = build_system(patterns.forest_two_vertices())
    sub, var_ids = single_loop_system(sysf, 0)
    assert sub.n_vars == len(var_ids) == 4
    assert residual(sub, np.zeros(4)).max_norm < 1e-12


def test_loop_flex_path_two_sided():
    sysf = build_system(patterns.forest_two_vertices())
    path = loop_flex_path(sysf, np.zeros(sysf.n_vars), 0, prefer_var=0)
    col = path.crease_indices.index(0)
    track = path.samples[:, col]
    assert track.min() < -0.5 and track.max() > 0.5
    base_rows = np.abs(path.samples).max(axis=1)
    assert base_rows.min() < 1e-9  # passes through the flat state


def test_compose_forest_through_flat():
    sysf = build_system(patterns.forest_two_vertices())
    rho0 = np.zeros(sysf.n_vars)
    paths = {k: loop_flex_path(sysf, rho0, k, prefer_var=0)
             for k in range(len(sysf.loops))}
    composed = compose_forest(sysf, rho0, paths)
    assert composed.termination == "composed"
    assert max(composed.residuals) <= 1e-9
    assert len(composed) >= 10
    # the composed motion actually folds the shared crease both ways
    assert composed.samples[:, 0].min() < -0.3
    assert composed.samples[:, 0].max() > 0.3
    # and passes through the base state
    assert np.abs(composed.samples).max(axis=1).min() < 1e-6


def test_compose_forest_rejects_cycle():
    lock_sys, lock_rho = patterns.locked_two_vertex_system()
    with pytest.raises(NotForest):
        compose_forest(lock_sys, lock_rho, {})


def test_compose_forest_rejects_double_share():
    loops = [vertex_loop([1.0, 1.0, 1.0, 2 * math.pi - 3.0], [0, 1, 2, 3]),
             vertex_loop([1.0, 1.0, 1.0, 2 * math.pi - 3.0], [0, 1, 4, 5])]
    system = system_from_loops(loops, 6)
    with pytest.raises(NotForest):
        compose_forest(system, np.zeros(6), {})


def test_compose_forest_flags_point_intersection():
    # two collinear-pair vertices sharing crease 0; one path is held constant
    # so the attainable shared ranges meet only at the base value
    al = [math.pi, math.pi / 3, 2 * math.pi / 3]
    loops = [vertex_loop(al, [0, 1, 2], label="a"),
             vertex_loop(al, [0, 3, 4], label="b")]
    system = system_from_loops(loops, 5)
    rho0 = np.zeros(5)
    paths = {0: loop_flex_path(system, rho0, 0, prefer_var=0)}
    with pytest.raises(NonGenericIntersection):
        compose_forest(system, rho0, paths)


def test_compose_forest_two_family_loops():
    al = [math.pi, math.pi / 3, 2 * math.pi / 3]
    loops = [vertex_loop(al, [0, 1, 2], label="a"),
             vertex_loop(al, [0, 3, 4], label="b")]
    system = system_from_loops(loops, 5)
    rho0 = np.zeros(5)
    paths = {k: loop_flex_path(system, rho0, k, prefer_var=0) for k in range(2)}
    composed = compose_forest(system, rho0, paths)
    assert composed.termination == "composed"
    assert max(composed.residuals) <= 1e-9


def test_compose_forest_three_loop_chain():
    # chain of three loops glued over two different shared creases; each loop
    # folds its collinear crease pair, so the composed motion moves all of
    # 0, 2, 5, 9 together while the middle angles stay flat
    al = [math.pi, math.pi / 3, 2 * math.pi / 3]
    loops = [vertex_loop(al, [0, 1, 2], label="a"),
             vertex_loop(al, [0, 7, 5], label="b"),   # pair (5, 0), zero 7
             vertex_loop(al, [5, 8, 9], label="c")]   # pair (9, 5), zero 8
    system = system_from_loops(loops, 10)
    rho0 = np.zeros(10)
    paths = {0: loop_flex_path(system, rho0, 0, prefer_var=0),
             1: loop_flex_path(system, rho0, 1, prefer_var=0),
             2: loop_flex_path(system, rho0, 2, prefer_var=5)}
    composed = compose_forest(system, rho0, paths)
    assert composed.termination == "composed"
    assert max(composed.residuals) <= 1e-9
    spread = composed.samples[:, 0]
    assert spread.max() - spread.min() > 0.5
    for moving in (2, 5, 9):
        assert np.abs(composed.samples[:, moving] - spread).max() < 1e-8
    for frozen in (1, 7, 8):
        assert np.abs(composed.samples[:, frozen]).max() < 1e-8


def test_track_flex_stops_when_ring_flex_is_blocked():
    # the twisted pentagonal ring is first-order flexible at flat but its
    # flexes are blocked immediately; continuation must stop honestly
    system = build_system(patterns.pentagon_ring())
    rep = classify(system, np.zeros(5))
    assert rep.deg == 2
    path = track_flex(system, np.zeros(5), rep.flex_basis[:, 0],
                      steps=40, step_size=0.02)
    assert path.termination in ("flex-lost", "branch-point", "corrector-diverged")
    assert len(path) <= 5
    assert max(path.residuals) <= 1e-9


BATCH_CASES = {"pentagon_ring": patterns.pentagon_ring,
               "square_ring": patterns.square_ring,
               "sheared_grid_3x3": lambda: patterns.sheared_grid(3, 3)}


@pytest.mark.parametrize("make", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_correct_batch_matches_batches_of_one(make):
    system = build_system(make())
    rng = np.random.default_rng(41)
    # near starts first, then starts that stall or leave the box
    starts = np.vstack([rng.normal(scale=s, size=(8, system.n_vars))
                        for s in (0.01, 0.3, 1.0)])
    out = correct_batch(system, starts, max_iter=40)
    for x, y in zip(starts, out):
        assert correct_batch(system, x[None], max_iter=40)[0].tobytes() == y.tobytes()
    for y in out[:8]:
        assert residual(system, y).max_norm <= 1e-9


@pytest.mark.parametrize("make", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_correct_batch_leaves_inactive_states_alone(make):
    system = build_system(make())
    rng = np.random.default_rng(43)
    flat = np.zeros(system.n_vars)     # solved: its first step is exactly zero
    far = rng.uniform(-3.0, 3.0, (6, system.n_vars))
    batch = np.vstack([far[:3], flat, far[3:]])
    runs = [correct_batch(system, batch, max_iter=m) for m in range(1, 26)]
    assert all(run[3].tobytes() == flat.tobytes() for run in runs)
    assert not np.array_equal(np.delete(runs[-1], 3, axis=0), far)
    # a state unchanged by one more iteration never changes again
    for prev, cur in zip(runs, runs[1:]):
        done = (prev == cur).all(axis=1)
        assert (cur[done] == runs[-1][done]).all()


def test_correction_unpacks_as_the_triple():
    sys4 = build_system(patterns.cross_vertex())
    c = gauss_newton_correct(sys4, [0.3, 0.02, 0.3, -0.01])
    rho, iterations, converged = c
    assert rho is c.rho and iterations == c.iterations and converged is c.converged
    assert converged and c.residual.max_norm <= tracking.CORRECTOR_TOL
    assert not c.certified      # no flex given: least-squares steps


@pytest.mark.parametrize("make", [patterns.cross_vertex, patterns.square_ring,
                                  patterns.miura_3x3])
def test_correction_residual_and_jacobian_are_at_its_rho(make):
    system = build_system(make())
    rng = np.random.default_rng(47)
    checked = 0
    for max_iter in (0, 2, 25):
        for guess in rng.uniform(-0.5, 0.5, (4, system.n_vars)):
            c = gauss_newton_correct(system, guess, max_iter=max_iter)
            if c.residual is None:      # a step longer than 2 pi, tested below
                continue
            checked += 1
            ref = residual(system, c.rho)
            assert c.residual.vector.tobytes() == ref.vector.tobytes()
            assert c.residual.max_norm == ref.max_norm
            assert c.jacobian.tobytes() == jacobian(system, c.rho).tobytes()
    assert checked


def test_correction_after_a_step_longer_than_two_pi():
    sys4 = build_system(patterns.cross_vertex())
    guesses = np.random.default_rng(0).uniform(-math.pi, math.pi, (40, 4))
    far = [c for c in (gauss_newton_correct(sys4, g) for g in guesses)
           if c.residual is None]
    assert far
    for c in far:
        assert c.converged is False and c.jacobian is None


def test_track_flex_corrects_with_the_public_corrector(monkeypatch):
    calls = []
    inner = tracking.gauss_newton_correct

    def counting(*args, **kwargs):
        calls.append(kwargs.get("flex"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(tracking, "gauss_newton_correct", counting)
    path = track_flex(build_system(patterns.cross_vertex()), np.zeros(4),
                      [0, 1, 0, 1], steps=20)
    assert len(path) == 21
    assert len(calls) >= len(path) - 1
    assert all(flex is not None for flex in calls)
