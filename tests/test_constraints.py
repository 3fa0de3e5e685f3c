import math

import numpy as np
import pytest

from rigidori import (build_system, is_flat_state, residual, system_from_loops,
                      vertex_loop)
from rigidori.constraints import Loop, _hole_loop, _linearise, chain_products
from rigidori import patterns

from conftest import random_solved_states


def test_cross_vertex_system_shape():
    sys4 = build_system(patterns.cross_vertex())
    assert sys4.n_vars == 4
    assert sys4.residual_dim == 3
    assert sys4.n_vertex_loops == 1 and sys4.n_hole_loops == 0


def test_pentagon_ring_system_shape():
    sysr = build_system(patterns.pentagon_ring())
    assert sysr.n_vars == 5
    assert sysr.residual_dim == 6
    assert sysr.n_hole_loops == 1


def test_concurrent_hole_becomes_rotation_loop():
    sysr = build_system(patterns.pentagon_ring(twist=0.0))
    assert sysr.residual_dim == 3
    assert sysr.n_vertex_loops == 1 and sysr.n_hole_loops == 0
    assert residual(sysr, np.zeros(5)).max_norm < 1e-12


def test_square_ring_hole_loop_with_corner_fans():
    # two inner creases emanate from every hole corner; the loop must cross
    # all eight in fan order and still close flat
    pat = patterns.square_ring()
    system = build_system(pat)
    assert system.n_vars == 8
    assert system.n_hole_loops == 1
    assert len(system.loops[0].vars) == 8
    assert residual(system, np.zeros(8)).max_norm < 1e-12


def test_forest_has_vertex_loops_only():
    sysf = build_system(patterns.forest_two_vertices())
    assert sysf.n_vertex_loops == 2 and sysf.n_hole_loops == 0
    assert sysf.residual_dim == 6


def test_flat_developable_states_close():
    for pat in (patterns.miura_3x3(), patterns.forest_two_vertices(),
                patterns.hexagon_fan(), patterns.pentagon_ring()):
        system = build_system(pat)
        assert residual(system, np.zeros(pat.n_vars)).max_norm < 1e-12


def test_cross_branch_is_solved_everywhere():
    sys4 = build_system(patterns.cross_vertex())
    for s in np.linspace(-math.pi, math.pi, 41):
        assert residual(sys4, [s, 0, s, 0]).max_norm <= 1e-10
        assert residual(sys4, [0, s, 0, s]).max_norm <= 1e-10


def test_cube_corner_state_closes():
    system = build_system(patterns.single_vertex_cone([math.pi / 2] * 3))
    assert residual(system, [math.pi / 2] * 3).max_norm <= 1e-10
    assert residual(system, [-math.pi / 2] * 3).max_norm <= 1e-10


def test_negation_symmetry_of_solutions(rng):
    pat = patterns.forest_two_vertices()
    system = build_system(pat)
    for state in random_solved_states(system, np.zeros(pat.n_vars), 12, rng):
        assert residual(system, -state).max_norm <= 1e-9


def test_extracted_scalars_control_full_deviation(rng):
    # near solved states the full matrix deviation is bounded by a small
    # multiple of the extracted residual vector norm
    sys4 = build_system(patterns.cross_vertex())
    for _ in range(50):
        s = rng.uniform(-2.5, 2.5)
        rho = np.array([s, 0, s, 0]) + rng.normal(scale=1e-6, size=4)
        res = residual(sys4, rho)
        T = sys4.loops[0].transform(rho)
        frob = float(np.linalg.norm(T[:3, :3] - np.eye(3)))
        assert frob <= 10.0 * max(np.linalg.norm(res.vector), 1e-15)


def test_half_turn_spurious_root_rejected():
    # a half-turn rotation zeroes the skew extraction but not the max-norm
    loop = vertex_loop([math.pi], [0])
    system = system_from_loops([loop], 1)
    res = residual(system, [0.0])
    # loop transform is Z(pi): skew part vanishes, deviation must not
    assert np.abs(res.vector).max() < 1e-15
    assert res.max_norm > 1.0


def test_hole_translation_vanishes_when_concurrent():
    # keep the geometric 6-row loop of a concurrent ring and check that
    # rotation closure alone forces the translation rows to zero
    pat = patterns.pentagon_ring(twist=0.0)
    loop = _hole_loop(pat, 0, pat.holes[0])
    forced = Loop(kind="hole", vars=loop.vars, betas=loop.betas,
                  offsets=loop.offsets, label="forced 6-row")
    system = system_from_loops([forced], pat.n_vars)
    # solve the rotation part numerically from a nonzero guess
    rot = system_from_loops([Loop(kind="vertex", vars=loop.vars,
                                  betas=loop.betas,
                                  offsets=np.zeros_like(loop.offsets),
                                  label="rotation only")], pat.n_vars)
    from rigidori import gauss_newton_correct
    state, _, ok = gauss_newton_correct(rot, 0.4 * np.ones(pat.n_vars))
    assert ok
    res = residual(system, state)
    assert np.abs(res.vector[3:]).max() < 1e-9


def test_cone_pattern_loop_matches_direct_loop(rng):
    # the pattern-derived loop must accept closed-form solutions regardless
    # of how the fan rotation lands in the synthetic embedding
    from rigidori.singlevertex import solve_degree3
    checked = 0
    while checked < 15:
        alphas = rng.uniform(0.1, 2.4, 3)
        sol = solve_degree3(alphas)
        if sol.empty:
            continue
        pat = patterns.single_vertex_cone(alphas)
        system = build_system(pat)
        for p in sol.points:
            assert residual(system, p).max_norm <= 1e-10
        for fam in sol.families:
            assert residual(system, fam.point(0.8)).max_norm <= 1e-10
        checked += 1


def test_flat_state_predicate():
    assert is_flat_state([math.pi, -math.pi])
    assert not is_flat_state([math.pi, 0.5])
    assert is_flat_state([-math.pi, -math.pi])
    assert not is_flat_state([])


def test_free_creases_recorded():
    pat = patterns.cross_with_free_crease()
    system = build_system(pat)
    assert len(system.free_vars) == 1
    assert system.n_vars == 5


def test_loop_crease_order_starts_at_lowest_index():
    sys4 = build_system(patterns.cross_vertex())
    lp = sys4.loops[0]
    assert lp.vars[0] == min(lp.vars)


@pytest.mark.parametrize("make,kind", [(patterns.pentagon_ring, "hole"),
                                       (patterns.square_ring, "hole"),
                                       (patterns.cross_vertex, "vertex")])
def test_chain_products_batch_matches_single_states(make, kind, rng):
    system = build_system(make())
    (betas, offsets, vars_), = [g[3:] for g in system.groups if g[0] == kind]
    states = rng.uniform(-math.pi, math.pi, (5, system.n_vars))
    T, D, P = chain_products(betas, offsets, vars_, states, derivatives=True)
    assert np.array_equal(T, chain_products(betas, offsets, vars_, states))
    for b, rho in enumerate(states):
        Tb, Db, Pb = chain_products(betas, offsets, vars_, rho, derivatives=True)
        assert np.abs(T[b] - Tb).max() <= 1e-14
        assert np.abs(D[b] - Db).max() <= 1e-14
        assert np.abs(P[b] - Pb).max() <= 1e-14


def test_zero_length_chain_is_identity_with_zero_rate():
    T, D, P = chain_products(np.zeros((2, 0)), np.zeros((2, 0, 2)),
                             np.zeros((2, 0), dtype=int), np.array([0.3, -1.2]),
                             derivatives=True)
    assert np.array_equal(T, np.broadcast_to(np.eye(4), (2, 4, 4)))
    assert D.shape == (2, 0, 4, 4)
    assert np.array_equal(P, np.broadcast_to(np.eye(4), (2, 1, 4, 4)))


@pytest.mark.parametrize("make", [patterns.cross_vertex, patterns.pentagon_ring,
                                  patterns.square_ring, patterns.miura_3x3])
def test_linearise_without_derivatives_gives_the_same_residual(make, rng):
    system = build_system(make())
    states = rng.uniform(-math.pi, math.pi, (2, 3, system.n_vars))
    res, J = _linearise(system, states, derivatives=False)
    full, _ = _linearise(system, states)
    assert J is None
    assert res.max_norm.shape == (2, 3)
    for got, want in ((res.vector, full.vector), (res.max_norm, full.max_norm),
                      (res.loop_deviations, full.loop_deviations)):
        assert got.tobytes() == want.tobytes()
    for idx in np.ndindex(2, 3):
        one = residual(system, states[idx])
        assert one.vector.tobytes() == res.vector[idx].tobytes()
        assert one.max_norm == res.max_norm[idx]
