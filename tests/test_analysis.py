import math

import numpy as np
import pytest

from rigidori import (angular_velocities, build_system, classify,
                      deg_formula_developable, gauss_newton_correct, jacobian,
                      panel_frames, residual, system_from_loops, vertex_loop)
from rigidori.constraints import Loop
from rigidori.errors import NotAFlex, NotDevelopable, NotOnVariety
from rigidori import patterns

from conftest import fd_jacobian, random_solved_states


@pytest.mark.parametrize("make,label", [
    (patterns.cross_vertex, "cross"),
    (patterns.miura_3x3, "miura"),
    (patterns.pentagon_ring, "ring"),
    (patterns.square_ring, "square-ring"),
    (patterns.forest_two_vertices, "forest"),
])
def test_jacobian_matches_finite_differences(make, label, rng):
    pat = make()
    system = build_system(pat)
    for _ in range(6):
        rho = rng.uniform(-2.0, 2.0, system.n_vars)
        Ja = jacobian(system, rho)
        Jf = fd_jacobian(system, rho)
        scale = max(np.abs(Jf).max(), 1.0)
        assert np.abs(Ja - Jf).max() / scale < 1e-6


@pytest.mark.parametrize("kind", ["vertex", "hole"])
def test_jacobian_of_a_crease_crossed_twice(kind, rng):
    # crease 0 is crossed twice, so its column is the sum of two derivatives
    offsets = None if kind == "vertex" else rng.uniform(-1.0, 1.0, (4, 2))
    loop = Loop(kind=kind, vars=[0, 1, 0, 2], betas=[1.0, 1.3, 1.9, 2.0],
                offsets=offsets)
    system = system_from_loops([loop], 3)
    for _ in range(6):
        rho = rng.uniform(-2.0, 2.0, 3)
        Jf = fd_jacobian(system, rho)
        scale = max(np.abs(Jf).max(), 1.0)
        assert np.abs(jacobian(system, rho) - Jf).max() / scale < 1e-6


@pytest.mark.parametrize("make", [patterns.cross_vertex, patterns.pentagon_ring,
                                  patterns.square_ring, patterns.forest_two_vertices])
def test_batched_jacobian_matches_single_states(make, rng):
    system = build_system(make())
    states = rng.uniform(-math.pi, math.pi, (2, 3, system.n_vars))
    J = jacobian(system, states)
    assert J.shape == (2, 3, system.residual_dim, system.n_vars)
    for idx in np.ndindex(2, 3):
        assert J[idx].tobytes() == jacobian(system, states[idx]).tobytes()


def test_free_crease_column_is_zero():
    pat = patterns.cross_with_free_crease()
    system = build_system(pat)
    J = jacobian(system, np.array([0.3, 0.1, 0.3, 0.1, 0.9]))
    free = system.free_vars[0]
    assert np.abs(J[:, free]).max() == 0.0


def test_flat_cross_rank_and_deg():
    system = build_system(patterns.cross_vertex())
    rep = classify(system, np.zeros(4))
    assert rep.rank == 2 and rep.deg == 2
    assert not rep.first_order_rigid
    assert not rep.regular  # rank 2 < min(3, 4)


def test_cross_branch_point_is_regular_deg_one():
    system = build_system(patterns.cross_vertex())
    rep = classify(system, np.array([0.7, 0, 0.7, 0]))
    assert rep.rank == 3 and rep.deg == 1
    assert rep.regular and not rep.first_order_rigid


def test_cube_corner_first_order_rigid():
    system = build_system(patterns.single_vertex_cone([math.pi / 2] * 3))
    rep = classify(system, np.array([math.pi / 2] * 3))
    assert rep.deg == 0 and rep.first_order_rigid


def test_classify_requires_variety():
    system = build_system(patterns.cross_vertex())
    with pytest.raises(NotOnVariety):
        classify(system, np.array([0.4, 0.4, 0.0, 0.0]))


def test_flex_and_stress_bases_annihilate(rng):
    for make in (patterns.cross_vertex, patterns.miura_3x3, patterns.pentagon_ring):
        pat = make()
        system = build_system(pat)
        rep = classify(system, np.zeros(system.n_vars))
        if rep.flex_basis.size:
            assert np.abs(rep.jacobian @ rep.flex_basis).max() < 1e-8
        if rep.stress_basis.size:
            assert np.abs(rep.stress_basis.T @ rep.jacobian).max() < 1e-8
        assert rep.deg - rep.corank == system.n_vars - system.residual_dim


def test_rank_invariant_under_crease_relabelling():
    base = build_system(patterns.cross_vertex())
    perm = [2, 0, 3, 1]
    lp = base.loops[0]
    relabelled = vertex_loop(lp.betas, [perm[v] for v in lp.vars])
    system2 = system_from_loops([relabelled], 4)
    rho = np.array([0.5, 0, 0.5, 0])
    rho2 = np.empty(4)
    for old, new in enumerate(perm):
        rho2[new] = rho[old]
    r1 = classify(base, rho)
    r2 = classify(system2, rho2)
    assert r1.rank == r2.rank and r1.deg == r2.deg


def test_deg_symmetric_under_negation(rng):
    pat = patterns.forest_two_vertices()
    system = build_system(pat)
    for state in random_solved_states(system, np.zeros(pat.n_vars), 8, rng):
        assert classify(system, state).deg == classify(system, -state).deg


def test_deg_formula_examples():
    assert deg_formula_developable(patterns.miura_3x3()) == 4
    assert deg_formula_developable(
        patterns.star_vertex([1.2, 2.2, 1.1, 2 * math.pi - 4.5])) == 2
    a6 = [1.0, 1.1, 0.9, 1.2, 1.0, 2 * math.pi - 5.2]
    assert deg_formula_developable(patterns.star_vertex(a6)) == 4


def test_deg_formula_matches_numeric_rank():
    for pat in (patterns.miura_3x3(), patterns.sheared_grid(2, 4, shear=0.2),
                patterns.forest_two_vertices()):
        system = build_system(pat)
        rep = classify(system, np.zeros(pat.n_vars))
        assert rep.deg == deg_formula_developable(pat)


def test_deg_formula_rejects_non_developable_and_holes():
    with pytest.raises(NotDevelopable):
        deg_formula_developable(patterns.single_vertex_cone([math.pi / 2] * 3))
    with pytest.raises(NotDevelopable):
        deg_formula_developable(patterns.pentagon_ring())


def test_angular_velocity_zero_flex():
    pat = patterns.miura_3x3()
    omegas = angular_velocities(pat, np.zeros(pat.n_vars), np.zeros(pat.n_vars))
    assert np.abs(omegas).max() == 0.0


def test_angular_velocities_without_variables():
    omegas = angular_velocities(patterns.plain_square(), [], [])
    assert omegas.shape == (1, 3) and not omegas.any()


def test_angular_velocity_cross_flex():
    pat = patterns.cross_vertex()
    omegas = angular_velocities(pat, np.zeros(4), np.array([1.0, 0, 1.0, 0]))
    # base half stays put, the other half spins about the shared crease line (x)
    assert np.abs(omegas[0]).max() == 0.0
    assert np.abs(omegas[1]).max() < 1e-12
    assert np.abs(omegas[2] - omegas[3]).max() < 1e-12
    spin = omegas[2]
    assert abs(spin[1]) < 1e-12 and abs(spin[2]) < 1e-12 and abs(spin[0]) > 0.9


def test_angular_velocity_identity_on_random_flexes(rng):
    pat = patterns.miura_3x3()
    system = build_system(pat)
    rep = classify(system, np.zeros(pat.n_vars))
    for _ in range(4):
        d = rep.flex_basis @ rng.normal(size=rep.deg)
        # raises internally if the per-chain identity fails at 1e-8
        angular_velocities(pat, np.zeros(pat.n_vars), d, system=system)


def _differenced_omegas(pat, rho, d, h=1e-5):
    """Angular velocities read off skew(omega) = dR/dt R^T, with dR/dt the
    central difference of the panel rotations of ``panel_frames`` along d."""
    R = [np.array([f.transform[:3, :3] for f in panel_frames(pat, rho + s * h * d)])
         for s in (1.0, -1.0, 0.0)]
    A = (R[0] - R[1]) / (2 * h) @ R[2].swapaxes(1, 2)
    return np.stack([A[:, 2, 1] - A[:, 1, 2], A[:, 0, 2] - A[:, 2, 0],
                     A[:, 1, 0] - A[:, 0, 1]], axis=1) / 2


def test_angular_velocities_match_differences_of_panel_frames(rng):
    # the Miura mode of a 4x4 grid: horizontal creases near 0.4, zigzag ones
    # near +-0.8 alternating by column (rows hold 5 vertices)
    grid = patterns.sheared_grid(4, 4, shear=0.3)
    grid_system = build_system(grid)
    guess = [0.4 if grid.vertices[c.u][1] == grid.vertices[c.v][1]
             else 0.8 if (c.u % 5) % 2 else -0.8
             for c in (grid.creases[ci] for ci in grid.inner_creases)]
    grid_state, _, ok = gauss_newton_correct(grid_system, np.array(guess), max_iter=50)
    assert ok
    cone = patterns.single_vertex_cone([1.2, 1.5, 1.3, 1.6])
    cone_system = build_system(cone)
    cone_state, _, ok = gauss_newton_correct(cone_system, np.array([1.0, 0.5, 1.0, 0.5]),
                                             max_iter=50)
    assert ok
    for pat, system, rho in ((grid, grid_system, grid_state),
                             (cone, cone_system, cone_state)):
        rep = classify(system, rho)
        assert rep.deg > 0 and np.abs(rho).max() > 0.1
        for _ in range(3):
            d = rep.flex_basis @ rng.normal(size=rep.deg)
            d *= rng.uniform(0.5, 2.0) / np.abs(d).max()
            omegas = angular_velocities(pat, rho, d, system=system)
            assert np.abs(omegas).max() > 0.1
            assert np.abs(omegas - _differenced_omegas(pat, rho, d)).max() < 1e-8


def test_angular_velocity_rejects_non_flex():
    pat = patterns.cross_vertex()
    with pytest.raises(NotAFlex):
        angular_velocities(pat, np.zeros(4), np.array([1.0, 0.3, 0, 0]))


def test_numeric_rank_empty_system():
    pat = patterns.square_diagonal()
    system = build_system(pat)
    rep = classify(system, np.zeros(1))
    assert rep.rank == 0 and rep.deg == 1
