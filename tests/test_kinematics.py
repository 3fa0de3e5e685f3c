import math

import numpy as np
import pytest

from rigidori import (build_spanning_tree, build_system, chain_for_path,
                      check_state, fold_mesh, fold_point, panel_frames,
                      placement, residual, transfer_matrix)
from rigidori.errors import PointOutsidePanel
from rigidori.kinematics import ChainStep, TransferChain
from rigidori import patterns


def test_square_diagonal_chain_lengths():
    pat = patterns.square_diagonal()
    chains = build_spanning_tree(pat)
    assert sorted(len(c) for c in chains.values()) == [0, 1]


def test_serial_strip_chain_crosses_every_crease():
    pat = patterns.sheared_grid(6, 1, shear=0.0)
    chains = build_spanning_tree(pat)
    assert len(chains[5].steps) == 5
    crossed = [st.var for st in chains[5].steps]
    assert crossed == sorted(crossed) and len(set(crossed)) == 5


def test_miura_chain_census():
    pat = patterns.miura_3x3()
    chains = build_spanning_tree(pat)
    lengths = sorted(len(chains[p]) for p in range(9))
    assert lengths[0] == 0 and max(lengths) == 4
    assert sum(1 for n in lengths if n > 0) == 8


def test_transfer_matrix_trivial_state(rng):
    pat = patterns.miura_3x3()
    chains = build_spanning_tree(pat)
    rho0 = rng.uniform(-1, 1, pat.n_vars)
    for chain in chains.values():
        T = placement(chain, rho0, rho0)
        assert np.abs(T - np.eye(4)).max() < 1e-12


def test_single_crease_chain_is_x_rotation():
    chain = TransferChain(1, [ChainStep(0, 0, 0.0, 0.0, 0.0)])
    T = transfer_matrix(chain, [math.pi / 2])
    expect = np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1.0]])
    assert np.abs(T - expect).max() < 1e-15


def test_loop_chain_closes_at_solved_state():
    pat = patterns.cross_vertex()
    loop_chain = chain_for_path(pat, [0, 1, 2, 3, 0])
    for s in (0.4, -1.1, 2.0):
        T = transfer_matrix(loop_chain, np.array([s, 0.0, s, 0.0]))
        assert np.abs(T - np.eye(4)).max() < 1e-10


def test_path_independence_equals_loop_closure():
    # placements agree over different panel paths exactly when the loop
    # closes; raw chain transforms land in path-dependent local frames
    pat = patterns.cross_vertex()
    a = chain_for_path(pat, [0, 1, 2])
    b = chain_for_path(pat, [0, 3, 2])
    rho = np.array([0.8, 0.0, 0.8, 0.0])
    rho0 = np.zeros(4)
    assert residual(build_system(pat), rho).max_norm < 1e-12
    assert np.abs(placement(a, rho, rho0) - placement(b, rho, rho0)).max() < 1e-9
    rho_bad = np.array([0.8, 0.3, 0.1, 0.0])
    assert np.abs(placement(a, rho_bad, rho0) - placement(b, rho_bad, rho0)).max() > 1e-3


def test_fold_point_base_panel_fixed(rng):
    pat = patterns.cross_vertex()
    rho = np.array([0.7, 0, 0.7, 0])
    for _ in range(5):
        p = rng.uniform(0.05, 0.5, 2)  # interior of base panel (quadrant 1)
        out = fold_point(pat, rho, np.zeros(4), p, panel=0)
        assert np.abs(out - [p[0], p[1], 0.0]).max() < 1e-14


def test_fold_point_isometry_within_panel(rng):
    pat = patterns.miura_3x3()
    chains = build_spanning_tree(pat)
    rho = 0.3 * np.ones(pat.n_vars)
    for panel in (3, 7):
        cyc = pat.panels[panel]
        pts = pat.vertices[cyc]
        for _ in range(10):
            w1 = rng.dirichlet(np.ones(len(cyc)))
            w2 = rng.dirichlet(np.ones(len(cyc)))
            p1, p2 = w1 @ pts, w2 @ pts
            f1 = fold_point(pat, rho, np.zeros(pat.n_vars), p1, panel=panel, chains=chains)
            f2 = fold_point(pat, rho, np.zeros(pat.n_vars), p2, panel=panel, chains=chains)
            assert abs(np.linalg.norm(f1 - f2) - np.linalg.norm(p1 - p2)) < 1e-12


def test_fold_point_mirror_symmetry(rng):
    pat = patterns.cross_vertex()
    rho = np.array([0.9, 0.0, 0.9, 0.0])
    rho0 = np.zeros(4)
    M = np.diag([1.0, 1.0, -1.0])
    for panel in range(4):
        p = pat.vertices[pat.panels[panel]].mean(axis=0)
        p3 = np.array([p[0], p[1], 0.2])
        lhs = fold_point(pat, -rho, -rho0, p3 * [1, 1, -1], panel=panel)
        rhs = M @ fold_point(pat, rho, rho0, p3, panel=panel)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_fold_point_scale_independence():
    from rigidori import validate_pattern
    pat = patterns.cross_vertex()
    big = validate_pattern(pat.scaled(2.0))
    rho = np.array([1.1, 0.0, 1.1, 0.0])
    p = np.array([0.3, 0.4])
    f1 = fold_point(pat, rho, np.zeros(4), p, panel=0)
    f2 = fold_point(big, rho, np.zeros(4), 2.0 * p, panel=0)
    assert np.abs(f2 - 2.0 * f1).max() < 1e-12


def test_fold_point_outside_panel():
    pat = patterns.cross_vertex()
    with pytest.raises(PointOutsidePanel):
        fold_point(pat, np.zeros(4), np.zeros(4), (5.0, 5.0))
    with pytest.raises(PointOutsidePanel):
        fold_point(pat, np.zeros(4), np.zeros(4), (-0.3, -0.4), panel=0)


def test_fold_mesh_flat_state_is_reference():
    pat = patterns.miura_3x3()
    mesh = fold_mesh(pat, np.zeros(pat.n_vars))
    for p, poly in enumerate(mesh):
        ref = pat.panel_polygon(p)
        assert np.abs(poly[:, :2] - ref).max() < 1e-14
        assert np.abs(poly[:, 2]).max() < 1e-14


def test_fold_mesh_half_fold_goes_below():
    pat = patterns.cross_vertex()
    mesh = fold_mesh(pat, np.array([-math.pi / 2, 0.0, -math.pi / 2, 0.0]))
    # base half stays in the plane, the other half hangs below it
    assert np.abs(mesh[0][:, 2]).max() < 1e-12
    assert np.abs(mesh[1][:, 2]).max() < 1e-12
    assert mesh[2][:, 2].min() < -0.99
    assert mesh[3][:, 2].min() < -0.99


def test_cube_corner_mesh_orthogonal():
    pat = patterns.single_vertex_cone([math.pi / 2] * 3)
    rho = np.array([math.pi / 2] * 3)
    assert residual(build_system(pat), rho).max_norm < 1e-12
    mesh = fold_mesh(pat, rho)
    normals = []
    for poly in mesh:
        n = np.cross(poly[1] - poly[0], poly[2] - poly[0])
        normals.append(n / np.linalg.norm(n))
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(normals[i] @ normals[j]) < 1e-10


def test_point_on_shared_crease_consistent_across_panels():
    # points in the closure of two panels are evaluated via the
    # lowest-indexed panel; at solved states the other panel's chain agrees
    pat = patterns.cross_vertex()
    rho = np.array([1.3, 0.0, 1.3, 0.0])
    on_crease = np.array([0.5, 0.0])  # interior of the crease shared by 0, 3
    via_0 = fold_point(pat, rho, np.zeros(4), on_crease, panel=0)
    via_3 = fold_point(pat, rho, np.zeros(4), on_crease, panel=3)
    auto = fold_point(pat, rho, np.zeros(4), on_crease)
    assert np.abs(via_0 - via_3).max() < 1e-9
    assert np.abs(auto - via_0).max() == 0.0


def test_frames_are_proper_rotations(rng):
    pat = patterns.miura_3x3()
    for _ in range(5):
        rho = rng.uniform(-2.5, 2.5, pat.n_vars)
        for frame in panel_frames(pat, rho):
            R = frame.transform[:3, :3]
            assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
    base = panel_frames(pat, np.zeros(pat.n_vars))[pat.base_panel]
    assert np.abs(base.transform - np.eye(4)).max() == 0.0


# -- the spanning tree cached on the pattern ------------------------------------

def _counting(monkeypatch, name):
    """The first argument of each later call of ``kinematics.<name>``."""
    from rigidori import kinematics
    calls = []
    original = getattr(kinematics, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(kinematics, name, counted)
    return calls


def test_fold_mesh_reuses_the_tree_groups(monkeypatch):
    pat = patterns.sheared_grid(4, 4, shear=0.3)
    rho = np.zeros(pat.n_vars)
    first = fold_mesh(pat, rho, chains=build_spanning_tree(pat))
    cached = pat._tree
    merged = _counting(monkeypatch, "_prefix_tree")
    built = _counting(monkeypatch, "_bfs_tree")
    for _ in range(3):
        again = fold_mesh(pat, rho, chains=build_spanning_tree(pat))
    fold_mesh(pat, rho)
    panel_frames(pat, rho, chains=build_spanning_tree(pat))
    check_state(pat, rho, chains=build_spanning_tree(pat))
    check_state(pat, rho)
    assert merged == [] and built == []
    assert pat._tree is cached
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    # the tree goes with the pattern: derived structure rebuilds it, and
    # chains of the old tree still equal the new one step for step
    old = build_spanning_tree(pat)
    pat._derive()
    assert pat._tree is None
    fold_mesh(pat, rho, chains=old)
    assert merged == [] and built == [pat]
    assert pat._tree is not cached


def test_fold_mesh_regroups_chains_that_are_not_the_tree(monkeypatch):
    pat = patterns.cross_vertex()
    tree = build_spanning_tree(pat)
    assert tree[2] == chain_for_path(pat, [0, 1, 2])
    fold_mesh(pat, np.zeros(4), chains=tree)        # fills the cache
    calls = _counting(monkeypatch, "_prefix_tree")
    # panel 2 reached the other way round the vertex; off the variety the
    # two paths place it differently
    other = dict(tree)
    other[2] = chain_for_path(pat, [0, 3, 2])
    # a tree chain edited in place after the cache was filled
    edited = build_spanning_tree(pat)
    edited[2].steps.reverse()
    rho = np.array([0.7, 0.3, 0.1, 0.0])
    for chains in (other, edited):
        calls.clear()
        mesh = fold_mesh(pat, rho, chains=chains)
        assert [len(c) for c in calls] == [len(pat.panels)]
        for p, poly in enumerate(mesh):
            T = placement(chains[p], rho, np.zeros(4))
            flat = pat.vertices[pat.panels[p]]
            want = flat @ T[:3, :2].T + T[:3, 3]
            assert np.abs(poly - want).max() < 1e-12
    assert np.abs(fold_mesh(pat, rho, chains=other)[2]
                  - fold_mesh(pat, rho, chains=tree)[2]).max() > 1e-3


# -- the prefix tree: one hinge factor per node, one product per level ----------

def _random_chain_set(rng, n_vars=6):
    """Chains over shared random steps: shared prefixes, duplicates, a chain
    that is a prefix of another, empty chains and mixed lengths."""
    def step():
        return ChainStep(int(rng.integers(100)), int(rng.integers(n_vars)),
                         float(rng.uniform(-math.pi, math.pi)),
                         float(rng.normal()), float(rng.normal()))

    trunk = [step() for _ in range(int(rng.integers(3, 7)))]
    chains = [TransferChain(0, []), TransferChain(1, list(trunk))]
    for i in range(2, 12):
        cut = int(rng.integers(0, len(trunk) + 1))
        chains.append(TransferChain(i, trunk[:cut] + [step() for _ in
                                                      range(int(rng.integers(0, 4)))]))
    chains.append(TransferChain(12, list(chains[5].steps)))       # a duplicate
    chains.append(TransferChain(13, []))
    rng.shuffle(chains)
    return chains


def test_transforms_match_per_chain_products_bit_for_bit(rng):
    from rigidori.constraints import chain_products
    from rigidori.kinematics import _prefix_tree, _transforms
    for _ in range(20):
        chains = _random_chain_set(rng)
        lengths = {len(c) for c in chains}
        assert 0 in lengths and len(lengths) > 2
        tree = _prefix_tree(chains)
        assert len(tree.betas) < sum(len(c) for c in chains)   # prefixes are shared
        for rho in (rng.uniform(-math.pi, math.pi, 6),
                    rng.uniform(-math.pi, math.pi, (3, 2, 6))):
            want = np.stack([
                chain_products([[st.beta for st in c.steps]],
                               np.reshape([(st.a, st.b) for st in c.steps], (1, len(c), 2)),
                               np.reshape([st.var for st in c.steps], (1, len(c))).astype(int),
                               rho)[..., 0, :, :]
                for c in chains], axis=-3)
            assert np.array_equal(_transforms(tree, rho), want)


@pytest.mark.parametrize("n", [3, 8])
def test_spanning_prefix_tree_has_a_node_per_tree_edge(monkeypatch, n):
    pat = patterns.sheared_grid(n, n, shear=0.3)
    rho = np.zeros(pat.n_vars)
    fold_mesh(pat, rho)
    cached = pat._tree
    assert (len(cached.betas) == len(cached.vars) == len(cached.offsets)
            == len(cached.parent) == len(pat.panels) - 1)
    tree = build_spanning_tree(pat)
    longest = max(len(c) for c in tree.values())
    assert len(cached.levels) == longest
    assert [lv.start for lv in cached.levels] == sorted(lv.start for lv in cached.levels)
    # each panel's chain is the path of parent links from its node to the root
    for p, chain in tree.items():
        node, up = cached.leaf[p], []
        while node >= 0:
            up.append(node)
            node = cached.parent[node]
        assert [st.var for st in chain.steps] == cached.vars[up[::-1]].tolist()
        assert [st.beta for st in chain.steps] == cached.betas[up[::-1]].tolist()
        assert all(a is b for a, b in zip(chain.steps, cached.paths[p]))
    # panel_frames walks the same cached tree
    calls = _counting(monkeypatch, "_prefix_tree")
    frames = panel_frames(pat, rho)
    panel_frames(pat, rho, chains=tree)
    assert calls == [] and pat._tree is cached
    assert all(np.array_equal(f.transform, transfer_matrix(tree[f.panel], rho))
               for f in frames)
