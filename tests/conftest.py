import numpy as np
import pytest

from rigidori import residual, track_flex
from rigidori.analysis import RANK_REL_TOL, _rank_split, jacobian


def fd_jacobian(system, rho, h=1e-6):
    """Central-difference Jacobian of the residual vector."""
    rho = np.asarray(rho, dtype=float)
    J = np.zeros((system.residual_dim, system.n_vars))
    for k in range(system.n_vars):
        up = rho.copy()
        dn = rho.copy()
        up[k] += h
        dn[k] -= h
        J[:, k] = (residual(system, up).vector - residual(system, dn).vector) / (2 * h)
    return J


def random_solved_states(system, rho0, count, rng, steps=12, step_size=0.02):
    """Solved states scattered around rho0 by short random-flex tracks."""
    out = []
    guard = 0
    rho0 = np.asarray(rho0, dtype=float)
    while len(out) < count and guard < count * 8:
        guard += 1
        _, basis, _ = _rank_split(jacobian(system, rho0), RANK_REL_TOL)
        if basis.shape[1] == 0:
            out.append(rho0.copy())
            continue
        coeff = rng.normal(size=basis.shape[1])
        direction = basis @ coeff
        nrm = np.linalg.norm(direction)
        if nrm < 1e-12:
            continue
        try:
            path = track_flex(system, rho0, direction / nrm,
                              steps=int(rng.integers(1, steps)),
                              step_size=step_size)
        except Exception:
            continue
        out.append(path.samples[-1])
    return out


def _uf_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def exhaustive_tree_packing(n, edges, k):
    """Brute-force oracle: do k edge-disjoint spanning trees exist?

    Recursively assigns each edge to one of the k forests or leaves it
    unused, pruning on forest cycles and on the number of edges still
    available.  Intended for the small instances of the test suite.
    """
    m = len(edges)
    target = k * (n - 1)
    if m < target:
        return False

    def rec(e, counts, parents):
        placed = sum(counts)
        if placed == target:
            return True
        if placed + (m - e) < target:
            return False
        if e == m:
            return False
        u, v = edges[e]
        if u != v:
            for i in range(k):
                if counts[i] == n - 1:
                    continue
                ru, rv = _uf_find(parents[i], u), _uf_find(parents[i], v)
                if ru == rv:
                    continue
                saved = parents[i][:]
                parents[i][ru] = rv
                counts[i] += 1
                if rec(e + 1, counts, parents):
                    return True
                counts[i] -= 1
                parents[i] = saved
        return rec(e + 1, counts, parents)

    return rec(0, [0] * k, [list(range(n)) for _ in range(k)])


def random_connected_multigraph(rng, max_edges=8):
    """Connected multigraph with 2..5 vertices and at most max_edges edges."""
    n = int(rng.integers(2, 6))
    edges = [(int(rng.integers(0, i)) if i > 1 else 0, i) for i in range(1, n)]
    extra = int(rng.integers(0, max_edges - len(edges) + 1))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            v = (v + 1) % n
        edges.append((min(u, v), max(u, v)))
    return n, edges


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
