"""Compare the chain-product outputs of two rigidori source trees.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--tol 1e-12]

Each ``src`` directory is imported in its own subprocess.  The OLD run picks
the input states: the Miura state of ``sheared_grid(8, 8)`` found as the
benchmark's ``miura_state`` finds it, and seeded random states of
``pentagon_ring``, ``square_ring`` and a degree-3 cone.  The NEW run reuses
those states.  Both record the residual vector and max-norm, the Jacobian,
the transfer matrix of every spanning-tree chain and every ``fold_mesh``
polygon.  The largest difference of each output is printed; the exit code is
1 when one exceeds ``--tol``.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def dump(out: str, states_from: str | None) -> None:
    import rigidori as ro
    from rigidori import patterns
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import SHEAR, Loaded, miura_state

    cases = {"miura8": patterns.sheared_grid(8, 8, shear=SHEAR),
             "pentagon_ring": patterns.pentagon_ring(),
             "square_ring": patterns.square_ring(),
             "cone3": patterns.single_vertex_cone([1.9, 2.1, 1.7])}
    given = np.load(states_from) if states_from else None
    rng = np.random.default_rng(7)
    data = {}
    for name, pat in cases.items():
        system = ro.build_system(pat)
        chains = ro.build_spanning_tree(pat)
        if given is not None:
            states = given[f"{name}/states"]
        elif name == "miura8":
            states = miura_state(Loaded(pat, system, chains), 1.0)[0][None]
        else:
            states = rng.uniform(-math.pi, math.pi, (5, pat.n_vars))
        data[f"{name}/states"] = states
        for i, rho in enumerate(states):
            res = ro.residual(system, rho)
            data[f"{name}/{i}/residual"] = res.vector
            data[f"{name}/{i}/max_norm"] = res.max_norm
            data[f"{name}/{i}/jacobian"] = ro.jacobian(system, rho)
            data[f"{name}/{i}/transfer_matrix"] = np.array(
                [ro.transfer_matrix(chains[p], rho) for p in sorted(chains)])
            for p, poly in enumerate(ro.fold_mesh(pat, rho, chains=chains)):
                data[f"{name}/{i}/fold_mesh/{p}"] = poly
    np.savez(out, **data)


def run(src: str, out: Path, states_from: Path | None = None) -> None:
    cmd = [sys.executable, __file__, "--dump", str(out)]
    if states_from is not None:
        cmd += ["--states", str(states_from)]
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    subprocess.run(cmd, env=env, check=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="*")
    ap.add_argument("--tol", type=float, default=1e-12)
    ap.add_argument("--dump")
    ap.add_argument("--states")
    args = ap.parse_args()
    if args.dump:
        dump(args.dump, args.states)
        return 0
    old_src, new_src = args.src
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old.npz", Path(tmp) / "new.npz"
        run(old_src, old)
        run(new_src, new, states_from=old)
        a, b = np.load(old), np.load(new)
        if set(a.files) != set(b.files):
            print("the two trees record different outputs")
            return 1
        worst: dict[str, float] = {}
        for key in a.files:
            name, *rest = key.split("/")
            what = f"{name} {rest[1] if len(rest) > 1 else rest[0]}"
            diff = float(np.abs(a[key] - b[key]).max(initial=0.0))
            worst[what] = max(worst.get(what, 0.0), diff)
    for what, diff in sorted(worst.items()):
        print(f"{what:32s} {diff:.3e}")
    return 0 if max(worst.values()) <= args.tol else 1


if __name__ == "__main__":
    sys.exit(main())
