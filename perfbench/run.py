"""Benchmark of the rigidori toolkit: seeded closed-loop workloads, one client.

    python3 perfbench/run.py --workload motion --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports ``rigidori`` from
``src/`` and nothing else of the repository.  Workloads (see
``workloads.py``): ``motion``, ``contact`` and ``generic-batch``.

A run writes the workload's pattern files from ``--seed``, sets up once
(load, validate, ``build_system``, ``build_spanning_tree``), builds its
requests and serves a few warm-up requests.  The timed phase then serves
whole passes over the requests, one at a time, and repeats the set-up
after every second of requests, until about ``--seconds`` of request and
set-up time has passed; each output is checked with the clock stopped.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` serves each
request of one pass twice, plain and then with spans around every public
function of every layer, and prints the per-layer metrics; its counts
repeat exactly for a seed.  ``--smoke`` runs the smallest size of the
workload for one pass.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the environment, the details and the spans go to
``perfbench/out/``.
"""

import os

# One BLAS thread, set before numpy loads: with OpenBLAS's default of two, a
# 10-sample 6x6 track used twice the CPU time for no gain in wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("motion", "contact", "generic-batch")

# the timed phase repeats the set-up after every SETUP_EVERY_S of requests
SETUP_EVERY_S = 1.0
WARMUP_MIN_S = 0.5
TAIL_BEYOND = 10

# per-layer metrics: (name, unit); see layer_metrics()
CALLS = ("constraints.residual", "analysis.jacobian", "analysis.svd",
         "tracking.lstsq", "tracking.gauss_newton_correct", "analysis.classify",
         "kinematics.fold_mesh", "collision.check_state", "collision.ear_clip",
         "genericity.pack_spanning_trees", "model.validate_pattern",
         "singlevertex.solve_degree3", "singlevertex.classify_vertex",
         "singlevertex.explore_vertex", "cli.main")
SELF = ("constraints.residual", "analysis.jacobian", "analysis.svd",
        "tracking.gauss_newton_correct", "analysis.classify",
        "kinematics.fold_mesh", "kinematics.build_spanning_tree",
        "collision.check_state", "genericity.is_generically_rigid",
        "genericity.dual_graph", "genericity.pack_spanning_trees",
        "model.validate_pattern", "model.load_pattern",
        "singlevertex.solve_degree3", "singlevertex.classify_vertex",
        "singlevertex.explore_vertex", "cli.main")
COUNTS = ("tracking.samples", "tracking.corrector_iters",
          "tracking.step_halvings", "collision.pairs_considered",
          "collision.pairs_flagged", "genericity.multigraph.edges",
          "cli.bytes_out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs, one pass")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- environment ---------------------------------------------------------------

def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for f in sorted((SRC / "rigidori").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {"git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_threads(np),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# -- serving -----------------------------------------------------------------------

class Server:
    """Serves requests one at a time and checks each output off the clock."""

    def __init__(self, workload, ctx, check_failed):
        self.wl = workload
        self.ctx = ctx
        self.check_failed = check_failed
        self.errors: list[str] = []

    def serve(self, req, tracer=None, rid=None):
        """Return (seconds, ok, output)."""
        row = tracer.begin(rid, f"request.{req.kind}") if tracer else None
        t0 = perf_counter()
        try:
            out = self.wl.run(self.ctx, req)
            err = None
        except Exception:   # a failed request is counted, the run goes on
            out, err = None, traceback.format_exc()
        dt = perf_counter() - t0
        if tracer:
            tracer.end(row)
            tracer.active = False
        if err is None:
            try:
                self.wl.check(self.ctx, req, out)
            except self.check_failed as exc:
                err = f"check failed: {exc}"
            except Exception:
                err = "check raised:\n" + traceback.format_exc()
        if tracer:
            tracer.active = True
        if err is not None:
            self.errors.append(f"{req.kind} {req.args!r:.200}: {err}")
        return dt, err is None, out


def warm_up(server, pool):
    spent = 0.0
    for k, req in enumerate(pool):
        if k >= 2 and spent >= WARMUP_MIN_S:
            break
        spent += server.serve(req)[0]


def timed_phase(server, files, pool, seconds, smoke):
    """Whole passes until about ``seconds`` of request and set-up time.

    The set-up runs before the first request and again after every
    SETUP_EVERY_S of request time, so that its samples see the host at the
    same moments as the requests do.  Returns (latencies, failed, passes,
    set-up times).
    """
    lat, setups, failed, passes = [], [], 0, 0
    since_setup = SETUP_EVERY_S
    while True:
        for req in pool:
            if since_setup >= SETUP_EVERY_S:
                t0 = perf_counter()
                server.wl.setup(files)
                setups.append(perf_counter() - t0)
                since_setup = 0.0
            dt, ok, _ = server.serve(req)
            lat.append(dt)
            since_setup += dt
            failed += not ok
        passes += 1
        busy = sum(lat) + sum(setups)
        # stop at the pass boundary nearest to the target
        if smoke or busy >= seconds - busy / passes / 2:
            return lat, failed, passes, setups


def tail(lat):
    """Latency with TAIL_BEYOND requests beyond it, and its percentile.

    Runs too short to have that many give their maximum.
    """
    ordered = sorted(lat)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * k / n


def end_to_end(setup_times, lat):
    tail_s, _ = tail(lat)
    return {"setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_ms.p50": (statistics.median(lat) * 1e3, "ms"),
            "op_ms.tail": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}


def layer_metrics(summary, counts, overhead):
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    for name in SELF:
        m[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "B" if name == "cli.bytes_out" else "count")
    samples = counts.get("tracking.samples", 0)
    per = (lambda x: x / samples) if samples else (lambda x: 0.0)
    m["tracking.residuals_per_sample"] = (per(get("constraints.residual", "in_track")),
                                          "count/sample")
    m["tracking.jacobians_per_sample"] = (per(get("analysis.jacobian", "in_track")),
                                          "count/sample")
    m["tracking.svds_per_sample"] = (per(get("analysis.svd", "in_track")), "count/sample")
    considered = counts.get("collision.pairs_considered", 0)
    m["collision.flagged_ratio"] = (
        counts.get("collision.pairs_flagged", 0) / considered if considered else 0.0,
        "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def absent_functions(wrapped):
    wanted = {n for n in CALLS + SELF} | {"tracking.track_flex", "genericity.multigraph"}
    return sorted(wanted - set(wrapped))


# -- main --------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rigidori" / "__init__.py").is_file():
        print(f"perfbench: no rigidori sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads
    from spans import Tracer

    env = environment(np)
    wl = workloads.WORKLOADS[args.workload]
    file_seq, req_seq = np.random.SeedSequence(args.seed).spawn(2)
    OUT.mkdir(exist_ok=True)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "smoke": args.smoke, "seconds": args.seconds, "env": env}

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        files = wl.write_inputs(Path(tmp), np.random.default_rng(file_seq), args.smoke)
        ctx = wl.setup(files)
        pool = wl.requests(ctx, np.random.default_rng(req_seq), args.smoke)
        server = Server(wl, ctx, workloads.CheckFailed)
        warm_up(server, pool)

        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.active = True
            try:
                row = tracer.begin("setup", "request.setup")
                wl.setup(files)
                tracer.end(row)
                base, traced = [], []
                for rid, req in enumerate(pool):
                    # each request runs untraced, then traced, back to back,
                    # so that both see the same speed of the host
                    tracer.detach()
                    base.append(server.serve(req)[:2])
                    tracer.attach()
                    dt, ok, out = server.serve(req, tracer, rid)
                    traced.append((dt, ok))
                    if ok:
                        for name, value in wl.counts(req, out).items():
                            tracer.counts[name] += value
            finally:
                tracer.active = False
                tracer.detach()
            overhead = statistics.median(t[0] / b[0] for t, b in zip(traced, base)) - 1.0
            summary = tracer.summary()
            metrics = layer_metrics(summary, tracer.counts, overhead)
            absent = absent_functions(tracer.wrapped)
            attempted = len(base) + len(traced)
            failed = sum(not t[1] for t in base + traced)
            trace_file = OUT / f"{args.workload}-seed{args.seed}.spans.json.gz"
            tracer.dump(trace_file)
            details.update(absent=absent, functions=summary, spans=len(tracer.rows),
                           spans_file=str(trace_file.relative_to(ROOT)))
        else:
            lat, failed, passes, setup_times = timed_phase(server, files, pool,
                                                           args.seconds, args.smoke)
            attempted = len(lat)
            metrics = end_to_end(setup_times, lat)
            _, pct = tail(lat)
            details.update(requests=attempted, passes=passes, pool=len(pool), latencies=lat,
                           tail_percentile=pct, tail_beyond=TAIL_BEYOND,
                           fail_frac=failed / attempted,
                           setup_times=setup_times)
        try:
            wl.final_check(ctx)
            final_error = None
        except workloads.CheckFailed as exc:
            final_error = f"final check failed: {exc}"
            server.errors.append(final_error)

    correct = failed == 0 and final_error is None
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    details.update(result, errors=server.errors[:20])
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(details, indent=1, default=str) + "\n")

    for err in server.errors[:5]:
        print(err, file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        print(f"{args.workload} seed {args.seed}: traced {len(pool)} requests, "
              f"{details['spans']} spans; absent: {', '.join(absent) or 'none'}")
    else:
        print(f"{args.workload} seed {args.seed}: {attempted} requests in "
              f"{details['passes']} passes of {len(pool)}, {failed} failed "
              f"(fail_frac {details['fail_frac']:g}); tail is p{pct:.1f}; "
              f"setup median of {len(setup_times)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
