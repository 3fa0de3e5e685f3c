"""Command-line interface: validate, analyze, track, export-obj, generic,
solve-vertex.

Configuration precedence is flags > environment (RIGIDORI_*) > config file.
All command output is canonical JSON (sorted keys), so identical inputs and
configuration produce byte-identical results.  Exit codes: 0 success,
2 validation failure, 3 numeric failure, 4 infeasible or locked.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis, collision, constraints, genericity, singlevertex, tracking
from .errors import (CorrectorDiverged, NoCase, NotAFlex, NotOnVariety,
                     PatternError, RigidOrigamiError)
from .kinematics import fold_mesh
from .model import load_pattern

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_LOCKED = 4


@dataclass
class RunConfig:
    residual_tol: float = constraints.RESIDUAL_TOL
    rank_tol: float = analysis.RANK_REL_TOL
    step_size: float = tracking.DEFAULT_STEP
    corrector_tol: float = tracking.CORRECTOR_TOL
    max_steps: int = 100
    degrees: bool = False

    def validate(self):
        for name in ("residual_tol", "rank_tol", "step_size", "corrector_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.step_size >= math.pi:
            raise ValueError("step_size must be smaller than pi")
        return self


def resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        for f in fields(RunConfig):
            if f.name in file_values:
                setattr(cfg, f.name, type(getattr(cfg, f.name))(file_values[f.name]))
    for f in fields(RunConfig):
        env = os.environ.get(f"RIGIDORI_{f.name.upper()}")
        if env is not None:
            cur = getattr(cfg, f.name)
            setattr(cfg, f.name, type(cur)(json.loads(env)))
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg.validate()


def _emit(payload: dict, path: str | None = None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _parse_vector(text: str, degrees: bool) -> np.ndarray:
    if text.startswith("@"):
        data = json.loads(Path(text[1:]).read_text(encoding="utf-8"))
        vec = np.asarray(data, dtype=float)
    else:
        vec = np.array([float(x) for x in text.split(",") if x.strip()])
    if degrees:
        vec = np.radians(vec)
    return vec


def _rho_for(pattern, args, cfg) -> np.ndarray:
    if getattr(args, "rho", None):
        return _parse_vector(args.rho, cfg.degrees)
    return pattern.initial_state().rho


# -- OBJ export ---------------------------------------------------------------

def write_obj(pattern, mesh, path, comments=()):
    """Triangulated OBJ of a folded mesh, deterministic vertex order."""
    lines = [f"# {c}" for c in comments]
    offset = 1
    face_lines = []
    triangles = collision.panel_triangles(pattern).local
    for p, poly in enumerate(mesh):
        for x, y, z in poly:
            lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
        for i, j, k in triangles[p]:
            face_lines.append(f"f {offset + i} {offset + j} {offset + k}")
        offset += len(poly)
    Path(path).write_text("\n".join(lines + face_lines) + "\n", encoding="utf-8")


def _write_frame(pattern, rho, residual_norm, path):
    write_obj(pattern, fold_mesh(pattern, rho), path,
              comments=[f"rho {list(map(float, rho))}", f"residual {residual_norm!r}"])


def _write_frames(pattern, samples, residuals, out) -> Path:
    """``frame_0000.obj``, ... in the directory ``out``, one per sample."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for k, (rho, residual_norm) in enumerate(zip(samples, residuals)):
        _write_frame(pattern, rho, residual_norm, out / f"frame_{k:04d}.obj")
    return out


# -- commands -----------------------------------------------------------------

def cmd_validate(args) -> int:
    cfg = resolve_config(args)
    pattern = load_pattern(args.file, degrees=cfg.degrees)
    system = constraints.build_system(pattern)
    rho = _rho_for(pattern, args, cfg)
    res = constraints.residual(system, rho)
    _emit({
        "valid": True,
        "panels": len(pattern.panels),
        "inner_creases": pattern.n_vars,
        "inner_vertices": len(pattern.inner_vertices),
        "holes": len(pattern.holes),
        "vertex_loops": system.n_vertex_loops,
        "hole_loops": system.n_hole_loops,
        "residual_dim": system.residual_dim,
        "free_creases": system.free_vars,
        "residual_max_norm": res.max_norm,
    }, args.json_out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = resolve_config(args)
    pattern = load_pattern(args.file, degrees=cfg.degrees)
    system = constraints.build_system(pattern)
    rho = _rho_for(pattern, args, cfg)
    report = analysis.classify(system, rho, residual_tol=cfg.residual_tol,
                               rank_tol=cfg.rank_tol)
    _emit({
        "residual_max_norm": report.residual_norm,
        "rank": report.rank,
        "deg": report.deg,
        "first_order_rigid": report.first_order_rigid,
        "regular": report.regular,
        "flex_basis": [[float(x) for x in col] for col in report.flex_basis.T],
        "stress_dim": report.corank,
        "flat_state": constraints.is_flat_state(rho),
    }, args.json_out)
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = resolve_config(args)
    pattern = load_pattern(args.file, degrees=cfg.degrees)
    system = constraints.build_system(pattern)
    rho = _rho_for(pattern, args, cfg)
    direction = _parse_vector(args.direction, cfg.degrees)
    path = tracking.track_flex(system, rho, direction,
                               steps=cfg.max_steps, step_size=cfg.step_size,
                               residual_tol=cfg.residual_tol,
                               corrector_tol=cfg.corrector_tol,
                               rank_tol=cfg.rank_tol)
    payload = {
        "termination": path.termination,
        "samples": [[float(x) for x in s] for s in path.samples],
        "residuals": [float(r) for r in path.residuals],
        "monotonicity": path.monotonicity(),
    }
    _emit(payload, args.json_out)
    if args.obj_dir:
        _write_frames(pattern, path.samples, path.residuals, args.obj_dir)
    return EXIT_OK


def cmd_export_obj(args) -> int:
    cfg = resolve_config(args)
    pattern = load_pattern(args.file, degrees=cfg.degrees)
    system = constraints.build_system(pattern)
    if args.path:
        samples = [np.asarray(s, dtype=float)
                   for s in json.loads(Path(args.path).read_text(encoding="utf-8"))["samples"]]
        out = _write_frames(pattern, samples, (constraints.residual(system, s).max_norm
                                               for s in samples), args.out)
        _emit({"frames": len(samples), "dir": str(out)})
        return EXIT_OK
    rho = _rho_for(pattern, args, cfg)
    _write_frame(pattern, rho, constraints.residual(system, rho).max_norm, args.out)
    _emit({"frames": 1, "file": args.out})
    return EXIT_OK


def cmd_generic(args) -> int:
    cfg = resolve_config(args)
    pattern = load_pattern(args.file, degrees=cfg.degrees)
    dual = genericity.dual_graph(pattern)
    report = genericity.is_generically_rigid(pattern,
                                             sample_realizations=args.samples)
    payload = {
        "generically_rigid": report.generically_rigid,
        "dual_faces": dual.n_faces,
        "dual_edges": len(dual.dual_edges),
        "counting_lower_bound": report.counting_lower_bound,
        "trees": report.packing.trees if report.packing.feasible else None,
        "partition": report.packing.partition,
    }
    if report.sampled_rigid_realization is not None:
        payload["sampled_rigid_realization"] = report.sampled_rigid_realization
        payload["sampling_disagreement"] = report.disagreement
    _emit(payload, args.json_out)
    if args.dot:
        Path(args.dot).write_text(genericity.to_dot(dual), encoding="utf-8")
    return EXIT_OK


def cmd_solve_vertex(args) -> int:
    cfg = resolve_config(args)
    alphas = _parse_vector(args.alphas, cfg.degrees)
    payload: dict = {"alphas": [float(a) for a in alphas]}
    if len(alphas) <= 2:
        result = singlevertex.solve_degree_1_2(alphas)
        payload["cases"] = result.cases
        solutions = result.solutions
    else:
        case = singlevertex.classify_vertex(alphas)
        payload["tag"] = case.tag
        payload["detail"] = {
            k: (v if not isinstance(v, (list, tuple, np.ndarray)) else
                [list(x) if isinstance(x, (tuple, list)) else x for x in v])
            for k, v in case.detail.items()
        }
        solutions = case.solutions
    if solutions is not None:
        payload["points"] = [[float(x) for x in p] for p in solutions.points]
        payload["families"] = [{"pair": list(f.pair), "zeros": list(f.zeros)}
                               for f in solutions.families]
    _emit(payload, args.json_out)
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rigidori",
                                 description="Rigid origami kinematics and "
                                             "rigidity analysis")
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--residual-tol", dest="residual_tol", type=float)
    ap.add_argument("--rank-tol", dest="rank_tol", type=float)
    ap.add_argument("--step-size", dest="step_size", type=float)
    ap.add_argument("--corrector-tol", dest="corrector_tol", type=float)
    ap.add_argument("--max-steps", dest="max_steps", type=int)
    ap.add_argument("--degrees", dest="degrees", action="store_const", const=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a pattern file")
    p.add_argument("file")
    p.add_argument("--rho")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="rigidity report at a state")
    p.add_argument("file")
    p.add_argument("--rho")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("track", help="trace a folding motion along a flex")
    p.add_argument("file")
    p.add_argument("--rho")
    p.add_argument("--direction", required=True)
    p.add_argument("--json-out")
    p.add_argument("--obj-dir")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("export-obj", help="write folded meshes as OBJ")
    p.add_argument("file")
    p.add_argument("--rho")
    p.add_argument("--path", help="path JSON produced by track")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_obj)

    p = sub.add_parser("generic", help="combinatorial generic rigidity")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--dot")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_generic)

    p = sub.add_parser("solve-vertex", help="closed-form single-vertex solutions")
    p.add_argument("--alphas", required=True)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_solve_vertex)
    return ap


def main(argv=None) -> int:
    # the parser is built once per process; each call parses into a fresh
    # namespace, and resolve_config reads RIGIDORI_* at call time
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PatternError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_VALIDATION
    except (NotAFlex, CorrectorDiverged) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_LOCKED
    except (NotOnVariety, NoCase, RigidOrigamiError, np.linalg.LinAlgError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_NUMERIC
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
