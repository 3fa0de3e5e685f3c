import json
import math
import os

import numpy as np
import pytest

from rigidori.cli import main
from rigidori.model import pattern_to_dict, save_pattern
from rigidori import patterns


@pytest.fixture
def fig2_file(tmp_path):
    f = tmp_path / "cross.json"
    save_pattern(patterns.cross_vertex(), f)
    return str(f)


@pytest.fixture
def ring_file(tmp_path):
    f = tmp_path / "ring.json"
    save_pattern(patterns.pentagon_ring(), f)
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_square_diagonal(tmp_path, capsys):
    f = tmp_path / "sq.json"
    save_pattern(patterns.square_diagonal(), f)
    code, payload = run_cli(capsys, "validate", str(f))
    assert code == 0
    assert payload["valid"] and payload["panels"] == 2
    assert payload["inner_creases"] == 1 and payload["free_creases"] == [0]


def test_validate_rejects_crossing_creases(tmp_path, capsys):
    data = pattern_to_dict(patterns.square_diagonal())
    data["edges_vertices"].append([1, 3])
    data["edges_assignment"].append("F")
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data), encoding="utf-8")
    code, payload = run_cli(capsys, "validate", str(f))
    assert code == 2
    assert payload["error"] == "NonPlanar"


def test_validate_ring_reports_hole(ring_file, capsys):
    code, payload = run_cli(capsys, "validate", ring_file)
    assert code == 0
    assert payload["holes"] == 1
    assert payload["hole_loops"] == 1
    assert payload["residual_dim"] == 6


def test_analyze_flat_cross(fig2_file, capsys):
    code, payload = run_cli(capsys, "analyze", fig2_file, "--rho", "0,0,0,0")
    assert code == 0
    assert payload["deg"] == 2 and payload["rank"] == 2
    assert not payload["first_order_rigid"]


def test_analyze_cube_corner(tmp_path, capsys):
    f = tmp_path / "cone.json"
    save_pattern(patterns.single_vertex_cone([math.pi / 2] * 3), f)
    rho = ",".join([repr(math.pi / 2)] * 3)
    code, payload = run_cli(capsys, "analyze", str(f), "--rho", rho)
    assert code == 0
    assert payload["deg"] == 0 and payload["first_order_rigid"]


def test_analyze_off_variety_is_numeric_failure(fig2_file, capsys):
    code, payload = run_cli(capsys, "analyze", fig2_file, "--rho", "0.4,0.4,0,0")
    assert code == 3
    assert payload["error"] == "NotOnVariety"


def test_track_and_mirror(fig2_file, capsys):
    code, fwd = run_cli(capsys, "--max-steps", "20", "track", fig2_file,
                        "--direction", "0,1,0,1")
    assert code == 0
    assert len(fwd["samples"]) == 21
    assert fwd["monotonicity"] == ["constant", "increasing",
                                   "constant", "increasing"]
    code, bwd = run_cli(capsys, "--max-steps", "20", "track", fig2_file,
                        "--direction", "0,-1,0,-1")
    assert code == 0
    assert np.abs(np.array(fwd["samples"]) + np.array(bwd["samples"])).max() < 1e-9


def test_track_honours_rank_tol(fig2_file, capsys):
    # a loose rank cutoff sees the rank drop on the way to the flat state
    code, payload = run_cli(capsys, "--rank-tol", "0.1", "track", fig2_file,
                            "--rho", "0.4,0,0.4,0", "--direction=-1,0,-1,0")
    assert code == 0
    assert payload["termination"] == "branch-point"
    assert len(payload["samples"]) == 19


def test_track_rigid_state_exit_code(tmp_path, capsys):
    f = tmp_path / "cone.json"
    cone = patterns.single_vertex_cone([math.pi / 2] * 3)
    cone.rho0 = np.array([math.pi / 2] * 3)
    save_pattern(cone, f)
    code, payload = run_cli(capsys, "track", str(f), "--direction", "1,0,0")
    assert code == 4
    assert payload["error"] == "NotAFlex"


def test_export_obj_flat(tmp_path, fig2_file, capsys):
    out = tmp_path / "flat.obj"
    code, payload = run_cli(capsys, "export-obj", fig2_file,
                            "--rho", "0,0,0,0", "--out", str(out))
    assert code == 0
    text = out.read_text()
    zs = [float(line.split()[3]) for line in text.splitlines()
          if line.startswith("v ")]
    assert max(abs(z) for z in zs) == 0.0
    assert text.splitlines()[0].startswith("# rho")


def test_export_obj_path_frames(tmp_path, fig2_file, capsys):
    pj = tmp_path / "path.json"
    code, payload = run_cli(capsys, "--max-steps", "5", "track", fig2_file,
                            "--direction", "0,1,0,1", "--json-out", str(pj))
    assert code == 0
    outdir = tmp_path / "frames"
    code, payload = run_cli(capsys, "export-obj", fig2_file,
                            "--path", str(pj), "--out", str(outdir))
    assert code == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        f"frame_{k:04d}.obj" for k in range(6)]


def test_track_frames_equal_export_obj_frames(tmp_path, fig2_file, capsys):
    pj, tracked, exported = (tmp_path / "path.json", tmp_path / "track",
                             tmp_path / "export")
    code, _ = run_cli(capsys, "--max-steps", "8", "track", fig2_file, "--rho",
                      "0.4,0,0.4,0", "--direction=1,0,1,0", "--json-out", str(pj),
                      "--obj-dir", str(tracked))
    assert code == 0
    code, _ = run_cli(capsys, "export-obj", fig2_file, "--path", str(pj),
                      "--out", str(exported))
    assert code == 0
    names = sorted(p.name for p in tracked.iterdir())
    assert names == [f"frame_{k:04d}.obj" for k in range(9)]
    assert sorted(p.name for p in exported.iterdir()) == names
    for name in names:
        assert (tracked / name).read_bytes() == (exported / name).read_bytes()


def test_generic_command(tmp_path, capsys):
    f = tmp_path / "grid.json"
    save_pattern(patterns.sheared_grid(2, 2, shear=0.0), f)
    dot = tmp_path / "dual.dot"
    code, payload = run_cli(capsys, "generic", str(f), "--dot", str(dot))
    assert code == 0
    assert payload["generically_rigid"] is True
    assert payload["trees"] and len(payload["trees"]) == 6
    assert dot.read_text().startswith("graph G {")


def test_solve_vertex_command(capsys):
    code, payload = run_cli(capsys, "--degrees", "solve-vertex",
                            "--alphas", "120,120,120")
    assert code == 0
    assert payload["tag"] == "developableConvex"
    assert payload["points"] == [[0.0, 0.0, 0.0]]

    code, payload = run_cli(capsys, "solve-vertex", "--alphas", "3.141592653589793,3.141592653589793")
    assert code == 0
    assert "family" in payload["cases"]


def test_output_determinism(tmp_path, fig2_file, capsys):
    code1, _ = run_cli(capsys, "validate", fig2_file)
    main(["validate", fig2_file])
    text1 = capsys.readouterr().out
    main(["validate", fig2_file])
    text2 = capsys.readouterr().out
    assert text1 == text2


def test_config_precedence(tmp_path, fig2_file, capsys, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"max_steps": 7}), encoding="utf-8")
    code, payload = run_cli(capsys, "--config", str(cfgfile), "track",
                            fig2_file, "--direction", "0,1,0,1")
    assert len(payload["samples"]) == 8

    monkeypatch.setenv("RIGIDORI_MAX_STEPS", "4")
    code, payload = run_cli(capsys, "--config", str(cfgfile), "track",
                            fig2_file, "--direction", "0,1,0,1")
    assert len(payload["samples"]) == 5  # env beats file

    code, payload = run_cli(capsys, "--config", str(cfgfile), "--max-steps", "3",
                            "track", fig2_file, "--direction", "0,1,0,1")
    assert len(payload["samples"]) == 4  # flag beats env


def test_cached_parser_reads_each_call_afresh(fig2_file, capsys, monkeypatch):
    from rigidori.cli import build_parser
    assert build_parser() is build_parser()
    for steps in (3, 6):
        monkeypatch.setenv("RIGIDORI_MAX_STEPS", str(steps))
        code, payload = run_cli(capsys, "track", fig2_file, "--direction", "0,1,0,1")
        assert code == 0 and len(payload["samples"]) == steps + 1
    # off the variety, then the flat default: --rho is not carried over
    code, payload = run_cli(capsys, "analyze", fig2_file, "--rho", "0.4,0.4,0,0")
    assert code == 3 and payload["error"] == "NotOnVariety"
    code, payload = run_cli(capsys, "analyze", fig2_file)
    assert code == 0 and payload["deg"] == 2


def test_bad_config_value_rejected(fig2_file, capsys):
    code, payload = run_cli(capsys, "--step-size", "-1.0", "validate", fig2_file)
    assert code == 2


def test_rho_from_json_file(tmp_path, fig2_file, capsys):
    rf = tmp_path / "rho.json"
    rf.write_text(json.dumps([0.5, 0.0, 0.5, 0.0]), encoding="utf-8")
    code, payload = run_cli(capsys, "analyze", fig2_file, "--rho", "@" + str(rf))
    assert code == 0 and payload["deg"] == 1
