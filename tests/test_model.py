import json
import math

import numpy as np
import pytest

from rigidori import (CreasePattern, FoldState, dumps_pattern, load_pattern,
                      pattern_from_dict, pattern_to_dict, save_pattern,
                      validate_pattern)
from rigidori.errors import (DanglingCrease, Disconnected, NonPlanar,
                             OpenPanel, PatternError)
from rigidori.model import Crease
from rigidori import patterns


def test_square_diagonal_counts():
    pat = patterns.square_diagonal()
    assert len(pat.panels) == 2
    assert len(pat.inner_creases) == 1
    assert len(pat.outer_creases) == 4
    assert pat.n_vars == 1


def test_cross_vertex_sector_angles():
    pat = patterns.cross_vertex()
    assert len(pat.inner_creases) == 4
    assert pat.inner_vertices == [0]
    alphas = pat.sector_angles(0)
    assert np.allclose(alphas, math.pi / 2)


def test_two_triangles_sharing_vertex_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
    creases = [
        Crease(0, 1, "outer"), Crease(1, 2, "outer"), Crease(2, 0, "outer"),
        Crease(0, 3, "outer"), Crease(3, 4, "outer"), Crease(4, 0, "outer"),
    ]
    panels = [[0, 1, 2], [0, 3, 4]]
    with pytest.raises((Disconnected, DanglingCrease)):
        validate_pattern(CreasePattern(verts, creases, panels))


def test_crossing_creases_rejected():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    creases = [
        Crease(0, 1, "outer"), Crease(1, 2, "outer"),
        Crease(2, 3, "outer"), Crease(3, 0, "outer"),
        Crease(0, 2, "inner"), Crease(1, 3, "inner"),
    ]
    panels = [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(NonPlanar):
        validate_pattern(CreasePattern(verts, creases, panels))


def test_vertex_inside_crease_rejected():
    verts = [(0, 0), (2, 0), (2, 1), (0, 1), (1.0, 0.5)]
    creases = [
        Crease(0, 1, "outer"), Crease(1, 2, "outer"),
        Crease(2, 3, "outer"), Crease(3, 0, "outer"),
        Crease(0, 2, "inner"),
    ]
    with pytest.raises(NonPlanar):
        validate_pattern(CreasePattern(verts, creases, [[0, 1, 2], [0, 2, 3]]))


def test_open_panel_rejected():
    verts = [(0, 0), (1, 0), (1, 1), (0, 1)]
    creases = [
        Crease(0, 1, "outer"), Crease(1, 2, "outer"),
        Crease(2, 3, "outer"), Crease(3, 0, "outer"),
    ]
    with pytest.raises(OpenPanel):
        # (0,2) is not a crease, so the cycle is not bounded by creases
        validate_pattern(CreasePattern(verts, creases, [[0, 1, 2], [0, 2, 3]]))


def test_dangling_inner_crease_rejected():
    pat = patterns.square_diagonal()
    creases = list(pat.creases)
    creases[0] = Crease(0, 1, "inner")  # boundary edge mislabelled as inner
    with pytest.raises(DanglingCrease):
        validate_pattern(CreasePattern(pat.vertices, creases, pat.panels))


def test_base_panel_must_exist():
    pat = patterns.square_diagonal()
    with pytest.raises(PatternError):
        validate_pattern(CreasePattern(pat.vertices, pat.creases, pat.panels,
                                       base_panel=7))


def test_panel_orientation_normalized():
    pat = patterns.square_diagonal()
    panels = [list(reversed(pat.panels[0])), pat.panels[1]]
    out = validate_pattern(CreasePattern(pat.vertices, pat.creases, panels))
    assert out.panel_area(0) > 0 and out.panel_area(1) > 0


def test_serialization_round_trip_bit_identical(tmp_path):
    pat = patterns.miura_3x3()
    text1 = dumps_pattern(pat)
    back = validate_pattern(pattern_from_dict(json.loads(text1)))
    assert dumps_pattern(back) == text1

    f = tmp_path / "pattern.json"
    save_pattern(pat, f)
    again = load_pattern(f)
    assert dumps_pattern(again) == text1


def test_sector_angles_match_coordinates(rng):
    pat = patterns.sheared_grid(3, 3, shear=0.3, jitter=0.12, seed=5)
    for v in pat.inner_vertices:
        alphas = pat.sector_angles(v)
        # recompute directly from coordinates
        fan = pat.vertex_creases[v]
        angs = [math.atan2(*(pat.vertices[pat.creases[c].other(v)]
                             - pat.vertices[v])[::-1]) for c in fan]
        recomputed = [(angs[j] - angs[j - 1]) % (2 * math.pi)
                      for j in range(len(fan))]
        assert np.abs(alphas - recomputed).max() < 1e-12
        assert abs(float(np.sum(alphas)) - 2 * math.pi) < 1e-12


def test_scaling_preserves_sector_angles():
    pat = patterns.miura_3x3()
    scaled = validate_pattern(pat.scaled(3.7))
    for v in pat.inner_vertices:
        assert np.abs(pat.sector_angles(v) - scaled.sector_angles(v)).max() < 1e-12


def test_fold_state_bounds_and_mirror():
    with pytest.raises(ValueError):
        FoldState([4.0])
    st = FoldState([0.5, -math.pi], [(0, 2, 1)])
    m = st.mirrored()
    assert np.allclose(m.rho, [-0.5, math.pi])
    assert m.lambda_pairs == [(0, 2, -1)]


def test_degrees_flag_on_load():
    pat = patterns.square_diagonal()
    data = pattern_to_dict(pat)
    data["rigidori"]["rho0"] = [90.0]
    loaded = validate_pattern(pattern_from_dict(data, degrees=True))
    assert abs(loaded.rho0[0] - math.pi / 2) < 1e-12


def test_cone_pattern_stores_overrides():
    pat = patterns.single_vertex_cone([math.pi / 2] * 3)
    assert pat.is_cone
    assert np.allclose(pat.sector_angles(0), math.pi / 2)
    with pytest.raises(PatternError):
        validate_pattern(CreasePattern(pat.vertices, pat.creases, pat.panels,
                                       alpha_override={0: [0.1, 0.2]}))


def test_duplicate_crease_rejected():
    pat = patterns.square_diagonal()
    creases = list(pat.creases) + [Crease(2, 0, "inner")]
    with pytest.raises(PatternError):
        validate_pattern(CreasePattern(pat.vertices, creases, pat.panels))


def test_hole_cycle_must_be_creases():
    pat = patterns.pentagon_ring()
    with pytest.raises(PatternError):
        validate_pattern(CreasePattern(pat.vertices, pat.creases, pat.panels,
                                       holes=[[5, 7, 9]]))
