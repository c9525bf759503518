import math
import warnings

import numpy as np
import pytest

from ionwire import geometry
from ionwire.geometry import (RectPatch, effective_distance,
                              effective_distance_table, patch_field,
                              patch_potential, patch_solid_angle,
                              sample_field)

PADDLE = RectPatch.centered_square(120e-6)


def richardson_gradient(f, p, h):
    out = []
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        f1 = f(p + dp) - f(p - dp)
        f2 = f(p + 2 * dp) - f(p - 2 * dp)
        out.append((8 * f1 - f2) / (12 * h))
    return np.array(out)


def test_cube_face_potential():
    # a square patch seen from half a side length on axis subtends the
    # solid angle of one cube face, 4 pi / 6, so phi = U/3 exactly
    phi = patch_potential(PADDLE, (0.0, 0.0, 60e-6))
    assert phi == pytest.approx(1.0 / 3.0, abs=1e-12)
    omega = patch_solid_angle(PADDLE, (0.0, 0.0, 60e-6))
    assert omega == pytest.approx(2.0 * math.pi / 3.0, abs=1e-12)


def test_solid_angle_limits():
    # approaches the full half space just above the patch center; the
    # deficit closes linearly in z, at z/side = 1e-5 it is ~1e-5
    near = patch_solid_angle(PADDLE, (0.0, 0.0, 1e-9))
    assert near == pytest.approx(2.0 * math.pi, rel=1e-4)
    far = patch_solid_angle(PADDLE, (0.0, 0.0, 0.5))
    assert 0.0 < far < 1e-4


def test_effective_distance_frozen_values():
    # frozen from this implementation; regression anchors in micrometers
    expected = {50e-6: 131.069935, 60e-6: 163.241943,
                70e-6: 203.985356, 80e-6: 254.423273}
    for h, d_um in expected.items():
        assert effective_distance(PADDLE, h) * 1e6 == pytest.approx(
            d_um, abs=1e-3)


def test_effective_distance_is_inverse_axial_field():
    for h in (50e-6, 60e-6, 110e-6):
        ez = patch_field(PADDLE, (0.0, 0.0, h))[2]
        assert effective_distance(PADDLE, h) == pytest.approx(
            1.0 / abs(ez), rel=1e-12)


def test_effective_distance_benchmark_height():
    d = effective_distance(PADDLE, 50e-6)
    assert abs(d - 130e-6) / 130e-6 < 0.10


def test_field_matches_finite_differences():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        p = np.array([rng.uniform(-200e-6, 200e-6),
                      rng.uniform(-200e-6, 200e-6),
                      rng.uniform(10e-6, 500e-6)])
        phi = lambda q: patch_potential(PADDLE, (q[0], q[1], q[2]))
        e_fd = -richardson_gradient(phi, p, 1e-9)
        e_an = np.array(patch_field(PADDLE, tuple(p)))
        scale = max(np.linalg.norm(e_an), 1e-6)
        worst = max(worst, np.linalg.norm(e_fd - e_an) / scale)
    assert worst < 1e-8


def test_potential_superposition():
    # splitting the patch in two must reproduce the whole
    left = RectPatch(-60e-6, 0.0, -60e-6, 60e-6)
    right = RectPatch(0.0, 60e-6, -60e-6, 60e-6)
    rng = np.random.default_rng(31)
    for _ in range(100):
        pos = (rng.uniform(-150e-6, 150e-6), rng.uniform(-150e-6, 150e-6),
               rng.uniform(5e-6, 300e-6))
        whole = patch_potential(PADDLE, pos)
        parts = patch_potential(left, pos) + patch_potential(right, pos)
        assert parts == pytest.approx(whole, abs=1e-12 + 1e-12 * abs(whole))


def test_far_field_asymptotics():
    # phi -> U A / (2 pi z^2) and E_z -> U A / (pi z^3) far above the patch
    area = 120e-6 * 120e-6
    for z in (0.012, 0.05):
        phi = patch_potential(PADDLE, (0.0, 0.0, z))
        ez = abs(patch_field(PADDLE, (0.0, 0.0, z))[2])
        assert phi / (area / (2 * math.pi * z * z)) == pytest.approx(1.0, abs=1e-3)
        assert ez / (area / (math.pi * z ** 3)) == pytest.approx(1.0, abs=1e-3)


def test_potential_bounded():
    rng = np.random.default_rng(5)
    for _ in range(200):
        pos = (rng.uniform(-400e-6, 400e-6), rng.uniform(-400e-6, 400e-6),
               rng.uniform(1e-6, 1e-3))
        phi = patch_potential(PADDLE, pos)
        assert 0.0 < phi < 1.0


def test_sample_field_consistency():
    pos = (10e-6, -20e-6, 70e-6)
    s = sample_field(PADDLE, pos)
    assert s.position == pos
    assert s.potential == pytest.approx(patch_potential(PADDLE, pos), rel=1e-15)
    assert np.allclose(s.field, patch_field(PADDLE, pos), rtol=1e-15)


def test_effective_distance_table_monotone():
    heights = np.array([40, 50, 60, 70, 80, 100, 150, 200]) * 1e-6
    table = effective_distance_table(120e-6, heights)
    assert table.shape == (8, 2)
    assert np.allclose(table[:, 0], heights)
    d = table[:, 1]
    assert np.all(np.diff(d) > 0)
    assert np.all(d >= heights)


def test_geometry_error_paths():
    with pytest.raises(ValueError):
        RectPatch(1.0, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        patch_potential(PADDLE, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        patch_field(PADDLE, (0.0, 0.0, -10e-6))
    with pytest.raises(ValueError):
        effective_distance(PADDLE, 0.0)
    for bad in (math.nan, math.inf, np.array([40e-6, math.nan])):
        with pytest.raises(ValueError, match="height"):
            effective_distance(PADDLE, bad)


@pytest.mark.parametrize("name,call", [
    ("side", lambda: RectPatch.centered_square(math.inf)),
    ("side", lambda: RectPatch.centered_square(math.nan)),
    ("voltage", lambda: RectPatch.centered_square(120e-6, math.nan)),
    ("voltage", lambda: RectPatch(-1.0, 1.0, -1.0, 1.0, math.nan)),
    ("x_min", lambda: RectPatch(-math.inf, 1.0, -1.0, 1.0)),
    ("x_max", lambda: RectPatch(-1.0, math.inf, -1.0, 1.0)),
    ("y_min", lambda: RectPatch(-1.0, 1.0, math.nan, 1.0)),
    ("y_max", lambda: RectPatch(-1.0, 1.0, -1.0, math.inf))])
def test_rect_patch_rejects_nonfinite_numbers_naming_the_argument(name, call):
    with pytest.raises(ValueError, match=name):
        call()


def test_effective_distance_rejects_nonfinite_field():
    # lengths far beyond float range overflow the field's squares to nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            effective_distance(RectPatch.centered_square(1e144), 40e-6)
        with pytest.raises(ValueError, match="not finite"):
            effective_distance(PADDLE, np.array([40e-6, 1e194]))
