"""Gapless-plane electrostatics for rectangular electrode patches.

A rectangular patch at potential U embedded in an infinite grounded plane
(z = 0) produces at a point above the plane

    Phi = (U / 2 pi) * Omega,

where Omega is the solid angle the patch subtends there. Omega evaluates
in closed form as a signed four-corner sum of arctan terms. The field is
the analytic gradient; a finite-difference oracle lives in the tests, not
here. Electrode gaps are ignored (gapless approximation), which is the
dominant source of the ~10% discrepancy budget against boundary-element
values documented in the acceptance bands.

The effective distance of an ion at height h above the patch center is
D_eff(h) = U / |E_z(h)|, independent of U by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import check_range


@dataclass(frozen=True)
class RectPatch:
    """Axis-aligned rectangle in the z = 0 plane held at `voltage`."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    voltage: float = 1.0

    def __post_init__(self):
        for name in ("x_min", "y_min", "voltage"):
            check_range(name, getattr(self, name))
        check_range("x_max", self.x_max, gt=self.x_min)
        check_range("y_max", self.y_max, gt=self.y_min)

    @classmethod
    def centered_square(cls, side, voltage=1.0):
        h = 0.5 * check_range("side", side, gt=0)
        return cls(-h, h, -h, h, voltage)

    @property
    def center(self):
        return 0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)


@dataclass(frozen=True)
class FieldSample:
    """Potential and field at one point above the plane."""

    position: tuple
    potential: float
    field: tuple


def _corner_offsets(patch, x, y):
    # xi_i = x_i - x, eta_j = y_j - y for the two corner abscissas/ordinates
    xi = (patch.x_min - x, patch.x_max - x)
    eta = (patch.y_min - y, patch.y_max - y)
    return xi, eta


def _coordinates(position):
    """x, y, z as finite float arrays, z > 0: fields hold above the plane."""
    x, y, z = (np.asarray(c, float) for c in position)
    return check_range("x", x), check_range("y", y), check_range("z", z, gt=0)


def patch_solid_angle(patch, position):
    """Solid angle subtended by the patch at (x, y, z), z > 0.

    Signed four-corner sum; sign (-1)^(i+j) pairs opposite corners so the
    sum telescopes to the subtended angle. Array-broadcastable.
    """
    x, y, z = _coordinates(position)
    xi, eta = _corner_offsets(patch, x, y)
    omega = 0.0
    for i in (0, 1):
        for j in (0, 1):
            sign = 1.0 if (i + j) % 2 == 0 else -1.0
            r = np.sqrt(xi[i] ** 2 + eta[j] ** 2 + z ** 2)
            omega = omega + sign * np.arctan2(xi[i] * eta[j], z * r)
    return omega


def patch_potential(patch, position):
    """Potential Phi = (U / 2 pi) * Omega at a point with z > 0."""
    return patch.voltage * patch_solid_angle(patch, position) / (2.0 * np.pi)


def patch_field(patch, position):
    """Analytic E = -grad Phi, returned as (E_x, E_y, E_z).

    Uses z^2 R^2 + xi^2 eta^2 = (xi^2 + z^2)(eta^2 + z^2) to reduce each
    arctan derivative to a single quotient; no cancellation-prone
    differences survive, so the expressions are accurate to machine
    precision everywhere above the plane.
    """
    x, y, z = _coordinates(position)
    xi, eta = _corner_offsets(patch, x, y)
    pref = patch.voltage / (2.0 * np.pi)
    ex = 0.0
    ey = 0.0
    ez = 0.0
    for i in (0, 1):
        for j in (0, 1):
            sign = 1.0 if (i + j) % 2 == 0 else -1.0
            xi2 = xi[i] ** 2
            eta2 = eta[j] ** 2
            z2 = z ** 2
            r2 = xi2 + eta2 + z2
            r = np.sqrt(r2)
            ex = ex + sign * eta[j] * z / (r * (xi2 + z2))
            ey = ey + sign * xi[i] * z / (r * (eta2 + z2))
            ez = ez + sign * xi[i] * eta[j] * (r2 + z2) / (r * (xi2 + z2) * (eta2 + z2))
    return pref * ex, pref * ey, pref * ez


def sample_field(patch, position):
    """Bundle potential and field at one point into a FieldSample."""
    phi = float(patch_potential(patch, position))
    e = patch_field(patch, position)
    u = patch.voltage
    # rounding can leave a ~1e-16*U residual of the four-term cancellation
    lo, hi = (0.0, u) if u >= 0 else (u, 0.0)
    tol = 1e-12 * abs(u)
    if not (lo - tol <= phi <= hi + tol):
        raise ValueError("potential outside [0, U], inputs unphysical")
    return FieldSample(position=tuple(float(c) for c in position),
                       potential=phi,
                       field=tuple(float(c) for c in e))


def effective_distance(patch, height):
    """D_eff(h) = U / |E_z| on the patch center axis at height h."""
    h = np.asarray(check_range("height", height, gt=0), float)
    if patch.voltage == 0:
        raise ValueError("degenerate patch: zero voltage gives zero field")
    cx, cy = patch.center
    # lengths far beyond float range overflow the squares to inf, then nan
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, ez = patch_field(patch, (np.full_like(h, cx), np.full_like(h, cy), h))
    if not np.all(np.isfinite(ez)):
        raise ValueError("axial field not finite: lengths beyond float range")
    if np.any(ez == 0):
        raise ValueError("degenerate patch: zero axial field")
    return np.abs(patch.voltage) / np.abs(ez)


def effective_distance_table(paddle_side, heights):
    """(height, D_eff) pairs for a centered square paddle, SI units."""
    patch = RectPatch.centered_square(paddle_side)
    h = np.asarray(heights, float)
    return np.column_stack([h, effective_distance(patch, h)])
