"""Emission directions, polarization bases, and the dipole axis.

Conventions: all vectors are plain float64 numpy arrays of shape (3,);
`direction_from_angles` and `check_unit(..., stacked=True)` also handle
stacks of directions of shape (..., 3).
A polarization basis is a right-handed orthonormal triad (e1, e2, n) with
n the propagation direction; both polarization vectors are real (linear
polarizations suffice for the dipole coupling used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12


def dot3(a, b):
    """Componentwise dot over the trailing axis of 3; identical arithmetic for every layout."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def cross3(a, b):
    """Cross product over the trailing axis of 3, as np.cross computes it, at a tenth of
    its cost on one pair."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def as_unit(v) -> np.ndarray:
    """Return v normalized to unit length as a float64 array of shape (3,)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return arr / norm


def check_unit(v: np.ndarray, name: str = "vector", *, stacked: bool = False) -> np.ndarray:
    """v as a float64 unit 3-vector; with `stacked`, a (..., 3) stack of them."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,) and not (stacked and arr.shape[-1:] == (3,)):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    # one vector without numpy reductions, which cost microseconds on a scalar
    deviation = (abs(float(np.linalg.norm(arr)) - 1.0) if arr.ndim == 1
                 else np.abs(np.linalg.norm(arr, axis=-1) - 1.0).max())
    if not deviation <= _UNIT_TOL:  # NaN fails too
        raise ValueError(f"{name} is not a unit vector (|{name}| - 1 exceeds {_UNIT_TOL:g})")
    return arr


@dataclass(frozen=True, eq=False)
class PolarizationBasis:
    """Right-handed orthonormal triad: e1 x e2 = n, both e's transverse."""

    e1: np.ndarray
    e2: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        # B B^T = I and det B = e1 . (e2 x n) > 0, without the LAPACK and BLAS-3
        # kernels that np.linalg.det and b @ b.T page in (0.25 MB of peak RSS)
        b = np.array([self.e1, self.e2, self.n], dtype=float)  # rows e1, e2, n
        if b.shape != (3, 3) or not np.abs(np.einsum("ik,jk->ij", b, b) - np.eye(3)).max() <= _UNIT_TOL:
            raise ValueError(f"e1, e2, n are not orthonormal 3-vectors within {_UNIT_TOL:g}")
        if not dot3(b[0], cross3(b[1], b[2])) > 0.0:
            raise ValueError("basis is left-handed (e1 x e2 . n < 0)")


def polarization_basis(n) -> PolarizationBasis:
    """The deterministic transverse basis for propagation direction n.

    e1 is the normalized transverse part of the coordinate axis least aligned
    with n, so an axis-aligned n gets the canonical companion axes, and e2 =
    n x e1. Any other gauge is `rotate_basis(polarization_basis(n), angle)`.
    """
    n = check_unit(n, "n")
    h = np.eye(3)[int(np.argmin(np.abs(n)))]  # the coordinate axis least aligned with n
    transverse = h - float(np.dot(h, n)) * n
    e1 = transverse / float(np.linalg.norm(transverse))
    return PolarizationBasis(e1=e1, e2=cross3(n, e1), n=n)


def rotate_basis(basis: PolarizationBasis, angle: float) -> PolarizationBasis:
    """Rotate the transverse pair about n by `angle` (radians).

    This is the gauge freedom of the polarization sum: physical results may
    not depend on it.
    """
    c, s = np.cos(angle), np.sin(angle)
    e1 = c * basis.e1 + s * basis.e2
    e2 = -s * basis.e1 + c * basis.e2
    # Renormalize against rounding drift so invariants hold for any chain of rotations.
    e1 = e1 / float(np.linalg.norm(e1))
    e2 = e2 - float(np.dot(e2, e1)) * e1
    e2 = e2 / float(np.linalg.norm(e2))
    return PolarizationBasis(e1=e1, e2=e2, n=basis.n)


def direction_from_angles(theta, phi, axis=None) -> np.ndarray:
    """Unit vector at polar angle theta from `axis` (default z), azimuth phi.

    The azimuth is measured in the plane transverse to `axis`, with phi = 0
    along the deterministic companion axis produced by polarization_basis.
    theta and phi may be arrays: the result has their broadcast shape plus a
    trailing axis of 3, all built from one frame; scalars give shape (3,).
    """
    if axis is None:
        axis = np.array([0.0, 0.0, 1.0])
    axis = check_unit(axis, "axis")
    frame = polarization_basis(axis)
    theta, phi = np.asarray(theta, dtype=float)[..., None], np.asarray(phi, dtype=float)[..., None]
    st = np.sin(theta)
    return np.cos(theta) * axis + st * (np.cos(phi) * frame.e1 + np.sin(phi) * frame.e2)
