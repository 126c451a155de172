"""Emission directions, polarization bases, and the dipole axis.

Conventions: all vectors are plain float64 numpy arrays of shape (3,);
`direction_from_angles` and `check_unit(..., stacked=True)` also handle
stacks of directions of shape (..., 3).
A polarization basis is a right-handed orthonormal triad (e1, e2, n) with
n the propagation direction; both polarization vectors are real (linear
polarizations suffice for the dipole coupling used here).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

_UNIT_TOL = 1e-12


def dot3(a, b):
    """Componentwise dot over the trailing axis of 3; identical arithmetic for every layout."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def dot(a, b):
    """`dot3` in the fewest calls, with its bits: on Python floats for two vectors (3,), as
    np.add.reduce(a * b) over the axis of 3 when either is a stack."""
    if a.ndim == b.ndim == 1:
        (ax, ay, az), (bx, by, bz) = a.tolist(), b.tolist()
        return ax * bx + ay * by + az * bz
    return np.add.reduce(a * b, axis=-1)


def unstack(v):
    """The components of v over its trailing axis of 3: Python floats for one vector (3,),
    arrays for a stack (..., 3). Arithmetic on them is `dot3`'s for every layout; on one
    vector it costs a tenth of numpy's or less."""
    return v.tolist() if v.ndim == 1 else (v[..., 0], v[..., 1], v[..., 2])


def cross3(a, b) -> tuple:
    """a x b for one pair of 3-sequences (Python floats), componentwise like `dot3`."""
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


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
    # one vector as Python floats: numpy's reductions cost microseconds on a scalar
    deviation = (abs(math.hypot(*arr.tolist()) - 1.0) if arr.ndim == 1
                 else abs(np.sqrt(np.add.reduce(arr * arr, axis=-1)) - 1.0).max())
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
        # B B^T = I and det B = e1 . (e2 x n) > 0, on the rows of B as Python floats
        b = np.array([self.e1, self.e2, self.n], dtype=float)  # rows e1, e2, n
        rows = b.tolist()
        if b.shape != (3, 3) or not all([
                abs(u[0] * w[0] + u[1] * w[1] + u[2] * w[2] - (i == j)) <= _UNIT_TOL  # not NaN
                for i, u in enumerate(rows) for j, w in enumerate(rows) if j >= i]):
            raise ValueError(f"e1, e2, n are not orthonormal 3-vectors within {_UNIT_TOL:g}")
        if not sum(map(operator.mul, rows[0], cross3(rows[1], rows[2]))) > 0.0:
            raise ValueError("basis is left-handed (e1 x e2 . n < 0)")


def polarization_basis(n) -> PolarizationBasis:
    """The deterministic transverse basis for propagation direction n.

    e1 is the normalized transverse part of the coordinate axis least aligned
    with n, so an axis-aligned n gets the canonical companion axes, and e2 =
    n x e1. Any other gauge is `rotate_basis(polarization_basis(n), angle)`.
    """
    n = check_unit(n, "n")
    k = int(abs(n).argmin())  # the coordinate axis h least aligned with n
    transverse = np.array([(i == k) - n[k] * p for i, p in enumerate(n.tolist())])  # h - (h.n) n
    e1 = transverse / math.sqrt(transverse.dot(transverse))  # np.linalg.norm's arithmetic
    return PolarizationBasis(e1=e1, e2=np.array(cross3(n.tolist(), e1.tolist())), n=n)


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
