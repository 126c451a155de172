"""Near/far sums of the Cauchy kernel: sum_j q_j/(s_j - x) over many sources at many targets.

The discrete-mode oracle (`amplitudes`) needs two such sums over K poles and
K + 1 secular roots: the secular function at every root, poles as sources,
and the final mode amplitudes at every pole, roots as sources. Summed densely
each costs K^2 terms. Here the targets are grouped in boxes of BOX consecutive
poles. The sources near a box are summed exactly; the sums over the others are
smooth across the box and are interpolated at NODES Chebyshev points (Dutt,
Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1996), formed once per source set.
Loewner's product over the poles takes its far part the same way, as the
exponential of a far sum of log1p terms (`CauchySums.far_logs`); every far sum
is fitted by one `chebyshev_fit`.
"""

from __future__ import annotations

import numpy as np

BOX = 64  # consecutive poles per box
NODES = 24  # Chebyshev points per box
ALL_NEAR = 9  # boxes up to which every source is near: the far set-up pays from about 10
_ROWS = 8  # Chebyshev points per pass of the far set-up: buffers of 8 x K doubles


def chebyshev(t):
    """T_k(t) = cos(k arccos t), k < NODES, one row per t in [-1, 1] (rounding past it clipped)."""
    angle = np.multiply.outer(np.arccos(np.clip(t, -1.0, 1.0)), np.arange(NODES))
    return np.cos(angle, out=angle)


def chebyshev_points():
    """The Chebyshev points t_i = cos(pi (i + 1/2) / NODES)."""
    return np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)


_FIT = chebyshev(chebyshev_points()).T * (2.0 / NODES)  # discrete orthogonality of T_k
_FIT[0] *= 0.5


def chebyshev_fit(values):
    """Coefficients a_k (one column per column of `values`) of the interpolant sum_k a_k T_k
    through the values at the Chebyshev points. a_0 is taken out first: the rounded
    cosines of the fit would leak it into a_k."""
    mean = values.mean(axis=0)
    coef = _FIT @ (values - mean)
    coef[0] += mean
    return coef


def _runs(box):
    """(start, end) of each run of equal entries of `box`."""
    starts = np.flatnonzero(np.diff(box, prepend=box[:1] - 1))
    return zip(starts, np.append(starts[1:], box.size))


class CauchySums:
    """sum_j q_j/(s_j - x) over increasing sources s_j = base_j + offset_j with weights q_j
    (one row each, one or more columns), at targets x = base + offset grouped in the boxes
    of the increasing poles d: box b holds the poles lo..hi = BOX b .. BOX (b + 1) - 1 and
    spans [d_{lo-1}, d_hi] (box 0 from d_0), which holds the poles lo..hi and the secular
    roots lo..hi but the outer ones.

    Sources within 3 half-widths of a box's centre are near it and summed exactly with
    the differences ((base_j - base) - offset) + offset_j: (d_j - sigma) - nu for poles at
    a root, (sigma_k - d_p) + nu_k for roots at a pole, which keep the full accuracy of a
    difference from a shifted origin. The sums over the others, left and right of the box,
    are far: formed once at the box's NODES Chebyshev points, they are interpolated, their
    poles lying at least 2 half-widths past the box's ends. Targets in box -1 (the outer
    roots, up to ||g|| outside the band) have every source near, and so has every target
    while there are at most ALL_NEAR boxes: the sums are then the dense ones.

    With `derivative` (one weight column, q > 0) the sums come in three columns: sum
    q/(s - x), the rounding scale sum |q/(s - x)| (far right minus far left, no abs pass)
    and sum q/(s - x)^2.
    """

    def __init__(self, d, base, offset, weights, derivative=False):
        n, source = d.size, base + offset  # increasing: rounding keeps the order
        lo = np.arange(0, n, BOX)
        left, right = d[np.maximum(lo - 1, 0)], d[np.minimum(lo + BOX, n) - 1]
        self.centre, self.half = 0.5 * (left + right), 0.5 * (right - left)
        self.base, self.offset, self.derivative = base, offset, derivative
        self.weights = weights.reshape(source.size, -1)
        self.columns = 3 if derivative else self.weights.shape[1]
        self.near = np.zeros((lo.size, 2), dtype=int)
        self.near[:, 1] = source.size
        self.coef = None
        if lo.size > ALL_NEAR:
            self.near[:, 0] = np.searchsorted(source, self.centre - 3.0 * self.half, "right")
            self.near[:, 1] = np.searchsorted(source, self.centre + 3.0 * self.half, "left")
            self.coef = self._far(self.columns, self._cauchy)

    @property
    def far_nodes(self) -> int:
        """Chebyshev points at which far sums were formed."""
        return 0 if self.coef is None else self.coef.shape[0] * NODES

    def near_terms(self, box) -> int:
        """Exact terms summed at targets in `box`."""
        sizes = np.append(self.near[:, 1] - self.near[:, 0], self.base.size)
        return int(sizes[np.asarray(box)].sum())  # box -1 reads the appended size: every source

    def _far(self, columns, kernel):
        """Chebyshev coefficients (box, coefficient, column) of each box's far sums, whose
        values at rows of the box's points x are kernel(s - x, l, r): the differences to the
        l far sources left of the box, then to those from r on."""
        points = chebyshev_points()
        values = np.empty((NODES, columns))
        coef = np.empty((self.centre.size, NODES, columns))
        buf = np.empty((_ROWS, self.base.size))
        for b, (l, r) in enumerate(self.near):
            # s_j - x at x = c + h t_i as ((base_j - c) + offset_j) - h t_i: the points are
            # not rounded to the grid of c, which is coarse for a narrow box far from 0
            far = np.concatenate(((self.base[:l] - self.centre[b]) + self.offset[:l],
                                  (self.base[r:] - self.centre[b]) + self.offset[r:]))
            x = (self.half[b] * points)[:, None]
            for i in range(0, NODES, _ROWS):
                rows = x[i:i + _ROWS]
                diff = buf[:rows.size, :far.size]
                np.subtract(far, rows, out=diff)
                values[i:i + _ROWS] = kernel(diff, l, r)
            coef[b] = chebyshev_fit(values)
        return coef

    def _cauchy(self, inv, l, r):
        """The far sums' values (see `_far`); overwrites the differences."""
        q = self.weights
        np.reciprocal(inv, out=inv)
        far_left, far_right = inv[:, :l] @ q[:l], inv[:, l:] @ q[r:]
        if not self.derivative:
            return far_left + far_right
        np.square(inv, out=inv)
        return np.hstack((far_left + far_right, far_right - far_left,
                          inv[:, :l] @ q[:l] + inv[:, l:] @ q[r:]))

    def far_logs(self, left, right):
        """Chebyshev coefficients (box, coefficient, 1) of each box's far log sum F_b(x) =
        sum_{j<l} log1p(left_j/(x - s_j)) + sum_{j>=r} log1p(right_j/(x - s_j)), or None
        while every source is near. Its zeros s_j - left_j (s_j - right_j) must lie on the
        far side of s_j from the box, so that F_b is as smooth there as the Cauchy sums."""
        def kernel(diff, l, r):
            np.divide(np.concatenate((left[:l], right[r:])), diff, out=diff)
            np.log1p(np.negative(diff, out=diff), out=diff)  # x - s_j = -(s_j - x)
            return diff.sum(axis=1, keepdims=True)

        return None if self.coef is None else self._far(1, kernel)

    def interpolate(self, coef, box, base, offset):
        """Far sums of coefficients `coef` (`_far`, `far_logs`) at targets x = base + offset
        in boxes `box` >= 0, constant over runs of targets, one row each: the Chebyshev
        polynomials are evaluated once for every target."""
        cheb = chebyshev(((base - self.centre[box]) + offset) / self.half[box])
        out = np.empty((box.size, coef.shape[2]))
        for i, j in _runs(box):
            np.matmul(cheb[i:j], coef[box[i]], out=out[i:j])
        return out

    def __call__(self, box, base, offset):
        """The sums at targets x = base + offset, one row each; `box` is each target's box,
        constant over runs of targets (-1: every source near)."""
        out = np.empty((box.size, self.columns))
        for i, j in _runs(box):
            b = box[i]
            l, r = self.near[b] if b >= 0 else (0, self.base.size)
            m = np.subtract(self.base[l:r], base[i:j, None])
            m -= offset[i:j, None]
            m += self.offset[l:r]
            np.reciprocal(m, out=m)
            q, sums = self.weights[l:r], out[i:j]
            if self.derivative:  # f by numpy's pairwise sum: its terms cancel at a root
                sums[:, 0] = (m * q[:, 0]).sum(axis=1)
                sums[:, 1] = np.abs(m, out=m) @ q[:, 0]
                sums[:, 2] = np.square(m, out=m) @ q[:, 0]
            else:
                np.matmul(m, q, out=sums)
        if self.coef is not None:
            inner = box >= 0
            out[inner] += self.interpolate(self.coef, box[inner], base[inner], offset[inner])
        return out
