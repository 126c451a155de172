"""Near/far sums of the Cauchy kernel: sum_j q_j/(s_j - x) over many sources at many targets.

The discrete-mode oracle (`amplitudes`) needs two such sums over K poles and
K + 1 secular roots: the secular function at every root, poles as sources,
and the final mode amplitudes at every pole, roots as sources. Summed densely
each costs K^2 terms. Here the targets are grouped in boxes of BOX consecutive
poles. The sources near a box are summed exactly; the sums over the others are
smooth across the box and are interpolated at NODES Chebyshev points (Dutt,
Gu & Rokhlin, SIAM J. Numer. Anal. 33, 1996). The boxes are the leaves of a
binary tree, and a box's far sum is set up from its parent's: the parent's
interpolant at the box's points, plus the sources near the parent but far from
the box (Fong & Darve, J. Comput. Phys. 228, 2009), so the set-up sums
O(K log K) terms where one box at a time sums O(K^2). Loewner's product over the
poles takes its far part the same way, as the exponential of a far sum of log1p
terms (`CauchySums.far_logs`); every far sum is fitted by one `chebyshev_fit`.
"""

from __future__ import annotations

import numpy as np

BOX = 64  # consecutive poles per box
NODES = 24  # Chebyshev points per box
ALL_NEAR = 9  # boxes up to which every source is near: the far set-up pays from about 10
_ROWS = 8  # the far set-up's buffer: 8 x K doubles


def chebyshev(t):
    """T_k(t), k < NODES, one row per t in [-1, 1] (rounding past it clipped), by the
    recurrence T_k = 2t T_{k-1} - T_{k-2}; t of any shape gains a last axis k."""
    t = np.clip(t, -1.0, 1.0)
    rows = np.empty((NODES,) + t.shape)
    rows[0], rows[1], twice = 1.0, t, t + t
    for k in range(2, NODES):
        np.multiply(twice, rows[k - 1], out=rows[k])
        rows[k] -= rows[k - 2]
    return np.moveaxis(rows, 0, -1)


def chebyshev_points():
    """The Chebyshev points t_i = cos(pi (i + 1/2) / NODES)."""
    return np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)


def _fit_matrix():
    """(2/NODES) T_k(t_i), halved at k = 0: by the discrete orthogonality of the T_k at the
    Chebyshev points, the map from values to coefficients. T_k(t_i) = cos(pi m / (2 NODES)),
    m = k (2i + 1), is taken at the angle reduced to [0, pi/2]: as cos(k arccos t_i), or by
    the recurrence, it is up to 60 eps off, and a fit with it up to 13 eps."""
    m = np.outer(np.arange(NODES), 2 * np.arange(NODES) + 1) % (4 * NODES)
    m = np.minimum(m, 4 * NODES - m)  # in [0, 2 NODES]: cos(pi - a) = -cos(a)
    fit = np.copysign(np.cos(np.pi * np.minimum(m, 2 * NODES - m) / (2 * NODES)), NODES - m)
    fit[0] *= 0.5
    return fit * (2.0 / NODES)


_FIT = _fit_matrix()


def chebyshev_fit(values):
    """Coefficients a_k (one column per column of `values`, stacked as `values` is) of the
    interpolant sum_k a_k T_k through the values at the Chebyshev points. a_0 is taken
    out first: the rounded cosines of the fit would leak it into a_k."""
    mean = values.mean(axis=-2, keepdims=True)
    coef = _FIT @ (values - mean)
    coef[..., :1, :] += mean
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
    are far: interpolated from the box's NODES Chebyshev points, their poles lying at
    least 2 half-widths past the box's ends. Targets in box -1 (the outer roots, up to
    ||g|| outside the band) have every source near, and so has every target while there
    are at most ALL_NEAR boxes: the sums are then the dense ones.

    The far sums are set up on a tree (`_far`): a parent spans two neighbouring boxes (the
    last one alone if their count is odd), up to one box over all poles. Each box's near
    range is clipped to its parent's, which holds it but for rounding, so the sources that
    a box sums at its points, those near its parent but far from it, are counted once;
    `far_pairs` counts those source-point pairs over the tree.

    With `derivative` (one weight column, q > 0) the sums come in three columns: sum
    q/(s - x), the rounding scale sum |q/(s - x)| (far right minus far left, no abs pass)
    and sum q/(s - x)^2.
    """

    def __init__(self, d, base, offset, weights, derivative=False):
        n, source = d.size, base + offset  # increasing: rounding keeps the order
        lo = np.arange(0, n, BOX)
        self.base, self.offset, self.derivative = base, offset, derivative
        self.weights = weights.reshape(source.size, -1)
        self.columns = 3 if derivative else self.weights.shape[1]
        self.near = np.zeros((lo.size, 2), dtype=int)
        self.near[:, 1] = source.size
        self.centre = self.half = self.coef = None
        self.far_pairs, self._tree = 0, []
        # box b spans the edges b and b + 1; a parent's edges are every other one of its boxes'
        levels = [np.append(d[np.maximum(lo - 1, 0)], d[-1])] if lo.size > ALL_NEAR else []
        while levels and levels[-1].size > 2:  # up to the box over all poles
            e = levels[-1][::2]
            levels.append(e if levels[-1].size % 2 else np.append(e, d[-1]))
        outer = np.array([[0, source.size]])  # the sources near the root's parent: all
        for e in levels[::-1]:
            centre, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
            outer = outer[np.arange(centre.size) // 2]
            near = np.column_stack((
                np.maximum(np.searchsorted(source, centre - 3.0 * half, "right"), outer[:, 0]),
                np.minimum(np.searchsorted(source, centre + 3.0 * half, "left"), outer[:, 1])))
            self._tree.append((centre, half, near, outer))
            self.far_pairs += NODES * int(np.sum((near - outer) * [1, -1]))
            outer = near
        if self._tree:
            self.centre, self.half, self.near = self._tree[-1][:3]
            self.coef = self._far(self.columns, self._cauchy)

    @property
    def far_nodes(self) -> int:
        """Chebyshev points at which far sums were formed, on every level of the tree."""
        return NODES * sum(level[0].size for level in self._tree)

    def near_terms(self, box) -> int:
        """Exact terms summed at targets in `box`."""
        sizes = np.append(self.near[:, 1] - self.near[:, 0], self.base.size)
        return int(sizes[np.asarray(box)].sum())  # box -1 reads the appended size: every source

    def _far(self, columns, kernel):
        """Chebyshev coefficients (box, coefficient, column) of each box's far sums. On every
        level of the tree a box sums kernel(s - x, left, right) over the sources near its
        parent but far from it, at rows of its points x, given the differences to those left
        of the box (the slice `left`), then to those right of it (`right`); that sum, smooth
        across the box, is fitted there and evaluated at the points of the leaves below it,
        one batched product per level. Each level's share is rounded once on its way to the
        leaves, not once per level below it."""
        points, n = chebyshev_points(), self.base.size
        buf = np.empty(_ROWS * n)
        values = np.zeros((self.centre.size, NODES, columns))
        for depth, (centre, half, near, outer) in enumerate(self._tree[::-1]):
            share = values if depth == 0 else np.zeros((centre.size, NODES, columns))
            for b, ((l, r), (a, e)) in enumerate(zip(near, outer)):
                count = (l - a) + (e - r)
                if count == 0:
                    continue
                # s_j - x at x = c + h t_i as ((base_j - c) + offset_j) - h t_i: the points are
                # not rounded to the grid of c, which is coarse for a narrow box far from 0. The
                # right ones run from the farthest in, as the left ones do: large terms last
                left, right = slice(a, l), slice(e - 1, r - 1 if r else None, -1)
                far = np.concatenate(((self.base[left] - centre[b]) + self.offset[left],
                                      (self.base[right] - centre[b]) + self.offset[right]))
                x = (half[b] * points)[:, None]
                step = min(NODES, _ROWS * n // count)
                for i in range(0, NODES, step):
                    rows = x[i:i + step]
                    diff = buf[:rows.size * count].reshape(rows.size, count)
                    np.subtract(far, rows, out=diff)
                    share[b, i:i + step] += kernel(diff, left, right)
            if depth and share.any():  # the leaves' points t in the box above them
                above = np.arange(self.centre.size) >> depth
                t = (((self.centre - centre[above])[:, None] + self.half[:, None] * points)
                     / half[above, None])
                values += chebyshev(t) @ chebyshev_fit(share)[above]
        return chebyshev_fit(values)

    def _cauchy(self, inv, left, right):
        """The far sums' values (see `_far`); overwrites the differences."""
        q, split = self.weights, left.stop - left.start
        np.reciprocal(inv, out=inv)
        far_left, far_right = inv[:, :split] @ q[left], inv[:, split:] @ q[right]
        if not self.derivative:
            return far_left + far_right
        np.square(inv, out=inv)
        return np.hstack((far_left + far_right, far_right - far_left,
                          inv[:, :split] @ q[left] + inv[:, split:] @ q[right]))

    def far_logs(self, left, right):
        """Chebyshev coefficients (box, coefficient, 1) of each box's far log sum F_b(x) =
        sum_{j<l} log1p(left_j/(x - s_j)) + sum_{j>=r} log1p(right_j/(x - s_j)), or None
        while every source is near. Its zeros s_j - left_j (s_j - right_j) must lie on the
        far side of s_j from the box (and so from its parents), so that F_b is as smooth
        there as the Cauchy sums."""
        def kernel(diff, l, r):
            np.divide(np.concatenate((left[l], right[r])), diff, out=diff)
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
        # a zero offset is skipped: one pass less over the block, and the same bits
        shifted, source_shifted = offset.any(), self.offset.any()
        for i, j in _runs(box):
            b = box[i]
            l, r = self.near[b] if b >= 0 else (0, self.base.size)
            m = np.subtract(self.base[l:r], base[i:j, None])
            if shifted:
                m -= offset[i:j, None]
            if source_shifted:
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
