"""The two whole-box kernels behind ``lattice.deep_components``, in numpy.

``taxicab_distance`` is the exact ℓ¹ distance transform by separable
sequential sweeps (Rosenfeld and Pfaltz, J. ACM 13(4), 1966): one
forward and one backward pass of ``d[i] = min(d[i], d[i ∓ 1] + 1)``
along each axis.  ``label_runs`` labels face-connected components by
runs along the last axis rather than by cells (after He, Chao and
Suzuki, IEEE TIP 17(5), 2008): runs that overlap in neighbouring rows
are joined by min-root hooking and pointer jumping.

``lattice`` imports this module as ``ndimage`` and calls both kernels
through that name at call time.
"""

from __future__ import annotations

import math

import numpy as np

# uint8 stand-in for "no subset point along the axes swept so far".
# Every lattice subset contains the origin, so no true distance on an
# admissible box exceeds n·R <= 186 (rank 3, R = 62); 254 + 1 still fits
# in uint8, so the sweeps never wrap.
FAR = 254


def taxicab_distance(subset: np.ndarray) -> np.ndarray:
    """ℓ¹ distance from every cell of the box to the nearest True cell
    of ``subset``, as uint8.  Exact wherever that distance is below
    ``FAR``; cells with no True cell in reach read ``FAR``."""
    dist = np.where(subset, np.uint8(0), np.uint8(FAR))
    one = np.uint8(1)
    for axis in range(dist.ndim):
        planes = np.moveaxis(dist, axis, 0)
        # planes[i, ...] is a view even on a 1-D box
        step = np.empty(planes.shape[1:], dtype=np.uint8)
        size = planes.shape[0]
        for i in range(1, size):
            np.add(planes[i - 1, ...], one, out=step)
            np.minimum(planes[i, ...], step, out=planes[i, ...])
        for i in range(size - 2, -1, -1):
            np.add(planes[i + 1, ...], one, out=step)
            np.minimum(planes[i, ...], step, out=planes[i, ...])
    return dist


def label_runs(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Face-connected components of the True cells of ``keep``.

    A run is a maximal line of True cells along the last axis.
    Returns ``(first, label, total)``: ``first`` holds each run's first
    cell as a flat C-order index into ``keep``, ascending; ``label[j]``
    names run j's component by its lowest run number; ``total`` counts
    the components.
    """
    width = keep.shape[-1]
    # one False cell after every row, so no run crosses a row end
    padded = np.zeros((keep.size // width, width + 1), dtype=bool)
    padded[:, :width] = keep.reshape(-1, width)
    flat = padded.ravel()
    begins = run_starts(flat)
    first = np.flatnonzero(begins)
    # run number, counted from 1, of every True cell
    run_of = np.cumsum(begins, dtype=np.int32)

    # edges (lo, hi) between runs, lo's run first in C order: one for
    # each run of kept cells whose neighbours one step further along an
    # axis are kept too, taken at the run's first cell
    lo, hi = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
    for axis, size in enumerate(keep.shape[:-1]):
        # neighbours along this axis lie `stride` cells apart in `flat`
        stride = (width + 1) * math.prod(keep.shape[axis + 1 : -1])
        rows = flat.reshape(-1, size, stride)
        both = np.zeros_like(rows)
        np.logical_and(rows[:, :-1], rows[:, 1:], out=both[:, :-1])
        at = np.flatnonzero(run_starts(both.ravel()))
        lo.append(run_of.take(at))
        at += stride
        hi.append(run_of.take(at))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    lo -= 1
    hi -= 1

    label = np.arange(first.size, dtype=np.int32)
    while lo.size:
        # hook each root to the lowest root it touches, then jump
        # pointers until every run points at its root
        np.minimum.at(label, hi, lo)
        while True:
            up = label.take(label)
            if np.array_equal(up, label):
                break
            label = up
        lo, hi = label.take(lo), label.take(hi)
        join = np.flatnonzero(lo != hi)
        lo, hi = lo.take(join), hi.take(join)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    total = int(np.count_nonzero(label == np.arange(first.size, dtype=np.int32)))
    # back from padded to plain flat indices: one pad cell per row before
    first -= first // (width + 1)
    return first, label, total


def run_starts(mask: np.ndarray) -> np.ndarray:
    """Where each run of True cells along the last axis of ``mask`` begins."""
    out = np.empty_like(mask)
    out[..., :1] = mask[..., :1]
    np.greater(mask[..., 1:], mask[..., :-1], out=out[..., 1:])
    return out
