"""The voxel-index dtype rule on both of its sides, without allocating a grid.

``index_dtype`` picks int32 while every key of the ring search's padded
grid fits in it. A silent int32 overflow would not raise: it would give
wrong numbers. So the same lesions are evaluated on a small grid and in
the far corner of grids whose padded size is just below and just above
2**31 - 1, and every number must agree.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_lesion_set_fields, columns_equal, random_blob_mask
from lesioneval.components import find_connected_components
from lesioneval.matching import match_lesions, overlap
from lesioneval.metrics import compute_image_metrics, compute_lesion_metrics, surface_distances
from lesioneval.nifti import read_foreground, write_volume
from lesioneval.volume import GRID_PAD, Foreground, Volume, index_dtype

INT32_MAX = np.iinfo(np.int32).max
PAD = 2 * GRID_PAD
# padded sizes 1302 * 1661 * 993 = 2**31 - 2, as near the prime 2**31 - 1 as
# three padded extents come, and 2048 * 1024 * 1028 = 2**31 + 2**23, on which
# the far corner voxel's own key is above 2**31 - 1
BELOW = (1302 - PAD, 1661 - PAD, 993 - PAD)
ABOVE = (2048 - PAD, 1024 - PAD, 1028 - PAD)
BOX = (22, 18, 14)  # the small grid; its far corner is the large grids' far corner
SPACING = (0.5, 1.0, 2.0)  # powers of two: coordinates scale exactly on every grid


def _corner_key(dims) -> int:
    """The padded key of the far corner voxel: the largest key of any voxel."""
    step = np.cumprod([1, dims[0] + PAD, dims[1] + PAD]).tolist()
    return sum((d - 1 + GRID_PAD) * s for d, s in zip(dims, step))


def test_index_dtype_boundary():
    assert math.prod(d + PAD for d in BELOW) == INT32_MAX - 1
    assert index_dtype(BELOW) == np.int32
    assert index_dtype((1, 1, 1)) == index_dtype((192, 192, 192)) == np.int32
    assert index_dtype((2048 - PAD, 1024 - PAD, 1024 - PAD)) == np.int64  # padded 2**31
    assert index_dtype(ABOVE) == np.int64
    # the rule is on the padded grid: ABOVE's voxel indices alone would fit
    assert math.prod(ABOVE) < INT32_MAX < _corner_key(ABOVE)
    assert INT32_MAX - _corner_key(BELOW) < 2**23


def test_reader_and_from_mask_give_the_grid_dtype(tmp_path):
    v = random_blob_mask(np.random.default_rng(3), BOX, 0.2)
    write_volume(v, str(tmp_path / "m.nii"))
    for fg in (Foreground.from_mask(v), read_foreground(str(tmp_path / "m.nii"))):
        assert fg.index.dtype == np.int32
        assert fg.index.tolist() == np.flatnonzero(v.data.T).tolist()


def _masks(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """GT blobs and a prediction made of them moved one voxel plus a few of its
    own, both holding the box's far corner voxel."""
    rng = np.random.default_rng(seed)
    gt = random_blob_mask(rng, BOX, 0.15).data
    pred = np.roll(gt, 1, axis=0) | random_blob_mask(rng, BOX, 0.05).data
    gt[-1, -1, -1] = pred[-1, -1, -1] = 1
    return gt, pred


def _in_corner(fg: Foreground, dims) -> Foreground:
    """``fg``'s voxels moved to the far corner of a grid of ``dims``."""
    c = np.unravel_index(fg.index, fg.dims, order="F")
    c = [a.astype(np.int64) + d - b for a, d, b in zip(c, dims, fg.dims)]
    return Foreground(np.ravel_multi_index(c, dims, order="F"), dims, fg.spacing)


def _evaluate(gt: Foreground, pred: Foreground, connectivity: int):
    gl = find_connected_components(gt, connectivity)
    pl = find_connected_components(pred, connectivity)
    ov = overlap(gl, pl)
    match = match_lesions(gl, pl, ov)
    d = surface_distances(gl, pl, gt.spacing)
    pairs = {
        v: compute_lesion_metrics(gl, pl, ov, match.matches, d, v)
        for v in ("pooled", "max-of-directed")
    }
    image = {v: compute_image_metrics(gl, pl, ov, v, d) for v in pairs}
    return gl, pl, ov, match, d, pairs, image


@pytest.mark.parametrize("connectivity", [6, 26])
@pytest.mark.parametrize("dims, dtype", [(BELOW, np.int32), (ABOVE, np.int64)])
@pytest.mark.parametrize("seed", [0, 6])
def test_far_corner_of_a_huge_grid_gives_the_small_grid_numbers(seed, dims, dtype, connectivity):
    gt, pred = (Foreground.from_mask(Volume(m, SPACING)) for m in _masks(seed))
    want = _evaluate(gt, pred, connectivity)
    big_gt, big_pred = _in_corner(gt, dims), _in_corner(pred, dims)
    tracemalloc.start()
    try:
        got = _evaluate(big_gt, big_pred, connectivity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a grid-sized array holds at least 2**31 bytes

    (gl, pl, ov, match, d, pairs, image), (wgl, wpl, wov, wmatch, wd, wpairs, wimage) = got, want
    assert len(match.matches) >= 5 and match.unmatched_pred  # pairs and FPs to measure
    # the numbers first: a wrong rule shows as wrong numbers, not only as a dtype
    for big, small in ((gl, wgl), (pl, wpl)):
        assert big.index[-1] == math.prod(dims) - 1  # the far corner voxel
        for name in ("label", "surface", "sizes"):
            assert getattr(big, name).tolist() == getattr(small, name).tolist()
        every = np.arange(big.index.size)
        assert (big.coords(every) - small.coords(every)).tolist() == [
            [a - b for a, b in zip(dims, BOX)]
        ] * big.index.size
    for name in ("gt_id", "pred_id", "inter"):
        assert getattr(ov, name).tolist() == getattr(wov, name).tolist()
    assert match == wmatch
    for big, small in ((d.gt, wd.gt), (d.pred, wd.pred)):
        assert big.pos.tolist() == small.pos.tolist()
        assert big.dist.tolist() == small.dist.tolist()
        assert big.near.tolist() == small.near.tolist()
    assert pairs.keys() == wpairs.keys()
    assert all(columns_equal(pairs[v], wpairs[v]) for v in pairs)
    assert image == wimage
    for ls in (gl, pl):
        assert_lesion_set_fields(ls, dtype)
    assert d.gt.pos.dtype == d.pred.pos.dtype == dtype
