from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from lesioneval.volume import Volume


def random_blob_mask(rng: np.random.Generator, dims, density: float) -> Volume:
    """Smoothed-noise binary mask with roughly the requested foreground fraction.

    Thresholding blurred noise yields blob-like components at realistic
    counts; raw iid noise would fragment into thousands of single voxels.
    """
    noise = rng.random(dims)
    smooth = ndimage.gaussian_filter(noise, sigma=1.2)
    thr = np.quantile(smooth, 1.0 - density)
    return Volume((smooth > thr).astype(np.uint8), (1.0, 1.0, 1.0))


def mask_from_voxels(voxels, dims, spacing=(1.0, 1.0, 1.0)) -> Volume:
    arr = np.zeros(dims, dtype=np.uint8)
    for x, y, z in voxels:
        arr[x, y, z] = 1
    return Volume(arr, spacing)


def lesion_voxel_sets(ls) -> list[frozenset]:
    """Each lesion's (x, y, z) voxels, read from its run, in id order."""
    return [frozenset(map(tuple, ls.coords(ls.run(i)).tolist())) for i in range(1, len(ls) + 1)]


def lesion_boxes(ls) -> list[tuple[slice, slice, slice]]:
    """Each lesion's tight [x, y, z] box, read from its run, in id order."""
    boxes = []
    for i in range(1, len(ls) + 1):
        c = ls.coords(ls.run(i))
        boxes.append(tuple(map(slice, c.min(axis=0).tolist(), (c.max(axis=0) + 1).tolist())))
    return boxes


def rows_of(table) -> list[SimpleNamespace]:
    """A column table's rows, each with one attribute of Python scalars per column."""
    return [SimpleNamespace(**r) for r in table.rows()]


def columns_equal(a, b) -> bool:
    """Whether two column tables hold equal columns under the same names."""
    return list(vars(a)) == list(vars(b)) and all(
        np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values())
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
