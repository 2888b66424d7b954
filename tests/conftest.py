from __future__ import annotations

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
    return Volume((smooth > thr).astype(np.uint8), (1.0, 1.0, 1.0), binary=True)


def mask_from_voxels(voxels, dims, spacing=(1.0, 1.0, 1.0)) -> Volume:
    arr = np.zeros(dims, dtype=np.uint8)
    for x, y, z in voxels:
        arr[x, y, z] = 1
    return Volume(arr, spacing, binary=True)


def lesion_voxel_sets(ls) -> list[frozenset]:
    """Each lesion's (x, y, z) voxels, read from the label map, in id order."""
    return [
        frozenset(map(tuple, np.argwhere(ls.label_map == l.id).tolist()))
        for l in ls.lesions
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
