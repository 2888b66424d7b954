from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import ndimage

from lesioneval.matching import overlap
from lesioneval.metrics import compute_lesion_metrics, surface_distances
from lesioneval.stratify import stratify
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


def _lesion_coords(ls) -> list[np.ndarray]:
    """Each lesion's [x, y, z] voxel coordinates, grouped by label in one sort, in id order."""
    pos = np.argsort(ls.label, kind="stable")
    ends = np.searchsorted(ls.label[pos], np.arange(1, len(ls) + 1), side="right")
    return np.split(ls.coords(pos), ends)[:-1]


def lesion_voxel_sets(ls) -> list[frozenset]:
    """Each lesion's (x, y, z) voxels, in id order."""
    return [frozenset(map(tuple, c.tolist())) for c in _lesion_coords(ls)]


def lesion_boxes(ls) -> list[tuple[slice, slice, slice]]:
    """Each lesion's tight [x, y, z] box, in id order."""
    return [
        tuple(map(slice, c.min(axis=0).tolist(), (c.max(axis=0) + 1).tolist()))
        for c in _lesion_coords(ls)
    ]


def assert_lesion_set_fields(ls, dtype) -> None:
    """Each array field of ``ls`` has its dtype: ``dtype`` for the voxel
    indices and lesion sizes, int32 for labels and bool for surface flags.
    A field not named here fails, so none escapes the one-dtype rule."""
    want = {"index": dtype, "label": np.int32, "surface": np.bool_, "sizes": dtype}
    for f in dataclasses.fields(ls):
        if f.name != "shape":
            assert getattr(ls, f.name).dtype == want[f.name], f.name


def rows_of(table) -> list[SimpleNamespace]:
    """A column table's rows, each with one attribute of Python scalars per column."""
    return [SimpleNamespace(**r) for r in table.rows()]


def ids_of(table, status: str) -> list[int]:
    """The lesion ids of a lesion table's rows of one status, in row order."""
    return table.lesion_id[table.status == status].tolist()


def fn_fp_ids(gt, pred, matches) -> tuple[list[int], list[int]]:
    """The FN and the FP ids of the lesion table that ``stratify`` builds from ``matches``."""
    ov = overlap(gt, pred)
    pairs = compute_lesion_metrics(gt, pred, ov, matches, surface_distances(gt, pred, (1, 1, 1)))
    table = stratify(gt, pred, pairs)[1]
    return ids_of(table, "FN"), ids_of(table, "FP")


def columns_equal(a, b) -> bool:
    """Whether two column tables hold equal columns under the same names."""
    return list(vars(a)) == list(vars(b)) and all(
        np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values())
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
