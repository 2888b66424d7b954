"""In-memory 3D mask volumes, their foregrounds, and volume-level operations."""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimsMismatch, NanVoxels, NotBinary, SpacingMismatch

SPACING_RTOL = 1e-4
GRID_PAD = 3  # voxels a side of the widest padded grid the pipeline keys (the ring search's)


def index_dtype(dims) -> np.dtype:
    """The dtype of every voxel index, key and position on a grid of ``dims``.

    int32 when each key of the widest padded grid the pipeline forms,
    ``GRID_PAD`` voxels a side, fits in it, int64 otherwise. Every such
    array is bounded by that grid's size, so no computation in it overflows.
    """
    nx, ny, nz = (int(d) + 2 * GRID_PAD for d in dims)
    return np.dtype(np.int32 if nx * ny * nz <= np.iinfo(np.int32).max else np.int64)


def _checked_spacing(spacing) -> tuple[float, ...]:
    spacing = tuple(float(s) for s in spacing)
    top = float(np.finfo(np.float32).max)  # the largest pixdim: squared mm distances stay finite
    if not all(0 < s <= top for s in spacing):
        raise ValueError(f"spacing must be positive and at most {top:g}, got {spacing}")
    return spacing


@dataclass(eq=False)
class Volume:
    """A dense 3D voxel grid with physical spacing.

    ``data`` is indexed ``[x, y, z]`` (x fastest in the on-disk flat order).
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    source_path: str | None = None
    spacing_was_fixed: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {self.data.shape}")
        if any(d < 1 for d in self.data.shape):
            raise ValueError(f"all dims must be >= 1, got {self.data.shape}")
        self.spacing = _checked_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def foreground_count(self) -> int:
        return int(np.count_nonzero(self.data))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Volume):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True)
class Foreground:
    """The foreground voxels of a binary mask, without its grid."""

    index: np.ndarray  # strictly ascending z-major linear indices: (z, y, x) scan order
    dims: tuple[int, int, int]  # [x, y, z] extent of the grid
    spacing: tuple[float, float, float]

    def __post_init__(self) -> None:
        _checked_spacing(self.spacing)
        dims, idx = self.dims, self.index
        if len(dims) != 3 or not all(isinstance(d, numbers.Integral) and d > 0 for d in dims):
            raise ValueError(f"dims must be three positive ints, got {dims}")
        n = math.prod(dims)
        # the labeller rests on this: a repeat or a step back splits or merges lesions
        if idx.ndim != 1 or idx.dtype.kind not in "iu" or (idx.size and not (
            0 <= idx[0] and idx[-1] < n and (idx[1:] > idx[:-1]).all()
        )):
            raise ValueError(f"index must be 1-D integers strictly ascending in [0, {n})")

    @classmethod
    def from_mask(cls, mask: Volume) -> "Foreground":
        """The foreground of a 0/1 volume; any other value raises NotBinary."""
        data = mask.data
        idx = np.flatnonzero(data.T != 0)
        vals = data[np.unravel_index(idx, data.shape, order="F")]
        bad = vals != 1
        if bad.any():
            raise NotBinary(
                f"mask contains values other than 0/1: {np.unique(vals[bad])[:10]}"
            )
        return cls(idx.astype(index_dtype(mask.dims)), mask.dims, mask.spacing)


def above(
    data: np.ndarray, threshold: float, source: str | None, out: np.ndarray | None = None
) -> np.ndarray:
    """``data > threshold``; raises NanVoxels if any voxel is NaN.

    NaN compares False with every threshold, so it would silently become
    background. On float data ``max`` propagates NaN, so one reduction
    finds it. Integers of up to 32 bits are compared in their own dtype,
    with no cast to float: for integer ``x``, ``x > t`` is ``x > floor(t)``.
    A threshold at or above the dtype's max (or NaN) gives all False, one
    below its min all True. Every such integer is exact in float64, so the
    result equals the float comparison bit for bit, at any threshold.
    ``out``, a bool array of ``data``'s shape, receives the result if given.
    """
    kind = data.dtype.kind
    if kind == "f" and np.isnan(data.max()):
        raise NanVoxels(f"{source or 'volume'}: NaN voxels cannot be thresholded")
    if kind in "iu" and data.dtype.itemsize <= 4:
        info = np.iinfo(data.dtype)
        if threshold < info.min:
            return np.greater_equal(data, info.min, out=out)  # every voxel
        threshold = math.floor(threshold) if threshold < info.max else info.max
    return np.greater(data, threshold, out=out)


def binarize(v: Volume, threshold: float = 0.5) -> Volume:
    """Threshold a volume: voxel > threshold becomes 1, else 0.

    Any threshold acts as ``>`` does: NaN or inf gives no foreground, -inf
    every voxel that is not itself -inf.
    """
    out = above(v.data, threshold, v.source_path).view(np.uint8)
    return Volume(out, v.spacing, source_path=v.source_path)


def check_compatibility(gt: Volume | Foreground, pred: Volume | Foreground) -> None:
    """Require identical dims and spacing equal within relative tolerance."""
    if gt.dims != pred.dims:
        raise DimsMismatch(f"dims {gt.dims} vs {pred.dims}")
    for axis, (a, b) in enumerate(zip(gt.spacing, pred.spacing)):
        if abs(a - b) > SPACING_RTOL * max(abs(a), abs(b)):
            raise SpacingMismatch(f"spacing differs on axis {axis}: {a} vs {b}")
