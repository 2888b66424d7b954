"""In-memory 3D mask volumes, their foregrounds, and volume-level operations."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimsMismatch, NanVoxels, NotBinary, SpacingMismatch

SPACING_RTOL = 1e-4


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
        self.spacing = tuple(float(s) for s in self.spacing)
        if not all(0 < s < math.inf for s in self.spacing):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")

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

    index: np.ndarray  # ascending z-major linear indices, i.e. (z, y, x) scan order
    dims: tuple[int, int, int]  # [x, y, z] extent of the grid
    spacing: tuple[float, float, float]

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
        return cls(idx, mask.dims, mask.spacing)


def above(data: np.ndarray, threshold: float, source: str | None) -> np.ndarray:
    """``data > threshold``; raises NanVoxels if any voxel is NaN.

    NaN compares False with every threshold, so it would silently become
    background. ``max`` propagates NaN, so one reduction finds it.
    """
    if data.dtype.kind == "f" and np.isnan(data.max()):
        raise NanVoxels(f"{source or 'volume'}: NaN voxels cannot be thresholded")
    return data > threshold


def binarize(v: Volume, threshold: float = 0.5) -> Volume:
    """Threshold a volume: voxel > threshold becomes 1, else 0."""
    out = above(v.data, threshold, v.source_path).view(np.uint8)
    return Volume(out, v.spacing, source_path=v.source_path)


def check_compatibility(gt: Volume | Foreground, pred: Volume | Foreground) -> None:
    """Require identical dims and spacing equal within relative tolerance."""
    if gt.dims != pred.dims:
        raise DimsMismatch(f"dims {gt.dims} vs {pred.dims}")
    for axis, (a, b) in enumerate(zip(gt.spacing, pred.spacing)):
        if abs(a - b) > SPACING_RTOL * max(abs(a), abs(b)):
            raise SpacingMismatch(f"spacing differs on axis {axis}: {a} vs {b}")
