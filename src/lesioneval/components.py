"""Connected-component decomposition of binary masks into lesion instances."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .volume import Foreground, Volume

# connectivity -> the (dx, dy, dz) neighbour offsets that come later in
# (z, y, x) scan order: each neighbour pair is then seen exactly once
_FORWARD = {
    conn: [
        (dx, dy, dz)
        for dz in (0, 1)
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
        if (dz, dy, dx) > (0, 0, 0) and abs(dx) + abs(dy) + abs(dz) <= rank
    ]
    for conn, rank in ((6, 1), (18, 2), (26, 3))
}


@dataclass(frozen=True)
class Lesion:
    """One connected component: its id and its size."""

    id: int
    volume_vox: int
    volume_mm3: float


@dataclass(frozen=True)
class LesionSet:
    """All lesions of one mask, stored as its foreground voxels alone."""

    lesions: list[Lesion]
    shape: tuple[int, int, int]  # [x, y, z] extent of the source mask
    index: np.ndarray  # ascending z-major linear indices of the foreground
    label: np.ndarray  # int32 lesion id of each voxel
    surface: np.ndarray  # bool: the voxel has a 6-neighbour outside the mask
    order: np.ndarray  # positions grouped by lesion, ascending in each group
    starts: np.ndarray  # lesion k's group is order[starts[k-1]:starts[k]]

    def __len__(self) -> int:
        return len(self.lesions)

    def by_id(self, lesion_id: int) -> Lesion:
        return self.lesions[lesion_id - 1]

    def run(self, lesion_id: int) -> np.ndarray:
        """Positions of one lesion's voxels, ascending."""
        return self.order[self.starts[lesion_id - 1] : self.starts[lesion_id]]

    def coords(self, pos: np.ndarray) -> np.ndarray:
        """[x, y, z] grid coordinates of the voxels at positions ``pos``."""
        return np.column_stack(np.unravel_index(self.index[pos], self.shape, order="F"))

    @property
    def label_map(self) -> np.ndarray:
        """The dense int32 label map (0 = background), indexed [x, y, z]."""
        nx, ny, nz = self.shape
        labels_zyx = np.zeros((nz, ny, nx), dtype=np.int32)
        labels_zyx.ravel()[self.index] = self.label
        return labels_zyx.T


def find_connected_components(
    mask: Foreground | Volume, connectivity: int = 6
) -> LesionSet:
    """Partition the foreground of a binary mask into maximal components.

    A volume is taken through ``Foreground.from_mask``, which requires
    0/1 voxels.

    Labels are assigned deterministically: components are numbered 1..N by
    their minimum voxel in lexicographic (z, y, x) order. A voxel is on the
    surface when fewer than 6 of its face neighbours are foreground, the
    grid edge counting as outside; face neighbours always share a lesion,
    so this is each lesion's own surface at every connectivity.
    """
    if connectivity not in _FORWARD:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    fg = Foreground.from_mask(mask) if isinstance(mask, Volume) else mask
    idx = fg.index
    nx, ny, nz = fg.dims
    z, rest = np.divmod(idx, nx * ny)
    y, x = np.divmod(rest, nx)

    # one edge per pair of foreground neighbours, found by binary search;
    # the bounds check keeps a step from wrapping into the next row or slice
    room = [{-1: c > 0, 0: True, 1: c < n - 1} for c, n in ((x, nx), (y, ny), (z, nz))]
    src, dst, face = [], [], []
    for dx, dy, dz in _FORWARD[connectivity]:
        at = np.flatnonzero(room[0][dx] & room[1][dy] & room[2][dz])
        target = idx[at] + (dz * ny + dy) * nx + dx
        pos = np.searchsorted(idx, target)
        hit = idx.take(pos, mode="clip") == target
        src.append(at[hit])
        dst.append(pos[hit])
        if abs(dx) + abs(dy) + abs(dz) == 1:
            face += [src[-1], dst[-1]]
    surface = np.bincount(np.concatenate(face), minlength=idx.size) < 6
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = coo_array((np.ones(src.size, np.int8), (src, dst)), shape=(idx.size,) * 2)
    _, comp = connected_components(graph, directed=False)

    # number components 1..N by their first voxel in scan order
    _, first = np.unique(comp, return_index=True)
    number = np.empty(first.size, np.int32)
    number[np.argsort(first)] = np.arange(1, first.size + 1, dtype=np.int32)
    labels = number[comp]

    sizes = np.bincount(labels)[1:]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    voxel_mm3 = float(np.prod(fg.spacing))
    lesions = [
        Lesion(lesion_id, n, n * voxel_mm3)
        for lesion_id, n in enumerate(sizes.tolist(), start=1)
    ]
    order = np.argsort(labels, kind="stable")
    return LesionSet(lesions, (nx, ny, nz), idx, labels, surface, order, starts)
