"""Connected-component decomposition of binary masks into lesion instances."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from .errors import NotBinary
from .volume import Volume

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
    """One connected component: its id in the label map and its box there."""

    id: int
    bbox: tuple[slice, slice, slice]  # tight [x, y, z] box into the label map
    volume_vox: int
    volume_mm3: float


@dataclass(frozen=True)
class LesionSet:
    """All lesions of one mask plus the integer label map (0 = background)."""

    lesions: list[Lesion]
    label_map: np.ndarray  # int32, indexed [x, y, z] like the source mask

    def __len__(self) -> int:
        return len(self.lesions)

    def by_id(self, lesion_id: int) -> Lesion:
        return self.lesions[lesion_id - 1]


def find_connected_components(mask: Volume, connectivity: int = 6) -> LesionSet:
    """Partition the foreground of a binary mask into maximal components.

    Labels are assigned deterministically: components are numbered 1..N by
    their minimum voxel in lexicographic (z, y, x) order.
    """
    if connectivity not in _FORWARD:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    data = mask.data
    nx, ny, nz = data.shape
    # foreground as ascending z-major linear indices, i.e. in (z, y, x) order
    idx = np.flatnonzero(data.T != 0)
    z, rest = np.divmod(idx, nx * ny)
    y, x = np.divmod(rest, nx)
    vals = data[x, y, z]
    bad = vals != 1
    if bad.any():
        raise NotBinary(
            f"mask contains values other than 0/1: {np.unique(vals[bad])[:10]}"
        )

    # one edge per pair of foreground neighbours, found by binary search;
    # the bounds check keeps a step from wrapping into the next row or slice
    room = [{-1: c > 0, 0: True, 1: c < n - 1} for c, n in ((x, nx), (y, ny), (z, nz))]
    src, dst = [], []
    for dx, dy, dz in _FORWARD[connectivity]:
        at = np.flatnonzero(room[0][dx] & room[1][dy] & room[2][dz])
        target = idx[at] + (dz * ny + dy) * nx + dx
        pos = np.searchsorted(idx, target)
        hit = idx.take(pos, mode="clip") == target
        src.append(at[hit])
        dst.append(pos[hit])
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = coo_array((np.ones(src.size, np.int8), (src, dst)), shape=(idx.size,) * 2)
    _, comp = connected_components(graph, directed=False)

    # number components 1..N by their first voxel in scan order
    _, first = np.unique(comp, return_index=True)
    number = np.empty(first.size, np.int32)
    number[np.argsort(first)] = np.arange(1, first.size + 1, dtype=np.int32)
    labels = number[comp]

    labels_zyx = np.zeros((nz, ny, nx), dtype=np.int32)
    labels_zyx.ravel()[idx] = labels
    label_map = labels_zyx.T

    sizes = np.bincount(labels)[1:]
    order = np.argsort(labels)
    starts = np.cumsum(sizes) - sizes
    lo = [np.minimum.reduceat(c[order], starts).tolist() for c in (x, y, z)]
    hi = [(np.maximum.reduceat(c[order], starts) + 1).tolist() for c in (x, y, z)]
    voxel_mm3 = float(np.prod(mask.spacing))
    lesions = [
        Lesion(lesion_id, tuple(map(slice, a, b)), n, n * voxel_mm3)
        for lesion_id, (n, a, b) in enumerate(
            zip(sizes.tolist(), zip(*lo), zip(*hi)), start=1
        )
    ]
    return LesionSet(lesions, label_map)
