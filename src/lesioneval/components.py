"""Connected-component decomposition of binary masks into lesion instances."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import Foreground, Volume, index_dtype

# connectivity -> the rows (dy, dz) after a run's own in scan order, each with the
# x slack within which their runs touch it: each touching pair is seen once
_ROWS = {
    6: [(1, 0, 0), (0, 1, 0)],
    18: [(1, 0, 1), (0, 1, 1), (-1, 1, 0), (1, 1, 0)],
    26: [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (1, 1, 1)],
}


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[i] .. start[i] + count[i] - 1``, concatenated, in
    the dtype of both."""
    at = np.repeat(start - np.cumsum(count, dtype=start.dtype) + count, count)
    return at + np.arange(at.size, dtype=at.dtype)


def _touching(k0: np.ndarray, k1: np.ndarray, step: int, slack: int):
    """Each pair (a, b) of runs, b ``step`` keys on from a's row, whose x spans
    are at most ``slack`` apart; two binary searches of the run ends find b.
    The run lists stay intp: the union gathers with them, and numpy would
    copy any narrower index array to intp on every gather."""
    lo = np.searchsorted(k1, k0 + step - slack)
    n = np.searchsorted(k0, k1 + step + slack, side="right") - lo
    return np.repeat(np.arange(k0.size), n), _ranges(lo, n)


def _surface(first, length, k0, k1, faces) -> np.ndarray:
    """Flag voxels with a face neighbour outside the foreground: run ends, and
    voxels not covered by runs of all four face rows. Each pair (a, b) of runs
    ``step`` keys apart, in ``faces``, covers its x overlap in both runs; one
    difference array counts, from all overlaps' starts and then all their ends."""

    def marks(edge, bound):
        """Each overlap's start (k0, max) or end (k1 + 1, min), in both its runs."""
        out = []
        for step, (a, b) in faces:
            x = bound(edge[a], edge[b] - step)
            out += [first[a] - k0[a] + x, first[b] - k0[b] + step + x]
        return np.concatenate(out)

    cover = np.bincount(marks(k0, np.maximum), minlength=length.sum() + 1)
    cover -= np.bincount(marks(k1 + 1, np.minimum), minlength=cover.size)
    surface = np.cumsum(cover[:-1], dtype=np.int8) < 4
    surface[first] = surface[first + length - 1] = True
    return surface


def _run_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each of ``n`` runs' component in the graph of edges ``src[i]``-``dst[i]``,
    named by its smallest run.

    Hook and jump: each round, every edge between two roots hooks the larger
    root onto the smaller, ``label = label[label]`` repeats until every run
    points at its root, and edges inside a component drop out. Every root with
    an edge left hooks or is hooked onto, so those roots at least halve each
    round. Hooks only point down, so a component's root is its smallest run.
    """
    label = np.arange(n)
    while src.size:
        src, dst = label[src], label[dst]  # each edge's two roots
        cross = src != dst
        src, dst = src[cross], dst[cross]
        label[np.maximum(src, dst)] = np.minimum(src, dst)  # any smaller root will do
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return label


@dataclass(frozen=True)
class Lesion:
    """One connected component: its id and its size."""

    id: int
    volume_vox: int


@dataclass(frozen=True)
class LesionSet:
    """All lesions of one mask, stored as its foreground voxels alone."""

    shape: tuple[int, int, int]  # [x, y, z] extent of the source mask
    index: np.ndarray  # ascending z-major linear indices of the foreground
    label: np.ndarray  # int32 lesion id of each voxel
    surface: np.ndarray  # bool: the voxel has a 6-neighbour outside the mask
    order: np.ndarray  # positions grouped by lesion, ascending in each group
    starts: np.ndarray  # lesion k's group is order[starts[k-1]:starts[k]]
    # index, order and starts are in index_dtype(shape)

    def __len__(self) -> int:
        return self.starts.size - 1

    @property
    def sizes(self) -> np.ndarray:
        """Each lesion's voxel count: lesion k's is ``sizes[k - 1]``."""
        return np.diff(self.starts)

    @property
    def lesions(self) -> list[Lesion]:
        """A ``Lesion`` per id, built from ``sizes`` on demand."""
        return [Lesion(i, n) for i, n in enumerate(self.sizes.tolist(), start=1)]

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

    The foreground is cut into maximal x-runs, and a union of the touching
    runs roots each component at its first run in scan order, so the cost
    follows the number of runs. Labels are assigned deterministically:
    components are numbered 1..N in the order of their roots, which is the
    order of their minimum voxel in lexicographic (z, y, x) order. A voxel
    is on the surface when fewer than 6 of its face neighbours are
    foreground, the grid edge counting as outside; face neighbours always
    share a lesion, so this is each lesion's own surface at every
    connectivity.
    """
    if connectivity not in _ROWS:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    fg = Foreground.from_mask(mask) if isinstance(mask, Volume) else mask
    dtype = index_dtype(fg.dims)
    idx = fg.index.astype(dtype, copy=False)
    nx, ny, nz = fg.dims
    # maximal x-runs, keyed by first and last voxel on a grid padded by one
    # voxel per side in x and y, so no step to another row, nor a slack, wraps;
    # a bare int prepended or appended would widen each diff to int64
    first = np.flatnonzero(
        (np.diff(idx, prepend=dtype.type(-1)) != 1) | (idx % nx == 0)
    ).astype(dtype)
    length = np.diff(first, append=dtype.type(idx.size))
    z, rest = np.divmod(idx[first], nx * ny)
    k0 = (z * (ny + 2) + rest // nx + 1) * (nx + 2) + rest % nx + 1
    k1 = k0 + length - 1
    sy, sz = nx + 2, (nx + 2) * (ny + 2)  # key steps to the next row in y and in z
    faces = [(step, _touching(k0, k1, step, 0)) for step in (sy, sz)]
    surface = _surface(first, length, k0, k1, faces)
    rows = [(dy * sy + dz * sz, slack) for dy, dz, slack in _ROWS[connectivity]]
    # at connectivity 6 the face rows' pairs are all the touching runs
    pairs = [p for _, p in faces] if connectivity == 6 else [_touching(k0, k1, *r) for r in rows]
    src, dst = map(np.concatenate, zip(*pairs))
    del faces, pairs  # no array of the graph outlives its last use
    comp = _run_components(k0.size, src, dst)
    del src, dst

    # a component's root is its first run in scan order: number the roots 1..N
    run_label = np.cumsum(comp == np.arange(comp.size), dtype=np.int32)[comp]
    labels = np.repeat(run_label, length)

    sizes = np.bincount(labels)[1:]
    starts = np.zeros(sizes.size + 1, dtype)
    np.cumsum(sizes, out=starts[1:])
    runs = np.argsort(run_label, kind="stable")
    order = _ranges(first[runs], length[runs])
    return LesionSet((nx, ny, nz), idx, labels, surface, order, starts)
