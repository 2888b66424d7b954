"""Connected-component decomposition of binary masks into lesion instances."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import NotBinary
from .volume import Volume

# connectivity -> rank passed to generate_binary_structure
_STRUCT_RANK = {6: 1, 18: 2, 26: 3}


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
    if connectivity not in _STRUCT_RANK:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    data = mask.data
    bad = (data != 0) & (data != 1)
    if bad.any():
        raise NotBinary(
            f"mask contains values other than 0/1: {np.unique(data[bad])[:10]}"
        )

    structure = ndimage.generate_binary_structure(3, _STRUCT_RANK[connectivity])
    # scipy numbers components in scan order of its input; scanning the
    # [z, y, x] view gives the (z, y, x) numbering without a relabel
    labels_zyx, _ = ndimage.label(data.T, structure=structure)
    label_map = labels_zyx.T
    voxel_mm3 = float(np.prod(mask.spacing))

    lesions: list[Lesion] = []
    for lesion_id, box_zyx in enumerate(ndimage.find_objects(labels_zyx), start=1):
        box = box_zyx[::-1]
        n = int(np.count_nonzero(label_map[box] == lesion_id))
        lesions.append(Lesion(lesion_id, box, n, n * voxel_mm3))
    return LesionSet(lesions, label_map)
