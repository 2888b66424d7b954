"""Overlap, surface-distance and detection metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .components import LesionSet
from .errors import EmptySet
from .matching import MatchSet


@dataclass(frozen=True)
class LesionPairMetrics:
    gt_id: int
    pred_id: int
    dice: float
    iou: float
    hd95_mm: float
    gt_vox: int
    pred_vox: int
    volume_error_rel: float  # (pred - gt) / gt
    size_ratio: float  # pred / gt


@dataclass(frozen=True)
class DetectionCounts:
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class ImageMetrics:
    voxel_dice: float | None
    voxel_hd95_mm: float | None
    assd_mm: float | None
    gt_total_vox: int
    pred_total_vox: int


def _dice_counts(inter: int, na: int, nb: int) -> float | None:
    total = na + nb
    if total == 0:
        return None
    return 2.0 * inter / total


_FACE_STRUCT = ndimage.generate_binary_structure(3, 1)


def _surface(mask: np.ndarray, origin) -> np.ndarray:
    """Grid coordinates of mask voxels with a 6-neighbor outside the mask.

    The edge of the array counts as outside.
    """
    eroded = ndimage.binary_erosion(mask, structure=_FACE_STRUCT, border_value=0)
    return np.argwhere(mask & ~eroded) + origin


def _surface_distances(
    a_pts: np.ndarray, b_pts: np.ndarray, spacing: tuple, variant: str
) -> tuple[float, float]:
    """(HD95, ASSD) between two non-empty surfaces given as grid coordinates.

    HD95 is the 95th percentile (linear interpolation) of the pooled
    symmetric surface distances, or the larger of the two directed ones;
    ASSD is the mean of the pooled distances.
    """
    sp = np.asarray(spacing, dtype=float)
    a_mm = a_pts * sp
    b_mm = b_pts * sp
    d_ab = np.atleast_1d(cKDTree(b_mm).query(a_mm, k=1)[0])
    d_ba = np.atleast_1d(cKDTree(a_mm).query(b_mm, k=1)[0])
    pooled = np.concatenate([d_ab, d_ba])
    if variant == "pooled":
        hd = float(np.percentile(pooled, 95))
    elif variant == "max-of-directed":
        hd = float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))
    else:
        raise ValueError(f"unknown hd95 variant {variant!r}")
    return hd, float(pooled.mean())


def surface_voxels(voxels: np.ndarray) -> np.ndarray:
    """Border voxels of a set: those with a 6-neighbor outside the set."""
    voxels = np.asarray(voxels)
    if len(voxels) == 0:
        raise EmptySet("surface of an empty voxel set")
    lo = voxels.min(axis=0)
    mask = np.zeros(voxels.max(axis=0) - lo + 1, dtype=bool)
    rel = voxels - lo
    mask[rel[:, 0], rel[:, 1], rel[:, 2]] = True
    return _surface(mask, lo)


def hd95(
    a: np.ndarray, b: np.ndarray, spacing: tuple, variant: str = "pooled"
) -> float:
    """95th percentile (linear interpolation) of symmetric surface distances."""
    return _surface_distances(surface_voxels(a), surface_voxels(b), spacing, variant)[0]


def assd(a: np.ndarray, b: np.ndarray, spacing: tuple) -> float:
    """Mean of the pooled symmetric surface-distance multiset."""
    return _surface_distances(surface_voxels(a), surface_voxels(b), spacing, "pooled")[1]


def compute_lesion_metrics(
    gt: LesionSet,
    pred: LesionSet,
    gt_id: int,
    pred_id: int,
    spacing: tuple,
    hd95_variant: str = "pooled",
) -> LesionPairMetrics:
    """All per-pair metrics for a matched GT/prediction lesion pair.

    Both lesions are cut from their label maps over the union of their boxes.
    """
    g, p = gt.by_id(gt_id), pred.by_id(pred_id)
    box = tuple(
        slice(min(a.start, b.start), max(a.stop, b.stop)) for a, b in zip(g.bbox, p.bbox)
    )
    gm = gt.label_map[box] == gt_id
    pm = pred.label_map[box] == pred_id
    inter = int(np.count_nonzero(gm & pm))
    origin = np.array([s.start for s in box])
    return LesionPairMetrics(
        gt_id=gt_id,
        pred_id=pred_id,
        dice=_dice_counts(inter, g.volume_vox, p.volume_vox),
        iou=inter / (g.volume_vox + p.volume_vox - inter),
        hd95_mm=_surface_distances(
            _surface(gm, origin), _surface(pm, origin), spacing, hd95_variant
        )[0],
        gt_vox=g.volume_vox,
        pred_vox=p.volume_vox,
        volume_error_rel=(p.volume_vox - g.volume_vox) / g.volume_vox,
        size_ratio=p.volume_vox / g.volume_vox,
    )


def detection_rates(
    tp: int, fp: int, fn: int
) -> tuple[float | None, float | None, float | None]:
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def compute_instance_metrics(
    gt: LesionSet, pred: LesionSet, m: MatchSet
) -> DetectionCounts:
    """Lesion-level TP/FP/FN and the derived detection rates."""
    tp = len(m.matches)
    fn = len(m.unmatched_gt)
    fp = len(m.unmatched_pred)
    precision, recall, f1 = detection_rates(tp, fp, fn)
    return DetectionCounts(tp, fp, fn, precision, recall, f1)


def _mask_surface(ls: LesionSet) -> np.ndarray:
    """Surface voxels of a whole mask from its lesions' boxes, in C order."""
    pts = np.concatenate(
        [
            _surface(ls.label_map[l.bbox] == l.id, [s.start for s in l.bbox])
            for l in ls.lesions
        ]
    )
    return pts[np.lexsort(pts.T[::-1])]


def compute_image_metrics(
    gt: LesionSet, pred: LesionSet, hd95_variant: str, spacing: tuple
) -> ImageMetrics:
    """Voxel-wise Dice plus whole-foreground HD95 and ASSD of two masks.

    Works from the lesion boxes alone, never scanning the whole grid. This
    gives the same numbers as whole-mask erosion: lesions are components
    at connectivity 6, 18 or 26, each of which joins face neighbours, so no
    two lesions share a face, and a voxel's 6-neighbour is outside the mask
    exactly when it is outside the voxel's own lesion. The mask's surface is
    then the union of the per-lesion surfaces, sorted back to C order so the
    distances and their sums match the whole-grid computation bit for bit.

    Distances are None when either foreground is empty; Dice is None only
    when both are empty.
    """
    n_g = sum(l.volume_vox for l in gt.lesions)
    n_p = sum(l.volume_vox for l in pred.lesions)
    inter = sum(
        int(np.count_nonzero(
            (gt.label_map[l.bbox] == l.id) & (pred.label_map[l.bbox] != 0)
        ))
        for l in gt.lesions
    )
    voxel_dice = _dice_counts(inter, n_g, n_p)
    voxel_hd95 = assd_mm = None
    if n_g > 0 and n_p > 0:
        voxel_hd95, assd_mm = _surface_distances(
            _mask_surface(gt), _mask_surface(pred), spacing, hd95_variant
        )
    return ImageMetrics(voxel_dice, voxel_hd95, assd_mm, n_g, n_p)
