"""Overlap, surface-distance and detection metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .components import LesionSet
from .errors import EmptySet
from .matching import MatchSet
from .volume import Volume


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
    a: np.ndarray, b: np.ndarray, origin, spacing: tuple, variant: str
) -> tuple[float, float]:
    """(HD95, ASSD) between two non-empty masks cut from one grid at ``origin``.

    HD95 is the 95th percentile (linear interpolation) of the pooled
    symmetric surface distances, or the larger of the two directed ones;
    ASSD is the mean of the pooled distances.
    """
    sp = np.asarray(spacing, dtype=float)
    a_pts = _surface(a, origin) * sp
    b_pts = _surface(b, origin) * sp
    d_ab = np.atleast_1d(cKDTree(b_pts).query(a_pts, k=1)[0])
    d_ba = np.atleast_1d(cKDTree(a_pts).query(b_pts, k=1)[0])
    pooled = np.concatenate([d_ab, d_ba])
    if variant == "pooled":
        hd = float(np.percentile(pooled, 95))
    elif variant == "max-of-directed":
        hd = float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))
    else:
        raise ValueError(f"unknown hd95 variant {variant!r}")
    return hd, float(pooled.mean())


def _voxel_masks(*voxel_lists: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Paint (n, 3) voxel lists onto one tight shared grid; returns (masks, origin)."""
    lists = [np.asarray(v) for v in voxel_lists]
    if any(len(v) == 0 for v in lists):
        raise EmptySet("surface of an empty voxel set")
    stacked = np.concatenate(lists)
    lo = stacked.min(axis=0)
    shape = stacked.max(axis=0) - lo + 1
    masks = []
    for v in lists:
        mask = np.zeros(shape, dtype=bool)
        rel = v - lo
        mask[rel[:, 0], rel[:, 1], rel[:, 2]] = True
        masks.append(mask)
    return masks, lo


def surface_voxels(voxels: np.ndarray) -> np.ndarray:
    """Border voxels of a set: those with a 6-neighbor outside the set."""
    (mask,), lo = _voxel_masks(voxels)
    return _surface(mask, lo)


def hd95(
    a: np.ndarray, b: np.ndarray, spacing: tuple, variant: str = "pooled"
) -> float:
    """95th percentile (linear interpolation) of symmetric surface distances."""
    (ma, mb), lo = _voxel_masks(a, b)
    return _surface_distances(ma, mb, lo, spacing, variant)[0]


def assd(a: np.ndarray, b: np.ndarray, spacing: tuple) -> float:
    """Mean of the pooled symmetric surface-distance multiset."""
    (ma, mb), lo = _voxel_masks(a, b)
    return _surface_distances(ma, mb, lo, spacing, "pooled")[1]


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
        hd95_mm=_surface_distances(gm, pm, origin, spacing, hd95_variant)[0],
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


def compute_image_metrics(
    gt: Volume,
    pred: Volume,
    hd95_variant: str = "pooled",
    spacing: tuple | None = None,
) -> ImageMetrics:
    """Voxel-wise Dice plus whole-foreground HD95 and ASSD.

    Distances are None when either foreground is empty; Dice is None only
    when both are empty.
    """
    sp = spacing if spacing is not None else gt.spacing
    g = gt.data != 0
    p = pred.data != 0
    n_g = int(g.sum())
    n_p = int(p.sum())
    voxel_dice = _dice_counts(int((g & p).sum()), n_g, n_p)
    voxel_hd95 = assd_mm = None
    if n_g > 0 and n_p > 0:
        voxel_hd95, assd_mm = _surface_distances(g, p, 0, sp, hd95_variant)
    return ImageMetrics(voxel_dice, voxel_hd95, assd_mm, n_g, n_p)
