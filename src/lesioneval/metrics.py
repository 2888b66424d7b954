"""Overlap, surface-distance and detection metrics."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .components import LesionSet, find_connected_components
from .errors import EmptySet
from .matching import MatchSet, iou_counts
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


def _mask_surface(ls: LesionSet) -> np.ndarray:
    """The labeller's surface voxels of a whole mask, in C [x, y, z] order."""
    pts = ls.coords(np.flatnonzero(ls.surface))
    return pts[np.lexsort(pts.T[::-1])]


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
    mask = np.zeros(voxels.max(axis=0) - lo + 1, dtype=np.uint8)
    rel = voxels - lo
    mask[rel[:, 0], rel[:, 1], rel[:, 2]] = 1
    return _mask_surface(find_connected_components(Volume(mask, (1, 1, 1)))) + lo


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

    Both lesions are read from their runs of voxels; HD95 is a percentile,
    so the order of their surface points does not matter.
    """
    g, p = gt.by_id(gt_id), pred.by_id(pred_id)
    ga, pa = gt.run(gt_id), pred.run(pred_id)
    inter = np.intersect1d(gt.index[ga], pred.index[pa], assume_unique=True).size
    return LesionPairMetrics(
        gt_id=gt_id,
        pred_id=pred_id,
        dice=_dice_counts(inter, g.volume_vox, p.volume_vox),
        iou=iou_counts(inter, g.volume_vox, p.volume_vox),
        hd95_mm=_surface_distances(
            gt.coords(ga[gt.surface[ga]]),
            pred.coords(pa[pred.surface[pa]]),
            spacing,
            hd95_variant,
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


def compute_image_metrics(
    gt: LesionSet, pred: LesionSet, hd95_variant: str, spacing: tuple
) -> ImageMetrics:
    """Voxel-wise Dice plus whole-foreground HD95 and ASSD of two masks.

    Works from the two foregrounds alone, never scanning the grid. The
    labeller's surface flags are those of whole-mask erosion, and the
    surface points are sorted to C order so the distances and their sums
    match the whole-grid computation bit for bit.

    Distances are None when either foreground is empty; Dice is None only
    when both are empty.
    """
    n_g, n_p = gt.index.size, pred.index.size
    inter = np.intersect1d(gt.index, pred.index, assume_unique=True).size
    voxel_dice = _dice_counts(inter, n_g, n_p)
    voxel_hd95 = assd_mm = None
    if n_g > 0 and n_p > 0:
        voxel_hd95, assd_mm = _surface_distances(
            _mask_surface(gt), _mask_surface(pred), spacing, hd95_variant
        )
    return ImageMetrics(voxel_dice, voxel_hd95, assd_mm, n_g, n_p)
