"""Greedy one-to-one IoU matching between GT and predicted lesions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import LesionSet

DEFAULT_TAU = 0.35


@dataclass(frozen=True)
class Overlap:
    """Each GT/predicted lesion pair that shares voxels, by (gt_id, pred_id)."""

    gt_id: np.ndarray
    pred_id: np.ndarray
    inter: np.ndarray  # voxels the pair shares; the sum is those the masks share


def iou_counts(inter: int, na: int, nb: int) -> float:
    """IoU of two non-empty voxel sets from their sizes and overlap; elementwise on arrays."""
    return inter / (na + nb - inter)


def dice_counts(inter: int, na: int, nb: int) -> float:
    """Dice of two voxel sets, not both empty, from sizes and overlap; elementwise on arrays."""
    return 2.0 * inter / (na + nb)


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``a`` and in ``b`` of the values both hold; both strictly ascending."""
    if a.size > b.size:  # search the shorter in the longer: no take from an empty b
        return intersect_sorted(b, a)[::-1]
    at = np.searchsorted(b, a)
    ia = np.flatnonzero(b.take(at, mode="clip") == a)
    return ia, at[ia]


def overlap(gt: LesionSet, pred: LesionSet) -> Overlap:
    """Every overlapping pair, below tau too: one intersection, one joint count."""
    gi, pi = intersect_sorted(gt.index, pred.index)
    stride = len(pred) + 1
    key = gt.label[gi].astype(np.int64) * stride + pred.label[pi]
    keys, inter = np.unique(key, return_counts=True)
    return Overlap(keys // stride, keys % stride, inter)


def generate_candidates(
    gt: LesionSet, pred: LesionSet, ov: Overlap, tau: float = DEFAULT_TAU
) -> list[tuple[int, int, float]]:
    """``(gt_id, pred_id, iou)`` of each pair in ``ov`` with IoU strictly above tau."""
    na, nb = gt.sizes[ov.gt_id - 1], pred.sizes[ov.pred_id - 1]
    iou = iou_counts(ov.inter, na, nb)
    keep = iou > tau
    return list(zip(ov.gt_id[keep].tolist(), ov.pred_id[keep].tolist(), iou[keep].tolist()))


def greedy_match(candidates: list[tuple[int, int, float]]) -> list[tuple[int, int, float]]:
    """Accept candidates in descending IoU order while both endpoints are free.

    Ties broken by (gt_id, pred_id) for platform-independent determinism.
    """
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for g, p, iou in sorted(candidates, key=lambda c: (-c[2], c[0], c[1])):
        if g not in used_gt and p not in used_pred:
            used_gt.add(g)
            used_pred.add(p)
            matches.append((g, p, iou))
    return matches


def match_lesions(
    gt: LesionSet, pred: LesionSet, ov: Overlap, tau: float = DEFAULT_TAU
) -> list[tuple[int, int, float]]:
    """Candidates from ``ov``, greedy resolution: ``(gt_id, pred_id, iou)`` as accepted."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    return greedy_match(generate_candidates(gt, pred, ov, tau))
