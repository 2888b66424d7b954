"""Greedy one-to-one IoU matching between GT and predicted lesions."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import LesionSet

DEFAULT_TAU = 0.35


@dataclass(frozen=True)
class CandidatePair:
    gt_id: int
    pred_id: int
    iou: float


@dataclass(frozen=True)
class MatchSet:
    """One-to-one correspondence plus unmatched residues."""

    matches: list[tuple[int, int, float]]  # (gt_id, pred_id, iou), acceptance order
    unmatched_gt: list[int]  # false negatives
    unmatched_pred: list[int]  # false positives
    tau: float


def iou_counts(inter: int, na: int, nb: int) -> float:
    """IoU of two non-empty voxel sets from their sizes and overlap."""
    return inter / (na + nb - inter)


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``a`` and in ``b`` of the values both hold; both strictly ascending."""
    if a.size > b.size:  # search the shorter in the longer: no take from an empty b
        return intersect_sorted(b, a)[::-1]
    at = np.searchsorted(b, a)
    ia = np.flatnonzero(b.take(at, mode="clip") == a)
    return ia, at[ia]


def generate_candidates(
    gt: LesionSet, pred: LesionSet, tau: float = DEFAULT_TAU
) -> list[CandidatePair]:
    """All overlapping pairs with IoU strictly above tau, by (gt_id, pred_id).

    One intersection of the two sorted foregrounds gives the voxels the
    masks share; one joint count of their label pairs gives every
    pairwise intersection at once.
    """
    gi, pi = intersect_sorted(gt.index, pred.index)
    stride = len(pred.lesions) + 1
    keys, counts = np.unique(
        gt.label[gi].astype(np.int64) * stride + pred.label[pi], return_counts=True
    )
    out: list[CandidatePair] = []
    for key, inter in zip(keys.tolist(), counts.tolist()):
        gid, pid = divmod(key, stride)
        iou = iou_counts(inter, gt.by_id(gid).volume_vox, pred.by_id(pid).volume_vox)
        if iou > tau:
            out.append(CandidatePair(gid, pid, iou))
    return out


def greedy_match(candidates: list[CandidatePair]) -> list[tuple[int, int, float]]:
    """Accept candidates in descending IoU order while both endpoints are free.

    Ties broken by (gt_id, pred_id) for platform-independent determinism.
    """
    ordered = sorted(candidates, key=lambda c: (-c.iou, c.gt_id, c.pred_id))
    used_gt: set[int] = set()
    used_pred: set[int] = set()
    matches: list[tuple[int, int, float]] = []
    for c in ordered:
        if c.gt_id not in used_gt and c.pred_id not in used_pred:
            used_gt.add(c.gt_id)
            used_pred.add(c.pred_id)
            matches.append((c.gt_id, c.pred_id, c.iou))
    return matches


def match_lesions(gt: LesionSet, pred: LesionSet, tau: float = DEFAULT_TAU) -> MatchSet:
    """Full matching: candidates, greedy resolution, FP/FN residues."""
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must be in [0, 1), got {tau}")
    candidates = generate_candidates(gt, pred, tau)
    matches = greedy_match(candidates)
    matched_gt = {m[0] for m in matches}
    matched_pred = {m[1] for m in matches}
    return MatchSet(
        matches=matches,
        unmatched_gt=[l.id for l in gt.lesions if l.id not in matched_gt],
        unmatched_pred=[l.id for l in pred.lesions if l.id not in matched_pred],
        tau=tau,
    )
