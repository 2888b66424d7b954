"""Size-bin stratification and the per-bin aggregation of lesion tables."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import LesionSet
from .metrics import Columns, ImageMetrics, LesionPairMetrics

# Half-open bins partitioning [1, inf): bin i holds [_LOWER_VOX[i], _LOWER_VOX[i + 1]).
BIN_NAMES = ("VerySmall", "Small", "Medium", "Large")
_LOWER_VOX = np.array([1, 10, 100, 400])


def bin_index(volume_vox: np.ndarray) -> np.ndarray:
    """The position in ``BIN_NAMES`` of each voxel count's bin."""
    volume_vox = np.asarray(volume_vox)
    if np.any(volume_vox < 1):
        raise ValueError(f"lesion volume must be >= 1 voxel, got {volume_vox.min()}")
    return np.searchsorted(_LOWER_VOX, volume_vox, side="right") - 1


@dataclass(frozen=True)
class DetectionCounts:
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None


def detection_rates(
    tp: int, fp: int, fn: int
) -> tuple[float | None, float | None, float | None]:
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    f1 = None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


@dataclass(frozen=True, eq=False)
class LesionTable(Columns):
    """The long-format lesion rows of one sample, one array per column.

    Each GT lesion in id order, then each FP in id order. A cell that does
    not apply to its row holds None: the predicted size of an FN, the GT
    size of an FP, and the Dice, HD95 and size ratio of both.
    """

    lesion_id: np.ndarray
    status: np.ndarray  # TP | FP | FN
    gt_vox: np.ndarray  # objects, as are the columns below but size_bin
    pred_vox: np.ndarray
    size_bin: np.ndarray
    dice: np.ndarray
    hd95: np.ndarray
    size_ratio: np.ndarray


@dataclass(frozen=True)
class BinAggregate:
    n_gt: int
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    dice_mean: float | None
    dice_median: float | None
    hd95_mean: float | None
    hd95_median: float | None


@dataclass(eq=False)
class SampleResult:
    sample_id: str
    model_tag: str
    detection: DetectionCounts
    image: ImageMetrics
    pairs: LesionPairMetrics
    per_bin: dict[str, BinAggregate]
    records: LesionTable
    gt_lesions: int
    pred_lesions: int


def _aggregate(values: np.ndarray) -> tuple[float | None, float | None]:
    arr = values.astype(float)
    return (float(arr.mean()), float(np.median(arr))) if arr.size else (None, None)


def aggregate_bins(tables: list[LesionTable]) -> dict[str, BinAggregate]:
    """The per-bin table of one or more lesion tables, pooled in the order given.

    TP and FN rows are the bin's GT lesions. Dice and HD95 are summarised
    over the TP rows in order, so the same tables in the same order always
    give the same floats.
    """
    status, size_bin, dice, hd95 = (
        np.concatenate([getattr(t, c) for t in tables])
        for c in ("status", "size_bin", "dice", "hd95")
    )
    per_bin: dict[str, BinAggregate] = {}
    for name in BIN_NAMES:
        here = size_bin == name
        tp, fp, fn = (int(np.count_nonzero(here & (status == s))) for s in ("TP", "FP", "FN"))
        tps = here & (status == "TP")
        per_bin[name] = BinAggregate(
            tp + fn, tp, fp, fn, *detection_rates(tp, fp, fn),
            *_aggregate(dice[tps]), *_aggregate(hd95[tps]),
        )
    return per_bin


def stratify(
    gt: LesionSet, pred: LesionSet, pairs: LesionPairMetrics
) -> tuple[dict[str, BinAggregate], LesionTable]:
    """Assign TP/FN to bins by GT lesion size, FP by predicted lesion size.

    The GT lesions in ``pairs`` are the TPs and the others the FNs; the
    predicted lesions not in ``pairs`` are the FPs. An FP has no GT
    counterpart, so its own size decides its bin; this choice affects
    per-bin precision and is deliberate.
    """
    unmatched = np.ones(len(pred), bool)
    unmatched[pairs.pred_id - 1] = False
    fp_id = np.flatnonzero(unmatched) + 1
    sizes = np.concatenate([gt.sizes, pred.sizes[fp_id - 1]])  # each row's own lesion
    n_gt, n = len(gt), sizes.size
    tp, fp = pairs.gt_id - 1, np.arange(n_gt, n)  # the rows of the TPs and of the FPs
    status = np.full(n, "FN")
    status[tp], status[fp] = "TP", "FP"

    def column(rows, values) -> np.ndarray:
        c = np.full(n, None, object)
        c[rows] = values  # stored as Python ints and floats
        return c

    table = LesionTable(
        lesion_id=np.concatenate([np.arange(1, n_gt + 1), fp_id]), status=status,
        gt_vox=column(slice(n_gt), sizes[:n_gt]),
        pred_vox=column(np.concatenate([tp, fp]), np.concatenate([pairs.pred_vox, sizes[n_gt:]])),
        size_bin=np.array(BIN_NAMES)[bin_index(sizes)],
        dice=column(tp, pairs.dice), hd95=column(tp, pairs.hd95_mm),
        size_ratio=column(tp, pairs.size_ratio),
    )
    return aggregate_bins([table]), table


def rollup(samples: list[SampleResult]) -> dict[str, dict[str, BinAggregate]]:
    """Per-bin aggregates of each model tag's pooled lesion tables.

    Every lesion counts once, whichever sample it came from. Samples are
    pooled in sample_id order, so the result does not depend on the order
    they arrive in.
    """
    pooled: dict[str, list[LesionTable]] = {}
    for s in sorted(samples, key=lambda s: s.sample_id):
        pooled.setdefault(s.model_tag, []).append(s.records)
    return {tag: aggregate_bins(pooled[tag]) for tag in sorted(pooled)}
