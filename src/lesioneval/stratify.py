"""Size-bin stratification and the per-bin aggregation of lesion records."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import LesionSet
from .matching import MatchSet
from .metrics import DetectionCounts, ImageMetrics, LesionPairMetrics, detection_rates


@dataclass(frozen=True)
class SizeBin:
    name: str
    lower_vox: int  # inclusive
    upper_vox: int | None  # exclusive; None = unbounded


# Half-open lower-inclusive bins partitioning [1, inf): each ends where the next begins.
SIZE_BINS = (
    SizeBin("VerySmall", 1, 10),
    SizeBin("Small", 10, 100),
    SizeBin("Medium", 100, 400),
    SizeBin("Large", 400, None),
)
BIN_NAMES = tuple(b.name for b in SIZE_BINS)
_LOWER_VOX = np.array([b.lower_vox for b in SIZE_BINS])


def bin_index(volume_vox: np.ndarray) -> np.ndarray:
    """The position in ``SIZE_BINS`` of each voxel count's bin."""
    volume_vox = np.asarray(volume_vox)
    if np.any(volume_vox < 1):
        raise ValueError(f"lesion volume must be >= 1 voxel, got {volume_vox.min()}")
    return np.searchsorted(_LOWER_VOX, volume_vox, side="right") - 1


def categorize(volume_vox: int) -> SizeBin:
    """The unique size bin whose half-open interval contains the count."""
    return SIZE_BINS[bin_index(volume_vox)]


@dataclass(frozen=True)
class LesionRecord:
    """One row of the long-format lesion-level output."""

    lesion_id: int
    status: str  # TP | FP | FN
    gt_vox: int | None
    pred_vox: int | None
    size_bin: str
    dice: float | None
    hd95: float | None
    size_ratio: float | None


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


@dataclass
class SampleResult:
    sample_id: str
    model_tag: str
    detection: DetectionCounts
    image: ImageMetrics
    pairs: list[LesionPairMetrics]
    per_bin: dict[str, BinAggregate]
    records: list[LesionRecord]
    gt_lesions: int
    pred_lesions: int


def _aggregate(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(np.median(arr))


def aggregate_bins(records: list[LesionRecord]) -> dict[str, BinAggregate]:
    """The per-bin table of a list of lesion records.

    TP and FN records are the bin's GT lesions. Dice and HD95 are summarised
    over the TP records in the order given, so the same records in the same
    order always give the same floats.
    """
    by_bin: dict[str, list[LesionRecord]] = {name: [] for name in BIN_NAMES}
    for r in records:
        by_bin[r.size_bin].append(r)

    per_bin: dict[str, BinAggregate] = {}
    for name, rs in by_bin.items():
        tps = [r for r in rs if r.status == "TP"]
        tp = len(tps)
        fp = sum(r.status == "FP" for r in rs)
        fn = len(rs) - tp - fp
        precision, recall, f1 = detection_rates(tp, fp, fn)
        dm, dmed = _aggregate([r.dice for r in tps])
        hm, hmed = _aggregate([r.hd95 for r in tps])
        per_bin[name] = BinAggregate(
            n_gt=tp + fn, tp=tp, fp=fp, fn=fn,
            precision=precision, recall=recall, f1=f1,
            dice_mean=dm, dice_median=dmed,
            hd95_mean=hm, hd95_median=hmed,
        )
    return per_bin


def stratify(
    gt: LesionSet,
    pred: LesionSet,
    match: MatchSet,
    pairs: list[LesionPairMetrics],
) -> tuple[dict[str, BinAggregate], list[LesionRecord]]:
    """Assign TP/FN to bins by GT lesion size, FP by predicted lesion size.

    An FP has no GT counterpart, so its own size decides its bin; this
    choice affects per-bin precision and is deliberate.
    """
    by_gt = {pm.gt_id: pm for pm in pairs}
    records: list[LesionRecord] = []
    gt_bins = bin_index(gt.sizes).tolist()
    for g, (n, b) in enumerate(zip(gt.sizes.tolist(), gt_bins), start=1):
        name = BIN_NAMES[b]
        pm = by_gt.get(g)
        if pm is not None:
            records.append(
                LesionRecord(
                    g, "TP", n, pm.pred_vox, name,
                    pm.dice, pm.hd95_mm, pm.size_ratio,
                )
            )
        else:
            records.append(LesionRecord(g, "FN", n, None, name, None, None, None))

    fp_vox = pred.sizes[np.array(match.unmatched_pred, np.intp) - 1]
    for p, n, b in zip(match.unmatched_pred, fp_vox.tolist(), bin_index(fp_vox).tolist()):
        records.append(LesionRecord(p, "FP", None, n, BIN_NAMES[b], None, None, None))
    return aggregate_bins(records), records


def rollup(samples: list[SampleResult]) -> dict[str, dict[str, BinAggregate]]:
    """Per-bin aggregates of each model tag's pooled lesion records.

    Every lesion counts once, whichever sample it came from. Samples are
    pooled in sample_id order, so the result does not depend on the order
    they arrive in.
    """
    pooled: dict[str, list[LesionRecord]] = {}
    for s in sorted(samples, key=lambda s: s.sample_id):
        pooled.setdefault(s.model_tag, []).extend(s.records)
    return {tag: aggregate_bins(pooled[tag]) for tag in sorted(pooled)}
