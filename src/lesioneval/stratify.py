"""Size-bin stratification and per-bin/per-sample aggregation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .components import LesionSet
from .matching import MatchSet
from .metrics import DetectionCounts, ImageMetrics, LesionPairMetrics, detection_rates


@dataclass(frozen=True)
class SizeBin:
    name: str
    lower_vox: int  # inclusive
    upper_vox: int | None  # exclusive; None = unbounded

    def contains(self, volume_vox: int) -> bool:
        if volume_vox < self.lower_vox:
            return False
        return self.upper_vox is None or volume_vox < self.upper_vox


# Half-open lower-inclusive bins partitioning [1, inf).
SIZE_BINS = (
    SizeBin("VerySmall", 1, 10),
    SizeBin("Small", 10, 100),
    SizeBin("Medium", 100, 400),
    SizeBin("Large", 400, None),
)
BIN_NAMES = tuple(b.name for b in SIZE_BINS)


def categorize(volume_vox: int) -> SizeBin:
    """The unique size bin whose half-open interval contains the count."""
    if volume_vox < 1:
        raise ValueError(f"lesion volume must be >= 1 voxel, got {volume_vox}")
    for b in SIZE_BINS:
        if b.contains(volume_vox):
            return b
    raise AssertionError("bins must partition [1, inf)")


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
    trace: list[str] = field(default_factory=list)


def _aggregate(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(np.median(arr))


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
    tallies = {name: {"tp": 0, "fp": 0, "fn": 0} for name in BIN_NAMES}
    bin_dice: dict[str, list[float]] = {name: [] for name in BIN_NAMES}
    bin_hd95: dict[str, list[float]] = {name: [] for name in BIN_NAMES}
    n_gt_bin = {name: 0 for name in BIN_NAMES}

    for g in gt.lesions:
        name = categorize(g.volume_vox).name
        n_gt_bin[name] += 1
        pm = by_gt.get(g.id)
        if pm is not None:
            tallies[name]["tp"] += 1
            bin_dice[name].append(pm.dice)
            bin_hd95[name].append(pm.hd95_mm)
            records.append(
                LesionRecord(
                    g.id, "TP", g.volume_vox, pm.pred_vox, name,
                    pm.dice, pm.hd95_mm, pm.size_ratio,
                )
            )
        else:
            tallies[name]["fn"] += 1
            records.append(
                LesionRecord(g.id, "FN", g.volume_vox, None, name, None, None, None)
            )

    for pid in match.unmatched_pred:
        p = pred.by_id(pid)
        name = categorize(p.volume_vox).name
        tallies[name]["fp"] += 1
        records.append(
            LesionRecord(p.id, "FP", None, p.volume_vox, name, None, None, None)
        )

    per_bin: dict[str, BinAggregate] = {}
    for name in BIN_NAMES:
        t = tallies[name]
        precision, recall, f1 = detection_rates(t["tp"], t["fp"], t["fn"])
        dm, dmed = _aggregate(bin_dice[name])
        hm, hmed = _aggregate(bin_hd95[name])
        per_bin[name] = BinAggregate(
            n_gt=n_gt_bin[name],
            tp=t["tp"], fp=t["fp"], fn=t["fn"],
            precision=precision, recall=recall, f1=f1,
            dice_mean=dm, dice_median=dmed,
            hd95_mean=hm, hd95_median=hmed,
        )
    return per_bin, records


def rollup(samples: list[SampleResult]) -> dict[str, dict[str, BinAggregate]]:
    """Pooled per-bin aggregates over all samples, grouped by model tag.

    Every matched lesion is weighted equally across samples (pooled), with
    counts summed; order of arrival does not matter.
    """
    groups: dict[str, list[SampleResult]] = {}
    for s in samples:
        groups.setdefault(s.model_tag, []).append(s)

    out: dict[str, dict[str, BinAggregate]] = {}
    for tag in sorted(groups):
        members = groups[tag]
        dices: dict[str, list[float]] = {name: [] for name in BIN_NAMES}
        hd95s: dict[str, list[float]] = {name: [] for name in BIN_NAMES}
        for s in members:
            for r in s.records:
                if r.status == "TP":
                    dices[r.size_bin].append(r.dice)
                    hd95s[r.size_bin].append(r.hd95)
        per_bin: dict[str, BinAggregate] = {}
        for name in BIN_NAMES:
            n_gt = tp = fp = fn = 0
            for s in members:
                b = s.per_bin[name]
                n_gt += b.n_gt
                tp += b.tp
                fp += b.fp
                fn += b.fn
            precision, recall, f1 = detection_rates(tp, fp, fn)
            dm, dmed = _aggregate(dices[name])
            hm, hmed = _aggregate(hd95s[name])
            per_bin[name] = BinAggregate(
                n_gt=n_gt, tp=tp, fp=fp, fn=fn,
                precision=precision, recall=recall, f1=f1,
                dice_mean=dm, dice_median=dmed,
                hd95_mean=hm, hd95_median=hmed,
            )
        out[tag] = per_bin
    return out
