"""End-to-end evaluation of GT/prediction mask pairs."""
from __future__ import annotations

import csv
import math
import operator
import os
from dataclasses import dataclass

from .components import find_connected_components
from .errors import ManifestParseError
from .matching import DEFAULT_TAU, match_lesions, overlap
from .metrics import compute_image_metrics, compute_lesion_metrics, surface_distances
from .nifti import read_foreground
from .stratify import DetectionCounts, SampleResult, detection_rates, stratify
from .volume import Foreground, Volume, binarize, check_compatibility


@dataclass(frozen=True)
class RunConfig:
    """The evaluation settings; every report records all of them."""

    tau: float = DEFAULT_TAU
    connectivity: int = 6
    distance_units: str = "mm"  # mm | voxels
    hd95_variant: str = "pooled"  # pooled | max-of-directed
    binarize_threshold: float = 0.5

    def __post_init__(self) -> None:
        # reports record every setting as JSON: keep each a plain float, int or str;
        # a bool is none of them, numpy's included (told by its dtype kind)
        for name, kind in (("tau", float), ("connectivity", int), ("distance_units", str),
                           ("hd95_variant", str), ("binarize_threshold", float)):
            value = getattr(self, name)
            try:
                if (isinstance(value, (bool, bytes)) or isinstance(value, str) != (kind is str)
                        or getattr(getattr(value, "dtype", None), "kind", None) == "b"):
                    raise TypeError
                plain = int(operator.index(value)) if kind is int else kind(value)
            except (TypeError, OverflowError):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}") from None
            object.__setattr__(self, name, plain)
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        if self.connectivity not in (6, 18, 26):
            raise ValueError(f"connectivity must be 6/18/26, got {self.connectivity}")
        if self.distance_units not in ("mm", "voxels"):
            raise ValueError(
                f"distance_units must be mm or voxels, got {self.distance_units!r}"
            )
        if self.hd95_variant not in ("pooled", "max-of-directed"):
            raise ValueError(f"unknown hd95 variant {self.hd95_variant!r}")
        if not math.isfinite(self.binarize_threshold):
            raise ValueError(
                f"binarize_threshold must be finite, got {self.binarize_threshold}"
            )


@dataclass(frozen=True)
class ManifestRow:
    sample_id: str
    gt_path: str
    pred_path: str
    model_tag: str = "model"


@dataclass
class SampleFailure:
    sample_id: str
    reason: str


def check_sample_id(sample_id: str) -> None:
    """Raise ValueError unless ``sample_id`` is a plain file name.

    Sample ids name report files, so they must name one file in
    ``samples/``: not empty, not ``.`` or ``..``, and no ``/``, ``\\`` or
    NUL, which no file name can hold. ``<sample_id>.json`` must also fit
    in 255 bytes of UTF-8, the longest file name Linux allows, and the
    file-system encoding (ASCII under a bare C locale) must encode it.
    """
    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise ValueError(f"sample_id {sample_id!r} is not a plain file name")
    if len(sample_id.encode("utf-8")) > 255 - len(".json"):
        raise ValueError(
            f"sample_id {sample_id!r} is not a plain file name: "
            "over 250 bytes in UTF-8"
        )
    try:
        os.fsencode(sample_id)
    except UnicodeEncodeError:
        raise ValueError(f"sample_id {sample_id!r} is not a file name in this locale") from None


def evaluate_pair(
    sample_id: str,
    gt_vol: Volume,
    pred_vol: Volume,
    config: RunConfig,
    model_tag: str = "model",
) -> SampleResult:
    """Binarize, extract, match, measure and stratify one mask pair."""
    t = config.binarize_threshold
    gt = Foreground.from_mask(binarize(gt_vol, t))
    pred = Foreground.from_mask(binarize(pred_vol, t))
    return _evaluate(sample_id, gt, pred, config, model_tag)


def _evaluate(
    sample_id: str,
    gt: Foreground,
    pred: Foreground,
    config: RunConfig,
    model_tag: str,
) -> SampleResult:
    check_compatibility(gt, pred)
    spacing = gt.spacing if config.distance_units == "mm" else (1.0, 1.0, 1.0)

    gt_ls = find_connected_components(gt, config.connectivity)
    pred_ls = find_connected_components(pred, config.connectivity)
    ov = overlap(gt_ls, pred_ls)
    matches = match_lesions(gt_ls, pred_ls, ov, config.tau)
    dists = surface_distances(gt_ls, pred_ls, spacing)
    pairs = compute_lesion_metrics(gt_ls, pred_ls, ov, matches, dists, config.hd95_variant)
    image = compute_image_metrics(gt_ls, pred_ls, ov, config.hd95_variant, dists)
    per_bin, records = stratify(gt_ls, pred_ls, pairs)
    # the lesion table is the one tally of each lesion's outcome
    tp, fp, fn = (sum(getattr(b, k) for b in per_bin.values()) for k in ("tp", "fp", "fn"))
    return SampleResult(
        sample_id=sample_id,
        model_tag=model_tag,
        detection=DetectionCounts(tp, fp, fn, *detection_rates(tp, fp, fn)),
        image=image,
        pairs=pairs,
        per_bin=per_bin,
        records=records,
        gt_lesions=len(gt_ls),
        pred_lesions=len(pred_ls),
    )


def evaluate_sample(row: ManifestRow, config: RunConfig) -> SampleResult:
    """``evaluate_pair`` on two files, each streamed to its foreground."""
    gt = read_foreground(row.gt_path, config.binarize_threshold)
    pred = read_foreground(row.pred_path, config.binarize_threshold)
    return _evaluate(row.sample_id, gt, pred, config, row.model_tag)


def read_manifest(path: str) -> list[ManifestRow]:
    """Parse a CSV manifest; relative paths resolve against its directory."""
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise ManifestParseError(f"{path}: empty manifest")
            required = {"sample_id", "gt_path", "pred_path"}
            missing = required - set(reader.fieldnames)
            if missing:
                raise ManifestParseError(
                    f"{path}: missing columns {sorted(missing)}"
                )
            rows = []
            seen: set[str] = set()
            for rec in reader:
                # DictReader fills a short row with None values and puts the
                # cells beyond the header in a list under the key None
                if None in rec.values() or None in rec:
                    raise ManifestParseError(
                        f"{path}: line {reader.line_num} does not have "
                        f"{len(reader.fieldnames)} cells"
                    )
                sid = rec["sample_id"].strip()
                try:
                    check_sample_id(sid)
                except ValueError as e:
                    raise ManifestParseError(f"{path}: {e}") from e
                if sid in seen:
                    raise ManifestParseError(f"{path}: duplicate sample_id {sid!r}")
                seen.add(sid)
                rows.append(
                    ManifestRow(
                        sample_id=sid,
                        gt_path=os.path.join(base, rec["gt_path"].strip()),
                        pred_path=os.path.join(base, rec["pred_path"].strip()),
                        model_tag=(rec.get("model_tag") or "model").strip() or "model",
                    )
                )
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ManifestParseError(f"cannot read manifest {path}: {e}") from e
    return rows
