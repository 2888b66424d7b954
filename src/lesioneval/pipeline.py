"""End-to-end evaluation of GT/prediction mask pairs."""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

from .components import find_connected_components
from .errors import ManifestParseError
from .matching import DEFAULT_TAU, match_lesions
from .metrics import (
    compute_image_metrics,
    compute_instance_metrics,
    compute_lesion_metrics,
    surface_distances,
)
from .nifti import read_foreground
from .stratify import SampleResult, stratify
from .volume import Foreground, Volume, binarize, check_compatibility


@dataclass(frozen=True)
class RunConfig:
    tau: float = DEFAULT_TAU
    connectivity: int = 6
    distance_units: str = "mm"  # mm | voxels
    hd95_variant: str = "pooled"  # pooled | max-of-directed
    binarize_threshold: float = 0.5
    parallelism: int = 1

    def __post_init__(self) -> None:
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
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")

    def provenance(self) -> dict:
        """Config fields embedded in every report.

        Parallelism is excluded: reports are required to be byte-identical
        across --jobs settings.
        """
        return {
            "tau": self.tau,
            "connectivity": self.connectivity,
            "distance_units": self.distance_units,
            "hd95_variant": self.hd95_variant,
            "binarize_threshold": self.binarize_threshold,
        }


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
    NUL, which no file name can hold.
    """
    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise ValueError(f"sample_id {sample_id!r} is not a plain file name")


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
    match = match_lesions(gt_ls, pred_ls, config.tau)
    dists = surface_distances(gt_ls, pred_ls, spacing)
    pairs = compute_lesion_metrics(
        gt_ls, pred_ls, match.matches, dists, config.hd95_variant
    )
    detection = compute_instance_metrics(match)
    image = compute_image_metrics(gt_ls, pred_ls, config.hd95_variant, dists)
    per_bin, records = stratify(gt_ls, pred_ls, match, pairs)
    return SampleResult(
        sample_id=sample_id,
        model_tag=model_tag,
        detection=detection,
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
        with open(path, newline="") as f:
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
