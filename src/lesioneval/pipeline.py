"""End-to-end evaluation of GT/prediction mask pairs."""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

from .components import find_connected_components
from .errors import ManifestParseError
from .matching import match_lesions
from .metrics import (
    compute_image_metrics,
    compute_instance_metrics,
    compute_lesion_metrics,
)
from .nifti import read_volume
from .stratify import SampleResult, stratify
from .volume import Volume, binarize, check_compatibility


@dataclass(frozen=True)
class RunConfig:
    tau: float = 0.35
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
            raise ValueError(f"distance_units must be mm or voxels")
        if self.hd95_variant not in ("pooled", "max-of-directed"):
            raise ValueError(f"unknown hd95 variant {self.hd95_variant!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")

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


def evaluate_pair(
    sample_id: str,
    gt_vol: Volume,
    pred_vol: Volume,
    config: RunConfig,
    model_tag: str = "model",
    with_trace: bool = False,
) -> SampleResult:
    """Binarize, extract, match, measure and stratify one mask pair."""
    check_compatibility(gt_vol, pred_vol)
    gt_bin = binarize(gt_vol, config.binarize_threshold)
    pred_bin = binarize(pred_vol, config.binarize_threshold)
    spacing = gt_bin.spacing if config.distance_units == "mm" else (1.0, 1.0, 1.0)

    gt_ls = find_connected_components(gt_bin, config.connectivity)
    pred_ls = find_connected_components(pred_bin, config.connectivity)
    match = match_lesions(gt_ls, pred_ls, config.tau, with_trace=with_trace)
    pairs = [
        compute_lesion_metrics(gt_ls, pred_ls, g, p, spacing, config.hd95_variant)
        for g, p, _ in sorted(match.matches, key=lambda m: m[0])
    ]
    detection = compute_instance_metrics(gt_ls, pred_ls, match)
    image = compute_image_metrics(
        gt_bin, pred_bin, config.hd95_variant, spacing=spacing
    )
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
        trace=match.trace,
    )


def evaluate_sample(row: ManifestRow, config: RunConfig) -> SampleResult:
    gt_vol = read_volume(row.gt_path)
    pred_vol = read_volume(row.pred_path)
    return evaluate_pair(row.sample_id, gt_vol, pred_vol, config, row.model_tag)


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
                if None in rec.values():
                    raise ManifestParseError(
                        f"{path}: line {reader.line_num} has a missing cell"
                    )
                sid = rec["sample_id"].strip()
                if not sid:
                    raise ManifestParseError(f"{path}: empty sample_id")
                # sample ids name report files, so they must not leave samples/
                if sid in (".", "..") or "/" in sid or "\\" in sid:
                    raise ManifestParseError(
                        f"{path}: sample_id {sid!r} is not a plain file name"
                    )
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
    except OSError as e:
        raise ManifestParseError(f"cannot read manifest {path}: {e}") from e
    return rows
