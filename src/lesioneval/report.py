"""Machine-readable report emission (JSON + CSV)."""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict

from . import __version__
from .errors import IoFailure
from .pipeline import RunConfig, SampleFailure, check_sample_id
from .stratify import BIN_NAMES, SampleResult, rollup

SCHEMA_VERSION = 1


def _fmt2(x: float | None) -> str:
    """Two decimals, round half to even; None -> empty cell."""
    if x is None:
        return ""
    return f"{round(float(x), 2):.2f}"


def _sample_payload(s: SampleResult, config: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.provenance(),
        "sample_id": s.sample_id,
        "model_tag": s.model_tag,
        "gt_lesions": s.gt_lesions,
        "pred_lesions": s.pred_lesions,
        "detection": asdict(s.detection),
        "image_metrics": asdict(s.image),
        "matched_pairs": [asdict(p) for p in s.pairs],
        "per_bin": {name: asdict(s.per_bin[name]) for name in BIN_NAMES},
        "lesion_records": [asdict(r) for r in s.records],
    }


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as f:
            f.write(text)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_reports(
    samples: list[SampleResult],
    config: RunConfig,
    out_dir: str,
    failures: list[SampleFailure] | None = None,
    formats: str = "both",
) -> dict[str, str]:
    """Write per-sample JSON, the dataset summary, and the two CSVs.

    Output is deterministic: samples ordered by sample_id, JSON keys sorted,
    undefined metrics serialized as null (JSON) / empty cell (CSV).
    ``formats`` restricts emission to "json", "csv" or "both".
    Returns the paths written, keyed by artifact name. Raises ValueError,
    before writing anything, if a sample_id is not a plain file name.
    """
    if formats not in ("json", "csv", "both"):
        raise ValueError(f"formats must be json/csv/both, got {formats!r}")
    want_json = formats in ("json", "both")
    want_csv = formats in ("csv", "both")
    failures = failures or []
    samples = sorted(samples, key=lambda s: s.sample_id)
    for s in samples:
        check_sample_id(s.sample_id)
    try:
        os.makedirs(out_dir, exist_ok=True)
        if want_json:
            os.makedirs(os.path.join(out_dir, "samples"), exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create {out_dir}: {e}") from e

    paths: dict[str, str] = {}
    if want_json:
        for s in samples:
            p = os.path.join(out_dir, "samples", f"{s.sample_id}.json")
            _write_text(p, _dump_json(_sample_payload(s, config)))

    rolled = rollup(samples)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "config": config.provenance(),
        "n_samples": len(samples),
        "samples": [s.sample_id for s in samples],
        "failures": [{"sample_id": f.sample_id, "reason": f.reason} for f in failures],
        "per_model": {
            tag: {name: asdict(bins[name]) for name in BIN_NAMES}
            for tag, bins in rolled.items()
        },
        "per_sample": {
            s.sample_id: {
                "detection": asdict(s.detection),
                "image_metrics": asdict(s.image),
            }
            for s in samples
        },
    }
    if want_json:
        paths["summary"] = os.path.join(out_dir, "summary.json")
        _write_text(paths["summary"], _dump_json(summary))
    if not want_csv:
        return paths

    # Dataset CSV: one row per (model tag, size bin), Dice/HD95/Prec/Recall/F1
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["model_tag", "size_bin", "n_gt", "tp", "fp", "fn",
         "dice", "hd95", "precision", "recall", "f1"]
    )
    for tag in sorted(rolled):
        for name in BIN_NAMES:
            b = rolled[tag][name]
            w.writerow(
                [tag, name, b.n_gt, b.tp, b.fp, b.fn,
                 _fmt2(b.dice_mean), _fmt2(b.hd95_mean),
                 _fmt2(b.precision), _fmt2(b.recall), _fmt2(b.f1)]
            )
    paths["stratified"] = os.path.join(out_dir, "stratified.csv")
    _write_text(paths["stratified"], buf.getvalue())

    # Long-format lesion-level CSV (plot-ready)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["sample_id", "lesion_id", "status", "gt_vox", "pred_vox",
         "size_bin", "dice", "hd95", "size_ratio"]
    )
    for s in samples:
        for r in s.records:
            w.writerow(
                [s.sample_id, r.lesion_id, r.status,
                 "" if r.gt_vox is None else r.gt_vox,
                 "" if r.pred_vox is None else r.pred_vox,
                 r.size_bin,
                 "" if r.dice is None else repr(r.dice),
                 "" if r.hd95 is None else repr(r.hd95),
                 "" if r.size_ratio is None else repr(r.size_ratio)]
            )
    paths["lesions"] = os.path.join(out_dir, "lesions.csv")
    _write_text(paths["lesions"], buf.getvalue())
    return paths
