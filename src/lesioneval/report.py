"""Machine-readable report emission (JSON + CSV)."""
from __future__ import annotations

import csv
import functools
import io
import json
import os
from itertools import repeat

from . import __version__
from .errors import IoFailure
from .metrics import Columns
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
        "config": vars(config),
        "sample_id": s.sample_id,
        "model_tag": s.model_tag,
        "gt_lesions": s.gt_lesions,
        "pred_lesions": s.pred_lesions,
        "detection": vars(s.detection),
        "image_metrics": vars(s.image),
        "matched_pairs": s.pairs,
        "per_bin": {name: vars(s.per_bin[name]) for name in BIN_NAMES},
        "lesion_records": s.records,
    }


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e


def _csv(header: list[str], rows) -> str:
    """CSV text, one ``\\n``-terminated line per row; None is an empty cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _table_json(t: Columns) -> str:
    """``t.rows()`` as ``json.dumps(indent=2, sort_keys=True)`` writes it one level deep."""
    if not len(t):
        return "[]"
    names = sorted(vars(t))
    # splitting on ", " needs no cell to encode to text holding it: the cells
    # are numbers, null and the fixed status and bin names
    cols = [json.dumps(getattr(t, n).tolist())[1:-1].split(", ") for n in names]
    row = "    {{\n" + ",\n".join(f"      {json.dumps(n)}: {{}}" for n in names) + "\n    }}"
    return "[\n" + ",\n".join(row.format(*cells) for cells in zip(*cols)) + "\n  ]"


def _dump_json(obj: dict) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte;
    a value may also be a lesion table, written as its ``rows()`` would be."""
    if not obj:
        return "{}\n"
    # JSON escapes every newline in a string, so this re-indents layout only
    items = ((k, _table_json(v) if isinstance(v, Columns)
              else json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n  "))
             for k, v in sorted(obj.items()))
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in items) + "\n}\n"


def emit_reports(
    samples: list[SampleResult],
    config: RunConfig,
    out_dir: str,
    failures: list[SampleFailure] | None = None,
    formats: str = "both",
) -> dict[str, str]:
    """Write per-sample JSON, the dataset summary, and the two CSVs.

    Output is deterministic: samples and failures ordered by sample_id, JSON
    keys sorted, undefined metrics serialized as null (JSON) / empty cell
    (CSV). ``formats`` restricts emission to "json", "csv" or "both". Every
    file is rendered before ``out_dir`` is made, so nothing is written if a
    value cannot be encoded, a sample_id is not a plain file name, or two
    samples share one. A report file that an earlier run left in ``out_dir``
    and this run does not write is removed; no other file is touched.
    Returns the summary/stratified/lesions paths written.
    """
    suffixes = {"json": (".json",), "csv": (".csv",), "both": (".json", ".csv")}.get(formats)
    if suffixes is None:
        raise ValueError(f"formats must be json/csv/both, got {formats!r}")
    samples = sorted(samples, key=lambda s: s.sample_id)
    seen: set[str] = set()
    for s in samples:
        check_sample_id(s.sample_id)
        if s.sample_id in seen:
            raise ValueError(f"duplicate sample_id {s.sample_id!r}")
        seen.add(s.sample_id)
    failures = sorted(failures or [], key=lambda f: (f.sample_id, f.reason))
    payloads = {s.sample_id: _sample_payload(s, config) for s in samples}
    rolled = rollup(samples)
    # relative file name -> its renderer; only names with a kept suffix are rendered
    renders = {
        **{f"samples/{sid}.json": functools.partial(_dump_json, p) for sid, p in payloads.items()},
        "summary.json": lambda: _dump_json({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "config": vars(config),
            "n_samples": len(samples),
            "samples": list(payloads),
            "failures": [{"sample_id": f.sample_id, "reason": f.reason} for f in failures],
            "per_model": {
                tag: {name: vars(bins[name]) for name in BIN_NAMES}
                for tag, bins in rolled.items()
            },
            "per_sample": {
                sid: {key: p[key] for key in ("detection", "image_metrics")}
                for sid, p in payloads.items()
            },
        }),
        # dataset CSV: one row per (model tag, size bin)
        "stratified.csv": lambda: _csv(
            ["model_tag", "size_bin", "n_gt", "tp", "fp", "fn",
             "dice", "hd95", "precision", "recall", "f1"],
            ([tag, name, b.n_gt, b.tp, b.fp, b.fn,
              _fmt2(b.dice_mean), _fmt2(b.hd95_mean),
              _fmt2(b.precision), _fmt2(b.recall), _fmt2(b.f1)]
             for tag in sorted(rolled) for name in BIN_NAMES for b in [rolled[tag][name]]),
        ),
        # long-format lesion-level CSV (plot-ready): a float cell is its repr
        "lesions.csv": lambda: _csv(
            ["sample_id", "lesion_id", "status", "gt_vox", "pred_vox",
             "size_bin", "dice", "hd95", "size_ratio"],
            (row for s in samples
             for row in zip(repeat(s.sample_id), *(c.tolist() for c in vars(s.records).values()))),
        ),
    }
    files = {name: render() for name, render in renders.items() if name.endswith(suffixes)}

    try:
        os.makedirs(os.path.join(out_dir, "samples" if ".json" in suffixes else ""), exist_ok=True)
        # remove the reports an earlier run left here that this run does not write
        sample_dir = os.path.join(out_dir, "samples")
        ours = [name for name in renders if "/" not in name]
        if os.path.isdir(sample_dir):
            ours += [f"samples/{n}" for n in os.listdir(sample_dir) if n.endswith(".json")]
        for name in ours:
            path = os.path.join(out_dir, name)
            if name not in files and os.path.isfile(path):
                os.remove(path)
    except OSError as e:
        raise IoFailure(f"cannot prepare {out_dir}: {e}") from e
    for name, text in files.items():
        _write_text(os.path.join(out_dir, name), text)
    return {name.split(".")[0]: os.path.join(out_dir, name) for name in files if "/" not in name}
