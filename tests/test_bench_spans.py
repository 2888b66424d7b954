"""The benchmark's traced pass still runs against the package.

``perfbench/spans.py`` wraps module attributes of ``lesioneval`` by name and
reads counts from what they return. This runs one ``evaluate`` under its
tracer, so a rename or removal that the traced benchmark depends on fails
here and not only in a benchmark run.
"""
import json
from pathlib import Path

import numpy as np

from conftest import random_blob_mask
from lesioneval import cli
from lesioneval.nifti import write_volume

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_evaluate_counts_match_the_report(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer

    rng = np.random.default_rng(7)
    masks = {name: random_blob_mask(rng, (16, 16, 16), 0.2) for name in ("gt", "pred")}
    for name, mask in masks.items():
        write_volume(mask, str(tmp_path / f"{name}.nii.gz"))
    out = tmp_path / "out"

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["evaluate", "--gt", str(tmp_path / "gt.nii.gz"),
                         "--pred", str(tmp_path / "pred.nii.gz"), "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.absent == ["lesioneval.pipeline.read_volume"]

    sample = json.loads((out / "samples" / "sample.json").read_text())
    components = [s for s in tracer.spans if s.name == "components"]
    assert len(components) == 2
    assert sum(s.counts["lesions"] for s in components) == (
        sample["gt_lesions"] + sample["pred_lesions"]
    )
    assert sum(s.counts["fg_voxels"] for s in components) == sum(
        m.foreground_count() for m in masks.values()
    )
    (strat,) = [s for s in tracer.spans if s.name == "stratify"]
    assert strat.counts["records"] == len(sample["lesion_records"])
