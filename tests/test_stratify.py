import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_blob_mask
from lesioneval.pipeline import RunConfig, evaluate_pair
from lesioneval.report import emit_reports
from lesioneval.stratify import BIN_NAMES, aggregate_bins, categorize, rollup
from lesioneval.volume import Volume


@pytest.mark.parametrize(
    "vox,name",
    [
        (1, "VerySmall"),
        (9, "VerySmall"),
        (10, "Small"),
        (99, "Small"),
        (100, "Medium"),
        (399, "Medium"),
        (400, "Large"),
        (10000, "Large"),
    ],
)
def test_categorize_bin_edges(vox, name):
    assert categorize(vox).name == name


def test_categorize_rejects_zero():
    with pytest.raises(ValueError):
        categorize(0)


def _divergence_sample(sample_id="s1"):
    arr = np.zeros((40, 40, 40), dtype=np.uint8)
    arr[0:10, 0:10, 0:10] = 1
    for i in range(5):
        x = 15 + 5 * i
        arr[x : x + 1, 0:5, 0:2] = 1
    gt = Volume(arr, (1, 1, 1))
    pred_arr = np.zeros_like(arr)
    pred_arr[0:10, 0:10, 0:10] = 1
    pred = Volume(pred_arr, (1, 1, 1))
    return evaluate_pair(sample_id, gt, pred, RunConfig())


def test_stratified_divergence_sample():
    s = _divergence_sample()
    large = s.per_bin["Large"]
    small = s.per_bin["Small"]
    assert (large.tp, large.fn, large.recall) == (1, 0, 1.0)
    assert (small.tp, small.fn, small.recall) == (0, 5, 0.0)
    assert all(s.per_bin[n].fp == 0 for n in BIN_NAMES)


def test_perfect_sample_all_bins():
    v = random_blob_mask(np.random.default_rng(4), (24, 24, 24), 0.15)
    s = evaluate_pair("p", v, v, RunConfig())
    for name in BIN_NAMES:
        b = s.per_bin[name]
        assert b.fp == 0 and b.fn == 0
        if b.n_gt:
            assert b.recall == 1.0 and b.dice_mean == 1.0


def test_fp_binned_by_predicted_size():
    gt = Volume(np.zeros((20, 20, 20), dtype=np.uint8), (1, 1, 1))
    pred_arr = np.zeros((20, 20, 20), dtype=np.uint8)
    pred_arr[0:5, 0:5, 0:2] = 1  # 50-voxel FP -> Small bin
    pred = Volume(pred_arr, (1, 1, 1))
    s = evaluate_pair("f", gt, pred, RunConfig())
    b = s.per_bin["Small"]
    assert b.fp == 1 and b.precision == 0.0 and b.recall is None


def test_conservation_per_sample(rng):
    for _ in range(8):
        gt = random_blob_mask(rng, (18, 18, 18), 0.2)
        pred = random_blob_mask(rng, (18, 18, 18), 0.2)
        s = evaluate_pair("x", gt, pred, RunConfig(tau=0.1))
        tp = sum(s.per_bin[n].tp for n in BIN_NAMES)
        fn = sum(s.per_bin[n].fn for n in BIN_NAMES)
        fp = sum(s.per_bin[n].fp for n in BIN_NAMES)
        assert tp + fn == s.gt_lesions
        assert tp + fp == s.pred_lesions
        assert sum(s.per_bin[n].n_gt for n in BIN_NAMES) == s.gt_lesions


def _random_samples(rng, n, tau, tags=("model",)):
    samples = []
    for i in range(n):
        gt = random_blob_mask(rng, (16, 16, 16), 0.2)
        pred = random_blob_mask(rng, (16, 16, 16), 0.2)
        tag = tags[i % len(tags)]
        samples.append(evaluate_pair(f"s{i}", gt, pred, RunConfig(tau=tau), tag))
    return samples


def test_rollup_counts_sum(rng):
    samples = _random_samples(rng, 4, tau=0.1)
    rolled = rollup(samples)["model"]
    for name in BIN_NAMES:
        assert rolled[name].tp == sum(s.per_bin[name].tp for s in samples)
        assert rolled[name].fp == sum(s.per_bin[name].fp for s in samples)
        assert rolled[name].fn == sum(s.per_bin[name].fn for s in samples)


def test_rollup_independent_of_sample_order():
    samples = _random_samples(np.random.default_rng(7), 4, tau=0.0)

    # the pooled Dice mean of some bin must depend on the order of its
    # values, or this test could not tell pooling orders apart
    def pooled_dice_means(order):
        return [
            np.mean([r.dice for s in order for r in s.records
                     if r.status == "TP" and r.size_bin == name])
            for name in BIN_NAMES
        ]

    assert pooled_dice_means(samples) != pooled_dice_means(samples[::-1])
    assert rollup(samples) == rollup(samples[::-1])
    assert rollup(samples) == rollup(samples[1:] + samples[:1])


def test_rollup_of_one_sample_is_its_per_bin(rng):
    for s in _random_samples(rng, 6, tau=0.1, tags=("a", "model", "z")):
        assert rollup([s]) == {s.model_tag: s.per_bin}


def test_rollup_keeps_model_tags_apart(rng):
    samples = _random_samples(rng, 6, tau=0.1, tags=("A", "B"))
    rolled = rollup(samples)
    assert sorted(rolled) == ["A", "B"]
    for tag in ("A", "B"):
        own = [s for s in samples if s.model_tag == tag]
        assert rolled[tag] == aggregate_bins([r for s in own for r in s.records])
        for name in BIN_NAMES:
            assert rolled[tag][name].tp == sum(s.per_bin[name].tp for s in own)
            assert rolled[tag][name].fp == sum(s.per_bin[name].fp for s in own)
    assert rolled["A"] != rolled["B"]


def test_emit_reports_perfect_sample(tmp_path, rng):
    v = random_blob_mask(rng, (20, 20, 20), 0.15)
    s = evaluate_pair("perfect", v, v, RunConfig())
    config = RunConfig()
    paths = emit_reports([s], config, str(tmp_path / "out"))
    rows = list(csv.DictReader(Path(paths["stratified"]).read_text().splitlines()))
    populated = [r for r in rows if int(r["n_gt"]) > 0]
    assert populated
    for r in populated:
        assert r["dice"] == "1.00" and r["hd95"] == "0.00"


def test_emit_reports_deterministic(tmp_path, rng):
    gt = random_blob_mask(rng, (16, 16, 16), 0.2)
    pred = random_blob_mask(rng, (16, 16, 16), 0.2)
    s = evaluate_pair("a", gt, pred, RunConfig())
    emit_reports([s], RunConfig(), str(tmp_path / "o1"))
    emit_reports([s], RunConfig(), str(tmp_path / "o2"))
    for name in ("summary.json", "stratified.csv", "lesions.csv"):
        assert (tmp_path / "o1" / name).read_bytes() == (
            tmp_path / "o2" / name
        ).read_bytes()


def test_emit_reports_rejects_escaping_sample_id(tmp_path, rng):
    v = random_blob_mask(rng, (10, 10, 10), 0.2)
    good = evaluate_pair("good", v, v, RunConfig())
    bad = evaluate_pair("../escape", v, v, RunConfig())
    with pytest.raises(ValueError, match="plain file name"):
        emit_reports([good, bad], RunConfig(), str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []  # not even out/ was made


@pytest.mark.parametrize("sample_id", ["", "a\0b"], ids=["empty", "nul"])
def test_emit_reports_rejects_unnameable_sample_id(tmp_path, rng, sample_id):
    # "" used to write samples/.json; a NUL failed in open() once samples/
    # existed, leaving a run with no summary.json
    v = random_blob_mask(rng, (10, 10, 10), 0.2)
    s = evaluate_pair(sample_id, v, v, RunConfig())
    with pytest.raises(ValueError, match="plain file name"):
        emit_reports([s], RunConfig(), str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_emit_reports_rejects_duplicate_sample_id(tmp_path, rng):
    # two results named "x" used to write one samples/x.json, list "x" twice
    # in summary.json and pool both in per_model
    v = random_blob_mask(rng, (10, 10, 10), 0.2)
    s = evaluate_pair("x", v, v, RunConfig())
    with pytest.raises(ValueError, match="duplicate sample_id 'x'"):
        emit_reports([s, s], RunConfig(), str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_empty_cells_for_zero_match_bin(tmp_path):
    # a bin with FPs but no matched pairs: HD95 and F1 must be blank / null
    gt = Volume(np.zeros((20, 20, 20), dtype=np.uint8), (1, 1, 1))
    pred_arr = np.zeros((20, 20, 20), dtype=np.uint8)
    pred_arr[0:2, 0:2, 0:1] = 1  # 4-voxel FP in VerySmall
    pred = Volume(pred_arr, (1, 1, 1))
    s = evaluate_pair("deg", gt, pred, RunConfig())
    paths = emit_reports([s], RunConfig(), str(tmp_path / "out"))

    text = Path(paths["stratified"]).read_text()
    rows = {r["size_bin"]: r for r in csv.DictReader(text.splitlines())}
    vs = rows["VerySmall"]
    assert vs["hd95"] == "" and vs["f1"] == "" and vs["dice"] == ""
    assert vs["precision"] == "0.00"

    summary = json.loads(Path(paths["summary"]).read_text())
    b = summary["per_model"]["model"]["VerySmall"]
    assert b["hd95_mean"] is None and b["f1"] is None


def test_lesion_csv_long_format(tmp_path):
    s = _divergence_sample()
    paths = emit_reports([s], RunConfig(), str(tmp_path / "out"))
    rows = list(csv.DictReader(Path(paths["lesions"]).read_text().splitlines()))
    statuses = sorted(r["status"] for r in rows)
    assert statuses.count("TP") == 1 and statuses.count("FN") == 5
    tp = next(r for r in rows if r["status"] == "TP")
    assert tp["size_bin"] == "Large" and float(tp["dice"]) == 1.0
    fn = next(r for r in rows if r["status"] == "FN")
    assert fn["pred_vox"] == "" and fn["dice"] == ""
