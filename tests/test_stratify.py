import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_blob_mask, rows_of
from lesioneval.components import find_connected_components
from lesioneval.matching import match_lesions, overlap
from lesioneval.metrics import compute_lesion_metrics, surface_distances
from lesioneval.pipeline import RunConfig, SampleFailure, evaluate_pair
from lesioneval.report import emit_reports
from lesioneval.stratify import (
    BIN_NAMES,
    BinAggregate,
    aggregate_bins,
    bin_index,
    detection_rates,
    rollup,
    stratify,
)
from lesioneval.volume import Volume
from oracles import categorize


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
    assert BIN_NAMES[bin_index(vox)] == categorize(vox) == name


def test_categorize_rejects_zero():
    with pytest.raises(ValueError):
        bin_index(0)
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
            np.mean([r.dice for s in order for r in rows_of(s.records)
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
        assert rolled[tag] == aggregate_bins([s.records for s in own])
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


@pytest.mark.parametrize(
    "sample_id", ["", "a\0b", "a" * 251, "é" * 126],
    ids=["empty", "nul", "251-bytes", "252-bytes-multibyte"],
)
def test_emit_reports_rejects_unnameable_sample_id(tmp_path, rng, sample_id):
    # "" used to write samples/.json; a NUL, or an id whose <id>.json is over
    # 255 bytes, failed in open() once samples/ existed, leaving a run with no
    # summary.json
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


def test_emit_reports_orders_failures_itself(tmp_path, rng):
    # failures used to be listed in the caller's order, which only the CLI sorted
    v = random_blob_mask(rng, (10, 10, 10), 0.2)
    s = evaluate_pair("a", v, v, RunConfig())
    failures = [SampleFailure("c", "OSError: gone"), SampleFailure("b", "BadMagic: no")]
    texts = []
    for name, order in (("o1", failures), ("o2", failures[::-1])):
        paths = emit_reports([s], RunConfig(), str(tmp_path / name), order)
        texts.append(Path(paths["summary"]).read_bytes())
    assert texts[0] == texts[1]
    assert [f["sample_id"] for f in json.loads(texts[0])["failures"]] == ["b", "c"]


def test_emit_reports_writes_nothing_when_a_value_cannot_be_encoded(tmp_path, rng):
    # emit_reports used to make samples/ and then raise TypeError in the
    # encoder, leaving a tree with no summary.json
    v = random_blob_mask(rng, (10, 10, 10), 0.2)
    s = evaluate_pair("a", v, v, RunConfig())
    bad = dataclasses.replace(s, image=dataclasses.replace(s.image, voxel_dice=np.float32(1)))
    with pytest.raises(TypeError, match="float32"):
        emit_reports([bad], RunConfig(), str(tmp_path / "out"))
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


def test_reports_agree_row_for_row(tmp_path):
    # lesions.csv, lesion_records and matched_pairs are three views of one
    # table: each cell must say the same, and no NaN or inf may stand in
    # for a missing value
    samples = _random_samples(np.random.default_rng(11), 6, tau=0.1, tags=("A", "B"))
    paths = emit_reports(samples, RunConfig(tau=0.1), str(tmp_path / "out"))

    def no_constant(name):
        raise ValueError(f"{name} in a report")

    def load(path):
        return json.loads(Path(path).read_text(), parse_constant=no_constant)

    load(paths["summary"])
    with open(paths["lesions"], newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == sum(len(s.records) for s in samples)
    tps = 0
    for s in sorted(samples, key=lambda s: s.sample_id):
        report = load(tmp_path / "out" / "samples" / f"{s.sample_id}.json")
        records, own = report["lesion_records"], rows[: len(s.records)]
        rows = rows[len(s.records) :]
        assert len(records) == len(own) == len(s.records)
        for row, rec in zip(own, records):
            assert row.pop("sample_id") == s.sample_id
            assert row.keys() == rec.keys()
            for name, value in rec.items():
                if value is None:
                    assert row[name] == ""
                elif isinstance(value, float):
                    assert float(row[name]) == value
                else:
                    assert row[name] == str(value)
        pairs = report["matched_pairs"]
        tp = [r for r in records if r["status"] == "TP"]
        assert [r["lesion_id"] for r in tp] == [p["gt_id"] for p in pairs]
        for r, p in zip(tp, pairs):
            assert (r["dice"], r["hd95"], r["size_ratio"], r["pred_vox"]) == (
                p["dice"], p["hd95_mm"], p["size_ratio"], p["pred_vox"]
            )
        tps += len(tp)
    assert rows == [] and tps > 10


def _loop_rows(gt, pred, matches, pairs):
    """The lesion rows, built one lesion at a time: the reference for ``stratify``."""
    by_gt = {p["gt_id"]: p for p in pairs.rows()}
    matched_pred = {p for _, p, _ in matches}
    rows = []
    for g, n in enumerate(gt.sizes.tolist(), start=1):
        p = by_gt.get(g)
        rows.append({"lesion_id": g, "status": "FN", "gt_vox": n, "pred_vox": None,
                     "size_bin": categorize(n), "dice": None, "hd95": None,
                     "size_ratio": None})
        if p is not None:
            rows[-1].update(status="TP", pred_vox=p["pred_vox"], dice=p["dice"],
                            hd95=p["hd95_mm"], size_ratio=p["size_ratio"])
    for q in range(1, len(pred) + 1):
        if q in matched_pred:
            continue
        n = int(pred.sizes[q - 1])
        rows.append({"lesion_id": q, "status": "FP", "gt_vox": None, "pred_vox": n,
                     "size_bin": categorize(n), "dice": None, "hd95": None,
                     "size_ratio": None})
    return rows


def _loop_bins(rows):
    """The per-bin table by a group-by over row dicts: the reference for ``aggregate_bins``."""
    def summary(values):
        return (float(np.mean(values)), float(np.median(values))) if values else (None, None)

    out = {}
    for name in BIN_NAMES:
        rs = [r for r in rows if r["size_bin"] == name]
        tps = [r for r in rs if r["status"] == "TP"]
        tp, fp = len(tps), sum(r["status"] == "FP" for r in rs)
        fn = len(rs) - tp - fp
        out[name] = BinAggregate(
            tp + fn, tp, fp, fn, *detection_rates(tp, fp, fn),
            *summary([r["dice"] for r in tps]), *summary([r["hd95"] for r in tps]),
        )
    return out


def test_lesion_table_and_bins_equal_a_loop_over_lesions():
    # the columns must give exactly the rows and floats that building one
    # record per lesion and grouping them in Python gave
    rng = np.random.default_rng(12)
    tables, pooled = [], []
    for _ in range(10):
        gt, pred = (
            find_connected_components(random_blob_mask(rng, (18, 16, 14), 0.2))
            for _ in range(2)
        )
        ov = overlap(gt, pred)
        matches = match_lesions(gt, pred, ov, 0.0)
        pairs = compute_lesion_metrics(
            gt, pred, ov, matches, surface_distances(gt, pred, (0.8, 1.0, 2.5))
        )
        per_bin, table = stratify(gt, pred, pairs)
        want = _loop_rows(gt, pred, matches, pairs)
        assert table.rows() == want and len(table) == len(want)
        assert per_bin == _loop_bins(want)
        tables.append(table)
        pooled += want
    assert aggregate_bins(tables) == _loop_bins(pooled)
    assert sum(r["status"] == "TP" for r in pooled) > 20
    assert {r["status"] for r in pooled} == {"TP", "FN", "FP"}
