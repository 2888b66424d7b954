"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ids_of, lesion_voxel_sets, mask_from_voxels, random_blob_mask, rows_of
from lesioneval.cli import main
from lesioneval.components import find_connected_components
from lesioneval.matching import generate_candidates, match_lesions, overlap
from lesioneval.metrics import (
    compute_image_metrics,
    compute_lesion_metrics,
    surface_distances,
)
from lesioneval.nifti import read_volume, write_volume
from lesioneval.pipeline import RunConfig, evaluate_pair
from lesioneval.report import emit_reports
from lesioneval.stratify import BIN_NAMES, bin_index
from lesioneval.synth import SynthParams, generate_case
from lesioneval.volume import Volume
from oracles import brute_surface_distances, categorize, flood_fill_components, naive_match


def _ok(n: int, label: str) -> None:
    print(f"criterion {n:2d} [{label}]: PASS")


def test_criterion_01_matching_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(500):
        side = int(rng.integers(24, 33))
        density = rng.uniform(0.05, 0.4)
        gt = find_connected_components(random_blob_mask(rng, (side,) * 3, density))
        pred = find_connected_components(random_blob_mask(rng, (side,) * 3, density))
        gsets = lesion_voxel_sets(gt)
        psets = lesion_voxel_sets(pred)
        for tau in (0.1, 0.35, 0.6):
            m = match_lesions(gt, pred, overlap(gt, pred), tau)
            # (gt_id, pred_id, iou) triples, IoU exact; FN/FP ids: criterion 5
            assert m == naive_match(gsets, psets, tau)[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"matching oracle suite took {elapsed:.1f}s"
    _ok(1, "matching oracle equivalence")


def test_criterion_02_cca_oracle_equivalence():
    rng = np.random.default_rng(202)
    for _ in range(500):
        dims = tuple(int(rng.integers(6, 18)) for _ in range(3))
        v = random_blob_mask(rng, dims, rng.uniform(0.1, 0.5))
        vox = {tuple(c) for c in np.argwhere(v.data != 0).tolist()}
        for conn in (6, 18, 26):
            ls = find_connected_components(v, conn)
            # ordered lists: the (z, y, x) numbering must match too
            assert lesion_voxel_sets(ls) == flood_fill_components(vox, conn)
    _ok(2, "connected-component oracle equivalence")


def test_criterion_03_distance_oracle_equivalence():
    rng = np.random.default_rng(303)
    done = 0
    while done < 200:
        dims = tuple(int(rng.integers(6, 12)) for _ in range(3))
        ma = random_blob_mask(rng, dims, 0.3)
        mb = random_blob_mask(rng, dims, 0.3)
        sa = {tuple(v) for v in np.argwhere(ma.data != 0).tolist()}
        sb = {tuple(v) for v in np.argwhere(mb.data != 0).tolist()}
        if not 0 < len(sa) <= 500 or not 0 < len(sb) <= 500:
            continue
        spacing = tuple(rng.uniform(0.5, 2.0, 3))
        o_pooled, o_maxdir, o_assd = brute_surface_distances(sa, sb, spacing)
        # the path the reports take: labelled masks, one query per direction
        la, lb = find_connected_components(ma), find_connected_components(mb)
        dists = surface_distances(la, lb, spacing)
        ov = overlap(la, lb)
        pooled = compute_image_metrics(la, lb, ov, "pooled", dists)
        maxdir = compute_image_metrics(la, lb, ov, "max-of-directed", dists)
        assert abs(pooled.voxel_hd95_mm - o_pooled) <= 1e-9
        assert abs(maxdir.voxel_hd95_mm - o_maxdir) <= 1e-9
        assert abs(pooled.assd_mm - o_assd) <= 1e-9
        done += 1
    _ok(3, "surface-distance oracle equivalence")


def test_criterion_04_dice_iou_identity():
    rng = np.random.default_rng(404)
    checked = 0
    for _ in range(150):
        gt = find_connected_components(random_blob_mask(rng, (16, 16, 16), 0.25))
        pred = find_connected_components(random_blob_mask(rng, (16, 16, 16), 0.25))
        gsets = lesion_voxel_sets(gt)
        psets = lesion_voxel_sets(pred)
        dists = surface_distances(gt, pred, (1, 1, 1))
        ov = overlap(gt, pred)
        matches = match_lesions(gt, pred, ov, 0.1)
        for m in rows_of(compute_lesion_metrics(gt, pred, ov, matches, dists)):
            g, p = m.gt_id, m.pred_id
            assert abs(m.dice - 2 * m.iou / (1 + m.iou)) < 1e-12
            a, b = gsets[g - 1], psets[p - 1]
            assert m.iou == len(a & b) / len(a | b)
            assert m.dice == 2 * len(a & b) / (len(a) + len(b))
            checked += 1
    assert checked > 100
    _ok(4, "dice-IoU identity")


def test_criterion_05_conservation():
    rng = np.random.default_rng(505)
    for _ in range(50):
        gt = random_blob_mask(rng, (18, 18, 18), rng.uniform(0.1, 0.35))
        pred = random_blob_mask(rng, (18, 18, 18), rng.uniform(0.1, 0.35))
        s = evaluate_pair("x", gt, pred, RunConfig(tau=0.2))
        # the lesion table decides each lesion's outcome: its FN and FP ids
        # are the naive matcher's unmatched lesions, and detection counts them
        _, ofn, ofp = naive_match(
            *(lesion_voxel_sets(find_connected_components(v, 6)) for v in (gt, pred)), 0.2
        )
        assert (ids_of(s.records, "FN"), ids_of(s.records, "FP")) == (ofn, ofp)
        d = s.detection
        assert (d.fn, d.fp) == (len(ofn), len(ofp))
        assert d.tp + d.fn == s.gt_lesions
        assert d.tp + d.fp == s.pred_lesions
        assert sum(s.per_bin[n].tp for n in BIN_NAMES) == d.tp
        assert sum(s.per_bin[n].fn for n in BIN_NAMES) == d.fn
        assert sum(s.per_bin[n].fp for n in BIN_NAMES) == d.fp
    _ok(5, "TP/FP/FN conservation")


def test_criterion_06_size_bin_contract():
    mapping = {1: "VerySmall", 9: "VerySmall", 10: "Small", 99: "Small",
               100: "Medium", 399: "Medium", 400: "Large", 10000: "Large"}
    for vox, name in mapping.items():
        assert BIN_NAMES[bin_index(vox)] == categorize(vox) == name
    _ok(6, "size-bin boundaries")


def test_criterion_07_aggregate_vs_lesionwise_divergence():
    t0 = time.perf_counter()
    arr = np.zeros((40, 40, 40), dtype=np.uint8)
    arr[0:10, 0:10, 0:10] = 1  # 1000-voxel cube
    for i in range(5):
        arr[15 + 5 * i, 0:5, 0:2] = 1  # five 10-voxel lesions
    gt = Volume(arr, (1, 1, 1))
    pred_arr = np.zeros_like(arr)
    pred_arr[0:10, 0:10, 0:10] = 1
    pred = Volume(pred_arr, (1, 1, 1))

    gt_ls, pred_ls = find_connected_components(gt), find_connected_components(pred)
    dists = surface_distances(gt_ls, pred_ls, (1, 1, 1))
    im = compute_image_metrics(gt_ls, pred_ls, overlap(gt_ls, pred_ls), "pooled", dists)
    assert 0.975 <= im.voxel_dice <= 0.976
    assert im.voxel_dice == 2000 / 2050
    s = evaluate_pair("div", gt, pred, RunConfig())
    assert s.detection.recall == 1 / 6
    assert time.perf_counter() - t0 < 1.0
    _ok(7, "voxel-Dice vs lesion-recall divergence")


def test_criterion_08_tau_threshold_semantics():
    square = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    shifted = [(x + 1, y, z) for x, y, z in square]
    gt = find_connected_components(mask_from_voxels(square, (6, 6, 2)))
    pred = find_connected_components(mask_from_voxels(shifted, (6, 6, 2)))
    assert generate_candidates(gt, pred, overlap(gt, pred), tau=0.35) == []
    assert match_lesions(gt, pred, overlap(gt, pred), 0.35) == []
    m = match_lesions(gt, pred, overlap(gt, pred), 0.30)
    assert len(m) == 1 and m[0][2] == pytest.approx(1 / 3)
    _ok(8, "strict IoU > tau semantics")


def test_criterion_09_degenerate_formatting(tmp_path):
    gt = Volume(np.zeros((20, 20, 20), dtype=np.uint8), (1, 1, 1))
    pred_arr = np.zeros((20, 20, 20), dtype=np.uint8)
    pred_arr[0:2, 0:2, 0:1] = 1
    pred = Volume(pred_arr, (1, 1, 1))
    s = evaluate_pair("deg", gt, pred, RunConfig())
    paths = emit_reports([s], RunConfig(), str(tmp_path / "out"))
    text = Path(paths["stratified"]).read_text()
    rows = {r["size_bin"]: r for r in csv.DictReader(text.splitlines())}
    assert rows["VerySmall"]["hd95"] == ""
    assert rows["VerySmall"]["f1"] == ""
    summary = json.loads(Path(paths["summary"]).read_text())
    b = summary["per_model"]["model"]["VerySmall"]
    assert b["hd95_mean"] is None and b["hd95_median"] is None and b["f1"] is None
    _ok(9, "undefined metrics as empty cells / nulls")


def test_criterion_10_parallel_determinism(tmp_path):
    params = SynthParams(
        dims=(64, 64, 1),
        counts={"VerySmall": 1, "Small": 2, "Medium": 1},
        kinds=("none", "shift", "dilate", "drop"),
        shift_max=1,
        dilate_max=1,
        n_spurious=1,
    )
    rows = [["sample_id", "gt_path", "pred_path"]]
    for i in range(20):
        c = generate_case(params, 1000 + i)
        write_volume(c.gt, str(tmp_path / f"s{i:02d}_gt.json"))
        write_volume(c.pred, str(tmp_path / f"s{i:02d}_pred.json"))
        rows.append([f"s{i:02d}", f"s{i:02d}_gt.json", f"s{i:02d}_pred.json"])
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    assert main(["evaluate", "--manifest", str(manifest), "--jobs", "1",
                 "--out", str(tmp_path / "j1")]) == 0
    assert main(["evaluate", "--manifest", str(manifest), "--jobs", "8",
                 "--out", str(tmp_path / "j8")]) == 0
    rels = ["summary.json", "stratified.csv", "lesions.csv"] + [
        f"samples/s{i:02d}.json" for i in range(20)
    ]
    for rel in rels:
        assert (tmp_path / "j1" / rel).read_bytes() == (
            tmp_path / "j8" / rel
        ).read_bytes(), rel
    _ok(10, "byte-identical reports across --jobs")


def test_criterion_11_format_roundtrip(tmp_path):
    rng = np.random.default_rng(1111)
    for i in range(100):
        dims = tuple(int(rng.integers(2, 10)) for _ in range(3))
        dtype = [np.uint8, np.int16, np.float32][i % 3]
        if dtype is np.float32:
            data = rng.random(dims).astype(np.float32)
        else:
            data = rng.integers(0, 100, dims).astype(dtype)
        v = Volume(data, (1.0, 1.25, 2.0))
        for suffix in (".nii", ".nii.gz"):
            p = tmp_path / f"v{i}{suffix}"
            write_volume(v, str(p))
            w = read_volume(str(p))
            assert w.data.dtype == data.dtype
            assert np.array_equal(w.data, data)
            assert w.spacing == v.spacing
    _ok(11, "write/read round-trip, u8/i16/f32, plain+gzip")


def test_criterion_12_performance_256_cube():
    rng = np.random.default_rng(1212)
    arr = np.zeros((256, 256, 256), dtype=np.uint8)
    centers = []
    for _ in range(200):
        side = int(rng.integers(2, 14))
        pos = rng.integers(0, 256 - 16, 3)
        arr[pos[0]:pos[0] + side, pos[1]:pos[1] + side, pos[2]:pos[2] + side] = 1
        centers.append((pos, side))
    gt = Volume(arr, (1, 1, 1))
    pred_arr = np.zeros_like(arr)
    for (pos, side), jitter in zip(centers, rng.integers(0, 2, 200)):
        p = pos + jitter
        pred_arr[p[0]:p[0] + side, p[1]:p[1] + side, p[2]:p[2] + side] = 1
    pred = Volume(pred_arr, (1, 1, 1))

    t0 = time.perf_counter()
    s = evaluate_pair("perf", gt, pred, RunConfig())
    elapsed = time.perf_counter() - t0
    assert s.gt_lesions > 0 and s.detection.tp > 0
    assert elapsed < 10.0, f"256^3 evaluation took {elapsed:.1f}s"
    _ok(12, f"256^3 / 200-lesion evaluation in {elapsed:.2f}s")
