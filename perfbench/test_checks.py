"""Tests of the benchmark's own checkers.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import numpy as np
import pytest

import checks
import gen

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _mask(shape, voxels):
    m = np.zeros(shape, dtype=np.uint8)
    for v in voxels:
        m[v] = 1
    return m


def test_label6_numbers_by_first_voxel_in_zyx_order():
    # (x, y, z) voxels; (2,0,0) and (1,1,0) touch only along an edge, so they
    # are separate components at connectivity 6
    m = _mask((3, 3, 2), [(2, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)])
    labels, n = checks.label6(m)
    assert n == 3
    assert labels[2, 0, 0] == 1  # first voxel (z0, y0, x2)
    assert labels[1, 1, 0] == labels[0, 1, 0] == 2  # first voxel (z0, y1, x0)
    assert labels[0, 0, 1] == 3  # z = 1 comes last
    assert checks.label6(np.zeros((2, 2, 2)))[1] == 0


def test_iou_table_and_greedy_matcher_hand_cases():
    gl = np.array([1, 1, 0, 2]).reshape(4, 1, 1)
    pl = np.array([1, 0, 2, 2]).reshape(4, 1, 1)
    inter, iou, gs, ps = checks.iou_table(gl, 2, pl, 2)
    assert inter.tolist() == [[1, 0], [0, 1]]
    assert gs.tolist() == [2, 1] and ps.tolist() == [1, 2]
    assert iou.tolist() == [[0.5, 0.0], [0.0, 0.5]]

    table = np.array([[0.6, 0.5], [0.55, 0.0]])
    # G1-P1 wins; G2-P1 loses to the locked prediction, G1-P2 to the locked GT
    assert checks.greedy_from_table(table, 0.35) == [(1, 1, 0.6)]
    ties = np.full((2, 2), 0.5)
    assert checks.greedy_from_table(ties, 0.35) == [(1, 1, 0.5), (2, 2, 0.5)]
    assert checks.greedy_from_table(ties, 0.5) == []  # strict iou > tau


def test_brute_hd95_hand_cases():
    one = np.array([[0, 0, 0]])
    assert checks.brute_hd95(one, np.array([[3, 4, 0]]), (1, 1, 1)) == 5.0
    line = np.array([[x, 0, 0] for x in range(4)])
    # directed distances: [0] and [0, 1, 2, 3]; the 95th percentile of
    # [0, 0, 1, 2, 3] interpolates at index 3.8 -> 2.8
    assert checks.brute_hd95(one, line, (1, 1, 1)) == pytest.approx(2.8)
    assert checks.brute_hd95(one, line, (2, 1, 1)) == pytest.approx(5.6)
    cube = np.argwhere(np.ones((3, 3, 3)))
    assert len(checks.surface_points(cube)) == 26
    assert checks.brute_hd95(cube, cube, (1, 1, 1)) == 0.0


def test_edt_image_distances_match_brute_force():
    g = _mask((1, 1, 3), [(0, 0, 0)]).astype(bool)
    p = _mask((1, 1, 3), [(0, 0, 2)]).astype(bool)
    assert checks.edt_image_distances(g, p, (1, 1, 1.5)) == (3.0, 3.0)
    rng = np.random.default_rng(5)
    g = rng.random((9, 8, 7)) < 0.2
    p = rng.random((9, 8, 7)) < 0.2
    hd, _ = checks.edt_image_distances(g, p, (1, 2, 1))
    assert hd == pytest.approx(checks.brute_hd95(np.argwhere(g), np.argwhere(p), (1, 2, 1)))


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """One small pair run through `lesioneval evaluate`, with its masks."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from lesioneval import cli

    d = tmp_path_factory.mktemp("case")
    shape, spacing = (12, 10, 8), (1.0, 1.0, 2.0)
    gt = np.zeros(shape, dtype=np.uint8)
    pred = np.zeros(shape, dtype=np.float32)
    gt[1:4, 1:4, 1:4] = 1
    pred[1:4, 1:4, 1:4] = 0.9  # identical: TP with Dice 1, HD95 0
    gt[6:9, 5:8, 1:4] = 1
    pred[7:10, 5:8, 1:4] = 0.8  # shifted: IoU 0.5, a TP
    pred[6, 5:8, 1:4] = 0.4  # sub-threshold rim
    gt[10, 8, 6] = 1  # missed: FN
    pred[1, 8, 6] = 0.7  # spurious: FP
    gen.write_nifti(str(d / "gt.nii.gz"), gt, spacing)
    gen.write_nifti(str(d / "pred.nii.gz"), pred, spacing)
    (d / "manifest.csv").write_text("sample_id,gt_path,pred_path\ns1,gt.nii.gz,pred.nii.gz\n")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["evaluate", "--manifest", str(d / "manifest.csv"), "--out", str(d / "out")])
    assert rc == 0
    report = json.loads((d / "out" / "samples" / "s1.json").read_text())
    return report, gt, pred, spacing, str(d / "out")


def _check(report, gt, pred, spacing):
    return checks.check_sample(report, gt, pred, spacing, 0.35, np.random.default_rng(0),
                               hd95_samples=10, image_check=True)


def test_true_report_passes(evaluated):
    report, gt, pred, spacing, out = evaluated
    assert report["detection"]["tp"] == 2 and report["detection"]["fn"] == 1
    assert report["detection"]["fp"] == 1
    assert _check(report, gt, pred, spacing) == []
    assert checks.check_summary(out, ["s1"]) == []


def _tp_to_fn(r):
    pair = r["matched_pairs"].pop()
    r["detection"]["tp"] -= 1
    r["detection"]["fn"] += 1
    for rec in r["lesion_records"]:
        if rec["status"] == "TP" and rec["lesion_id"] == pair["gt_id"]:
            rec.update(status="FN", pred_vox=None, dice=None, hd95=None, size_ratio=None)
            b = r["per_bin"][rec["size_bin"]]
            b["tp"] -= 1
            b["fn"] += 1


def _nudge(key, delta):
    def alter(r):
        r["matched_pairs"][1][key] += delta
    return alter


ALTERATIONS = {
    "tp_turned_fn": _tp_to_fn,
    "dice_off_by_0.01": _nudge("dice", -0.01),
    "hd95_off_by_0.01": _nudge("hd95_mm", 0.01),
    "iou_off": _nudge("iou", 0.01),
    "gt_lesions_plus_one": lambda r: r.update(gt_lesions=r["gt_lesions"] + 1),
    "voxel_dice_off": lambda r: r["image_metrics"].update(voxel_dice=r["image_metrics"]["voxel_dice"] + 0.01),
    "image_hd95_off": lambda r: r["image_metrics"].update(voxel_hd95_mm=r["image_metrics"]["voxel_hd95_mm"] * 1.01),
    "assd_off": lambda r: r["image_metrics"].update(assd_mm=r["image_metrics"]["assd_mm"] + 0.01),
    "fp_binned_by_wrong_size": lambda r: (
        r["per_bin"]["VerySmall"].update(fp=r["per_bin"]["VerySmall"]["fp"] - 1),
        r["per_bin"]["Small"].update(fp=r["per_bin"]["Small"]["fp"] + 1),
    ),
}


@pytest.mark.parametrize("name", sorted(ALTERATIONS))
def test_altered_report_is_rejected(evaluated, name):
    report, gt, pred, spacing, _ = evaluated
    bad = copy.deepcopy(report)
    ALTERATIONS[name](bad)
    assert _check(bad, gt, pred, spacing), name


def test_altered_rollup_is_rejected(evaluated, tmp_path):
    *_, out = evaluated
    shutil.copytree(out, tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    summary["per_model"]["model"]["Small"]["dice_mean"] += 0.01
    (tmp_path / "out" / "summary.json").write_text(json.dumps(summary))
    assert checks.check_summary(str(tmp_path / "out"), ["s1"])


def test_nifti_round_trip_and_score_map(tmp_path):
    rng = np.random.default_rng(3)
    mask = (rng.random((6, 5, 4)) < 0.3).astype(np.uint8)
    scores = gen.score_map(mask, rng)
    assert np.array_equal(scores > 0.5, mask != 0)
    assert ((scores > 0) & (scores <= 0.5)).any()  # the rim is there
    for name, data in (("m.nii", mask), ("s.nii.gz", scores)):
        gen.write_nifti(str(tmp_path / name), data, (1.0, 2.0, 3.0))
        back, spacing = gen.read_nifti(str(tmp_path / name))
        assert np.array_equal(back, data) and spacing == (1.0, 2.0, 3.0)


def test_metric_names_match_benchmark_json():
    import run
    import spans

    with open(os.path.join(os.path.dirname(SRC), "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(spans.layer_metrics([], 0.0, 1.0, 0)) | {"trace.overhead_s"} == declared
    units = run.declared_units()  # where run.py takes every unit from
    assert {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"} | declared == set(units)


def test_tracer_self_time_and_absent_names(monkeypatch):
    import time
    import types

    import spans

    mod = types.ModuleType("fake_layer")
    mod.inner = lambda: time.sleep(0.02) or [1, 2, 3]
    mod.outer = lambda: time.sleep(0.01) or mod.inner()
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    monkeypatch.setattr(spans, "WRAPPED", [
        ("fake_layer", "outer", "stratify", None, None),
        ("fake_layer", "inner", "matching.candidates", lambda r: {"n": len(r)}, None),
        ("fake_layer", "gone", "components", None, None),
    ])
    tracer = spans.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    mod.outer()
    t1 = time.perf_counter()
    tracer.uninstall()
    assert tracer.absent == ["fake_layer.gone"]
    assert not hasattr(mod.outer, "__wrapped__")
    m = spans.layer_metrics(tracer.spans, t0, t1, 0)
    assert m["matching.candidates"] == 3
    assert 0.02 <= m["matching.candidates_busy_s"] < 0.2
    assert 0.01 <= m["stratify.busy_s"] < m["matching.candidates_busy_s"]
    assert 0 <= m["cli.self_s"] < 0.01
