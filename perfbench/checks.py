"""Checks of lesioneval's outputs against computations made apart from it.

Nothing here imports lesioneval: the labeller, the full-IoU-table greedy
matcher, the surface extraction, the brute-force O(n^2) HD95 and the
distance-transform image metrics are the benchmark's own. Each check
returns a list of error strings; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import ndimage

BIN_EDGES = (("VerySmall", 1, 10), ("Small", 10, 100), ("Medium", 100, 400), ("Large", 400, None))
BIN_NAMES = tuple(b[0] for b in BIN_EDGES)
REL_TOL = 1e-9


def size_bin(vox: int) -> str:
    for name, lo, hi in BIN_EDGES:
        if vox >= lo and (hi is None or vox < hi):
            return name
    raise ValueError(f"no size bin for {vox} voxels")


def label6(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Connectivity-6 components, numbered 1..n by their first voxel in (z, y, x) order.

    ``mask`` is indexed [x, y, z]; the numbering is the one lesioneval
    documents for its lesion ids.
    """
    raw, n = ndimage.label(mask != 0, structure=ndimage.generate_binary_structure(3, 1))
    if n == 0:
        return raw.astype(np.int64), 0
    zyx = raw.transpose(2, 1, 0).ravel()
    pos = np.flatnonzero(zyx)
    first = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, zyx[pos], pos)
    remap = np.zeros(n + 1, dtype=np.int64)
    remap[np.argsort(first[1:], kind="stable") + 1] = np.arange(1, n + 1)
    return remap[raw], n


def iou_table(gl: np.ndarray, ng: int, pl: np.ndarray, npred: int):
    """Full (ng, npred) tables of intersections and IoU, plus component sizes."""
    both = (gl > 0) & (pl > 0)
    inter = np.bincount(
        gl[both] * (npred + 1) + pl[both], minlength=(ng + 1) * (npred + 1)
    ).reshape(ng + 1, npred + 1)[1:, 1:]
    gs = np.bincount(gl.ravel(), minlength=ng + 1)[1:]
    ps = np.bincount(pl.ravel(), minlength=npred + 1)[1:]
    union = gs[:, None] + ps[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        iou = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    return inter, iou, gs, ps


def greedy_from_table(iou: np.ndarray, tau: float) -> list[tuple[int, int, float]]:
    """Accept (gt, pred) pairs with iou > tau by descending IoU, ties by ids."""
    gi, pi = np.nonzero(iou > tau)
    order = sorted(zip(gi.tolist(), pi.tolist()), key=lambda t: (-iou[t[0], t[1]], t[0], t[1]))
    used_g, used_p, out = set(), set(), []
    for g, p in order:
        if g in used_g or p in used_p:
            continue
        used_g.add(g)
        used_p.add(p)
        out.append((g + 1, p + 1, float(iou[g, p])))
    return out


def surface_points(vox: np.ndarray) -> np.ndarray:
    """Voxels of the set with a 6-neighbour outside it, as an (n, 3) array."""
    lo = vox.min(axis=0)
    shape = vox.max(axis=0) - lo + 3
    m = np.zeros(shape, dtype=bool)
    rel = vox - lo + 1
    m[rel[:, 0], rel[:, 1], rel[:, 2]] = True
    return vox[~_interior(m)[rel[:, 0], rel[:, 1], rel[:, 2]]]


def _interior(m: np.ndarray) -> np.ndarray:
    """True where a voxel and all its 6 neighbours are set; outside the array counts as unset."""
    p = np.pad(m, 1)
    c = p[1:-1, 1:-1, 1:-1]
    return (c & p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
            & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:])


def brute_hd95(a: np.ndarray, b: np.ndarray, spacing) -> float:
    """Pooled 95th percentile of both directed surface distances, all pairs compared."""
    sa = surface_points(a) * np.asarray(spacing, float)
    sb = surface_points(b) * np.asarray(spacing, float)
    d2 = np.zeros((len(sa), len(sb)))
    for ax in range(3):
        d2 += (sa[:, ax, None] - sb[None, :, ax]) ** 2
    d = np.sqrt(d2)
    return float(np.percentile(np.concatenate([d.min(axis=1), d.min(axis=0)]), 95))


def edt_image_distances(g: np.ndarray, p: np.ndarray, spacing) -> tuple[float, float]:
    """Whole-foreground pooled HD95 and ASSD from Euclidean distance transforms."""
    gs = g & ~_interior(g)
    ps = p & ~_interior(p)
    d_gp = ndimage.distance_transform_edt(~ps, sampling=spacing)[gs]
    d_pg = ndimage.distance_transform_edt(~gs, sampling=spacing)[ps]
    pooled = np.concatenate([d_gp, d_pg])
    return float(np.percentile(pooled, 95)), float(pooled.mean())


def _voxels(labels: np.ndarray, boxes: list, lesion_id: int) -> np.ndarray:
    box = boxes[lesion_id - 1]
    return np.argwhere(labels[box] == lesion_id) + [sl.start for sl in box]


def _close(a, b, tol=REL_TOL) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def check_sample(report: dict, gt: np.ndarray, pred: np.ndarray, spacing, tau: float,
                 rng: np.random.Generator, hd95_samples: int, image_check: bool) -> list[str]:
    """Check one sample's JSON report against the stored masks (pred thresholded > 0.5)."""
    sid = report["sample_id"]
    errs: list[str] = []

    def need(cond, msg):
        if not cond:
            errs.append(f"{sid}: {msg}")

    g = gt > 0.5
    p = pred > 0.5
    gl, ng = label6(g)
    pl, npred = label6(p)
    need(report["gt_lesions"] == ng, f"gt_lesions {report['gt_lesions']} != {ng}")
    need(report["pred_lesions"] == npred, f"pred_lesions {report['pred_lesions']} != {npred}")
    if errs:
        return errs

    det = report["detection"]
    need(det["tp"] + det["fn"] == ng, "TP+FN != GT count")
    need(det["tp"] + det["fp"] == npred, "TP+FP != predicted count")
    bins = report["per_bin"]
    for k, total in (("tp", det["tp"]), ("fp", det["fp"]), ("fn", det["fn"]), ("n_gt", ng)):
        need(sum(bins[b][k] for b in BIN_NAMES) == total, f"bins' {k} do not sum to {total}")

    im = report["image_metrics"]
    n_g, n_p, n_i = int(g.sum()), int(p.sum()), int((g & p).sum())
    need(im["gt_total_vox"] == n_g, f"gt_total_vox {im['gt_total_vox']} != {n_g}")
    need(im["pred_total_vox"] == n_p, f"pred_total_vox {im['pred_total_vox']} != {n_p}")
    need(_close(im["voxel_dice"], 2 * n_i / (n_g + n_p) if n_g + n_p else None),
         f"voxel_dice {im['voxel_dice']}")

    inter, iou, gs, ps = iou_table(gl, ng, pl, npred)
    pairs = report["matched_pairs"]
    gids = [m["gt_id"] for m in pairs]
    pids = [m["pred_id"] for m in pairs]
    need(len(set(gids)) == len(gids) and len(set(pids)) == len(pids), "a lesion is in two pairs")
    need(len(pairs) == det["tp"], "matched pairs != TP")
    for m in pairs:
        gi, pi = m["gt_id"] - 1, m["pred_id"] - 1
        if not (0 <= gi < ng and 0 <= pi < npred):
            errs.append(f"{sid}: pair ids out of range {m}")
            continue
        i, u = int(inter[gi, pi]), int(gs[gi] + ps[pi] - inter[gi, pi])
        need(i / u > tau, f"pair G{m['gt_id']} P{m['pred_id']} IoU {i / u} <= tau")
        need(_close(m["iou"], i / u), f"pair G{m['gt_id']} P{m['pred_id']} iou {m['iou']} != {i / u}")
        need(_close(m["dice"], 2 * i / (gs[gi] + ps[pi])),
             f"pair G{m['gt_id']} P{m['pred_id']} dice {m['dice']}")
        need(m["gt_vox"] == gs[gi] and m["pred_vox"] == ps[pi], f"pair G{m['gt_id']} sizes")

    expected = greedy_from_table(iou, tau)
    need(sorted((g_, p_) for g_, p_, _ in expected) == sorted(zip(gids, pids)),
         "matched pairs differ from the full-IoU-table greedy matcher")

    by_gt = {m["gt_id"]: m for m in pairs}
    identical = np.nonzero((inter == gs[:, None]) & (inter == ps[None, :]))
    for gi, pi in zip(*identical):
        m = by_gt.get(int(gi) + 1)
        ok = m is not None and m["pred_id"] == pi + 1 and m["dice"] == 1.0 and m["hd95_mm"] == 0.0
        need(ok, f"G{gi + 1} is identical to P{pi + 1} but not a TP with Dice 1 and HD95 0")

    matched_g = {g_ for g_, _, _ in expected}
    matched_p = {p_ for _, p_, _ in expected}
    for name in BIN_NAMES:
        want = {
            "n_gt": sum(size_bin(int(s)) == name for s in gs),
            "tp": sum(size_bin(int(gs[g_ - 1])) == name for g_ in matched_g),
            "fn": sum(size_bin(int(s)) == name for k, s in enumerate(gs) if k + 1 not in matched_g),
            "fp": sum(size_bin(int(s)) == name for k, s in enumerate(ps) if k + 1 not in matched_p),
        }
        for k, v in want.items():
            need(bins[name][k] == v, f"bin {name} {k} {bins[name][k]} != {v}")
    records = report["lesion_records"]
    need(len(records) == ng + det["fp"], "lesion record count")
    status = {(r["status"], r["lesion_id"]) for r in records}
    want_status = ({("TP", g_) for g_ in matched_g}
                   | {("FN", k) for k in range(1, ng + 1) if k not in matched_g}
                   | {("FP", k) for k in range(1, npred + 1) if k not in matched_p})
    need(status == want_status, "lesion records' TP/FN/FP statuses differ from the recount")
    for r in records:
        m = by_gt.get(r["lesion_id"]) if r["status"] == "TP" else None
        if m is not None:
            need(r["dice"] == m["dice"] and r["hd95"] == m["hd95_mm"],
                 f"record G{r['lesion_id']} disagrees with its pair")

    if pairs and hd95_samples:
        pick = rng.choice(len(pairs), size=min(hd95_samples, len(pairs)), replace=False)
        boxes_g, boxes_p = ndimage.find_objects(gl), ndimage.find_objects(pl)
        for k in sorted(pick.tolist()):
            m = pairs[k]
            a = _voxels(gl, boxes_g, m["gt_id"])
            b = _voxels(pl, boxes_p, m["pred_id"])
            want = brute_hd95(a, b, spacing)
            need(_close(m["hd95_mm"], want), f"pair G{m['gt_id']} hd95 {m['hd95_mm']} != {want}")

    if image_check and n_g and n_p:
        hd, asd = edt_image_distances(g, p, spacing)
        need(_close(im["voxel_hd95_mm"], hd, 1e-6), f"image hd95 {im['voxel_hd95_mm']} != {hd}")
        need(_close(im["assd_mm"], asd, 1e-6), f"image assd {im['assd_mm']} != {asd}")
    return errs


def check_summary(out_dir: str, samples: list[str]) -> list[str]:
    """Dataset-level files: sample list, no failures, rollup sums, CSV row counts."""
    errs = []
    with open(os.path.join(out_dir, "summary.json")) as f:
        summary = json.load(f)
    if summary["samples"] != sorted(samples) or summary["failures"]:
        errs.append(f"summary lists {summary['samples']} with failures {summary['failures']}")
    reports = []
    for sid in samples:
        with open(os.path.join(out_dir, "samples", f"{sid}.json")) as f:
            reports.append(json.load(f))
    pooled = summary["per_model"]["model"]
    for name in BIN_NAMES:
        for k in ("n_gt", "tp", "fp", "fn"):
            want = sum(r["per_bin"][name][k] for r in reports)
            if pooled[name][k] != want:
                errs.append(f"rollup {name} {k} {pooled[name][k]} != {want}")
        dices = [rec["dice"] for r in reports for rec in r["lesion_records"]
                 if rec["status"] == "TP" and rec["size_bin"] == name]
        want = sum(dices) / len(dices) if dices else None
        if not _close(pooled[name]["dice_mean"], want, 1e-12):
            errs.append(f"rollup {name} dice_mean {pooled[name]['dice_mean']} != {want}")
    with open(os.path.join(out_dir, "lesions.csv"), newline="") as f:
        rows = list(csv.reader(f))[1:]
    if len(rows) != sum(len(r["lesion_records"]) for r in reports):
        errs.append("lesions.csv row count differs from the lesion records")
    with open(os.path.join(out_dir, "stratified.csv"), newline="") as f:
        if len(list(csv.reader(f))) != 1 + len(BIN_NAMES):
            errs.append("stratified.csv does not hold one row per size bin")
    return errs

