"""Synthetic mask pairs with known lesion correspondences.

Used for IoU-threshold tuning, oracle suites, and constructed regression
cases. Generation is a pure function of (params, seed); the PRNG is numpy's
PCG64 as created by ``numpy.random.default_rng(seed)``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .components import find_connected_components
from .errors import PlacementFailure
from .matching import match_lesions
from .volume import Volume

# sampled voxel-count ranges per size bin (inclusive)
BIN_SIZE_RANGES = {
    "VerySmall": (1, 9),
    "Small": (10, 99),
    "Medium": (100, 399),
    "Large": (400, 1200),
}

KINDS = ("none", "shift", "dilate", "erode", "split", "drop")


@dataclass(frozen=True)
class SynthParams:
    dims: tuple[int, int, int] = (96, 96, 1)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    counts: dict = field(default_factory=lambda: {"Small": 4, "Medium": 2})
    kinds: tuple[str, ...] = ("none",)  # per-lesion perturbation pool
    shift_max: int = 0
    dilate_max: int = 0
    erode_max: int = 0
    n_spurious: int = 0
    merge_pairs: int = 0
    max_tries: int = 500


@dataclass
class SynthCase:
    seed: int
    gt: Volume
    pred: Volume
    truth_pairs: list[tuple[int, int]]  # (gt lesion id, pred lesion id)
    perturbation_log: list[str]


@dataclass(frozen=True)
class TauSweepResult:
    taus: list[float]
    f1_at_tau: list[float]
    best_tau: float


def _near(rng: np.random.Generator, side: float) -> int:
    lo = max(1, round(side * 0.6))
    hi = max(lo + 1, round(side * 1.5) + 1)
    return int(rng.integers(lo, hi))


def _rect_voxels(rng: np.random.Generator, target: int, dims3: tuple) -> np.ndarray:
    """A connected axis-aligned block of exactly `target` voxels at origin.

    Extents are kept near the square/cube root of the target so the block
    fits a reasonably sized grid.
    """
    is2d = dims3[2] == 1
    dz = 1 if is2d else _near(rng, target ** (1 / 3))
    per_slab = -(-target // dz)
    dx = _near(rng, np.sqrt(per_slab))
    dy = -(-per_slab // dx)
    vox = [
        (x, y, z)
        for z in range(dz)
        for y in range(dy)
        for x in range(dx)
    ]
    # row-major truncation keeps the block connected
    return np.array(vox[:target], dtype=int)


def _ellipsoid_voxels(rng: np.random.Generator, target: int, dims3: tuple) -> np.ndarray | None:
    is2d = dims3[2] == 1
    if is2d:
        r = max(1.0, np.sqrt(target / np.pi))
        radii = np.array([r, r, 0.0])
    else:
        r = max(1.0, (3 * target / (4 * np.pi)) ** (1 / 3))
        radii = np.array([r, r, r])
    radii *= rng.uniform(0.8, 1.2, size=3) if not is2d else np.array([*rng.uniform(0.8, 1.2, 2), 1.0])
    ext = np.maximum(np.floor(radii).astype(int), 0)
    xs, ys, zs = np.mgrid[-ext[0]:ext[0] + 1, -ext[1]:ext[1] + 1, -ext[2]:ext[2] + 1]
    inside = (
        (xs / max(radii[0], 0.5)) ** 2
        + (ys / max(radii[1], 0.5)) ** 2
        + (zs / max(radii[2], 0.5)) ** 2
    ) <= 1.0
    vox = np.argwhere(inside)
    if len(vox) == 0:
        return None
    return vox - vox.min(axis=0)


def _in_bin(count: int, bin_name: str) -> bool:
    from .stratify import categorize

    return count >= 1 and categorize(count).name == bin_name


def _place(
    rng: np.random.Generator,
    shape_vox: np.ndarray,
    occupied: np.ndarray,
    margin: int,
    max_tries: int,
) -> np.ndarray | None:
    dims = occupied.shape
    extent = shape_vox.max(axis=0) + 1
    for _ in range(max_tries):
        pos = []
        ok = True
        for ax in range(3):
            hi = dims[ax] - extent[ax] - margin
            lo = margin if dims[ax] > 1 else 0
            if dims[ax] == 1:
                pos.append(0)
                continue
            if hi < lo:
                ok = False
                break
            pos.append(int(rng.integers(lo, hi + 1)))
        if not ok:
            continue
        vox = shape_vox + np.array(pos)
        lo_c = np.maximum(vox.min(axis=0) - margin, 0)
        hi_c = np.minimum(vox.max(axis=0) + margin + 1, dims)
        window = occupied[lo_c[0]:hi_c[0], lo_c[1]:hi_c[1], lo_c[2]:hi_c[2]]
        if window.any():
            continue
        occupied[vox[:, 0], vox[:, 1], vox[:, 2]] = True
        return vox
    return None


def _paint(arr: np.ndarray, vox: np.ndarray) -> None:
    arr[vox[:, 0], vox[:, 1], vox[:, 2]] = 1


def _clip(vox: np.ndarray, dims: tuple) -> np.ndarray:
    keep = np.all((vox >= 0) & (vox < np.array(dims)), axis=1)
    return vox[keep]


def _morph(vox: np.ndarray, dims: tuple, iterations: int, op: str) -> np.ndarray:
    """Dilate or erode a voxel set inside its box, padded by ``iterations``.

    The padding holds everything a dilation can reach, and clipping it to
    the grid keeps the grid edge as the erosion border.
    """
    lo = np.maximum(vox.min(axis=0) - iterations, 0)
    hi = np.minimum(vox.max(axis=0) + iterations + 1, dims)
    mask = np.zeros(hi - lo, dtype=bool)
    rel = vox - lo
    mask[rel[:, 0], rel[:, 1], rel[:, 2]] = True
    struct = ndimage.generate_binary_structure(3, 1)
    if dims[2] == 1:
        struct = struct.copy()
        struct[:, :, 0] = struct[:, :, 2] = False
        struct[1, 1, 0] = struct[1, 1, 2] = False
    fn = ndimage.binary_dilation if op == "dilate" else ndimage.binary_erosion
    out = fn(mask, structure=struct, iterations=iterations)
    return np.argwhere(out) + lo


def generate_case(params: SynthParams, seed: int) -> SynthCase:
    """Build a GT/prediction pair with recorded intended correspondences."""
    for k in params.kinds:
        if k not in KINDS:
            raise ValueError(f"unknown perturbation kind {k!r}")
    rng = np.random.default_rng(seed)
    dims = tuple(params.dims)
    gt_arr = np.zeros(dims, dtype=np.uint8)
    pred_arr = np.zeros(dims, dtype=np.uint8)
    occupied = np.zeros(dims, dtype=bool)
    margin = params.shift_max + params.dilate_max + 2
    log: list[str] = []

    # (gt voxel array, intended pred voxel array or None)
    placed: list[tuple[np.ndarray, np.ndarray | None]] = []
    for bin_name in ("VerySmall", "Small", "Medium", "Large"):
        n = params.counts.get(bin_name, 0)
        lo, hi = BIN_SIZE_RANGES[bin_name]
        for i in range(n):
            vox = None
            for _attempt in range(30):  # resample the shape if it will not fit
                target = int(rng.integers(lo, hi + 1))
                shape = None
                if rng.random() < 0.5 and target >= 5:
                    shape = _ellipsoid_voxels(rng, target, dims)
                    if shape is not None and not _in_bin(len(shape), bin_name):
                        shape = None
                if shape is None:
                    shape = _rect_voxels(rng, target, dims)
                vox = _place(rng, shape, occupied, margin, params.max_tries)
                if vox is not None:
                    break
            if vox is None:
                raise PlacementFailure(
                    f"could not place {bin_name} lesion {i} in grid {dims}"
                )
            _paint(gt_arr, vox)

            kind = params.kinds[int(rng.integers(0, len(params.kinds)))]
            pred_vox: np.ndarray | None = vox
            if kind == "shift" and params.shift_max > 0:
                off = rng.integers(-params.shift_max, params.shift_max + 1, size=3)
                if dims[2] == 1:
                    off[2] = 0
                pred_vox = _clip(vox + off, dims)
            elif kind == "dilate" and params.dilate_max > 0:
                pred_vox = _morph(
                    vox, dims, int(rng.integers(1, params.dilate_max + 1)), "dilate"
                )
            elif kind == "erode" and params.erode_max > 0:
                pred_vox = _morph(
                    vox, dims, int(rng.integers(1, params.erode_max + 1)), "erode"
                )
                if len(pred_vox) == 0:
                    pred_vox = None
                    kind = "erode->empty"
            elif kind == "split":
                axis = int(np.argmax(vox.max(axis=0) - vox.min(axis=0)))
                cut = (vox[:, axis].min() + vox[:, axis].max()) // 2
                pred_vox = vox[vox[:, axis] != cut]
                if len(pred_vox) == 0:
                    pred_vox = None
            elif kind == "drop":
                pred_vox = None
            log.append(f"lesion {len(placed)}: {kind}")
            if pred_vox is not None and len(pred_vox) > 0:
                _paint(pred_arr, pred_vox)
                placed.append((vox, pred_vox))
            else:
                placed.append((vox, None))

    # merges: bridge intended pred blobs pairwise; the larger GT keeps the pair
    merged_away: set[int] = set()
    candidates = [i for i, (_, pv) in enumerate(placed) if pv is not None]
    for _ in range(params.merge_pairs):
        if len(candidates) < 2:
            break
        i, j = rng.choice(len(candidates), size=2, replace=False)
        a, b = candidates[int(i)], candidates[int(j)]
        ca = placed[a][1].mean(axis=0)
        cb = placed[b][1].mean(axis=0)
        steps = int(np.abs(ca - cb).max()) * 2 + 2
        line = np.round(np.linspace(ca, cb, steps)).astype(int)
        _paint(pred_arr, _clip(line, dims))
        smaller = a if len(placed[a][0]) <= len(placed[b][0]) else b
        merged_away.add(smaller)
        log.append(f"merge: lesions {a} and {b}, pair kept by larger")

    for _ in range(params.n_spurious):
        target = int(rng.integers(1, 60))
        shape = _rect_voxels(rng, target, dims)
        vox = _place(rng, shape, occupied, margin, params.max_tries)
        if vox is None:
            log.append("spurious: placement failed, skipped")
            continue
        _paint(pred_arr, vox)
        log.append(f"spurious blob of {target} voxels")

    spacing = tuple(params.spacing)
    gt = Volume(gt_arr, spacing, binary=True)
    pred = Volume(pred_arr, spacing, binary=True)

    gt_map = find_connected_components(gt, 6).label_map
    pred_map = find_connected_components(pred, 6).label_map
    truth_pairs: list[tuple[int, int]] = []
    seen_pred: set[int] = set()
    for idx, (gvox, pvox) in enumerate(placed):
        if pvox is None or idx in merged_away:
            continue
        gx, gy, gz = gvox[0]
        gid = int(gt_map[gx, gy, gz])
        # representative voxel of the largest intended fragment
        labels = pred_map[pvox[:, 0], pvox[:, 1], pvox[:, 2]]
        labels = labels[labels > 0]
        if len(labels) == 0:
            continue
        pid = int(np.bincount(labels).argmax())
        if gid == 0 or pid in seen_pred:
            continue
        seen_pred.add(pid)
        truth_pairs.append((gid, pid))
    truth_pairs.sort()
    return SynthCase(seed, gt, pred, truth_pairs, log)


def tau_sweep(cases: list[SynthCase], taus: list[float]) -> TauSweepResult:
    """Micro-averaged matching F1 against the known truth pairs, per tau.

    best_tau is the smallest swept tau attaining the maximum F1.
    """
    if not cases:
        raise ValueError("need at least one case")
    extracted = []
    for c in cases:
        gt_ls = find_connected_components(c.gt, 6)
        pred_ls = find_connected_components(c.pred, 6)
        extracted.append((gt_ls, pred_ls, set(c.truth_pairs)))
    f1s = []
    for tau in taus:
        correct = produced = truth_total = 0
        for gt_ls, pred_ls, truth in extracted:
            m = match_lesions(gt_ls, pred_ls, tau)
            got = {(g, p) for g, p, _ in m.matches}
            correct += len(got & truth)
            produced += len(got)
            truth_total += len(truth)
        denom = produced + truth_total
        f1s.append(2 * correct / denom if denom else 1.0)
    best = max(f1s)
    best_tau = taus[f1s.index(best)]
    return TauSweepResult(list(taus), f1s, best_tau)


DEFAULT_SWEEP_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


def export_case(case: SynthCase, out_dir: str, name: str) -> dict[str, str]:
    """Dump a case as JSON-fixture volumes plus a truth-pair sidecar."""
    from .nifti import write_volume

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "gt": os.path.join(out_dir, f"{name}_gt.json"),
        "pred": os.path.join(out_dir, f"{name}_pred.json"),
        "truth": os.path.join(out_dir, f"{name}_truth.json"),
    }
    write_volume(case.gt, paths["gt"])
    write_volume(case.pred, paths["pred"])
    with open(paths["truth"], "w") as f:
        json.dump(
            {
                "seed": case.seed,
                "truth_pairs": [list(p) for p in case.truth_pairs],
                "perturbation_log": case.perturbation_log,
            },
            f,
            indent=2,
        )
    return paths
