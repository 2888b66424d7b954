"""Naive reference implementations used to cross-check the main pipeline.

Deliberately share no code with the production modules: flood-fill BFS
and scipy's whole-grid labeller instead of the foreground-voxel graph,
a full IoU table instead of the per-box label count, exhaustive pairwise
distances instead of nearest-neighbor queries, and whole-grid morphology
instead of work inside lesion boxes.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

_OFFSETS_6 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def _offsets(connectivity: int) -> list[tuple[int, int, int]]:
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                n = abs(dx) + abs(dy) + abs(dz)
                if n == 0:
                    continue
                if connectivity == 6 and n > 1:
                    continue
                if connectivity == 18 and n > 2:
                    continue
                out.append((dx, dy, dz))
    return out


def flood_fill_components(
    voxels: set[tuple[int, int, int]], connectivity: int
) -> list[frozenset]:
    """BFS flood fill; components ordered by their min voxel in (z, y, x) order."""
    offsets = _offsets(connectivity)
    remaining = set(voxels)
    components = []
    for start in sorted(voxels, key=lambda v: (v[2], v[1], v[0])):
        if start not in remaining:
            continue
        comp = {start}
        remaining.discard(start)
        queue = deque([start])
        while queue:
            x, y, z = queue.popleft()
            for dx, dy, dz in offsets:
                nb = (x + dx, y + dy, z + dz)
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        components.append(frozenset(comp))
    return components


def scipy_label_components(data: np.ndarray, connectivity: int) -> tuple:
    """(label map, [(id, bbox, volume_vox), ...]) from scipy's grid labeller.

    Labels the whole ``[z, y, x]`` view with ``ndimage.label``, whose scan
    order numbers components by their first voxel in (z, y, x) order, and
    takes the boxes from ``find_objects``, as components did before it
    worked from the foreground voxels alone.
    """
    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    structure = ndimage.generate_binary_structure(3, rank)
    labels_zyx, _ = ndimage.label(data.T, structure=structure)
    label_map = labels_zyx.T
    lesions = []
    for lesion_id, box_zyx in enumerate(ndimage.find_objects(labels_zyx), start=1):
        box = box_zyx[::-1]
        lesions.append((lesion_id, box, int(np.count_nonzero(label_map[box] == lesion_id))))
    return label_map, lesions


def iou_table(
    gt_sets: list[frozenset], pred_sets: list[frozenset], tau: float
) -> list[tuple[int, int, float]]:
    """Every (gt_id, pred_id, iou) with iou > tau, by (gt_id, pred_id).

    Lesion ids are 1-based positions in the input lists.
    """
    table = []
    for gi, gs in enumerate(gt_sets, start=1):
        for pi, ps in enumerate(pred_sets, start=1):
            inter = len(gs & ps)
            if inter == 0:
                continue
            iou = inter / (len(gs) + len(ps) - inter)
            if iou > tau:
                table.append((gi, pi, iou))
    return table


def naive_match(
    gt_sets: list[frozenset],
    pred_sets: list[frozenset],
    tau: float,
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy matching from the full IoU table, no bbox pre-filter.

    Lesion ids are 1-based positions in the input lists. Returns
    (matches, unmatched_gt_ids, unmatched_pred_ids).
    """
    table = iou_table(gt_sets, pred_sets, tau)
    table.sort(key=lambda t: (-t[2], t[0], t[1]))
    used_g: set[int] = set()
    used_p: set[int] = set()
    matches = []
    for gi, pi, iou in table:
        if gi in used_g or pi in used_p:
            continue
        used_g.add(gi)
        used_p.add(pi)
        matches.append((gi, pi, iou))
    fn = [i for i in range(1, len(gt_sets) + 1) if i not in used_g]
    fp = [i for i in range(1, len(pred_sets) + 1) if i not in used_p]
    return matches, fn, fp


def brute_surface(voxels: set[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Voxels with at least one 6-neighbor outside the set."""
    surf = []
    for x, y, z in voxels:
        for dx, dy, dz in _OFFSETS_6:
            if (x + dx, y + dy, z + dz) not in voxels:
                surf.append((x, y, z))
                break
    return surf


def _all_nearest(
    a: list[tuple], b: list[tuple], spacing: tuple[float, float, float]
) -> list[float]:
    # points are scaled to mm before they are subtracted, as a kd-tree over
    # mm points does, so the two give the same floats
    sx, sy, sz = spacing
    b_mm = [(x * sx, y * sy, z * sz) for x, y, z in b]
    out = []
    for ax, ay, az in a:
        ax, ay, az = ax * sx, ay * sy, az * sz
        best = math.inf
        for bx, by, bz in b_mm:
            d = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
            if d < best:
                best = d
        out.append(math.sqrt(best))
    return out


def _percentile_linear(values: list[float], p: float) -> float:
    vals = sorted(values)
    rank = p * (len(vals) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return vals[lo]
    frac = rank - lo
    # numpy's rounding of the linear interpolation, so results compare with ==
    lo_v, hi_v = vals[lo], vals[hi]
    if frac < 0.5:
        return lo_v + (hi_v - lo_v) * frac
    return hi_v - (hi_v - lo_v) * (1 - frac)


def brute_surface_distances(
    a: set[tuple[int, int, int]],
    b: set[tuple[int, int, int]],
    spacing: tuple[float, float, float],
) -> tuple[float, float, float]:
    """(pooled hd95, max-of-directed hd95, assd) by exhaustive O(n^2) search."""
    sa = brute_surface(a)
    sb = brute_surface(b)
    d_ab = _all_nearest(sa, sb, spacing)
    d_ba = _all_nearest(sb, sa, spacing)
    pooled = d_ab + d_ba
    return (
        _percentile_linear(pooled, 0.95),
        max(_percentile_linear(d_ab, 0.95), _percentile_linear(d_ba, 0.95)),
        sum(pooled) / len(pooled),
    )


def erosion_surface(mask: np.ndarray) -> np.ndarray:
    """C-ordered coordinates of mask voxels that face erosion removes.

    The edge of the grid counts as outside.
    """
    m = mask != 0
    face = ndimage.generate_binary_structure(3, 1)
    return np.argwhere(m & ~ndimage.binary_erosion(m, face, border_value=0))


def whole_grid_image_metrics(
    gt: np.ndarray, pred: np.ndarray, variant: str, spacing: tuple
) -> tuple:
    """(voxel Dice, HD95, ASSD, GT voxels, pred voxels) of two whole masks.

    Erodes and scans the whole grid, as the image metrics did before they
    worked from lesion boxes; kept so the box-based path can be compared
    with it exactly. Each surface is listed in (z, y, x) scan order, the
    order of the foreground indices, so ASSD sums the same distances in
    the same order.
    """
    g, p = gt != 0, pred != 0
    n_g, n_p = int(g.sum()), int(p.sum())
    dice = None if n_g + n_p == 0 else 2.0 * int((g & p).sum()) / (n_g + n_p)
    if n_g == 0 or n_p == 0:
        return dice, None, None, n_g, n_p
    sp = np.asarray(spacing, dtype=float)
    a = erosion_surface(g.T)[:, ::-1] * sp
    b = erosion_surface(p.T)[:, ::-1] * sp
    d_ab = np.atleast_1d(cKDTree(b).query(a, k=1)[0])
    d_ba = np.atleast_1d(cKDTree(a).query(b, k=1)[0])
    pooled = np.concatenate([d_ab, d_ba])
    if variant == "pooled":
        hd = float(np.percentile(pooled, 95))
    else:
        hd = float(max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)))
    return dice, hd, float(pooled.mean()), n_g, n_p


def whole_grid_morph(vox: np.ndarray, dims: tuple, iterations: int, op: str) -> np.ndarray:
    """Dilate or erode a voxel set on a whole-grid mask; returns argwhere order.

    In a grid one voxel thick in z, the structuring element has no z
    neighbours.
    """
    mask = np.zeros(dims, dtype=bool)
    mask[vox[:, 0], vox[:, 1], vox[:, 2]] = True
    struct = ndimage.generate_binary_structure(3, 1)
    if dims[2] == 1:
        struct[:, :, 0] = struct[:, :, 2] = False
    fn = ndimage.binary_dilation if op == "dilate" else ndimage.binary_erosion
    return np.argwhere(fn(mask, structure=struct, iterations=iterations))
