"""Naive reference implementations used to cross-check the main pipeline.

Deliberately share no code with the production modules: flood-fill BFS
instead of labeled-array components, a full IoU table instead of the
joint label-count candidate scan, and exhaustive pairwise distances
instead of nearest-neighbor queries.
"""
from __future__ import annotations

import math
from collections import deque

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


def naive_match(
    gt_sets: list[frozenset],
    pred_sets: list[frozenset],
    tau: float,
) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """Greedy matching from the full IoU table, no bbox pre-filter.

    Lesion ids are 1-based positions in the input lists. Returns
    (matches, unmatched_gt_ids, unmatched_pred_ids).
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
    sx, sy, sz = spacing
    out = []
    for ax, ay, az in a:
        best = math.inf
        for bx, by, bz in b:
            d = ((ax - bx) * sx) ** 2 + ((ay - by) * sy) ** 2 + ((az - bz) * sz) ** 2
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
    return vals[lo] * (1 - frac) + vals[hi] * frac


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
