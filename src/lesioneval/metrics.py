"""Overlap and surface-distance metrics."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .components import LesionSet
from .matching import Overlap, dice_counts, intersect_sorted, iou_counts
from .volume import GRID_PAD, index_dtype


class Columns:
    """A table held as one array per dataclass field, all of one length."""

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def rows(self) -> list[dict]:
        """Each row as a dict of Python scalars, keyed by field in field order."""
        names = list(vars(self))
        return [dict(zip(names, r)) for r in zip(*(c.tolist() for c in vars(self).values()))]


@dataclass(frozen=True, eq=False)
class LesionPairMetrics(Columns):
    """The matched pairs of one sample, in ``gt_id`` order."""

    gt_id: np.ndarray
    pred_id: np.ndarray
    dice: np.ndarray
    iou: np.ndarray
    hd95_mm: np.ndarray
    gt_vox: np.ndarray
    pred_vox: np.ndarray
    volume_error_rel: np.ndarray  # (pred - gt) / gt
    size_ratio: np.ndarray  # pred / gt


@dataclass(frozen=True)
class ImageMetrics:
    voxel_dice: float | None
    voxel_hd95_mm: float | None
    assd_mm: float | None
    gt_total_vox: int
    pred_total_vox: int


def _nearest(
    pts_mm: np.ndarray, query_mm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each query point to its nearest point of ``pts_mm``, and its row.

    An unbalanced tree without shrunk node boxes builds faster and finds
    the same distances.
    """
    tree = cKDTree(pts_mm, balanced_tree=False, compact_nodes=False)
    return tree.query(query_mm, k=1)


def _p95(key: np.ndarray | None, dist: np.ndarray, n: int) -> np.ndarray:
    """The 95th percentile of each group ``dist[key == k]``, for k = 0..n-1.

    numpy's default ("linear") percentile, bit for bit: all groups are
    sorted at once, and each value is interpolated at the virtual index
    ``(size - 1) * 0.95`` between its two order statistics the way numpy's
    two-sided lerp does it. A single group (the image HD95) is partitioned
    at its two order statistics instead; its ``key`` may be None, for
    ``dist`` is then the whole group. Every group must be non-empty.
    """
    size = np.array([dist.size]) if key is None else np.bincount(key, minlength=n)
    first = np.cumsum(size) - size
    at = (size - 1) * 0.95
    lo = np.floor(at)
    g = at - lo
    i = first + lo.astype(np.intp)
    j = np.minimum(i + 1, first + size - 1)
    s = np.partition(dist, [i[0], j[0]]) if n == 1 else dist[np.lexsort((dist, key))]
    a, b = s[i], s[j]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def _hd95(
    k_ab: np.ndarray | None,
    d_ab: np.ndarray,
    k_ba: np.ndarray | None,
    d_ba: np.ndarray,
    n: int,
    variant: str,
) -> np.ndarray:
    """HD95 of each of ``n`` groups from the two directed distance arrays.

    ``k_ab`` and ``k_ba`` give each distance's group; both are None for a
    single group. The 95th percentile (linear interpolation) of a group's
    pooled distances, or the larger of its two directed ones; neither
    depends on their order.
    """
    if variant == "pooled":
        key = None if k_ab is None else np.concatenate([k_ab, k_ba])
        return _p95(key, np.concatenate([d_ab, d_ba]), n)
    if variant == "max-of-directed":
        return np.maximum(_p95(k_ab, d_ab, n), _p95(k_ba, d_ba, n))
    raise ValueError(f"unknown hd95 variant {variant!r}")


def _hd95_one(d_ab: np.ndarray, d_ba: np.ndarray, variant: str) -> float:
    """``_hd95`` of a single group."""
    return float(_hd95(None, d_ab, None, d_ba, 1, variant)[0])


@dataclass(frozen=True)
class NearestSurface:
    """For each surface voxel of one mask, the nearest surface voxel of the other."""

    pos: np.ndarray  # the surface voxels' positions in their lesion set, ascending
    dist: np.ndarray  # distance to the other mask's nearest surface voxel
    near: np.ndarray  # that voxel's lesion id (0 when the other mask is empty)


@dataclass(frozen=True)
class SurfaceDistances:
    """Nearest-surface distances between two masks, one query per direction."""

    spacing: np.ndarray
    gt: NearestSurface  # GT surface to predicted surface
    pred: NearestSurface  # predicted surface to GT surface


_BOX = GRID_PAD  # the ring search probes offsets of up to this many voxels per axis
_BLOCK = 4096  # open voxels probed together: bounds each shell's matrix of probes
_BITSET_RATIO = 4  # a mask's bitset is built only up to this many times its keys' bytes


@functools.lru_cache(maxsize=16)
def _shells(sp: tuple[float, float, float]) -> list[tuple[np.ndarray, float]]:
    """Offsets nearer than any voxel outside the box, by shell of equal mm distance."""
    off = np.argwhere(np.ones((2 * _BOX + 1,) * 3, bool)) - _BOX
    nominal = np.sqrt(((off * sp) ** 2).sum(1))
    outside = (_BOX + 1) * min(sp)  # the nearest voxel outside the box
    keep = (nominal > 0) & (nominal < outside)
    shell, which = np.unique(nominal[keep], return_inverse=True)
    bound = np.append(shell[1:], outside)
    return [(off[keep][which == k], bound[k]) for k in range(shell.size)]


def _steps(shape: tuple[int, int, int]) -> np.ndarray:
    """Key steps in x, y and z on the grid padded by ``_BOX`` voxels per side."""
    return np.cumprod([1, shape[0] + 2 * _BOX, shape[1] + 2 * _BOX])


def _bitset(key: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray | None:
    """The padded grid's bits, set at each ``key``; None when they would take
    over ``_BITSET_RATIO`` times the keys' bytes, so memory follows the surface."""
    nbytes = (int(np.prod(np.add(shape, 2 * _BOX))) + 7) // 8
    if nbytes > _BITSET_RATIO * key.nbytes:
        return None
    bits = np.zeros(nbytes, np.uint8)
    np.bitwise_or.at(bits, key >> 3, (1 << (key & 7)).astype(np.uint8))
    return bits


def _padded_keys(ls: LesionSet, pos: np.ndarray) -> np.ndarray:
    """Keys ``(coords + _BOX) @ _steps`` of the voxels at ``pos``, ascending with them.

    No offset of the box wraps a row or leaves the padded grid, so a key
    plus an offset's key is the key of the voxel at that offset. Taken from
    the linear index: ``i // nx`` counts the rows before the voxel and
    ``i // (nx * ny)`` the slices, and each adds its padding. The keys are
    in ``index_dtype``, which that padded grid sets. ``pos`` may be a bool
    mask, which gathers with no intp copy of an int32 index.
    """
    nx, ny, _ = ls.shape
    i = ls.index[pos].astype(index_dtype(ls.shape), copy=False)
    pad = 2 * _BOX
    rows, slices = i // nx, i // (nx * ny)
    return i + pad * rows + pad * (nx + pad) * slices + _BOX * int(_steps(ls.shape).sum())


def _nearest_surface(
    src: LesionSet,
    s_pos: np.ndarray,
    s_key: np.ndarray,
    s_shared: np.ndarray,
    dst: LesionSet,
    d_pos: np.ndarray,
    d_key: np.ndarray,
    d_shared: np.ndarray,
    sp: np.ndarray,
) -> NearestSurface:
    """Nearest ``dst`` surface voxel of each ``src`` surface voxel.

    ``s_key`` and ``d_key`` are the two surfaces' padded keys (see
    ``_padded_keys``). Row ``s_shared[i]`` of ``s_pos`` is the voxel at row
    ``d_shared[i]`` of ``d_pos``: it is at distance 0. The others probe
    ``dst`` shell by shell, ``_BLOCK`` voxels at a time, each distance
    computed as the kd-tree does, until a shell settles fewer than half of
    those still open; the kd-tree takes the rest. A probe is one bit test
    of ``_bitset(d_key)``, or a binary search in ``d_key`` where that is
    None; one search after the last shell finds the rows of the settled
    voxels' best hits. Grid coordinates are unravelled only for the probes
    that hit and for the kd-tree. Each shift takes the keys' dtype: a wider
    one would make every search cast all of ``d_key``.
    """
    dist, near = np.zeros(s_pos.size), np.zeros(s_pos.size, np.int32)
    near[s_shared] = dst.label[d_pos[d_shared]]
    q = np.delete(np.arange(s_pos.size, dtype=s_pos.dtype), s_shared)
    if d_pos.size == 0:
        dist[:] = np.inf
    elif q.size:
        dist[q] = np.inf
        hit_key, step, todo = np.zeros(s_pos.size, d_key.dtype), _steps(src.shape), q
        bits = _bitset(d_key, dst.shape)
        # settled: nearer than the next shell by more than rounding can move either
        margin = 16 * np.finfo(float).eps * (max(src.shape) + _BOX + 1) * sp.max()
        for off, bound in _shells(tuple(sp.tolist())):
            shift = (off @ step).astype(s_key.dtype)[:, None]
            done = np.empty(todo.size, bool)
            for lo in range(0, todo.size, _BLOCK):
                b = todo[lo : lo + _BLOCK]
                t = shift + s_key[b]
                if bits is None:
                    j, i = np.nonzero(d_key.take(np.searchsorted(d_key, t), mode="clip") == t)
                else:
                    j, i = np.nonzero((bits[t >> 3] >> (t & 7)) & 1)
                c = src.coords(s_pos[b[i]])
                diff = (c * sp - (c + off[j]) * sp) ** 2
                hit = np.full(t.shape, np.inf)
                hit[j, i] = np.sqrt(diff[:, 0] + diff[:, 1] + diff[:, 2])
                k = hit.argmin(0)
                best = hit[k, np.arange(b.size)]
                better = best < dist[b]
                dist[b[better]], hit_key[b[better]] = best[better], t[k[better], better]
                done[lo : lo + _BLOCK] = dist[b] < bound - margin
            todo = todo[~done]
            if 2 * done.sum() < done.size or todo.size == 0:
                break
        del bits
        if todo.size:
            dist[todo], row = _nearest(dst.coords(d_pos) * sp, src.coords(s_pos[todo]) * sp)
            near[todo] = dst.label[d_pos[row]]
        settled = q[near[q] == 0]  # lesion ids start at 1: no kd-tree query gave these
        near[settled] = dst.label[d_pos[np.searchsorted(d_key, hit_key[settled])]]
    return NearestSurface(s_pos, dist, near)


def surface_distances(
    gt: LesionSet, pred: LesionSet, spacing: tuple
) -> SurfaceDistances:
    """Each surface voxel's nearest surface voxel in the other mask, both ways.

    Each surface's padded grid keys are taken once from its linear index
    and serve both directions. A voxel on both surfaces is at distance 0;
    one intersection of the two ascending key arrays finds those. Every
    other voxel searches its grid neighbourhood first, in fixed blocks of
    voxels, so no matrix of probes grows with the surface. Each direction
    builds the other mask's bitset while it runs, unless that surface is
    too sparse (see ``_bitset``). Only the voxels that leaves open are
    queried against one kd-tree over the other mask's whole surface.
    """
    sp = np.asarray(spacing, dtype=float)
    g_pos, p_pos = (np.flatnonzero(ls.surface).astype(ls.index.dtype) for ls in (gt, pred))
    g_key, p_key = _padded_keys(gt, gt.surface), _padded_keys(pred, pred.surface)
    g_shared, p_shared = intersect_sorted(g_key, p_key)
    return SurfaceDistances(
        sp,
        _nearest_surface(gt, g_pos, g_key, g_shared, pred, p_pos, p_key, p_shared, sp),
        _nearest_surface(pred, p_pos, p_key, p_shared, gt, g_pos, g_key, g_shared, sp),
    )


def _partner_distances(
    src: LesionSet,
    ns: NearestSurface,
    src_pair: np.ndarray,
    dst: LesionSet,
    d_pos: np.ndarray,
    dst_ids: np.ndarray,
    sp: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each matched ``src`` surface voxel's pair and its distance to the partner.

    ``src_pair`` maps a ``src`` lesion id to its pair (-1 when unmatched),
    ``dst_ids`` a pair to its ``dst`` lesion, and ``d_pos`` holds the
    positions of ``dst``'s surface voxels. A voxel whose nearest surface
    voxel lies in its partner already holds the distance: face neighbours
    share a lesion, so the lesion's surface is part of the mask's. The
    others, whose nearest voxel lies in another lesion, are queried again
    against the partner's own surface, one query per lesion. Only those
    partners' surface voxels are grouped by lesion, so the sort follows
    them and not the whole surface.
    """
    key = src_pair[src.label[ns.pos]]
    kept = key >= 0
    key, pos, dist = key[kept], ns.pos[kept], ns.dist[kept]
    miss = np.flatnonzero(ns.near[kept] != dst_ids[key])
    miss = miss[np.argsort(key[miss], kind="stable")]
    pairs, first = np.unique(key[miss], return_index=True)
    ids = dst_ids[pairs]
    want = np.zeros(len(dst) + 1, bool)
    want[ids] = True
    t = d_pos[want[dst.label[d_pos]]]
    t = t[np.argsort(dst.label[t], kind="stable")]  # ascending within each lesion
    t_id = dst.label[t]
    lo, hi = np.searchsorted(t_id, ids), np.searchsorted(t_id, ids, side="right")
    for rows, a, b in zip(np.split(miss, first[1:]), lo.tolist(), hi.tolist()):
        dist[rows] = _nearest(dst.coords(t[a:b]) * sp, src.coords(pos[rows]) * sp)[0]
    return key, dist


def compute_lesion_metrics(
    gt: LesionSet,
    pred: LesionSet,
    ov: Overlap,
    matches: list[tuple[int, int, float]],
    distances: SurfaceDistances,
    hd95_variant: str = "pooled",
) -> LesionPairMetrics:
    """All per-pair metrics of a sample's matched GT/prediction lesion pairs.

    Returns one ``LesionPairMetrics`` row per ``(gt_id, pred_id, iou)`` of
    ``matches``, in ``gt_id`` order. Each overlap is looked up in ``ov``
    (0 for a pair not in it), the surface distances come from
    ``distances`` (see ``surface_distances``), and every HD95 from one
    grouped percentile. Raises ``ValueError`` unless ``matches`` is
    one-to-one between existing lesions.
    """
    g_ids, p_ids = (np.fromiter((m[i] for m in matches), np.intp, len(matches)) for i in (0, 1))
    order = np.argsort(g_ids, kind="stable")
    g_ids, p_ids, n = g_ids[order], p_ids[order], len(matches)
    for name, i, ls in (("gt_id", g_ids, gt), ("pred_id", p_ids, pred)):
        if np.unique(i).size < n or np.any((i < 1) | (i > len(ls))):
            raise ValueError(f"each {name} must be in 1..{len(ls)} and matched once")
    g_pair = np.full(len(gt) + 1, -1, gt.index.dtype)
    g_pair[g_ids] = np.arange(n)
    p_pair = np.full(len(pred) + 1, -1, pred.index.dtype)
    p_pair[p_ids] = np.arange(n)

    k = g_pair[ov.gt_id]
    hit = (k >= 0) & (p_pair[ov.pred_id] == k)
    inter = np.bincount(k[hit], ov.inter[hit], minlength=n).astype(np.int64)

    sp = distances.spacing
    hd = _hd95(
        *_partner_distances(gt, distances.gt, g_pair, pred, distances.pred.pos, p_ids, sp),
        *_partner_distances(pred, distances.pred, p_pair, gt, distances.gt.pos, g_ids, sp),
        n,
        hd95_variant,
    )
    gv, pv = gt.sizes[g_ids - 1], pred.sizes[p_ids - 1]
    return LesionPairMetrics(
        gt_id=g_ids, pred_id=p_ids,
        dice=dice_counts(inter, gv, pv), iou=iou_counts(inter, gv, pv), hd95_mm=hd,
        gt_vox=gv, pred_vox=pv, volume_error_rel=(pv - gv) / gv, size_ratio=pv / gv,
    )


def compute_image_metrics(
    gt: LesionSet, pred: LesionSet, ov: Overlap, hd95_variant: str, distances: SurfaceDistances
) -> ImageMetrics:
    """Voxel-wise Dice plus whole-foreground HD95 and ASSD of two masks.

    Works from the two foregrounds and their overlap table alone. The
    labeller's surface flags are those of whole-mask erosion. The
    distances are read as ``distances`` holds them, in the scan order of
    their voxels; neither HD95 depends on that order, and ASSD sums in it.

    Distances are None when either foreground is empty; Dice is None only
    when both are empty.
    """
    n_g, n_p = gt.index.size, pred.index.size
    voxel_dice = dice_counts(int(ov.inter.sum()), n_g, n_p) if n_g + n_p else None
    voxel_hd95 = assd_mm = None
    if n_g > 0 and n_p > 0:
        d_gp, d_pg = distances.gt.dist, distances.pred.dist
        voxel_hd95 = _hd95_one(d_gp, d_pg, hd95_variant)
        assd_mm = float(np.concatenate([d_gp, d_pg]).mean())
    return ImageMetrics(voxel_dice, voxel_hd95, assd_mm, n_g, n_p)
