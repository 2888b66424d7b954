import math
import sys
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import lesioneval.matching
import lesioneval.metrics
import lesioneval.pipeline
from conftest import (
    columns_equal,
    lesion_voxel_sets,
    mask_from_voxels,
    random_blob_mask,
    rows_of,
)
from lesioneval.components import find_connected_components
from lesioneval.matching import match_lesions, overlap
from lesioneval.metrics import (
    _BOX,
    _hd95_one,
    _p95,
    _padded_keys,
    compute_image_metrics,
    compute_lesion_metrics,
    surface_distances,
)
from lesioneval.pipeline import RunConfig, evaluate_pair
from lesioneval.report import _dump_json, _sample_payload
from lesioneval.volume import Foreground, Volume
from oracles import brute_surface, brute_surface_distances, whole_grid_image_metrics

SQUARE = {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
SQUARE_SHIFTED = {(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)}


def _lesions(voxels, dims=(12, 12, 12)):
    return find_connected_components(mask_from_voxels(voxels, dims))


def _blob_voxels(rng, dims, density):
    v = random_blob_mask(rng, dims, density)
    vox = np.argwhere(v.data != 0)
    if len(vox) == 0:
        vox = np.array([[0, 0, 0]])
    return vox


def _image_metrics(a, b, connectivity=6, variant="pooled", spacing=(1, 1, 1)):
    """Image metrics of two masks (Volumes) via their lesion sets."""
    la = find_connected_components(a, connectivity)
    lb = find_connected_components(b, connectivity)
    dists = surface_distances(la, lb, spacing)
    return compute_image_metrics(la, lb, overlap(la, lb), variant, dists)


def _pair_metrics(gt, pred, g, p, spacing=(1, 1, 1), variant="pooled"):
    """compute_lesion_metrics of one pair, with the two masks' distances."""
    dists = surface_distances(gt, pred, spacing)
    ov = overlap(gt, pred)
    (m,) = rows_of(compute_lesion_metrics(gt, pred, ov, [(g, p, 0.0)], dists, variant))
    return m


def _image_dice(a, b, dims=(8, 8, 8)):
    return _image_metrics(mask_from_voxels(a, dims), mask_from_voxels(b, dims)).voxel_dice


def test_dice_basics():
    assert _image_dice(SQUARE, SQUARE) == 1.0
    assert _image_dice(SQUARE, {(5, 5, 5)}) == 0.0
    assert _image_dice(SQUARE, SQUARE_SHIFTED) == 0.5
    assert _image_dice(set(), set()) is None
    assert _image_dice(SQUARE, set()) == 0.0
    sq, shifted = _lesions(SQUARE), _lesions(SQUARE_SHIFTED)
    assert _pair_metrics(sq, sq, 1, 1).dice == 1.0
    assert _pair_metrics(sq, shifted, 1, 1).dice == 0.5


def test_dice_symmetry(rng):
    for _ in range(10):
        a = random_blob_mask(rng, (10, 10, 10), 0.2)
        b = random_blob_mask(rng, (10, 10, 10), 0.2)
        ab, ba = _image_metrics(a, b), _image_metrics(b, a)
        assert ab.voxel_dice == ba.voxel_dice
        la, lb = find_connected_components(a), find_connected_components(b)
        for g, p, _ in match_lesions(la, lb, overlap(la, lb), 0.0):
            ab = _pair_metrics(la, lb, g, p)
            ba = _pair_metrics(lb, la, p, g)
            assert (ab.dice, ab.iou, ab.hd95_mm) == (ba.dice, ba.iou, ba.hd95_mm)


def _surface(voxels, dims=(12, 12, 12)):
    """The labeller's surface voxels of a mask, as sorted (x, y, z) tuples."""
    ls = _lesions(voxels, dims)
    return sorted(map(tuple, ls.coords(np.flatnonzero(ls.surface)).tolist()))


def _hd95_assd(a, b, spacing, variant="pooled", dims=(12, 12, 12)):
    """Image (HD95, ASSD) of two voxel sets on one grid, at ``spacing``."""
    im = _image_metrics(
        mask_from_voxels(a, dims), mask_from_voxels(b, dims), variant=variant,
        spacing=spacing,
    )
    return im.voxel_hd95_mm, im.assd_mm


def test_surface_single_voxel():
    assert _surface([(2, 2, 2)]) == [(2, 2, 2)]


def test_surface_cube_shell():
    cube = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]
    s = _surface(cube)
    assert len(s) == 26
    assert (2, 2, 2) not in s


def test_surface_rod_all_voxels():
    rod = [(0, 0, z) for z in range(5)]
    assert _surface(rod) == sorted(rod)


def test_hd95_identity():
    assert _hd95_assd(SQUARE, SQUARE, (1, 1, 1)) == (0.0, 0.0)


def test_hd95_two_voxels():
    a, b = [(0, 0, 0)], [(3, 0, 0)]
    assert _hd95_assd(a, b, (1, 1, 1)) == (pytest.approx(3.0), pytest.approx(3.0))
    assert _hd95_assd(a, b, (2, 1, 1))[0] == pytest.approx(6.0)


def test_distance_symmetry_and_oracle(rng):
    for _ in range(8):
        a = _blob_voxels(rng, (9, 9, 9), 0.25)
        b = _blob_voxels(rng, (9, 9, 9), 0.25)
        spacing = tuple(rng.uniform(0.5, 2.0, 3))
        for variant in ("pooled", "max-of-directed"):
            assert _hd95_assd(a, b, spacing, variant) == pytest.approx(
                _hd95_assd(b, a, spacing, variant), abs=1e-12
            )
        o_pooled, o_maxdir, o_assd = brute_surface_distances(
            {tuple(v) for v in a}, {tuple(v) for v in b}, spacing
        )
        hd, mean = _hd95_assd(a, b, spacing, "pooled")
        assert hd == pytest.approx(o_pooled, abs=1e-9)
        assert mean == pytest.approx(o_assd, abs=1e-9)
        hd, _ = _hd95_assd(a, b, spacing, "max-of-directed")
        assert hd == pytest.approx(o_maxdir, abs=1e-9)


def test_surface_matches_brute(rng):
    for _ in range(5):
        vox = _blob_voxels(rng, (10, 10, 10), 0.3)
        want = sorted(brute_surface({tuple(v) for v in vox}))
        assert _surface(vox, (10, 10, 10)) == want


def test_translation_covariance(rng):
    a = _blob_voxels(rng, (8, 8, 8), 0.3)
    b = _blob_voxels(rng, (8, 8, 8), 0.3)
    off = np.array([5, 7, 3])
    sp = (1.0, 1.3, 0.8)
    assert _hd95_assd(a, b, sp, dims=(16, 16, 16)) == pytest.approx(
        _hd95_assd(a + off, b + off, sp, dims=(16, 16, 16)), abs=1e-12
    )


def test_spacing_scaling(rng):
    a = _blob_voxels(rng, (8, 8, 8), 0.3)
    b = _blob_voxels(rng, (8, 8, 8), 0.3)
    base = np.array([1.0, 1.3, 0.8])
    hd, mean = _hd95_assd(a, b, tuple(base))
    for s in (2.0, 0.25):
        assert _hd95_assd(a, b, tuple(base * s)) == pytest.approx(
            (s * hd, s * mean), rel=1e-12
        )


def test_lesion_pair_identical():
    g = _lesions(SQUARE)
    m = _pair_metrics(g, g, 1, 1)
    assert m.dice == 1.0 and m.hd95_mm == 0.0
    assert m.volume_error_rel == 0.0 and m.size_ratio == 1.0


def test_lesion_pair_shifted_square():
    g, p = _lesions(SQUARE), _lesions(SQUARE_SHIFTED)
    m = _pair_metrics(g, p, 1, 1)
    assert m.dice == 0.5
    assert m.iou == pytest.approx(1 / 3)
    assert m.size_ratio == 1.0 and m.volume_error_rel == 0.0


def test_lesion_pair_nested_cubes():
    inner = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]
    outer = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]
    m = _pair_metrics(_lesions(inner), _lesions(outer), 1, 1)
    assert m.size_ratio == pytest.approx(125 / 27)
    assert m.dice == pytest.approx(2 * 27 / 152)


def test_dice_iou_identity(rng):
    for _ in range(10):
        gt = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        pred = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        for g, p, _ in match_lesions(gt, pred, overlap(gt, pred), 0.1):
            m = _pair_metrics(gt, pred, g, p)
            assert abs(m.dice - 2 * m.iou / (1 + m.iou)) < 1e-12


def test_instance_metrics_arithmetic():
    from lesioneval.stratify import detection_rates

    assert detection_rates(3, 1, 2) == (0.75, 0.6, pytest.approx(2 / 3))
    assert detection_rates(0, 0, 0) == (None, None, None)
    p, r, f1 = detection_rates(0, 2, 0)
    assert p == 0.0 and r is None and f1 is None


def test_detection_counts_from_the_lesion_table():
    gt = mask_from_voxels(SQUARE | {(6, 6, 0)}, (8, 8, 2))
    pred = mask_from_voxels(SQUARE | {(0, 6, 0)}, (8, 8, 2))
    s = evaluate_pair("x", gt, pred, RunConfig(tau=0.35))
    assert s.records.status.tolist() == ["TP", "FN", "FP"]
    counts = s.detection
    assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)
    assert counts.precision == 0.5 and counts.recall == 0.5


def test_image_metrics_identity():
    v = random_blob_mask(np.random.default_rng(0), (12, 12, 12), 0.2)
    im = _image_metrics(v, v)
    assert im.voxel_dice == 1.0 and im.voxel_hd95_mm == 0.0 and im.assd_mm == 0.0


def test_image_metrics_divergence_case():
    # one perfectly segmented 1000-voxel lesion, five missed 10-voxel lesions:
    # voxel Dice stays high while lesion recall collapses
    arr = np.zeros((40, 40, 40), dtype=np.uint8)
    arr[0:10, 0:10, 0:10] = 1  # 1000 voxels
    for i in range(5):
        x = 15 + 5 * i
        arr[x : x + 1, 0:5, 0:2] = 1  # 10 voxels each
    gt = Volume(arr, (1, 1, 1))
    pred_arr = np.zeros_like(arr)
    pred_arr[0:10, 0:10, 0:10] = 1
    pred = Volume(pred_arr, (1, 1, 1))

    im = _image_metrics(gt, pred)
    assert im.voxel_dice == pytest.approx(2000 / 2050)
    s = evaluate_pair("x", gt, pred, RunConfig(tau=0.35))
    assert s.detection.recall == pytest.approx(1 / 6)


def test_image_metrics_degenerate():
    empty = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    im = _image_metrics(empty, empty)
    assert im.voxel_dice is None and im.voxel_hd95_mm is None and im.assd_mm is None
    one = Volume(np.eye(4, dtype=np.uint8)[:, :, None] * 0, (1, 1, 1))
    one.data[0, 0, 0] = 1
    im2 = _image_metrics(one, empty)
    assert im2.voxel_dice == 0.0 and im2.voxel_hd95_mm is None


def _faces_touched(rng, arr):
    """OR a sparse random pattern into all six faces of the grid."""
    for axis in range(3):
        for end in (0, -1):
            face = np.moveaxis(arr, axis, 0)[end]
            face |= (rng.random(face.shape) < 0.3).astype(arr.dtype)


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("dims", [(12, 12, 12), (30, 20, 8), (16, 16, 1)])
def test_image_metrics_match_whole_grid(rng, connectivity, dims):
    # the box-based image metrics must equal whole-grid erosion exactly
    for trial in range(15):
        density = rng.uniform(0.02, 0.6)
        masks = [random_blob_mask(rng, dims, density) for _ in range(2)]
        if trial % 2:
            for m in masks:
                _faces_touched(rng, m.data)
        if trial < 3:  # empty GT, empty prediction, both empty
            for i in {0: [0], 1: [1], 2: [0, 1]}[trial]:
                masks[i].data[:] = 0
        spacing = tuple(rng.uniform(0.4, 3.0, 3))
        for variant in ("pooled", "max-of-directed"):
            got = _image_metrics(*masks, connectivity, variant, spacing)
            want = whole_grid_image_metrics(
                masks[0].data, masks[1].data, variant, spacing
            )
            assert astuple(got) == want


def _report(s, config) -> str:
    """The sample JSON text: the payload's tables compare by identity, their text by value."""
    return _dump_json(_sample_payload(s, config))


def test_evaluate_pair_builds_no_label_map(rng, monkeypatch):
    # the evaluate path works from the foreground voxels; the dense label
    # map is only for callers that ask for it
    from lesioneval.components import LesionSet
    from lesioneval.pipeline import RunConfig, evaluate_pair

    gt = random_blob_mask(rng, (14, 14, 14), 0.25)
    pred = random_blob_mask(rng, (14, 14, 14), 0.25)
    config = RunConfig(tau=0.1)
    expected = evaluate_pair("s", gt, pred, config)

    def refuse(self):
        raise AssertionError("label_map built on the evaluate path")

    monkeypatch.setattr(LesionSet, "label_map", property(refuse))
    got = evaluate_pair("s", gt, pred, config)
    assert _report(got, config) == _report(expected, config)
    assert got.pairs


def test_evaluate_pair_intersects_the_foregrounds_once(rng, monkeypatch):
    # one overlap table per sample serves the candidates, the pair overlaps
    # and the image Dice; the other intersection is of the two surfaces
    gt = random_blob_mask(rng, (14, 14, 14), 0.25)
    pred = random_blob_mask(rng, (14, 14, 14), 0.25)
    config = RunConfig(tau=0.1)
    expected = evaluate_pair("s", gt, pred, config)
    labelled, calls = [], []
    label = lesioneval.pipeline.find_connected_components

    def recorded_label(*args):
        labelled.append(label(*args))
        return labelled[-1]

    def recorded(a, b):
        calls.append({id(a), id(b)})
        return tuple(np.intersect1d(a, b, assume_unique=True, return_indices=True)[1:])

    monkeypatch.setattr(lesioneval.pipeline, "find_connected_components", recorded_label)
    for module in (lesioneval.matching, lesioneval.metrics):
        monkeypatch.setattr(module, "intersect_sorted", recorded)
    got = evaluate_pair("s", gt, pred, config)
    assert _report(got, config) == _report(expected, config)
    assert got.pairs
    g, p = labelled
    assert calls.count({id(g.index), id(p.index)}) == 1
    assert len(calls) == 2


@pytest.mark.parametrize(
    "matches",
    [
        [(1, 1, 0.0), (1, 2, 0.0)],  # GT lesion 1 twice
        [(1, 1, 0.0), (2, 1, 0.0)],  # predicted lesion 1 twice
        [(1, 1, 0.0), (1, 1, 0.0)],  # one pair twice
        [(0, 1, 0.0)],  # no lesion 0; it used to read as the last one
        [(-1, 1, 0.0)],
        [(3, 1, 0.0)],
        [(1, 3, 0.0)],
    ],
)
def test_lesion_metrics_reject_matches_not_one_to_one(matches):
    # such lists used to give numbers that only looked valid: a Dice of 0
    # for a pair that shares half its voxels, two rows for one pair, or a
    # row for a lesion that does not exist
    dims = (10, 10, 10)
    gt = find_connected_components(
        mask_from_voxels([(0, 0, 0), (1, 0, 0), (5, 5, 5), (6, 5, 5)], dims)
    )
    pred = find_connected_components(
        mask_from_voxels([(1, 0, 0), (2, 0, 0), (5, 5, 5)], dims)
    )
    ov, dists = overlap(gt, pred), surface_distances(gt, pred, (1, 1, 1))
    (m,) = rows_of(compute_lesion_metrics(gt, pred, ov, [(1, 1, 0.0)], dists))
    assert m.dice == 0.5
    with pytest.raises(ValueError):
        compute_lesion_metrics(gt, pred, ov, matches, dists)


@pytest.fixture
def kd_trees(monkeypatch):
    """Names, per kd-tree ``lesioneval.metrics`` builds, the function that asked.

    ``_nearest_surface`` asks for a mask-wide tree, ``_partner_distances``
    for one over a single partner lesion.
    """
    built = []

    class Counting(lesioneval.metrics.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(sys._getframe(2).f_code.co_name)  # the caller of _nearest
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(lesioneval.metrics, "cKDTree", Counting)
    return built


def _boxes(dims, *boxes):
    arr = np.zeros(dims, np.uint8)
    for box in boxes:
        arr[box] = 1
    return arr


def _pair_hd95_is_brute(gt, pred, connectivity, rng):
    """Every pair HD95 of ``evaluate_pair`` == the oracle on that pair alone.

    Runs both variants at one random anisotropic spacing; returns the pair count.
    """
    spacing = tuple(rng.uniform(0.4, 3.0, 3))
    gt, pred = Volume(gt, spacing), Volume(pred, spacing)
    gs = lesion_voxel_sets(find_connected_components(gt, connectivity))
    ps = lesion_voxel_sets(find_connected_components(pred, connectivity))
    n = 0
    for variant in ("pooled", "max-of-directed"):
        config = RunConfig(tau=0.0, connectivity=connectivity, hd95_variant=variant)
        for m in rows_of(evaluate_pair("s", gt, pred, config).pairs):
            pooled, maxdir, _ = brute_surface_distances(
                set(gs[m.gt_id - 1]), set(ps[m.pred_id - 1]), spacing
            )
            assert m.hd95_mm == (pooled if variant == "pooled" else maxdir)
            n += 1
    return n


def test_pair_hd95_exact_when_prediction_merges(rng, kd_trees):
    # one predicted box covers two GT cubes: the pair takes the larger cube,
    # and the predicted voxels over the other cube are nearest to that one
    s = np.s_
    gt = _boxes((12, 8, 8), s[1:5, 1:5, 1:5], s[6:9, 1:5, 1:5])
    pred = _boxes((12, 8, 8), s[1:9, 1:5, 1:5])
    assert _pair_hd95_is_brute(gt, pred, 6, rng) == 2
    assert "_partner_distances" in kd_trees  # the partner-only query ran


def test_pair_hd95_exact_when_third_lesion_is_closer(rng, kd_trees):
    # predicted lesion q touches the GT cube's left face; its partner p
    # overlaps the right part, so the left face is nearest to q
    s = np.s_
    gt = _boxes((12, 9, 9), s[3:8, 2:7, 2:7])
    pred = _boxes((12, 9, 9), s[5:10, 2:7, 2:7], s[0:3, 3:6, 3:6])
    assert _pair_hd95_is_brute(gt, pred, 6, rng) == 2
    assert "_partner_distances" in kd_trees


@pytest.mark.parametrize(
    "connectivity, touching",
    [(18, np.s_[4:8, 4:8, 1:4]), (26, np.s_[4:8, 4:8, 4:8])],
    ids=["edge-18", "corner-26"],
)
def test_pair_hd95_exact_for_diagonal_neighbours(
    rng, kd_trees, connectivity, touching
):
    # GT: a cube and a box that touch only along an edge or at a corner, one
    # lesion at this connectivity; the prediction splits them apart, so part
    # of the GT lesion is nearest to the predicted lesion it is not paired with
    s = np.s_
    gt = _boxes((10, 10, 10), s[1:4, 1:4, 1:4], touching)
    moved = tuple(slice(sl.start + (i == 0), sl.stop) for i, sl in enumerate(touching))
    pred = _boxes((10, 10, 10), s[1:4, 1:4, 1:4], moved)
    assert len(find_connected_components(Volume(gt, (1, 1, 1)), connectivity)) == 1
    assert _pair_hd95_is_brute(gt, pred, connectivity, rng) == 2
    assert "_partner_distances" in kd_trees
    assert _pair_hd95_is_brute(gt, pred, 6, rng) > 0


def test_pair_hd95_exact_on_random_blobs(rng):
    n = 0
    for trial in range(12):
        dims = (14, 12, 10)
        gt, pred = (
            random_blob_mask(rng, dims, rng.uniform(0.1, 0.35)).data for _ in range(2)
        )
        n += _pair_hd95_is_brute(gt, pred, (6, 18, 26)[trial % 3], rng)
    assert n > 30


@pytest.mark.parametrize("per_axis", [2, 5])
def test_evaluate_pair_builds_no_tree_per_pair(kd_trees, monkeypatch, per_axis):
    # separated cubes, the prediction one voxel off: every surface voxel's
    # nearest voxel lies in its partner, so no pair needs its own tree
    n = 6 * per_axis + 2
    gt, pred = np.zeros((n, n, 8), np.uint8), np.zeros((n, n, 8), np.uint8)
    for x in range(per_axis):
        for y in range(per_axis):
            gt[6 * x + 1 : 6 * x + 4, 6 * y + 1 : 6 * y + 4, 2:5] = 1
            pred[6 * x + 2 : 6 * x + 5, 6 * y + 1 : 6 * y + 4, 2:5] = 1
    gt, pred = Volume(gt, (1, 1, 1)), Volume(pred, (1, 1, 1))
    config = RunConfig(tau=0.1)
    got = evaluate_pair("s", gt, pred, config)
    assert len(got.pairs) == per_axis**2
    assert kd_trees == []  # the ring search settles every voxel
    # without it, one tree per direction and still none per pair
    monkeypatch.setattr(lesioneval.metrics, "_shells", lambda sp: [])
    kd = evaluate_pair("s", gt, pred, config)
    assert _report(kd, config) == _report(got, config)
    assert kd_trees == ["_nearest_surface"] * 2


def _kd_only(src, dst, spacing):
    """Each ``src`` surface voxel's kd-tree distance to the ``dst`` surface."""
    sp = np.asarray(spacing, float)
    d_pos = np.flatnonzero(dst.surface)
    tree = cKDTree(dst.coords(d_pos) * sp)
    return tree.query(src.coords(np.flatnonzero(src.surface)) * sp)[0]


def _ring_is_kd(gt, pred, spacing):
    """``surface_distances`` == the kd-tree alone, both ways, by ``==``.

    Each voxel's ``near`` must name a lesion at exactly that distance; at a
    tie it may differ from the tree's.
    """
    got = surface_distances(gt, pred, spacing)
    sp = np.asarray(spacing, float)
    for src, dst, ns in ((gt, pred, got.gt), (pred, gt, got.pred)):
        assert ns.dist.tolist() == _kd_only(src, dst, spacing).tolist()
        for lesion in np.unique(ns.near).tolist():
            rows = ns.near == lesion
            t = np.flatnonzero((dst.label == lesion) & dst.surface)
            d = cKDTree(dst.coords(t) * sp).query(src.coords(ns.pos[rows]) * sp)[0]
            assert d.tolist() == ns.dist[rows].tolist()


# the default block, and blocks that split every mask of these tests, mid-shell
_BLOCKS = (lesioneval.metrics._BLOCK, 1, 7)


_spacings = st.one_of(
    st.just((1.0, 1.0, 1.0)),  # voxel units
    st.floats(0.05, 20).map(lambda s: (s, s, s)),
    # offsets of equal length whose float lengths differ in the last bits
    st.sampled_from([(0.1,) * 3, (0.7,) * 3, (0.3, 0.4, 0.5), (0.6, 0.8, 1.0)]),
    st.tuples(*[st.floats(0.3, 3.0)] * 3),
    st.tuples(*[st.floats(1e-3, 250.0)] * 3),  # ratios up to 250,000
)


def _first_shells_as_one(m):
    """``_shells`` with its first ``m + 1`` shells probed as one.

    Still a valid table, whose first shell reaches the far bounds that the
    stop rule seldom lets random masks reach.
    """
    original = lesioneval.metrics._shells

    def shells(sp):
        table = original(sp)
        last = min(m, len(table) - 1)
        head = np.concatenate([off for off, _ in table[: last + 1]])
        return [(head, table[last][1])] + table[last + 1 :]

    return shells


def _lesions_at(voxels, dims, spacing, connectivity=6):
    """The lesion set of ``voxels`` ([x, y, z] rows) in a grid of ``dims``."""
    index = np.sort(np.ravel_multi_index(np.asarray(voxels).T, dims, order="F"))
    return find_connected_components(Foreground(index, dims, spacing), connectivity)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 14), st.integers(1, 14), st.integers(1, 9)),
    st.tuples(*[st.one_of(st.just(0), st.integers(0, 100_000))] * 3),
    st.floats(0.005, 0.6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([6, 26]),
    _spacings,
    st.integers(0, 40),
)
def test_ring_search_equals_kd_tree(box, origin, density, seed, connectivity, spacing, m):
    # iid voxels in a box at ``origin`` of a grid that ends at the box (nz may
    # be 1): many small lesions, ties, voxels far from the other mask, and
    # mm coordinates large enough for rounding to matter
    rng = np.random.default_rng(seed)
    dims = tuple(b + o for b, o in zip(box, origin))
    vox = [np.argwhere(rng.random(box) < density) + origin for _ in range(2)]
    gt, pred = (_lesions_at(v, dims, spacing, connectivity) for v in vox)
    if len(gt) and len(pred):
        for block in _BLOCKS:
            with mock.patch.object(lesioneval.metrics, "_BLOCK", block):
                _ring_is_kd(gt, pred, spacing)
                with mock.patch.object(lesioneval.metrics, "_shells", _first_shells_as_one(m)):
                    _ring_is_kd(gt, pred, spacing)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    st.tuples(*[st.one_of(st.just(0), st.integers(0, 100_000))] * 3),
    st.integers(0, 2**32 - 1),
)
@example((1, 5, 4), (0, 3, 2), 0)  # nx = 1: every voxel starts a row
@example((4, 1, 5), (2, 0, 100_000), 1)  # ny = 1: every row starts a slice
def test_padded_keys_are_the_coordinates_keys(box, origin, seed):
    # the keys taken from the linear index == those of the unravelled
    # coordinates, on grids that end at a box placed at ``origin``
    rng = np.random.default_rng(seed)
    dims = tuple(b + o for b, o in zip(box, origin))
    vox = np.argwhere(rng.random(box) < 0.5) + origin
    if len(vox):
        ls = _lesions_at(vox, dims, (1.0, 1.0, 1.0))
        pos = np.flatnonzero(rng.random(ls.index.size) < 0.7)
        step = np.array([1, dims[0] + 2 * _BOX, (dims[0] + 2 * _BOX) * (dims[1] + 2 * _BOX)])
        assert _padded_keys(ls, pos).tolist() == ((ls.coords(pos) + _BOX) @ step).tolist()


def test_ring_margin_grows_with_the_coordinates():
    # offsets (2, 1, -1) and (-1, 1, 2) are equally long, but at 0.3 mm
    # their float lengths differ in the last bit, so they fall in two
    # shells. About 29 m from the origin, rounding of the mm coordinates
    # makes the second 1.5e-12 mm nearer than the first: a margin of a few
    # ulps of the distance, or none, certifies the first
    dims, sp = (95661, 27419, 88197), (0.3, 0.3, 0.3)
    p = np.array([95656, 27417, 88194])
    ring, tree = p + (2, 1, -1), p + (-1, 1, 2)
    table = lesioneval.metrics._shells(sp)
    shell = [
        next(k for k, (off, _) in enumerate(table) if list(o) in off.tolist())
        for o in (ring - p, tree - p)
    ]
    assert shell[0] < shell[1]
    gt, pred = _lesions_at([p], dims, sp), _lesions_at([ring, tree], dims, sp)
    with mock.patch.object(lesioneval.metrics, "_shells", _first_shells_as_one(shell[0])):
        _ring_is_kd(gt, pred, sp)


def _surface_distances_with_ratio(gt, pred, spacing, ratio):
    with mock.patch.object(lesioneval.metrics, "_BITSET_RATIO", ratio):
        return surface_distances(gt, pred, spacing)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 14), st.integers(1, 14), st.integers(1, 9)),
    st.tuples(*[st.integers(0, 30)] * 3),
    st.tuples(st.floats(0.005, 0.6), st.floats(0.005, 0.6)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([6, 26]),
    _spacings,
)
def test_bitset_and_binary_search_agree(box, origin, density, seed, connectivity, spacing):
    # the same probes tested by the bitset, by binary search, and with the
    # GT and the prediction each in the other arm: equal results, bit for bit
    rng = np.random.default_rng(seed)
    dims = tuple(b + o for b, o in zip(box, origin))
    vox = [np.argwhere(rng.random(box) < d) + origin for d in density]
    gt, pred = (_lesions_at(v, dims, spacing, connectivity) for v in vox)
    if len(gt) and len(pred):
        bitset_bytes = (math.prod(d + 2 * _BOX for d in dims) + 7) // 8
        # between the two masks' bytes of bitset per byte of keys (4 a key):
        # the denser mask's bitset is built and the sparser one's is not
        split = bitset_bytes / (4 * math.sqrt(gt.surface.sum() * pred.surface.sum()))
        built = []
        with mock.patch.object(lesioneval.metrics, "_bitset", _bitset_spy(built)):
            got = [_surface_distances_with_ratio(gt, pred, spacing, r) for r in (0, 2**40, split)]
        if len(built) == 6:  # no direction had every voxel on both surfaces
            mixed = [False, True] if gt.surface.sum() != pred.surface.sum() else built[4:]
            assert built[:4] == [False, False, True, True] and sorted(built[4:]) == mixed
        for d in got[1:]:
            for ns, want in ((d.gt, got[0].gt), (d.pred, got[0].pred)):
                assert ns.pos.tolist() == want.pos.tolist()
                assert ns.dist.tolist() == want.dist.tolist()
                assert ns.near.tolist() == want.near.tolist()


@pytest.mark.parametrize("dense", [True, False], ids=["dense-bitset", "far-sparse-binary"])
def test_bitset_follows_the_surface_density(dense):
    # a dense surface takes the bitset; a few voxels in the far corner of a
    # large grid take the binary search, and nothing grid-sized is made
    if dense:
        gt, pred = (
            find_connected_components(random_blob_mask(np.random.default_rng(s), (64,) * 3, 0.4))
            for s in (7, 8)
        )
    else:
        dims = (3000, 2000, 1000)
        corner = np.array(dims) - 6
        gt, pred = (
            _lesions_at(corner + np.argwhere(np.random.default_rng(s).random((6,) * 3) < 0.3),
                        dims, (1.0, 1.0, 1.0))
            for s in (7, 8)
        )
    built = []
    tracemalloc.start()
    try:
        with mock.patch.object(lesioneval.metrics, "_bitset", _bitset_spy(built)):
            surface_distances(gt, pred, (1.0, 1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [dense, dense]
    assert dense or peak < 2**20
    _ring_is_kd(gt, pred, (1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "shift, trees",
    [(1, []), (9, ["_nearest_surface"] * 2)],
    ids=["all-settled", "fallback"],
)
def test_ring_search_settles_or_falls_back(kd_trees, rng, shift, trees):
    # a cube moved one voxel in x and z is settled by the ring search alone;
    # moved 9 voxels in x it is beyond the box, so every voxel goes to the tree
    s = np.s_
    gt = _boxes((16, 8, 8), s[1:5, 1:5, 1:5])
    pred = _boxes((16, 8, 8), s[1 + shift : 5 + shift, 1:5, 2:6])
    spacing = (rng.uniform(0.5, 2.0),) * 3
    gt, pred = (find_connected_components(Volume(m, spacing)) for m in (gt, pred))
    for block in _BLOCKS:
        kd_trees.clear()
        with mock.patch.object(lesioneval.metrics, "_BLOCK", block):
            _ring_is_kd(gt, pred, spacing)
        assert kd_trees == trees


def _bitset_spy(built):
    """``_bitset`` that appends to ``built`` whether it built the bitset."""
    original = lesioneval.metrics._bitset

    def spy(key, shape):
        bits = original(key, shape)
        built.append(bits is not None)
        return bits

    return spy


def _masks_at_the_bitset_edge(d=128):
    """Scattered GT voxels on a ``d``³ grid, just enough of them for each
    bitset to be built, and a prediction of the same voxels moved one in x.

    Every voxel is on its mask's surface, and each is settled by the first
    shell, so the ring search runs no kd-tree.
    """
    bitset_bytes = ((d + 2 * _BOX) ** 3 + 7) // 8
    key_bytes = 4 * lesioneval.metrics._BITSET_RATIO  # an int32 key's share of the rule
    k = -(-bitset_bytes // key_bytes) + 50
    rng = np.random.default_rng(3)
    vox = np.column_stack(
        np.unravel_index(rng.choice((d - 1) * d * d, k, replace=False), (d - 1, d, d))
    )
    masks = [_lesions_at(v, (d,) * 3, (1.0, 1.0, 1.0)) for v in (vox, vox + (1, 0, 0))]
    for ls in masks:
        assert bitset_bytes <= key_bytes * int(ls.surface.sum()) < 1.01 * bitset_bytes
    return masks


@pytest.mark.parametrize(
    "spacing, at_the_edge",
    [((1.0, 1.0, 1.0), False), ((0.9, 1.1, 3.0), False),
     ((1.0, 1.0, 1.0), True), ((0.9, 1.1, 3.0), True)],
    ids=["spacing0", "spacing1", "bitset-edge-spacing0", "bitset-edge-spacing1"],
)
def test_surface_distances_memory_budget(spacing, at_the_edge):
    # the ring search probes in fixed blocks and unravels coordinates only
    # for its hits and the kd-tree, so its transient arrays follow the
    # surface, and its positions and keys are int32: the blob masks need
    # about 56 and 54 bytes a surface voxel. At the edge, each direction's
    # bitset is just inside the size rule, 16 bytes a voxel of the other
    # mask; built one direction at a time they need about 61 and 56 bytes a
    # voxel, and with both alive at once about 69 and 64
    if at_the_edge:
        gt, pred = _masks_at_the_bitset_edge()
    else:
        gt, pred = (
            find_connected_components(random_blob_mask(np.random.default_rng(s), (64,) * 3, 0.4))
            for s in (7, 8)
        )
    n = int(gt.surface.sum() + pred.surface.sum())
    assert at_the_edge or 120_000 < n < 170_000
    built = []
    tracemalloc.start()
    try:
        with mock.patch.object(lesioneval.metrics, "_bitset", _bitset_spy(built)):
            surface_distances(gt, pred, spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [True, True]
    assert peak < 64 * n


@pytest.mark.parametrize("variant", ["pooled", "max-of-directed"])
def test_lesion_metrics_memory_budget(variant):
    # the masks of the budget above, matched at tau 0: their two pairs hold
    # nearly every surface voxel, so every per-voxel array of the pair stage
    # (pair keys, distances, the grouped sort, the partners' kd-trees) is as
    # large as it gets; they need about 41 bytes a surface voxel
    gt, pred = (
        find_connected_components(random_blob_mask(np.random.default_rng(s), (64,) * 3, 0.4))
        for s in (7, 8)
    )
    n = int(gt.surface.sum() + pred.surface.sum())
    ov = overlap(gt, pred)
    matches = match_lesions(gt, pred, ov, tau=0.0)
    kept = sum(
        int(ls.surface[np.isin(ls.label, [m[i] for m in matches])].sum())
        for i, ls in enumerate((gt, pred))
    )
    assert kept > 0.9 * n
    d = surface_distances(gt, pred, (1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        compute_lesion_metrics(gt, pred, ov, matches, d, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * n


@pytest.mark.parametrize("variant", ["pooled", "max-of-directed"])
def test_image_metrics_memory_budget(variant):
    # the masks of the budgets above: the image metrics read the distances
    # in the order they come, so beyond the result they copy each float at
    # most twice (the pooled distances and their partition); they need
    # about 16 bytes a surface voxel pooled and 8 max-of-directed
    gt, pred = (
        find_connected_components(random_blob_mask(np.random.default_rng(s), (64,) * 3, 0.4))
        for s in (7, 8)
    )
    n = int(gt.surface.sum() + pred.surface.sum())
    ov = overlap(gt, pred)
    d = surface_distances(gt, pred, (1.0, 1.0, 1.0))
    tracemalloc.start()
    try:
        compute_image_metrics(gt, pred, ov, variant, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * n


# distances with many ties: a few repeated values mixed with arbitrary ones
_distances = st.one_of(
    st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=200)
@given(
    st.lists(st.lists(_distances, min_size=1, max_size=50), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_p95_is_numpy_percentile_bit_for_bit(groups, random):
    key = np.concatenate([np.full(len(g), k, np.intp) for k, g in enumerate(groups)])
    dist = np.concatenate([np.asarray(g, float) for g in groups])
    order = list(range(key.size))
    random.shuffle(order)  # the groups interleave in any order
    got = _p95(key[order], dist[order], len(groups))
    want = np.array([np.percentile(g, 95) for g in groups])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 30_000),
    st.integers(1, 30_000),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_hd95_one_is_numpy_percentile_bit_for_bit(n_ab, n_ba, tied, seed):
    # large single groups (the image HD95), a share ``tied`` of them on a
    # few repeated values, under both variants
    rng = np.random.default_rng(seed)

    def distances(n):
        d = rng.uniform(0, 50, n)
        ties = rng.random(n) < tied
        d[ties] = rng.choice([0.0, 1.0, np.sqrt(2), 2.0], ties.sum())
        return d

    d_ab, d_ba = distances(n_ab), distances(n_ba)
    want = {
        "pooled": np.percentile(np.concatenate([d_ab, d_ba]), 95),
        "max-of-directed": max(np.percentile(d_ab, 95), np.percentile(d_ba, 95)),
    }
    for variant, w in want.items():
        got = _hd95_one(d_ab, d_ba, variant)
        assert np.float64(got).view(np.int64) == np.float64(w).view(np.int64)


def test_lesion_metrics_independent_of_batch(rng):
    # one call for all pairs == the pairs in any order == each pair alone
    n = 0
    for trial in range(12):
        dims = (14, 12, 10)
        density = rng.uniform(0.1, 0.35)
        connectivity = (6, 18, 26)[trial % 3]
        gt, pred = (
            find_connected_components(random_blob_mask(rng, dims, density), connectivity)
            for _ in range(2)
        )
        dists = surface_distances(gt, pred, tuple(rng.uniform(0.4, 3.0, 3)))
        ov = overlap(gt, pred)
        matches = match_lesions(gt, pred, ov, 0.0)
        for variant in ("pooled", "max-of-directed"):
            whole = compute_lesion_metrics(gt, pred, ov, matches, dists, variant)
            assert whole.gt_id.tolist() == sorted(g for g, _, _ in matches)
            shuffled = [matches[i] for i in rng.permutation(len(matches))]
            assert columns_equal(
                compute_lesion_metrics(gt, pred, ov, shuffled, dists, variant), whole
            )
            alone = [
                rows_of(compute_lesion_metrics(gt, pred, ov, [m], dists, variant))
                for m in sorted(matches)
            ]
            assert all(len(a) == 1 for a in alone)
            assert [a[0] for a in alone] == rows_of(whole)
            n += len(whole)
    assert compute_lesion_metrics(gt, pred, ov, [], dists).rows() == []
    assert n > 30
