from dataclasses import astuple

import numpy as np
import pytest

from conftest import mask_from_voxels, random_blob_mask
from lesioneval.components import find_connected_components
from lesioneval.errors import EmptySet
from lesioneval.matching import match_lesions
from lesioneval.metrics import (
    assd,
    compute_image_metrics,
    compute_instance_metrics,
    compute_lesion_metrics,
    hd95,
    surface_voxels,
)
from lesioneval.volume import Volume
from oracles import brute_surface, brute_surface_distances, whole_grid_image_metrics

SQUARE = {(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)}
SQUARE_SHIFTED = {(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)}


def _arr(voxels):
    return np.array(sorted(voxels), dtype=int)


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
    return compute_image_metrics(
        find_connected_components(a, connectivity),
        find_connected_components(b, connectivity),
        variant,
        spacing,
    )


def _image_dice(a, b, dims=(8, 8, 8)):
    return _image_metrics(mask_from_voxels(a, dims), mask_from_voxels(b, dims)).voxel_dice


def test_dice_basics():
    assert _image_dice(SQUARE, SQUARE) == 1.0
    assert _image_dice(SQUARE, {(5, 5, 5)}) == 0.0
    assert _image_dice(SQUARE, SQUARE_SHIFTED) == 0.5
    assert _image_dice(set(), set()) is None
    assert _image_dice(SQUARE, set()) == 0.0
    sq, shifted = _lesions(SQUARE), _lesions(SQUARE_SHIFTED)
    assert compute_lesion_metrics(sq, sq, 1, 1, (1, 1, 1)).dice == 1.0
    assert compute_lesion_metrics(sq, shifted, 1, 1, (1, 1, 1)).dice == 0.5


def test_dice_symmetry(rng):
    for _ in range(10):
        a = random_blob_mask(rng, (10, 10, 10), 0.2)
        b = random_blob_mask(rng, (10, 10, 10), 0.2)
        ab, ba = _image_metrics(a, b), _image_metrics(b, a)
        assert ab.voxel_dice == ba.voxel_dice
        la, lb = find_connected_components(a), find_connected_components(b)
        for g, p, _ in match_lesions(la, lb, 0.0).matches:
            ab = compute_lesion_metrics(la, lb, g, p, (1, 1, 1))
            ba = compute_lesion_metrics(lb, la, p, g, (1, 1, 1))
            assert (ab.dice, ab.iou, ab.hd95_mm) == (ba.dice, ba.iou, ba.hd95_mm)


def test_surface_single_voxel():
    s = surface_voxels(np.array([[2, 2, 2]]))
    assert s.tolist() == [[2, 2, 2]]


def test_surface_cube_shell():
    cube = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]
    s = surface_voxels(_arr(cube))
    assert len(s) == 26
    assert (2, 2, 2) not in set(map(tuple, s))


def test_surface_rod_all_voxels():
    rod = [(0, 0, z) for z in range(5)]
    s = surface_voxels(_arr(rod))
    assert sorted(map(tuple, s)) == sorted(rod)


def test_surface_empty_raises():
    with pytest.raises(EmptySet):
        surface_voxels(np.empty((0, 3), dtype=int))


def test_hd95_identity():
    a = _arr(SQUARE)
    assert hd95(a, a, (1, 1, 1)) == 0.0
    assert assd(a, a, (1, 1, 1)) == 0.0


def test_hd95_two_voxels():
    a = np.array([[0, 0, 0]])
    b = np.array([[3, 0, 0]])
    assert hd95(a, b, (1, 1, 1)) == pytest.approx(3.0)
    assert hd95(a, b, (2, 1, 1)) == pytest.approx(6.0)
    assert assd(a, b, (1, 1, 1)) == pytest.approx(3.0)


def test_hd95_empty_raises():
    with pytest.raises(EmptySet):
        hd95(np.array([[0, 0, 0]]), np.empty((0, 3), dtype=int), (1, 1, 1))


def test_distance_symmetry_and_oracle(rng):
    for _ in range(8):
        a = _blob_voxels(rng, (9, 9, 9), 0.25)
        b = _blob_voxels(rng, (9, 9, 9), 0.25)
        spacing = tuple(rng.uniform(0.5, 2.0, 3))
        for variant in ("pooled", "max-of-directed"):
            assert hd95(a, b, spacing, variant) == pytest.approx(
                hd95(b, a, spacing, variant), abs=1e-12
            )
        o_pooled, o_maxdir, o_assd = brute_surface_distances(
            {tuple(v) for v in a}, {tuple(v) for v in b}, spacing
        )
        assert hd95(a, b, spacing, "pooled") == pytest.approx(o_pooled, abs=1e-9)
        assert hd95(a, b, spacing, "max-of-directed") == pytest.approx(
            o_maxdir, abs=1e-9
        )
        assert assd(a, b, spacing) == pytest.approx(o_assd, abs=1e-9)


def test_surface_matches_brute(rng):
    for _ in range(5):
        vox = _blob_voxels(rng, (10, 10, 10), 0.3)
        got = sorted(map(tuple, surface_voxels(vox)))
        want = sorted(brute_surface({tuple(v) for v in vox}))
        assert got == want


def test_translation_covariance(rng):
    a = _blob_voxels(rng, (8, 8, 8), 0.3)
    b = _blob_voxels(rng, (8, 8, 8), 0.3)
    off = np.array([5, 7, 3])
    sp = (1.0, 1.3, 0.8)
    assert hd95(a, b, sp) == pytest.approx(hd95(a + off, b + off, sp), abs=1e-12)
    assert assd(a, b, sp) == pytest.approx(assd(a + off, b + off, sp), abs=1e-12)


def test_spacing_scaling(rng):
    a = _blob_voxels(rng, (8, 8, 8), 0.3)
    b = _blob_voxels(rng, (8, 8, 8), 0.3)
    base = np.array([1.0, 1.3, 0.8])
    for s in (2.0, 0.25):
        assert hd95(a, b, tuple(base * s)) == pytest.approx(
            s * hd95(a, b, tuple(base)), rel=1e-12
        )
        assert assd(a, b, tuple(base * s)) == pytest.approx(
            s * assd(a, b, tuple(base)), rel=1e-12
        )


def test_lesion_pair_identical():
    g = _lesions(SQUARE)
    m = compute_lesion_metrics(g, g, 1, 1, (1, 1, 1))
    assert m.dice == 1.0 and m.hd95_mm == 0.0
    assert m.volume_error_rel == 0.0 and m.size_ratio == 1.0


def test_lesion_pair_shifted_square():
    g, p = _lesions(SQUARE), _lesions(SQUARE_SHIFTED)
    m = compute_lesion_metrics(g, p, 1, 1, (1, 1, 1))
    assert m.dice == 0.5
    assert m.iou == pytest.approx(1 / 3)
    assert m.size_ratio == 1.0 and m.volume_error_rel == 0.0


def test_lesion_pair_nested_cubes():
    inner = [(x, y, z) for x in range(1, 4) for y in range(1, 4) for z in range(1, 4)]
    outer = [(x, y, z) for x in range(5) for y in range(5) for z in range(5)]
    m = compute_lesion_metrics(_lesions(inner), _lesions(outer), 1, 1, (1, 1, 1))
    assert m.size_ratio == pytest.approx(125 / 27)
    assert m.dice == pytest.approx(2 * 27 / 152)


def test_dice_iou_identity(rng):
    for _ in range(10):
        gt = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        pred = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        mset = match_lesions(gt, pred, 0.1)
        for g, p, _ in mset.matches:
            m = compute_lesion_metrics(gt, pred, g, p, (1, 1, 1))
            assert abs(m.dice - 2 * m.iou / (1 + m.iou)) < 1e-12


def test_instance_metrics_arithmetic():
    from lesioneval.metrics import detection_rates

    assert detection_rates(3, 1, 2) == (0.75, 0.6, pytest.approx(2 / 3))
    assert detection_rates(0, 0, 0) == (None, None, None)
    p, r, f1 = detection_rates(0, 2, 0)
    assert p == 0.0 and r is None and f1 is None


def test_instance_metrics_from_matchset():
    gt = find_connected_components(
        mask_from_voxels(SQUARE | {(6, 6, 0)}, (8, 8, 2))
    )
    pred = find_connected_components(mask_from_voxels(SQUARE, (8, 8, 2)))
    m = match_lesions(gt, pred, 0.35)
    counts = compute_instance_metrics(gt, pred, m)
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)
    assert counts.precision == 1.0 and counts.recall == 0.5


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
    gt_ls = find_connected_components(gt)
    pred_ls = find_connected_components(pred)
    m = match_lesions(gt_ls, pred_ls, 0.35)
    counts = compute_instance_metrics(gt_ls, pred_ls, m)
    assert counts.recall == pytest.approx(1 / 6)


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


def test_evaluate_pair_builds_no_label_map(rng, monkeypatch):
    # the evaluate path works from the foreground voxels; the dense label
    # map is only for callers that ask for it
    from lesioneval.components import LesionSet
    from lesioneval.pipeline import RunConfig, evaluate_pair

    gt = random_blob_mask(rng, (14, 14, 14), 0.25)
    pred = random_blob_mask(rng, (14, 14, 14), 0.25)
    expected = evaluate_pair("s", gt, pred, RunConfig(tau=0.1))

    def refuse(self):
        raise AssertionError("label_map built on the evaluate path")

    monkeypatch.setattr(LesionSet, "label_map", property(refuse))
    got = evaluate_pair("s", gt, pred, RunConfig(tau=0.1))
    assert got == expected
    assert got.pairs
