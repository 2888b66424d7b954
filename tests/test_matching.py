import numpy as np
import pytest

from conftest import (
    fn_fp_ids,
    lesion_boxes,
    lesion_voxel_sets,
    mask_from_voxels,
    random_blob_mask,
)
from lesioneval.components import find_connected_components
from lesioneval.matching import (
    generate_candidates,
    greedy_match,
    intersect_sorted,
    match_lesions,
    overlap,
)
from oracles import iou_table, naive_match

SQUARE = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
SQUARE_SHIFTED = [(1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)]  # +1 in x


def _extract(voxels, dims=(8, 8, 2)):
    return find_connected_components(mask_from_voxels(voxels, dims))


def test_intersect_sorted_equals_numpy(rng):
    for _ in range(500):
        a, b = (np.flatnonzero(rng.random(rng.integers(0, 40)) < rng.random()) for _ in "ab")
        want = np.intersect1d(a, b, assume_unique=True, return_indices=True)[1:]
        for got, ref in zip(intersect_sorted(a, b), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_candidate_iou_hand_cases():
    g = _extract(SQUARE)
    assert generate_candidates(g, g, overlap(g, g), tau=0.0) == [(1, 1, 1.0)]
    p = _extract(SQUARE_SHIFTED)
    ((gid, pid, iou),) = generate_candidates(g, p, overlap(g, p), tau=0.0)
    assert (gid, pid) == (1, 1) and iou == pytest.approx(1 / 3)
    # disjoint lesions have IoU 0, which is never above tau
    p = _extract([(5, 5, 0)])
    assert generate_candidates(g, p, overlap(g, p), tau=0.0) == []


def test_candidates_count_only_the_lesion_inside_its_box():
    # GT lesion 1 is an L whose box also holds GT lesion 2; predicted
    # voxels lie in that box outside both lesions (P2 at (2, 2)) and across
    # lesion 2 and the free part of the box (P4)
    ell = [(x, 0, 0) for x in range(6)] + [(0, y, 0) for y in range(1, 6)]
    inner = [(3, 3, 0), (4, 3, 0), (3, 4, 0), (4, 4, 0)]
    gt = _extract(ell + inner, dims=(8, 8, 2))
    assert lesion_boxes(gt) == [
        (slice(0, 6), slice(0, 6), slice(0, 1)),
        (slice(3, 5), slice(3, 5), slice(0, 1)),
    ]
    pred = _extract(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
        + [(2, 2, 0)]
        + [(4, 4, 0), (5, 4, 0), (4, 5, 0), (5, 5, 0)]
        + [(0, 4, 0), (0, 5, 0), (1, 5, 0)],
        dims=(8, 8, 2),
    )
    table = iou_table(lesion_voxel_sets(gt), lesion_voxel_sets(pred), 0.0)
    assert [(g, p) for g, p, _ in table] == [(1, 1), (1, 3), (2, 4)]
    for tau in (0.0, 0.1, 0.3):
        got = generate_candidates(gt, pred, overlap(gt, pred), tau)
        assert got == iou_table(lesion_voxel_sets(gt), lesion_voxel_sets(pred), tau)


def test_candidates_equal_full_iou_table(rng):
    for _ in range(20):
        gt = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.3), 26)
        pred = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.3), 26)
        got = generate_candidates(gt, pred, overlap(gt, pred), 0.0)
        assert got == iou_table(lesion_voxel_sets(gt), lesion_voxel_sets(pred), 0.0)


def _brute_overlap(gt, pred):
    """Every (gt_id, pred_id, shared voxels) with a shared voxel, from voxel sets."""
    gs, ps = lesion_voxel_sets(gt), lesion_voxel_sets(pred)
    return [
        (g, p, len(a & b)) for g, a in enumerate(gs, 1) for p, b in enumerate(ps, 1) if a & b
    ]


def test_overlap_equals_brute_force_table(rng):
    # every pair that shares a voxel, the ones below tau too, with its count
    dims, below_tau = (14, 14, 14), 0
    empty = _extract([], dims)
    for trial in range(24):
        connectivity = (6, 18, 26)[trial % 3]
        gt, pred = (
            find_connected_components(
                random_blob_mask(rng, dims, rng.uniform(0.1, 0.4)), connectivity
            )
            for _ in range(2)
        )
        for a, b in ((gt, pred), (gt, empty), (empty, pred), (empty, empty)):
            ov = overlap(a, b)
            table = list(zip(ov.gt_id.tolist(), ov.pred_id.tolist(), ov.inter.tolist()))
            assert table == _brute_overlap(a, b)
            shared = set().union(*lesion_voxel_sets(a)) & set().union(*lesion_voxel_sets(b))
            assert ov.inter.sum() == len(shared)
            below_tau += len(table) - len(generate_candidates(a, b, ov, 0.35))
    assert below_tau > 0


def test_generate_candidates_threshold_strict():
    gt = _extract(SQUARE)
    pred = _extract(SQUARE_SHIFTED)
    assert generate_candidates(gt, pred, overlap(gt, pred), tau=0.35) == []
    cands = generate_candidates(gt, pred, overlap(gt, pred), tau=0.30)
    assert len(cands) == 1
    assert cands[0][2] == pytest.approx(1 / 3)


def test_generate_candidates_empty_pred():
    gt = _extract(SQUARE)
    pred = _extract([])
    assert generate_candidates(gt, pred, overlap(gt, pred), 0.1) == []


def test_one_gt_two_pred_candidates():
    # a 1x6 GT rod overlapped by two disjoint predictions
    gt = _extract([(x, 0, 0) for x in range(6)], dims=(8, 4, 2))
    pred = _extract(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (4, 0, 0), (5, 0, 0)], dims=(8, 4, 2)
    )
    cands = generate_candidates(gt, pred, overlap(gt, pred), tau=0.2)
    assert len(cands) == 2  # multiplicity allowed before matching


def test_greedy_locking():
    cands = [(1, 1, 0.6), (2, 1, 0.5), (2, 2, 0.4)]
    matches = greedy_match(cands)
    assert [(g, p) for g, p, _ in matches] == [(1, 1), (2, 2)]


def test_greedy_single_candidate():
    assert greedy_match([(1, 1, 0.5)]) == [(1, 1, 0.5)]


def test_greedy_tie_break():
    # equal IoU: sort key (-iou, gt_id, pred_id) picks the lower pred id
    matches = greedy_match([(1, 2, 0.5), (1, 1, 0.5)])
    assert matches == [(1, 1, 0.5)]


def test_match_identity():
    v = random_blob_mask(np.random.default_rng(1), (16, 16, 16), 0.2)
    ls = find_connected_components(v)
    m = match_lesions(ls, ls, overlap(ls, ls), 0.35)
    assert sorted(m) == [(i, i, 1.0) for i in range(1, len(ls) + 1)]
    assert fn_fp_ids(ls, ls, m) == ([], [])


def test_match_empty_pred():
    gt = _extract(SQUARE + [(5, 5, 0)])
    pred = _extract([])
    m = match_lesions(gt, pred, overlap(gt, pred), 0.35)
    assert m == []
    assert fn_fp_ids(gt, pred, m) == ([1, 2], [])


def test_match_empty_gt_all_fp():
    gt = _extract([])
    pred = _extract(SQUARE + [(5, 5, 0)])
    m = match_lesions(gt, pred, overlap(gt, pred), 0.35)
    assert m == []
    assert fn_fp_ids(gt, pred, m) == ([], [1, 2])


def test_conservation_and_one_to_one(rng):
    for _ in range(20):
        gt = find_connected_components(random_blob_mask(rng, (16, 16, 16), 0.2))
        pred = find_connected_components(random_blob_mask(rng, (16, 16, 16), 0.2))
        m = match_lesions(gt, pred, overlap(gt, pred), 0.1)
        gts = [g for g, _, _ in m]
        preds = [p for _, p, _ in m]
        assert len(set(gts)) == len(gts)
        assert len(set(preds)) == len(preds)
        fn, fp = fn_fp_ids(gt, pred, m)
        assert sorted(gts + fn) == list(range(1, len(gt) + 1))
        assert sorted(preds + fp) == list(range(1, len(pred) + 1))


def test_threshold_monotonicity(rng):
    gt = find_connected_components(random_blob_mask(rng, (20, 20, 20), 0.25))
    pred = find_connected_components(random_blob_mask(rng, (20, 20, 20), 0.25))
    ov = overlap(gt, pred)
    counts = [len(match_lesions(gt, pred, ov, t)) for t in (0.0, 0.2, 0.4, 0.6)]
    assert counts == sorted(counts, reverse=True)


def test_oracle_equivalence(rng):
    for _ in range(30):
        gt = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        pred = find_connected_components(random_blob_mask(rng, (14, 14, 14), 0.25))
        gsets = lesion_voxel_sets(gt)
        psets = lesion_voxel_sets(pred)
        for tau in (0.0, 0.1, 0.35, 0.6):
            m = match_lesions(gt, pred, overlap(gt, pred), tau)
            om, ofn, ofp = naive_match(gsets, psets, tau)
            assert m == om
            assert fn_fp_ids(gt, pred, m) == (ofn, ofp)


def test_greedy_dominance_replay(rng):
    # for each accepted pair, no stronger candidate had both endpoints free
    gt = find_connected_components(random_blob_mask(rng, (18, 18, 18), 0.3))
    pred = find_connected_components(random_blob_mask(rng, (18, 18, 18), 0.3))
    cands = generate_candidates(gt, pred, overlap(gt, pred), 0.05)
    matches = greedy_match(cands)
    ordered = sorted(cands, key=lambda c: (-c[2], c[0], c[1]))
    used_g, used_p = set(), set()
    accepted = {(g, p) for g, p, _ in matches}
    for g, p, _ in ordered:
        if (g, p) in accepted:
            used_g.add(g)
            used_p.add(p)
        else:
            assert g in used_g or p in used_p
    assert used_g == {g for g, _, _ in matches}
