import numpy as np
import pytest

from lesioneval.components import find_connected_components
from lesioneval.errors import PlacementFailure
from lesioneval.synth import (
    BIN_SIZE_RANGES,
    SynthParams,
    _morph,
    generate_case,
)
from oracles import whole_grid_morph

ALL_BINS = {"VerySmall": 2, "Small": 3, "Medium": 2, "Large": 1}


def test_no_perturbation_pred_equals_gt():
    params = SynthParams(dims=(80, 80, 1), counts=ALL_BINS, kinds=("none",))
    c = generate_case(params, 1)
    assert np.array_equal(c.gt.data, c.pred.data)
    n = len(find_connected_components(c.gt))
    assert n == sum(ALL_BINS.values())
    assert len(c.truth_pairs) == n


def test_drop_all():
    params = SynthParams(counts={"Small": 3}, kinds=("drop",))
    c = generate_case(params, 2)
    assert c.pred.foreground_count() == 0
    assert c.truth_pairs == []


def test_seeded_determinism():
    params = SynthParams(
        dims=(100, 100, 1),
        counts=ALL_BINS,
        kinds=("none", "shift", "dilate", "erode", "split", "drop"),
        shift_max=2,
        dilate_max=2,
        erode_max=1,
        n_spurious=2,
    )
    a = generate_case(params, 99)
    b = generate_case(params, 99)
    assert np.array_equal(a.gt.data, b.gt.data)
    assert np.array_equal(a.pred.data, b.pred.data)
    assert a.truth_pairs == b.truth_pairs
    assert a.perturbation_log == b.perturbation_log


def test_lesion_sizes_fall_in_requested_bins():
    params = SynthParams(dims=(120, 120, 1), counts=ALL_BINS, kinds=("none",))
    c = generate_case(params, 5)
    ls = find_connected_components(c.gt)
    from lesioneval.stratify import categorize

    got = sorted(categorize(n).name for n in ls.sizes.tolist())
    want = sorted(name for name, n in ALL_BINS.items() for _ in range(n))
    assert got == want


def test_truth_pairs_reference_real_lesions():
    params = SynthParams(
        dims=(100, 100, 1),
        counts={"Small": 4, "Medium": 2},
        kinds=("none", "shift", "erode"),
        shift_max=1,
        erode_max=1,
        n_spurious=1,
    )
    c = generate_case(params, 3)
    gt_ls = find_connected_components(c.gt)
    pred_ls = find_connected_components(c.pred)
    for g, p in c.truth_pairs:
        assert 1 <= g <= len(gt_ls)
        assert 1 <= p <= len(pred_ls)
    gts = [g for g, _ in c.truth_pairs]
    preds = [p for _, p in c.truth_pairs]
    assert len(set(gts)) == len(gts) and len(set(preds)) == len(preds)


def test_3d_generation():
    params = SynthParams(
        dims=(40, 40, 40), counts={"Small": 3, "Medium": 1}, kinds=("none",)
    )
    c = generate_case(params, 8)
    assert c.gt.dims == (40, 40, 40)
    assert len(find_connected_components(c.gt)) == 4


def test_placement_failure():
    params = SynthParams(dims=(8, 8, 1), counts={"Large": 4}, max_tries=20)
    with pytest.raises(PlacementFailure):
        generate_case(params, 0)


def test_spurious_and_merge_logged():
    params = SynthParams(
        dims=(120, 120, 1),
        counts={"Medium": 4},
        kinds=("none",),
        n_spurious=2,
        merge_pairs=1,
    )
    c = generate_case(params, 11)
    assert any("spurious" in line for line in c.perturbation_log)
    assert any("merge" in line for line in c.perturbation_log)
    # merged pair keeps one truth pair; spurious blobs add none
    assert len(c.truth_pairs) == 3


def test_bin_size_ranges_align_with_bins():
    from lesioneval.stratify import categorize

    for name, (lo, hi) in BIN_SIZE_RANGES.items():
        assert categorize(lo).name == name
        if name != "Large":
            assert categorize(hi).name == name


@pytest.mark.parametrize("dims", [(96, 96, 1), (40, 40, 30), (20, 20, 20)])
def test_morph_matches_whole_grid(dims):
    # _morph works in the padded lesion box; it must equal whole-grid morphology
    rng = np.random.default_rng(sum(dims))
    for trial in range(40):
        n = int(rng.integers(1, 60))
        center = rng.integers(0, dims)
        vox = center + rng.integers(-4, 5, size=(n, 3))
        if dims[2] == 1:
            vox[:, 2] = 0
        if trial % 3 == 0:  # pin some voxels to a grid edge
            axis = int(rng.integers(0, 3))
            vox[: n // 2 + 1, axis] = rng.choice([0, dims[axis] - 1])
        vox = np.unique(np.clip(vox, 0, np.array(dims) - 1), axis=0)
        for op in ("dilate", "erode"):
            it = int(rng.integers(1, 4))
            got = _morph(vox, dims, it, op)
            want = whole_grid_morph(vox, dims, it, op)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
