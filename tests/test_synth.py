import hashlib
from pathlib import Path

import numpy as np
import pytest

from lesioneval import synth
from lesioneval.components import find_connected_components
from lesioneval.errors import PlacementFailure
from lesioneval.synth import (
    BIN_SIZE_RANGES,
    SynthParams,
    _morph,
    generate_case,
)
from oracles import categorize, whole_grid_morph

ALL_BINS = {"VerySmall": 2, "Small": 3, "Medium": 2, "Large": 1}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_no_perturbation_pred_equals_gt():
    params = SynthParams(dims=(80, 80, 1), counts=ALL_BINS, kinds=("none",))
    c = generate_case(params, 1)
    assert np.array_equal(c.gt.data, c.pred.data)
    n = len(find_connected_components(c.gt))
    assert n == sum(ALL_BINS.values())


def test_drop_all():
    params = SynthParams(counts={"Small": 3}, kinds=("drop",))
    c = generate_case(params, 2)
    assert c.pred.foreground_count() == 0


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


def test_lesion_sizes_fall_in_requested_bins():
    params = SynthParams(dims=(120, 120, 1), counts=ALL_BINS, kinds=("none",))
    c = generate_case(params, 5)
    ls = find_connected_components(c.gt)
    got = sorted(categorize(n) for n in ls.sizes.tolist())
    want = sorted(name for name, n in ALL_BINS.items() for _ in range(n))
    assert got == want


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


def test_spurious_and_merge_only_add_pred_voxels():
    # merges and spurious blobs draw after every lesion, so both runs share
    # the lesions' RNG draws
    base = dict(dims=(120, 120, 1), counts={"Medium": 4}, kinds=("none",))
    plain = generate_case(SynthParams(**base), 11)
    extra = generate_case(SynthParams(**base, n_spurious=2, merge_pairs=1), 11)
    assert np.array_equal(plain.gt.data, extra.gt.data)
    plain_fg, extra_fg = plain.pred.data != 0, extra.pred.data != 0
    assert np.all(extra_fg[plain_fg])
    assert extra_fg.sum() > plain_fg.sum()


# SHA-256 of gt and pred bytes of the benchmark's ms-cohort case seeds
MS_COHORT_MASKS = {
    0: ("dceda807be350a0d7ea8e2c442f4d957230404591432ff8cd9bacbc98fd0596b",
        "4a4e1d13f1a847e896242991bd3a62c05bf019826418ac201dcf2a5295f9b7d2"),
    1: ("783b408f0fd7ab5fc0dd5f307201f5c76b81db62bbaa99cc7f2b50c95a14471a",
        "5c1e862bfa40ff026cb5a60edaeea2ac11defc74c060b88e60bc93f6ea72d463"),
}


@pytest.mark.parametrize("case_seed", sorted(MS_COHORT_MASKS))
def test_benchmark_masks_are_pinned(monkeypatch, case_seed):
    # the benchmark's ms-cohort inputs come from generate_case; a change meant
    # to keep them must keep these hashes
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    c = generate_case(gen.ms_synth_params(synth), case_seed)
    got = tuple(hashlib.sha256(v.data.tobytes()).hexdigest() for v in (c.gt, c.pred))
    assert got == MS_COHORT_MASKS[case_seed]


def test_bin_size_ranges_align_with_bins():
    for name, (lo, hi) in BIN_SIZE_RANGES.items():
        assert categorize(lo) == name
        if name != "Large":
            assert categorize(hi) == name


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
