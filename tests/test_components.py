import numpy as np
import pytest

from conftest import lesion_voxel_sets, mask_from_voxels, random_blob_mask
from lesioneval.components import find_connected_components
from lesioneval.errors import NotBinary
from oracles import flood_fill_components
from lesioneval.volume import Volume


def test_empty_mask():
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1), binary=True)
    ls = find_connected_components(v)
    assert len(ls) == 0
    assert ls.lesions == []
    assert not ls.label_map.any()


def test_not_binary_rejected():
    for dtype, value in ((np.uint8, 3), (np.float64, 0.5), (np.float64, np.nan)):
        arr = np.zeros((2, 2, 2), dtype=dtype)
        arr[1, 0, 1] = value
        with pytest.raises(NotBinary):
            find_connected_components(Volume(arr, (1, 1, 1)))


def test_diagonal_voxels_by_connectivity():
    v = mask_from_voxels([(0, 0, 0), (1, 1, 0)], (3, 3, 3))
    assert len(find_connected_components(v, 6)) == 2
    assert len(find_connected_components(v, 18)) == 1
    assert len(find_connected_components(v, 26)) == 1


def test_corner_diagonal_needs_26():
    v = mask_from_voxels([(0, 0, 0), (1, 1, 1)], (3, 3, 3))
    assert len(find_connected_components(v, 6)) == 2
    assert len(find_connected_components(v, 18)) == 2
    assert len(find_connected_components(v, 26)) == 1


def test_centered_cube():
    arr = np.zeros((5, 5, 5), dtype=np.uint8)
    arr[1:4, 1:4, 1:4] = 1
    ls = find_connected_components(Volume(arr, (1, 1, 1), binary=True))
    assert len(ls) == 1
    l = ls.lesions[0]
    assert l.volume_vox == 27
    assert l.bbox == (slice(1, 4),) * 3


def test_label_ordering_is_zyx_lexicographic():
    # lesion A starts at z=1, lesion B at z=0: B must get id 1
    v = mask_from_voxels([(0, 0, 1), (3, 3, 0)], (5, 5, 5))
    ls = find_connected_components(v)
    assert lesion_voxel_sets(ls) == [frozenset({(3, 3, 0)}), frozenset({(0, 0, 1)})]


def test_volume_mm3_uses_spacing():
    arr = np.zeros((4, 4, 4), dtype=np.uint8)
    arr[0:2, 0:2, 0:2] = 1
    ls = find_connected_components(Volume(arr, (0.5, 0.5, 2.0), binary=True))
    assert ls.lesions[0].volume_mm3 == pytest.approx(8 * 0.5 * 0.5 * 2.0)


def test_single_voxel_stats():
    v = mask_from_voxels([(2, 3, 4)], (6, 6, 6))
    (l,) = find_connected_components(v).lesions
    assert (l.id, l.volume_vox, l.volume_mm3) == (1, 1, 1.0)
    assert l.bbox == (slice(2, 3), slice(3, 4), slice(4, 5))


def test_partition_property(rng):
    for _ in range(10):
        v = random_blob_mask(rng, (16, 16, 16), rng.uniform(0.1, 0.5))
        ls = find_connected_components(v, 6)
        assert sum(l.volume_vox for l in ls.lesions) == v.foreground_count()
        assert np.array_equal(ls.label_map != 0, v.data != 0)
        # each lesion lies wholly inside its box, which is tight
        for l, vox in zip(ls.lesions, lesion_voxel_sets(ls)):
            arr = np.array(sorted(vox))
            lo, hi = arr.min(axis=0), arr.max(axis=0) + 1
            assert l.bbox == tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
            assert l.volume_vox == len(vox)


def test_determinism(rng):
    v = random_blob_mask(rng, (20, 20, 20), 0.3)
    a = find_connected_components(v, 26)
    b = find_connected_components(v, 26)
    assert np.array_equal(a.label_map, b.label_map)


def test_connectivity_monotonicity(rng):
    for _ in range(10):
        v = random_blob_mask(rng, (16, 16, 16), rng.uniform(0.1, 0.5))
        n6 = len(find_connected_components(v, 6))
        n18 = len(find_connected_components(v, 18))
        n26 = len(find_connected_components(v, 26))
        assert n26 <= n18 <= n6


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_oracle_equivalence_small_grids(rng, connectivity):
    for _ in range(25):
        dims = tuple(int(rng.integers(4, 14)) for _ in range(3))
        v = random_blob_mask(rng, dims, rng.uniform(0.1, 0.5))
        ls = find_connected_components(v, connectivity)
        vox = {tuple(c) for c in np.argwhere(v.data != 0).tolist()}
        assert lesion_voxel_sets(ls) == flood_fill_components(vox, connectivity)



def test_label_map_volume_dump(tmp_path):
    from lesioneval.nifti import read_volume, write_volume

    v = mask_from_voxels([(0, 0, 0), (3, 3, 3)], (4, 4, 4))
    ls = find_connected_components(v)
    p = tmp_path / "labels.nii"
    write_volume(Volume(ls.label_map, v.spacing), str(p))
    back = read_volume(str(p))
    assert np.array_equal(back.data, ls.label_map)
    assert back.data[3, 3, 3] == 2
