import numpy as np
import pytest

from conftest import lesion_boxes, lesion_voxel_sets, mask_from_voxels, random_blob_mask
from lesioneval.components import find_connected_components
from lesioneval.errors import NotBinary
from oracles import erosion_surface, flood_fill_components, scipy_label_components
from lesioneval.volume import Volume


def test_empty_mask():
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    ls = find_connected_components(v)
    assert len(ls) == 0
    assert ls.lesions == []
    assert not ls.label_map.any()


def test_not_binary_rejected():
    cases = [
        (np.uint8, 2),
        (np.uint8, 255),
        (np.int16, 2),
        (np.int16, -1),
        (np.float32, 2.0),
        (np.float32, -1.0),
        (np.float32, 0.5),
        (np.float32, np.nan),
        (np.float64, 0.5),
        (np.float64, np.nan),
    ]
    for dtype, value in cases:
        arr = np.zeros((3, 2, 2), dtype=dtype)
        arr[1, 0, 1] = value
        arr[2, 1, 1] = 1
        with pytest.raises(NotBinary) as err:
            find_connected_components(Volume(arr, (1, 1, 1)))
        bad = np.unique(arr[(arr != 0) & (arr != 1)])
        assert str(err.value) == f"mask contains values other than 0/1: {bad}"


def _assert_matches_scipy(data, connectivity):
    ls = find_connected_components(Volume(data, (1, 1, 1)), connectivity)
    label_map, lesions = scipy_label_components(data, connectivity)
    assert ls.label_map.dtype == label_map.dtype
    assert np.array_equal(ls.label_map, label_map)
    assert [
        (l.id, box, l.volume_vox) for l, box in zip(ls.lesions, lesion_boxes(ls))
    ] == lesions
    return ls


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("order", ["C", "F"])
def test_matches_scipy_labeller(rng, connectivity, order):
    shapes = [(12, 12, 12), (9, 7, 5), (16, 16, 1), (1, 9, 7), (8, 1, 6), (5, 1, 1),
              (1, 1, 1)]
    for dims in shapes:
        for density in (0.02, 0.2, 0.5, 0.8):
            data = (rng.random(dims) < density).astype(np.uint8)
            _assert_matches_scipy(np.asarray(data, order=order), connectivity)
        blobs = random_blob_mask(rng, dims, 0.3).data
        _assert_matches_scipy(np.asarray(blobs, order=order), connectivity)
    _assert_matches_scipy(np.zeros((4, 3, 2), dtype=np.uint8, order=order), connectivity)


# (X, Y, Z) = (5, 4, 3): pairs of voxels that are close in z-major linear
# index, or that a forward step would reach by wrapping, yet are not
# neighbours in space
WRAP_PAIRS = {
    "row-end-next-row": [(4, 1, 1), (0, 2, 1)],
    "row-start-row-end": [(0, 1, 1), (4, 1, 1)],
    "row-end-diagonal": [(4, 1, 1), (0, 2, 2)],
    "slice-end-next-slice": [(2, 3, 0), (2, 0, 1)],
    "slice-start-slice-end": [(2, 0, 1), (2, 3, 1)],
    "slice-corner-next-slice": [(4, 3, 0), (0, 0, 1)],
    "last-slice-row-end": [(4, 3, 2), (0, 0, 2)],
}


@pytest.mark.parametrize("connectivity", [6, 18, 26])
@pytest.mark.parametrize("pair", list(WRAP_PAIRS), ids=list(WRAP_PAIRS))
def test_no_neighbour_across_row_or_slice_edge(connectivity, pair):
    v = mask_from_voxels(WRAP_PAIRS[pair], (5, 4, 3))
    ls = _assert_matches_scipy(v.data, connectivity)
    assert len(ls) == 2


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_lesions_on_all_six_faces(connectivity):
    dims = (7, 6, 5)
    arr = np.zeros(dims, dtype=np.uint8)
    arr[0, 1:3, 1:3] = arr[-1, 2:5, 0:2] = 1  # x faces
    arr[2:4, 0, 2:4] = arr[1:3, -1, 1:4] = 1  # y faces
    arr[4:6, 3:5, 0] = arr[3:6, 1:3, -1] = 1  # z faces
    arr[-1, -1, -1] = arr[0, 0, 0] = 1  # opposite corners
    ls = _assert_matches_scipy(arr, connectivity)
    boxes = lesion_boxes(ls)
    for axis, n in enumerate(dims):
        assert any(b[axis].start == 0 for b in boxes)
        assert any(b[axis].stop == n for b in boxes)


def test_numbering_does_not_rest_on_the_graph_labeller(rng, monkeypatch):
    # scipy does not document the order of its component labels, so a
    # labeller that numbers them backwards must give the same lesions
    from lesioneval import components

    real = components.connected_components

    def backwards(graph, directed):
        n, labels = real(graph, directed=directed)
        return n, (n - 1 - labels).astype(labels.dtype)

    monkeypatch.setattr(components, "connected_components", backwards)
    data = random_blob_mask(rng, (12, 12, 12), 0.3).data
    assert len(_assert_matches_scipy(data, 6)) > 3


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
    ls = find_connected_components(Volume(arr, (1, 1, 1)))
    assert len(ls) == 1
    l = ls.lesions[0]
    assert l.volume_vox == 27
    assert lesion_boxes(ls) == [(slice(1, 4),) * 3]


def test_label_ordering_is_zyx_lexicographic():
    # lesion A starts at z=1, lesion B at z=0: B must get id 1
    v = mask_from_voxels([(0, 0, 1), (3, 3, 0)], (5, 5, 5))
    ls = find_connected_components(v)
    assert lesion_voxel_sets(ls) == [frozenset({(3, 3, 0)}), frozenset({(0, 0, 1)})]


def test_volume_mm3_uses_spacing():
    arr = np.zeros((4, 4, 4), dtype=np.uint8)
    arr[0:2, 0:2, 0:2] = 1
    ls = find_connected_components(Volume(arr, (0.5, 0.5, 2.0)))
    assert ls.lesions[0].volume_mm3 == pytest.approx(8 * 0.5 * 0.5 * 2.0)


def test_single_voxel_stats():
    v = mask_from_voxels([(2, 3, 4)], (6, 6, 6))
    ls = find_connected_components(v)
    (l,) = ls.lesions
    assert (l.id, l.volume_vox, l.volume_mm3) == (1, 1, 1.0)
    assert lesion_boxes(ls) == [(slice(2, 3), slice(3, 4), slice(4, 5))]


def test_partition_property(rng):
    for _ in range(10):
        v = random_blob_mask(rng, (16, 16, 16), rng.uniform(0.1, 0.5))
        ls = find_connected_components(v, 6)
        assert sum(l.volume_vox for l in ls.lesions) == v.foreground_count()
        assert np.array_equal(ls.label_map != 0, v.data != 0)
        # each lesion's run holds exactly its voxels in the label map
        label_map = ls.label_map
        for l, vox in zip(ls.lesions, lesion_voxel_sets(ls)):
            assert vox == set(map(tuple, np.argwhere(label_map == l.id).tolist()))
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


def _assert_surface_is_erosion(data, connectivity):
    ls = find_connected_components(Volume(data, (1, 1, 1)), connectivity)
    pts = ls.coords(np.flatnonzero(ls.surface))
    assert np.array_equal(pts[np.lexsort(pts.T[::-1])], erosion_surface(data).reshape(-1, 3))


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_surface_flags_equal_face_erosion(rng, connectivity):
    for dims in [(12, 12, 12), (9, 7, 5), (16, 16, 1), (11, 13, 1), (1, 9, 7), (1, 1, 1)]:
        for density in (0.1, 0.3, 0.6):
            _assert_surface_is_erosion(random_blob_mask(rng, dims, density).data, connectivity)
        _assert_surface_is_erosion((rng.random(dims) < 0.5).astype(np.uint8), connectivity)
    full = np.ones((4, 3, 2), dtype=np.uint8)
    _assert_surface_is_erosion(full, connectivity)
    _assert_surface_is_erosion(np.zeros((4, 3, 2), dtype=np.uint8), connectivity)
    # lesions touching all six faces of the grid, and a solid core
    arr = np.zeros((7, 6, 5), dtype=np.uint8)
    arr[0, 1:3, 1:3] = arr[-1, 2:5, 0:2] = 1
    arr[2:4, 0, 2:4] = arr[1:3, -1, 1:4] = 1
    arr[4:6, 3:5, 0] = arr[3:6, 1:3, -1] = 1
    arr[2:5, 2:5, 1:4] = 1
    _assert_surface_is_erosion(arr, connectivity)
