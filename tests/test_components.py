import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from conftest import lesion_boxes, lesion_voxel_sets, mask_from_voxels, random_blob_mask
from lesioneval.components import _run_components, find_connected_components
from lesioneval.errors import NotBinary
from oracles import erosion_surface, flood_fill_components, scipy_label_components
from lesioneval.volume import Foreground, Volume


def test_empty_mask():
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    ls = find_connected_components(v)
    assert len(ls) == 0
    assert ls.sizes.tolist() == []
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
        (i, box, n) for i, (box, n) in enumerate(zip(lesion_boxes(ls), ls.sizes.tolist()), 1)
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


# (X, Y, Z) = (5, 4, 3): pairs of voxels, or of x-runs, that are close in
# z-major linear index, or that a forward step or an x slack would reach by
# wrapping, yet are not neighbours in space
WRAP_PAIRS = {
    "row-end-next-row": [(4, 1, 1), (0, 2, 1)],
    "row-start-row-end": [(0, 1, 1), (4, 1, 1)],
    "row-end-diagonal": [(4, 1, 1), (0, 2, 2)],
    "slice-end-next-slice": [(2, 3, 0), (2, 0, 1)],
    "slice-start-slice-end": [(2, 0, 1), (2, 3, 1)],
    "slice-corner-next-slice": [(4, 3, 0), (0, 0, 1)],
    "last-slice-row-end": [(4, 3, 2), (0, 0, 2)],
    "runs-row-end-next-row": [(3, 1, 1), (4, 1, 1), (0, 2, 1), (1, 2, 1)],
    "runs-row-start-row-end": [(0, 1, 1), (1, 1, 1), (3, 1, 1), (4, 1, 1)],
    "runs-row-end-two-rows-on": [(3, 1, 1), (4, 1, 1), (0, 3, 1), (1, 3, 1)],
    "runs-slice-start-slice-end": [(1, 0, 1), (2, 0, 1), (1, 3, 1), (2, 3, 1)],
    "runs-row-start-diagonal": [(0, 2, 1), (1, 2, 1), (3, 1, 2), (4, 1, 2)],
    "runs-slice-end-next-slice": [(2, 3, 0), (3, 3, 0), (4, 3, 0), (0, 0, 1), (1, 0, 1)],
    "full-rows-slice-end-next-slice": [(x, y, z) for x in range(5) for y, z in ((3, 1), (0, 2))],
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


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_full_grid_is_one_lesion(connectivity):
    for dims in [(5, 4, 3), (1, 4, 3), (6, 1, 1), (1, 1, 1)]:
        ls = _assert_matches_scipy(np.ones(dims, dtype=np.uint8), connectivity)
        assert ls.sizes.tolist() == [np.prod(dims)]


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_one_voxel_runs_when_nx_is_1(rng, connectivity):
    # with one voxel per row every run is a single voxel
    for dims in [(1, 12, 10), (1, 1, 9), (1, 9, 1)]:
        for density in (0.2, 0.5, 0.9):
            _assert_matches_scipy((rng.random(dims) < density).astype(np.uint8), connectivity)
        _assert_matches_scipy(random_blob_mask(rng, dims, 0.4).data, connectivity)


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_array_dtypes(rng, connectivity):
    # on a grid whose padded keys fit in int32, the index, positions and lesion
    # starts are int32 whatever the dtype of the foreground's index (the
    # int64 side is in test_index_dtype.py); labels are int32 on every grid
    for data in (random_blob_mask(rng, (9, 8, 7), 0.3).data, np.zeros((3, 3, 3), np.uint8)):
        fg = Foreground.from_mask(Volume(data, (1.0, 1.0, 1.0)))
        assert fg.index.dtype == np.int32
        wide = Foreground(fg.index.astype(np.int64), fg.dims, fg.spacing)
        narrow = _assert_matches_scipy(data, connectivity)
        for ls in (narrow, find_connected_components(wide, connectivity)):
            assert ls.label.dtype == np.int32
            assert ls.index.dtype == ls.order.dtype == ls.starts.dtype == np.int32
            assert ls.surface.dtype == bool


def test_labeller_memory_budget():
    # the labeller's transient arrays follow its runs and touching pairs, not
    # its voxels, and its index, keys and order are int32: this mask needs
    # about 52 bytes a voxel at connectivity 26
    data = random_blob_mask(np.random.default_rng(7), (64, 64, 64), 0.4).data
    fg = Foreground.from_mask(Volume(data, (1.0, 1.0, 1.0)))
    assert 90_000 < fg.index.size < 120_000
    tracemalloc.start()
    try:
        find_connected_components(fg, 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 57 * fg.index.size


@st.composite
def _run_graphs(draw):
    """A run count and an edge list: random (with self-loops and repeats), a
    shuffled path or a star, with some edges repeated and every edge's two
    ends in random order."""
    n = draw(st.integers(1, 400))
    node = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["random", "path", "star"]))
    if kind == "random":
        edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    elif kind == "path":
        walk = draw(st.permutations(range(n)))
        edges = list(zip(walk, walk[1:]))
    else:
        centre = draw(node)
        edges = [(centre, leaf) for leaf in draw(st.lists(node, max_size=n))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    src, dst = np.array(draw(st.permutations(edges)), dtype=np.intp).reshape(-1, 2).T
    flip = np.array(draw(st.lists(st.booleans(), min_size=src.size, max_size=src.size)), bool)
    return n, np.where(flip, dst, src), np.where(flip, src, dst)


@settings(max_examples=300, deadline=None)
@given(_run_graphs())
def test_run_union_names_each_component_by_its_smallest_run(graph):
    # scipy's graph labeller is the oracle for which runs share a component;
    # the union must name each component by its smallest run
    n, src, dst = graph
    graph = coo_array((np.ones(src.size, np.int8), (src, dst)), shape=(n, n))
    comp = connected_components(graph, directed=False)[1]
    smallest = np.full(comp.max() + 1, n)
    np.minimum.at(smallest, comp, np.arange(n))
    assert np.array_equal(_run_components(n, src, dst), smallest[comp])


def _snake(heights, ny):
    """A one-voxel-wide boustrophedon in z = 0 of a grid ``ny`` rows deep:
    pair j of columns along y is joined at the top in row ``heights[j]``, and
    each pair to the next at the bottom row."""
    k = len(heights)
    arr = np.zeros((4 * k - 1, ny, 2), dtype=np.uint8)
    for j, h in enumerate(heights):
        arr[4 * j : 4 * j + 3, h, 0] = 1
        arr[4 * j, h:, 0] = arr[4 * j + 2, h:, 0] = 1
    for j in range(k - 1):
        arr[4 * j + 2 : 4 * j + 5, -1, 0] = 1
    return arr


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_snake_is_one_lesion(connectivity):
    # along the snake, the column pairs' tops, where each hook round leaves
    # its roots, come in bit-reversed scan order, so a round hooks only every
    # other top onto a neighbour's: the union takes 1 + log2(8) rounds
    snake = _snake([0, 4, 2, 6, 1, 5, 3, 7], 10)
    for axes in itertools.permutations(range(3)):
        assert len(_assert_matches_scipy(snake.transpose(axes), connectivity)) == 1


@pytest.mark.parametrize("connectivity", [6, 18, 26])
def test_checkerboard_of_one_voxel_lesions(connectivity):
    # no two voxels of a checkerboard share a face, but every voxel shares
    # edges with its diagonal neighbours
    board = (np.indices((9, 8, 7)).sum(axis=0) % 2 == 0).astype(np.uint8)
    ls = _assert_matches_scipy(board, connectivity)
    assert len(ls) == (board.sum() if connectivity == 6 else 1)


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
    assert ls.sizes.tolist() == [27]
    assert lesion_boxes(ls) == [(slice(1, 4),) * 3]


def test_label_ordering_is_zyx_lexicographic():
    # lesion A starts at z=1, lesion B at z=0: B must get id 1
    v = mask_from_voxels([(0, 0, 1), (3, 3, 0)], (5, 5, 5))
    ls = find_connected_components(v)
    assert lesion_voxel_sets(ls) == [frozenset({(3, 3, 0)}), frozenset({(0, 0, 1)})]


def test_sizes_count_voxels_at_any_spacing():
    arr = np.zeros((4, 4, 4), dtype=np.uint8)
    arr[0:2, 0:2, 0:2] = 1
    arr[3, 3, 3] = 1
    ls = find_connected_components(Volume(arr, (0.5, 0.5, 2.0)))
    assert len(ls) == 2
    assert ls.sizes.tolist() == [8, 1]
    assert np.array_equal(ls.sizes, np.diff(ls.starts))


def test_single_voxel_stats():
    v = mask_from_voxels([(2, 3, 4)], (6, 6, 6))
    ls = find_connected_components(v)
    (l,) = ls.lesions  # built on demand from sizes
    assert (l.id, l.volume_vox) == (1, 1)
    assert lesion_boxes(ls) == [(slice(2, 3), slice(3, 4), slice(4, 5))]


def test_partition_property(rng):
    for _ in range(10):
        v = random_blob_mask(rng, (16, 16, 16), rng.uniform(0.1, 0.5))
        ls = find_connected_components(v, 6)
        assert ls.sizes.sum() == v.foreground_count()
        assert np.array_equal(ls.label_map != 0, v.data != 0)
        # each lesion's run holds exactly its voxels in the label map
        label_map = ls.label_map
        for i, (n, vox) in enumerate(zip(ls.sizes.tolist(), lesion_voxel_sets(ls)), 1):
            assert vox == set(map(tuple, np.argwhere(label_map == i).tolist()))
            assert n == len(vox)


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
