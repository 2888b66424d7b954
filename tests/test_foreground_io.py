"""The streamed foreground reader against the dense reader it replaces."""
import gzip
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lesioneval import nifti
from lesioneval.errors import BadMagic, LesionEvalError, NanVoxels, TruncatedFile
from lesioneval.nifti import CODE_BY_DTYPE, read_foreground, read_volume, write_volume
from lesioneval.volume import Volume, binarize

DTYPES = [np.uint8, np.int16, np.int32, np.float32, np.float64]
THRESHOLDS = [0.5, 0.7, -0.3]


def _header(data, endian="<", scale=(0.0, 0.0), vox_offset=352, magic=b"n+1\x00"):
    hdr = bytearray(348)
    struct.pack_into(endian + "i", hdr, 0, 348)
    struct.pack_into(endian + "8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into(endian + "h", hdr, 70, CODE_BY_DTYPE[data.dtype])
    struct.pack_into(endian + "h", hdr, 72, data.dtype.itemsize * 8)
    struct.pack_into(endian + "8f", hdr, 76, 1.0, 0.5, 1.0, 2.0, 0, 0, 0, 0)
    struct.pack_into(endian + "f", hdr, 108, float(vox_offset))
    struct.pack_into(endian + "2f", hdr, 112, *scale)
    hdr[344:348] = magic
    return bytes(hdr)


def _write(directory, data, container, endian="<", scale=(0.0, 0.0)):
    """Encode ``data`` ([x, y, z]) as a NIfTI file of the given container."""
    body = data.astype(data.dtype.newbyteorder(endian)).tobytes(order="F")
    directory = Path(directory)
    if container == "pair":
        # voxels start at vox_offset in the .img, after 24 bytes of 7s
        (directory / "m.hdr").write_bytes(
            _header(data, endian, scale, vox_offset=24, magic=b"ni1\x00")
        )
        (directory / "m.img").write_bytes(b"\x07" * 24 + body)
        return str(directory / "m.hdr")
    # a vox_offset past the header's end, with padding before the voxels
    raw = _header(data, endian, scale, vox_offset=360) + b"\x00" * 12 + body
    if container == "nii.gz":
        p = directory / "m.nii.gz"
        p.write_bytes(gzip.compress(raw, mtime=0))
    else:
        p = directory / "m.nii"
        p.write_bytes(raw)
    return str(p)


def _sample(dtype, rng, empty):
    shape = (5, 4, 3)
    if empty:
        return np.zeros(shape, dtype)
    if np.dtype(dtype).kind == "f":
        return rng.normal(0.4, 0.5, shape).astype(dtype)
    lo = 0 if dtype == np.uint8 else -2
    return rng.integers(lo, 3, shape).astype(dtype)


def _dense(path, threshold):
    return np.flatnonzero(read_volume(path).data.T > threshold)


@pytest.mark.parametrize("chunk", [None, 11], ids=["default-chunk", "11-byte-chunk"])
@pytest.mark.parametrize("container", ["nii", "nii.gz", "pair"])
def test_read_foreground_equals_dense_threshold(tmp_path, monkeypatch, container, chunk):
    # an 11-byte chunk is no multiple of 2, 4 or 8, so voxels split across reads
    if chunk is not None:
        monkeypatch.setattr(nifti, "CHUNK_BYTES", chunk)
    rng = np.random.default_rng(8)
    for dtype in DTYPES:
        for endian in "<>":
            for scale in [(0.0, 0.0), (0.75, -0.25)]:
                for empty in (False, True):
                    data = _sample(dtype, rng, empty)
                    p = _write(tmp_path, data, container, endian, scale)
                    for t in THRESHOLDS:
                        fg = read_foreground(p, t)
                        expected = _dense(p, t)
                        assert np.array_equal(fg.index, expected), (dtype, endian, scale, t)
                        assert fg.dims == data.shape and fg.spacing == (0.5, 1.0, 2.0)
    # the dense reader agrees with the data it was given
    data = _sample(np.int16, rng, False)
    p = _write(tmp_path, data, container, ">", (2.0, 1.0))
    assert np.array_equal(read_volume(p).data, data * 2.0 + 1.0)


@pytest.mark.parametrize("t", THRESHOLDS)
def test_read_foreground_json_fixture(tmp_path, t):
    v = Volume(np.arange(24, dtype=np.uint8).reshape((2, 3, 4)) % 2, (1.5, 1.0, 3.0))
    p = tmp_path / "m.json"
    write_volume(v, str(p))
    fg = read_foreground(str(p), t)
    assert np.array_equal(fg.index, _dense(str(p), t))
    assert fg.dims == (2, 3, 4) and fg.spacing == (1.5, 1.0, 3.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
def test_json_fixture_keeps_its_values(tmp_path, dtype):
    # a JSON fixture once read back through a uint8 cast: 0.7 became 0, 2.9
    # became 2 and -1 became 255, so its foreground differed from the NIfTI one
    rng = np.random.default_rng(14)
    data = np.round(rng.normal(0.4, 1.5, (5, 4, 3)), 1).astype(dtype)
    data[0, 0, 0], data[1, 0, 0] = 0.7, 2.9
    v = Volume(data, (0.5, 1.0, 2.0))
    write_volume(v, str(tmp_path / "m.json"))
    write_volume(v, str(tmp_path / "m.nii"))
    for t in [*THRESHOLDS, 0.0, 2.5]:
        from_json = read_foreground(str(tmp_path / "m.json"), t)
        from_nifti = read_foreground(str(tmp_path / "m.nii"), t)
        assert np.array_equal(from_json.index, from_nifti.index), (dtype, t)
        assert from_json.dims == from_nifti.dims
        assert from_json.spacing == from_nifti.spacing
    assert np.array_equal(read_volume(str(tmp_path / "m.json")).data, data)


def test_json_fixture_nan_voxels_rejected(tmp_path):
    # json writes NaN as a bare NaN token; it must fail as NaN, not as bad JSON
    data = np.zeros((2, 2, 2), np.float32)
    data[1, 1, 1] = np.nan
    p = tmp_path / "m.json"
    write_volume(Volume(data, (1, 1, 1)), str(p))
    with pytest.raises(NanVoxels):
        read_foreground(str(p))


@pytest.mark.parametrize("container", ["nii", "nii.gz"])
def test_nan_voxels_rejected_by_both_thresholdings(tmp_path, container):
    # NaN > t is False, so a NaN lesion used to become background silently
    data = np.zeros((4, 4, 4), np.float32)
    data[1:3, 1:3, 1:3] = np.nan
    p = _write(tmp_path, data, container)
    with pytest.raises(NanVoxels):
        read_foreground(p)
    vol = read_volume(p)  # reading keeps the values; thresholding rejects them
    assert np.isnan(vol.data).sum() == 8
    with pytest.raises(NanVoxels):
        binarize(vol)


def test_gzip_bomb_memory_bounded(tmp_path):
    # a 4x4x4 volume whose gzip stream inflates to 64 MiB more than it needs;
    # reading it whole first would hold all of it
    v = Volume(np.ones((4, 4, 4), np.uint8), (1, 1, 1))
    write_volume(v, str(tmp_path / "m.nii"))
    p = tmp_path / "bomb.nii.gz"
    with gzip.open(p, "wb", compresslevel=9) as gz:
        gz.write((tmp_path / "m.nii").read_bytes())
        zeros = bytes(1 << 20)
        for _ in range(64):
            gz.write(zeros)
    assert p.stat().st_size < 1 << 20
    for read in (read_foreground, read_volume):
        tracemalloc.start()
        try:
            out = read(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 1 MiB chunk buffer plus the gzip module's own copies of it
        assert peak < 8 << 20, (read.__name__, peak)
    assert out == v


def test_gzip_header_claiming_more_than_it_can_inflate(tmp_path):
    # 200^3 float64 voxels cannot come out of a few hundred gzip bytes, so the
    # reader refuses before it allocates or inflates anything
    raw = bytearray(_header(np.zeros((2, 2, 2))))
    struct.pack_into("<3h", raw, 42, 200, 200, 200)
    p = tmp_path / "m.nii.gz"
    p.write_bytes(gzip.compress(bytes(raw) + bytes(8), mtime=0))
    for read in (read_foreground, read_volume):
        with pytest.raises(TruncatedFile, match="at most"):
            read(str(p))


def _mutated(raw: bytes, edits) -> bytes:
    b = bytearray(raw)
    for pos, value in edits:
        b[pos % len(b)] = value
    return bytes(b)


_FUZZ_DATA = np.array([0.0, 0.9, np.inf, -1.0, 0.6, 0.2, 1.0, 0.0], np.float32).reshape(
    (2, 2, 2), order="F"
)
_FUZZ_RAW = _header(_FUZZ_DATA, scale=(2.0, -0.5), vox_offset=352) + bytes(4) + (
    _FUZZ_DATA.tobytes(order="F")
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gzipped=st.booleans(),
    edits=st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4
    ),
)
def test_fuzzed_files_fail_only_with_lesioneval_errors(gzipped, edits):
    """Mutated header bytes or gzip stream bytes: a LesionEvalError or agreement."""
    if gzipped:
        blob = _mutated(gzip.compress(_FUZZ_RAW, mtime=0), edits)
    else:
        edits = [(pos % 352, value) for pos, value in edits]  # the header only
        blob = _mutated(_FUZZ_RAW, edits)
    # a mutated scale factor can overflow, and a mutated datatype can turn the
    # bytes into signalling NaNs; scaling them warns, as at any size
    with tempfile.TemporaryDirectory() as d, np.errstate(over="ignore", invalid="ignore"):
        p = str(Path(d) / "m.nii")
        Path(p).write_bytes(blob)
        outcomes = []
        for read in (read_volume, lambda q: read_foreground(q, 0.5)):
            try:
                outcomes.append(read(p))
            except LesionEvalError:
                outcomes.append(None)
    vol, fg = outcomes
    if vol is not None and fg is not None:
        assert fg.dims == vol.dims and fg.spacing == vol.spacing
        assert np.array_equal(fg.index, np.flatnonzero(vol.data.T > 0.5))
    if vol is None:
        assert fg is None  # both readers share the header checks and the stream


def test_corrupt_gzip_is_bad_magic_for_both_readers(tmp_path):
    p = tmp_path / "m.nii.gz"
    p.write_bytes(b"\x1f\x8b" + b"\x00" * 30)
    for read in (read_foreground, read_volume):
        with pytest.raises(BadMagic):
            read(str(p))
