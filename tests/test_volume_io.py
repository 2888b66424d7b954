import gzip
import struct

import numpy as np
import pytest

from lesioneval.errors import (
    BadMagic,
    DimsMismatch,
    IoFailure,
    Not3D,
    SpacingMismatch,
    TruncatedFile,
    UnsupportedDatatype,
)
from lesioneval.nifti import VOX_OFFSET, read_foreground, read_volume, write_volume
from lesioneval.pipeline import RunConfig, evaluate_pair
from lesioneval.volume import Foreground, Volume, binarize, check_compatibility


def test_roundtrip_zero_volume(tmp_path):
    v = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0))
    p = tmp_path / "zero.nii"
    write_volume(v, str(p))
    w = read_volume(str(p))
    assert w == v


def test_gzip_transparency(tmp_path):
    rng = np.random.default_rng(3)
    # spacing exactly representable in the header's float32 fields
    v = Volume(rng.integers(0, 2, (6, 5, 4)).astype(np.uint8), (0.75, 1.0, 2.5))
    plain = tmp_path / "m.nii"
    comp = tmp_path / "m.nii.gz"
    write_volume(v, str(plain))
    write_volume(v, str(comp))
    assert read_volume(str(plain)) == read_volume(str(comp)) == v


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.nii"
    p.write_bytes(b"ABCD" + b"\x00" * 400)
    with pytest.raises(BadMagic):
        read_volume(str(p))


def test_wrong_magic_field(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    raw[344:348] = b"XYZ\x00"
    p.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_volume(str(p))


def test_unsupported_datatype(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    raw[70:72] = (512).to_bytes(2, "little")  # u16, outside the supported set
    p.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedDatatype):
        read_volume(str(p))


def test_truncated_file(tmp_path):
    v = Volume(np.ones((4, 4, 4), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    p.write_bytes(p.read_bytes()[:-10])
    with pytest.raises(TruncatedFile):
        read_volume(str(p))


def test_not_3d(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    raw[40:42] = (2).to_bytes(2, "little")  # dim[0] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(Not3D):
        read_volume(str(p))


def test_4d_singleton_squeezed(tmp_path):
    v = Volume(np.arange(8, dtype=np.uint8).reshape((2, 2, 2), order="F"), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    raw[40:42] = (4).to_bytes(2, "little")
    # dim[4] already 1 from the writer
    p.write_bytes(bytes(raw))
    assert read_volume(str(p)) == v


def test_4d_nonsingleton_rejected(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    raw[40:42] = (4).to_bytes(2, "little")
    raw[48:50] = (3).to_bytes(2, "little")  # dim[4] = 3
    p.write_bytes(bytes(raw))
    with pytest.raises(Not3D):
        read_volume(str(p))


def test_zero_pixdim_replaced_with_warning(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    import struct

    struct.pack_into("<f", raw, 76 + 4, 0.0)  # pixdim[1] = 0
    p.write_bytes(bytes(raw))
    w = read_volume(str(p))
    assert w.spacing == (1.0, 1.0, 1.0)
    assert w.spacing_was_fixed


def test_scl_scaling_applied(tmp_path):
    v = Volume(np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F"), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    import struct

    struct.pack_into("<2f", raw, 112, 2.0, 1.0)  # slope 2, inter 1
    p.write_bytes(bytes(raw))
    w = read_volume(str(p))
    assert np.allclose(w.data, v.data * 2.0 + 1.0)


def _patched_nifti(tmp_path, fmt, offset, *values):
    """A written 2x2x2 NIfTI with ``values`` packed at ``offset``, and its volume."""
    v = Volume(np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F"), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<" + fmt, raw, offset, *values)
    p.write_bytes(bytes(raw))
    return str(p), v


@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_pixdim_rejected(tmp_path, axis, value):
    p, _ = _patched_nifti(tmp_path, "f", 76 + 4 * axis, value)
    with pytest.raises(BadMagic, match="pixdim"):
        read_volume(p)


@pytest.mark.parametrize(
    "slope,inter",
    [(np.inf, 0.0), (-np.inf, 1.0), (2.0, np.nan), (2.0, np.inf)],
)
def test_non_finite_scaling_rejected(tmp_path, slope, inter):
    p, _ = _patched_nifti(tmp_path, "2f", 112, slope, inter)
    with pytest.raises(BadMagic, match="scl_"):
        read_volume(p)


@pytest.mark.parametrize("inter", [np.nan, 0.0, 5.0])
def test_nan_scl_slope_means_unscaled(tmp_path, inter):
    # NaN scl_slope marks "no scaling", as the NIfTI reference library reads
    # it; scl_inter is then ignored, as with a zero slope
    p, v = _patched_nifti(tmp_path, "2f", 112, np.nan, inter)
    w = read_volume(p)
    assert w == v and w.data.dtype == v.data.dtype


@pytest.mark.parametrize("offset", [0.0, 100.0, 348.0, 351.0, -4.0, np.nan, np.inf])
def test_single_file_vox_offset_inside_header_rejected(tmp_path, offset):
    p, _ = _patched_nifti(tmp_path, "f", 108, offset)
    with pytest.raises(BadMagic, match="vox_offset"):
        read_volume(p)


@pytest.mark.parametrize(
    "spacing",
    [(np.nan, 1, 1), (1, np.inf, 1), (1, 1, -np.inf), (0, 1, 1), (1e200, 1, 1), (1, 1e-200, 1)],
)
def test_volume_rejects_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing"):
        Volume(np.zeros((2, 2, 2), dtype=np.uint8), spacing)


def test_spacing_bound_is_the_smallest_pixdim():
    # a spacing below the smallest nonzero float32 pixdim squares to 0 or to a
    # subnormal: at 1e-200 mm two lesions one voxel apart were 0.0 mm apart.
    # At the bound itself each distance is exact
    bottom = float(np.finfo(np.float32).smallest_subnormal)
    with pytest.raises(ValueError, match="spacing"):
        Volume(np.zeros((2, 2, 2), dtype=np.uint8), (np.nextafter(bottom, 0), 1, 1))
    gt = np.zeros((6, 5, 3), dtype=np.uint8)
    pred = gt.copy()
    gt[1:3, 1:3, 1] = pred[2:4, 1:3, 1] = 1
    s = evaluate_pair(
        "x", Volume(gt, (bottom, 1, 1)), Volume(pred, (bottom, 1, 1)), RunConfig(tau=0.0)
    )
    assert (s.image.voxel_hd95_mm, s.image.assd_mm) == (bottom, bottom / 2)
    assert s.pairs.hd95_mm.tolist() == [bottom]


@pytest.mark.parametrize(
    "spacing",
    [
        (-1.0, 2.0, 1.0), (0.0, 2.0, 1.0), (1, np.nan, 1), (1, 1, np.inf), (1, 1, 1e39),
        (1, 1, 1e-300),
    ],
)
def test_foreground_rejects_bad_spacing(spacing):
    # a negative or zero spacing used to give lesion volumes of -6.0 or 0.0 mm^3
    with pytest.raises(ValueError, match="spacing"):
        Foreground(np.array([0, 1, 2]), (10, 10, 10), spacing)


def test_spacing_bound_is_the_largest_pixdim():
    # every squared mm offset of the surface search stays finite up to the bound
    top = float(np.finfo(np.float32).max)
    assert Volume(np.zeros((2, 2, 2), np.uint8), (top, 1, 1)).spacing == (top, 1.0, 1.0)
    Foreground(np.array([0]), (2, 2, 2), (1, top, 1))
    with pytest.raises(ValueError, match="spacing"):
        Foreground(np.array([0]), (2, 2, 2), (1, np.nextafter(top, np.inf), 1))


@pytest.mark.parametrize(
    "index, dims",
    [
        # descending: used to label two face neighbours as 2 lesions
        pytest.param([1, 0], (3, 3, 3), id="descending"),
        # repeated: used to give one 3-voxel lesion made of 2 voxels
        pytest.param([0, 0, 1], (3, 3, 3), id="repeated"),
        pytest.param([0, 27], (3, 3, 3), id="past-the-grid"),
        pytest.param([-1, 0], (3, 3, 3), id="negative"),
        pytest.param([0.0, 1.0], (3, 3, 3), id="float"),
        pytest.param([[0, 1]], (3, 3, 3), id="2-d"),
        pytest.param([0, 1], (3, 3), id="two-dims"),
        pytest.param([0, 1], (3, 0, 3), id="zero-dim"),
        pytest.param([0, 1], (3, -3, 3), id="negative-dim"),
        pytest.param([0, 1], (3, 3.0, 3), id="float-dim"),
    ],
)
def test_foreground_rejects_malformed_index_or_dims(index, dims):
    with pytest.raises(ValueError, match="index|dims"):
        Foreground(np.array(index), dims, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64, np.uint64])
def test_foreground_accepts_any_integer_dtype(dtype):
    for index in ([], [0], [0, 1, 5, 26]):
        fg = Foreground(np.array(index, dtype=dtype), (3, 3, 3), (1.0, 1.0, 1.0))
        assert fg.index.size == len(index)


def test_big_endian_read(tmp_path):
    # re-encode a written file byte-swapped and check the parser detects it
    v = Volume(np.arange(8, dtype=np.int16).reshape((2, 2, 2), order="F"), (1, 1, 1))
    p = tmp_path / "le.nii"
    write_volume(v, str(p))
    raw = bytearray(p.read_bytes())
    import struct

    def swap(fmt, off):
        vals = struct.unpack_from("<" + fmt, raw, off)
        struct.pack_into(">" + fmt, raw, off, *vals)

    swap("i", 0)
    swap("8h", 40)
    swap("h", 70)
    swap("h", 72)
    swap("8f", 76)
    swap("f", 108)
    swap("2f", 112)
    body = np.frombuffer(raw[VOX_OFFSET:], dtype="<i2").astype(">i2").tobytes()
    pb = tmp_path / "be.nii"
    pb.write_bytes(bytes(raw[:VOX_OFFSET]) + body)
    assert read_volume(str(pb)) == v


def test_hdr_img_pair(tmp_path):
    v = Volume(np.arange(8, dtype=np.uint8).reshape((2, 2, 2), order="F"), (1, 1, 1))
    single = tmp_path / "m.nii"
    write_volume(v, str(single))
    raw = bytearray(single.read_bytes())
    raw[344:348] = b"ni1\x00"
    struct.pack_into("<f", raw, 108, 0.0)  # a pair's voxels start the .img
    (tmp_path / "pair.hdr").write_bytes(bytes(raw[:348]))
    (tmp_path / "pair.img").write_bytes(bytes(raw[VOX_OFFSET:]))
    assert read_volume(str(tmp_path / "pair.hdr")) == v


def test_gzipped_hdr_img_pair(tmp_path):
    # scan.hdr.gz names its voxels scan.img.gz, not scan.hdr.img
    data = np.zeros((3, 2, 2), dtype=np.uint8)
    data[1, 0, 1] = data[2, 1, 0] = 1
    v = Volume(data, (1, 1, 1))
    write_volume(v, str(tmp_path / "m.nii"))
    raw = bytearray((tmp_path / "m.nii").read_bytes())
    raw[344:348] = b"ni1\x00"
    struct.pack_into("<f", raw, 108, 0.0)
    (tmp_path / "scan.hdr.gz").write_bytes(gzip.compress(bytes(raw[:348])))
    (tmp_path / "scan.img.gz").write_bytes(gzip.compress(bytes(raw[VOX_OFFSET:])))
    hdr = str(tmp_path / "scan.hdr.gz")
    assert read_volume(hdr) == v
    fg = read_foreground(hdr)
    assert np.array_equal(fg.index, Foreground.from_mask(v).index) and fg.dims == v.dims


def _pair_with_offset(tmp_path, vox_offset, img):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    write_volume(v, str(tmp_path / "m.nii"))
    raw = bytearray((tmp_path / "m.nii").read_bytes()[:348])
    raw[344:348] = b"ni1\x00"
    struct.pack_into("<f", raw, 108, vox_offset)
    (tmp_path / "pair.hdr").write_bytes(bytes(raw))
    (tmp_path / "pair.img").write_bytes(img)
    return str(tmp_path / "pair.hdr")


def test_hdr_img_pair_honours_vox_offset(tmp_path):
    # the voxels 0..7 follow 16 bytes of 7s; reading from byte 0 gives 7s
    hdr = _pair_with_offset(tmp_path, 16.0, b"\x07" * 16 + bytes(range(8)))
    expected = np.arange(8, dtype=np.uint8).reshape((2, 2, 2), order="F")
    assert np.array_equal(read_volume(hdr).data, expected)
    # the size check counts the offset
    hdr = _pair_with_offset(tmp_path, 16.0, b"\x07" * 16 + bytes(range(7)))
    with pytest.raises(TruncatedFile):
        read_volume(hdr)


def test_hdr_img_pair_negative_vox_offset_rejected(tmp_path):
    hdr = _pair_with_offset(tmp_path, -4.0, bytes(range(8)))
    with pytest.raises(BadMagic, match="vox_offset"):
        read_volume(hdr)


def _corrupt_gzip(stream: bytes, how: str) -> bytes:
    if how == "cut-in-half":
        return stream[: len(stream) // 2]
    b = bytearray(stream)
    if how == "bad-deflate":
        b[10] |= 0b110  # first block's type becomes the reserved type 3
    else:  # bad-crc
        b[-8] ^= 0xFF
    return bytes(b)


@pytest.mark.parametrize(
    "how, error",
    [("cut-in-half", TruncatedFile), ("bad-deflate", BadMagic), ("bad-crc", BadMagic)],
)
def test_corrupt_gzip_rejected(tmp_path, how, error):
    v = Volume(np.ones((6, 5, 4), dtype=np.uint8), (1, 1, 1))
    write_volume(v, str(tmp_path / "m.nii"))
    stream = gzip.compress((tmp_path / "m.nii").read_bytes(), mtime=0)
    p = tmp_path / "m.nii.gz"
    p.write_bytes(_corrupt_gzip(stream, how))
    # the CRC is checked at the stream's end, after the last voxel
    for read in (read_volume, read_foreground):
        with pytest.raises(error):
            read(str(p))


def test_bool_data_written_as_uint8(tmp_path):
    v = Volume(np.eye(3, dtype=bool)[:, :, None].repeat(2, axis=2), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    w = read_volume(str(p))
    assert w.data.dtype == np.uint8 and w == v


def test_byte_count_2x2x2_binary(tmp_path):
    # 348-byte header + 4-byte extension flag + 8 u8 voxels
    v = Volume(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    assert p.stat().st_size == 352 + 8


def test_write_nonexistent_dir_fails(tmp_path):
    v = Volume(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    with pytest.raises(IoFailure):
        write_volume(v, str(tmp_path / "no" / "such" / "dir" / "m.nii"))


def test_json_fixture_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    v = Volume(rng.integers(0, 2, (3, 4, 2)).astype(np.uint8), (1.5, 1.0, 3.0))
    p = tmp_path / "m.json"
    write_volume(v, str(p))
    assert read_volume(str(p)) == v


def test_json_fixture_handwritten(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"dims": [2, 1, 1], "spacing": [1, 1, 1], "data": [1, 0]}')
    v = read_volume(str(p))
    assert v.dims == (2, 1, 1)
    assert v.data[0, 0, 0] == 1 and v.data[1, 0, 0] == 0


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
def test_roundtrip_all_datatypes(tmp_path, dtype):
    rng = np.random.default_rng(5)
    data = (rng.random((4, 3, 5)) * 100).astype(dtype)
    v = Volume(data, (0.5, 0.5, 2.0))
    p = tmp_path / "m.nii"
    write_volume(v, str(p))
    w = read_volume(str(p))
    assert w.data.dtype == np.dtype(dtype)
    assert np.array_equal(w.data, data)


def test_gzip_detected_by_magic_not_suffix(tmp_path):
    # a gzipped payload with a .nii name must still be readable
    v = Volume(np.ones((2, 2, 2), dtype=np.uint8), (1, 1, 1))
    plain = tmp_path / "m.nii"
    write_volume(v, str(plain))
    disguised = tmp_path / "hidden.nii"
    disguised.write_bytes(gzip.compress(plain.read_bytes()))
    assert read_volume(str(disguised)) == v


def test_binarize_definition_and_idempotence():
    data = np.array([[[0.2, 0.7]]], dtype=np.float32)
    v = Volume(data, (1, 1, 1))
    b = binarize(v, 0.5)
    assert b.data.dtype == np.uint8
    assert b.data.tolist() == [[[0, 1]]]
    assert binarize(b, 0.5) == b


def test_binarize_preserves_binary_input():
    v = Volume(np.array([[[0, 1, 1, 0]]], dtype=np.uint8).reshape(4, 1, 1), (1, 1, 1))
    assert np.array_equal(binarize(v).data, v.data)


def test_binarize_zero_volume():
    v = Volume(np.zeros((3, 3, 3), dtype=np.float32), (1, 1, 1))
    assert binarize(v).foreground_count() == 0


def test_check_compatibility():
    a = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0))
    b = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1.0, 1.0, 1.0))
    check_compatibility(a, b)
    c = Volume(np.zeros((4, 4, 5), dtype=np.uint8), (1.0, 1.0, 1.0))
    with pytest.raises(DimsMismatch):
        check_compatibility(a, c)
    d = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1.2, 1.0, 1.0))
    with pytest.raises(SpacingMismatch):
        check_compatibility(a, d)
    # within relative tolerance 1e-4
    e = Volume(np.zeros((4, 4, 4), dtype=np.uint8), (1.0 + 5e-5, 1.0, 1.0))
    check_compatibility(a, e)


@pytest.mark.parametrize(
    "text",
    [
        '{"dims": [2, 1, 1], "data": [1, 0]}',
        '{"spacing": [1, 1, 1], "data": [1, 0]}',
        '{"dims": [2, 1, 1], "spacing": [1, 1, 1]}',
        '{"dims": [2, 1, 1], "spacing": "wide", "data": [1, 0]}',
        '{"dims": [2, 1], "spacing": [1, 1, 1], "data": [1, 0]}',
        '{"dims": [2, 1, 1], "spacing": [1, 1], "data": [1, 0]}',
        '{"dims": [2, 1, 1], "spacing": [1, 1, 1], "data": [1, null]}',
        '[2, 1, 1]',
    ],
    ids=["no-spacing", "no-dims", "no-data", "spacing-str", "dims-2", "spacing-2",
         "data-null", "not-object"],
)
def test_json_fixture_malformed_fields(tmp_path, text):
    p = tmp_path / "m.json"
    p.write_text(text)
    with pytest.raises(BadMagic):
        read_volume(str(p))


@pytest.mark.parametrize(
    "dims, n",
    [("[2.9, 2, 2]", 8), ("[true, 2, 2]", 4), ('["2", 2, 2]', 8)],
    ids=["float", "bool", "str"],
)
def test_json_fixture_dims_must_be_ints(tmp_path, dims, n):
    # each used to be coerced by int(): 2.9 to 2, true to 1, "2" to 2
    p = tmp_path / "m.json"
    p.write_text(f'{{"dims": {dims}, "spacing": [1, 1, 1], "data": {[1] * n}}}')
    for read in (read_volume, read_foreground):
        with pytest.raises(BadMagic, match=r"dims \[.*\] must be integers"):
            read(str(p))


@pytest.mark.parametrize(
    "spacing",
    ['[true, 1, 1]', '[1, "2", 1]', '[1, 1, null]', '[1, [1], 1]'],
    ids=["bool", "str", "null", "list"],
)
def test_json_fixture_spacing_must_be_numbers(tmp_path, spacing):
    # a bool or a string used to be coerced by float(): true to 1.0, "2" to 2.0
    p = tmp_path / "m.json"
    p.write_text(f'{{"dims": [2, 1, 1], "spacing": {spacing}, "data": [1, 0]}}')
    for read in (read_volume, read_foreground):
        with pytest.raises(BadMagic, match=r"spacing \[.*\] must be numbers"):
            read(str(p))
