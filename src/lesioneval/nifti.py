"""NIfTI-1 and JSON-fixture volume I/O.

Supports single-file NIfTI-1 (magic ``n+1\\0``), header/image pairs
(``ni1\\0``), transparent gzip (detected by the 0x1F8B leading bytes), and a
human-writable JSON fixture format for tests:
``{"dims": [x, y, z], "spacing": [sx, sy, sz], "data": [0, 1, ...]}``
with the flat data array in x-fastest order.
"""
from __future__ import annotations

import gzip
import json
import os
import struct

import numpy as np

from .errors import BadMagic, IoFailure, Not3D, TruncatedFile, UnsupportedDatatype
from .volume import Volume

HEADER_SIZE = 348
VOX_OFFSET = 352  # 348-byte header + 4-byte empty extension indicator

# NIfTI-1 datatype code -> numpy dtype (endianness applied at parse time)
DTYPE_BY_CODE = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
}
CODE_BY_DTYPE = {dt: code for code, dt in DTYPE_BY_CODE.items()}

GZIP_MAGIC = b"\x1f\x8b"


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    if raw[:2] == GZIP_MAGIC:
        raw = gzip.decompress(raw)
    return raw


def _parse_header(raw: bytes, path: str) -> tuple[dict, str]:
    """Parse the 348-byte header; returns (fields, endianness prefix)."""
    if len(raw) < HEADER_SIZE:
        raise BadMagic(f"{path}: file shorter than a NIfTI-1 header")
    for endian in ("<", ">"):
        (sizeof_hdr,) = struct.unpack_from(endian + "i", raw, 0)
        if sizeof_hdr == HEADER_SIZE:
            break
    else:
        raise BadMagic(f"{path}: sizeof_hdr is not 348 in either byte order")
    magic = raw[344:348]
    if magic not in (b"n+1\x00", b"ni1\x00"):
        raise BadMagic(f"{path}: bad magic {magic!r}")
    dim = struct.unpack_from(endian + "8h", raw, 40)
    (datatype,) = struct.unpack_from(endian + "h", raw, 70)
    pixdim = struct.unpack_from(endian + "8f", raw, 76)
    (vox_offset,) = struct.unpack_from(endian + "f", raw, 108)
    scl_slope, scl_inter = struct.unpack_from(endian + "2f", raw, 112)
    fields = {
        "dim": dim,
        "datatype": int(datatype),
        "pixdim": pixdim,
        "vox_offset": int(round(vox_offset)),
        "scl_slope": float(scl_slope),
        "scl_inter": float(scl_inter),
        "magic": magic,
    }
    return fields, endian


def _read_nifti(path: str) -> Volume:
    raw = _read_bytes(path)
    hdr, endian = _parse_header(raw, path)
    dim = hdr["dim"]
    ndim = dim[0]
    if ndim not in (3, 4):
        raise Not3D(f"{path}: dim[0] = {ndim}")
    if ndim == 4 and dim[4] != 1:
        raise Not3D(f"{path}: 4th extent is {dim[4]}, expected 1")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise Not3D(f"{path}: non-positive extent in {dims}")

    spacing = []
    fixed = False
    for p in hdr["pixdim"][1:4]:
        s = abs(float(p))
        if s == 0.0:
            s = 1.0
            fixed = True
        spacing.append(s)

    code = hdr["datatype"]
    if code not in DTYPE_BY_CODE:
        raise UnsupportedDatatype(f"{path}: datatype code {code}")
    dtype = DTYPE_BY_CODE[code].newbyteorder(endian)

    if hdr["magic"] == b"ni1\x00":
        # header/image pair: voxel data lives in the sibling .img file
        img_path = os.path.splitext(path)[0] + ".img"
        body = _read_bytes(img_path)
        offset = 0
    else:
        body = raw
        offset = hdr["vox_offset"]

    nvox = dims[0] * dims[1] * dims[2]
    nbytes = nvox * dtype.itemsize
    if len(body) < offset + nbytes:
        raise TruncatedFile(
            f"{path}: need {offset + nbytes} bytes, file has {len(body)}"
        )
    flat = np.frombuffer(body, dtype=dtype, count=nvox, offset=offset)
    data = flat.reshape(dims, order="F")
    data = np.asarray(data, dtype=dtype.newbyteorder("="))

    slope, inter = hdr["scl_slope"], hdr["scl_inter"]
    if slope != 0.0 and not (slope == 1.0 and inter == 0.0):
        data = data * slope + inter

    return Volume(data, tuple(spacing), source_path=path, spacing_was_fixed=fixed)


def _read_json_fixture(path: str) -> Volume:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
        dims = tuple(int(d) for d in obj["dims"])
        spacing = tuple(float(s) for s in obj["spacing"])
        flat = np.asarray(obj["data"], dtype=np.uint8)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise BadMagic(f"{path}: not a JSON fixture: {type(e).__name__}: {e}") from e
    if len(dims) != 3 or len(spacing) != 3:
        raise BadMagic(f"{path}: dims and spacing need three entries each")
    if flat.size != dims[0] * dims[1] * dims[2]:
        raise TruncatedFile(f"{path}: data length {flat.size} != product of dims {dims}")
    data = flat.reshape(dims, order="F")
    return Volume(data, spacing, source_path=path)


def read_volume(path: str) -> Volume:
    """Read a NIfTI-1 (optionally gzipped) or ``.json`` fixture volume."""
    path = str(path)
    if path.endswith(".json"):
        return _read_json_fixture(path)
    return _read_nifti(path)


def _build_header(v: Volume, code: int, bitpix: int) -> bytes:
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    hdr[38] = ord("r")  # 'regular' byte, conventional
    struct.pack_into("<8h", hdr, 40, 3, *v.dims, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *v.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(VOX_OFFSET))
    struct.pack_into("<2f", hdr, 112, 0.0, 0.0)  # no scaling
    descrip = b"lesioneval"
    hdr[148 : 148 + len(descrip)] = descrip
    hdr[344:348] = b"n+1\x00"
    return bytes(hdr)


def write_volume(v: Volume, path: str) -> None:
    """Write a volume as single-file NIfTI-1 (gzipped for .gz) or JSON fixture."""
    path = str(path)
    if path.endswith(".json"):
        obj = {
            "dims": list(v.dims),
            "spacing": list(v.spacing),
            "data": np.asarray(v.data, order="F").ravel(order="F").tolist(),
        }
        try:
            with open(path, "w") as f:
                json.dump(obj, f)
        except OSError as e:
            raise IoFailure(f"cannot write {path}: {e}") from e
        return

    data = v.data
    if v.binary and data.dtype != np.uint8:
        data = data.astype(np.uint8)
    dtype = data.dtype.newbyteorder("=")
    if dtype not in CODE_BY_DTYPE:
        raise UnsupportedDatatype(f"cannot encode dtype {dtype}")
    code = CODE_BY_DTYPE[dtype]
    payload = (
        _build_header(v, code, dtype.itemsize * 8)
        + b"\x00\x00\x00\x00"  # no header extensions
        + np.asarray(data, dtype=dtype.newbyteorder("<")).tobytes(order="F")
    )
    try:
        if path.endswith(".gz"):
            with open(path, "wb") as f:
                with gzip.GzipFile(fileobj=f, mode="wb", mtime=0) as gz:
                    gz.write(payload)
        else:
            with open(path, "wb") as f:
                f.write(payload)
    except OSError as e:
        raise IoFailure(f"cannot write {path}: {e}") from e
