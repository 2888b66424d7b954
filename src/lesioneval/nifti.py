"""NIfTI-1 and JSON-fixture volume I/O.

Supports single-file NIfTI-1 (magic ``n+1\\0``), header/image pairs
(``ni1\\0``), transparent gzip (detected by the 0x1F8B leading bytes), and a
human-writable JSON fixture format for tests:
``{"dims": [x, y, z], "spacing": [sx, sy, sz], "data": [0, 1, ...]}``
with the flat data array in x-fastest order.

NIfTI voxels are streamed: the file is read in whole voxels, ``CHUNK_BYTES``
at a time, into one reused buffer, so reading holds one chunk plus what the
caller keeps.
"""
from __future__ import annotations

import contextlib
import gzip
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import BadMagic, IoFailure, Not3D, TruncatedFile, UnsupportedDatatype
from .volume import Foreground, Volume, above, binarize, index_dtype

HEADER_SIZE = 348
VOX_OFFSET = 352  # 348-byte header + 4-byte empty extension indicator
CHUNK_BYTES = 1 << 20  # most voxel bytes read per step, but at least one voxel
# deflate codes at most 258 bytes in 2 bits, so a gzip stream never inflates
# to more than this many times its size
MAX_INFLATE_RATIO = 1032

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


@contextlib.contextmanager
def _stream_errors(path: str):
    """Turn a failed read of ``path`` into the LesionEvalError it means."""
    try:
        yield
    except EOFError as e:
        raise TruncatedFile(f"{path}: gzip stream ends early") from e
    except (zlib.error, gzip.BadGzipFile) as e:
        raise BadMagic(f"{path}: corrupt gzip stream: {e}") from e
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e


def _open(path: str):
    """(stream, most bytes it can yield, gzipped?) for one file."""
    try:
        with open(path, "rb") as f:
            gz = f.read(2) == GZIP_MAGIC
        size = os.path.getsize(path)
        stream = gzip.open(path, "rb") if gz else open(path, "rb")
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    return stream, size * MAX_INFLATE_RATIO if gz else size, gz


class _VoxelSource:
    """One NIfTI-1 volume: its checked header, then its voxels in chunks.

    Use as a context manager; ``chunks`` yields the voxels in file order.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._stream, limit, self._gz = _open(path)
        try:
            with _stream_errors(path):
                self._parse(self._stream.read(HEADER_SIZE), limit)
        except BaseException:
            self._stream.close()
            raise

    def __enter__(self) -> "_VoxelSource":
        return self

    def __exit__(self, *exc) -> None:
        self._stream.close()

    def _parse(self, raw: bytes, limit: int) -> None:
        path = self.path
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
        (code,) = struct.unpack_from(endian + "h", raw, 70)
        pixdim = struct.unpack_from(endian + "3f", raw, 80)
        (vox_offset,) = struct.unpack_from(endian + "f", raw, 108)
        slope, inter = struct.unpack_from(endian + "2f", raw, 112)
        if not math.isfinite(vox_offset):
            raise BadMagic(f"{path}: vox_offset is {vox_offset}")

        ndim = dim[0]
        if ndim not in (3, 4):
            raise Not3D(f"{path}: dim[0] = {ndim}")
        if ndim == 4 and dim[4] != 1:
            raise Not3D(f"{path}: 4th extent is {dim[4]}, expected 1")
        self.dims = tuple(int(d) for d in dim[1:4])
        if any(d < 1 for d in self.dims):
            raise Not3D(f"{path}: non-positive extent in {self.dims}")

        spacing = []
        self.spacing_was_fixed = False
        for p in pixdim:
            if not math.isfinite(p):
                raise BadMagic(f"{path}: pixdim {pixdim} is not finite")
            s = abs(float(p))
            if s == 0.0:
                s = 1.0
                self.spacing_was_fixed = True
            spacing.append(s)
        self.spacing = tuple(spacing)

        if code not in DTYPE_BY_CODE:
            raise UnsupportedDatatype(f"{path}: datatype code {code}")
        self.dtype = DTYPE_BY_CODE[code].newbyteorder(endian)
        self.chunk_voxels = max(CHUNK_BYTES // self.dtype.itemsize, 1)  # whole voxels per read

        # a zero or NaN slope means unscaled, as the NIfTI reference library
        # and nibabel read it
        self.scale = None
        if not (slope == 0.0 or math.isnan(slope) or (slope == 1.0 and inter == 0.0)):
            if not (math.isfinite(slope) and math.isfinite(inter)):
                raise BadMagic(f"{path}: scl_slope {slope}, scl_inter {inter}")
            self.scale = (slope, inter)

        offset = int(round(vox_offset))
        if magic == b"ni1\x00":
            # header/image pair: voxel data lives in the sibling .img (.img.gz) file
            if offset < 0:
                raise BadMagic(f"{path}: vox_offset {offset} is negative")
            stem, gz = (path[:-3], ".gz") if path.endswith(".gz") else (path, "")
            self._stream.close()
            self._stream, limit, self._gz = _open(os.path.splitext(stem)[0] + ".img" + gz)
            at = 0
        else:
            if offset < VOX_OFFSET:
                raise BadMagic(f"{path}: vox_offset {offset} lies inside the header")
            at = HEADER_SIZE

        self.nvox = self.dims[0] * self.dims[1] * self.dims[2]
        need = offset + self.nvox * self.dtype.itemsize
        if need > limit:
            # before any large allocation; a gzip stream is bounded by its
            # largest possible inflation, and checked exactly as it is read
            if self._gz:
                raise TruncatedFile(f"{path}: need {need} bytes, file holds at most {limit}")
            raise TruncatedFile(f"{path}: voxel data ends {need - limit} bytes early")
        self._stream.seek(offset - at, os.SEEK_CUR)

    def chunks(self):
        """Yield (index of the first voxel, voxel values) in file order.

        Each step reads ``chunk_voxels`` whole voxels, or the rest. A
        buffered read fills its request unless the stream ends, so a short
        one means the file ends early. The values are scaled, or a view of
        the reused buffer that is valid until the next step. A gzip stream is
        then read to its end in the same buffer, which checks its CRC without
        holding what follows.
        """
        itemsize = self.dtype.itemsize
        buf = bytearray(self.chunk_voxels * itemsize)
        view = memoryview(buf)
        with _stream_errors(self.path):
            for first in range(0, self.nvox, self.chunk_voxels):
                want = min(self.chunk_voxels, self.nvox - first) * itemsize
                got = self._stream.readinto(view[:want])
                if got < want:
                    left = (self.nvox - first) * itemsize - got
                    raise TruncatedFile(f"{self.path}: voxel data ends {left} bytes early")
                chunk = np.frombuffer(buf, self.dtype, count=want // itemsize)
                if self.scale is not None:
                    chunk = chunk * self.scale[0]
                    chunk += self.scale[1]
                yield first, chunk
            while self._gz and self._stream.readinto(view):
                pass


def _read_nifti(path: str) -> Volume:
    with _VoxelSource(path) as src:
        out = None
        for first, chunk in src.chunks():
            if out is None:
                out = np.empty(src.nvox, chunk.dtype.newbyteorder("="))
            out[first : first + chunk.size] = chunk
    data = out.reshape(src.dims, order="F")
    return Volume(data, src.spacing, source_path=path, spacing_was_fixed=src.spacing_was_fixed)


def _read_json_fixture(path: str) -> Volume:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(raw)  # bytes that are not UTF-8 (-16, -32) raise UnicodeDecodeError
        dims = tuple(obj["dims"])
        spacing = tuple(obj["spacing"])
        if not all(type(s) in (int, float) for s in spacing):
            raise TypeError(f"spacing {list(spacing)} must be numbers")
        spacing = tuple(map(float, spacing))
        # the values as written: ints stay ints, floats (NaN too) floats
        flat = np.asarray(obj["data"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise BadMagic(f"{path}: not a JSON fixture: {type(e).__name__}: {e}") from e
    if len(dims) != 3 or len(spacing) != 3:
        raise BadMagic(f"{path}: dims and spacing need three entries each")
    if not all(type(d) is int for d in dims):
        raise BadMagic(f"{path}: dims {list(dims)} must be integers")
    if min(dims) < 1:
        raise BadMagic(f"{path}: dims {list(dims)} must be >= 1")
    if flat.ndim != 1 or flat.dtype.kind not in "biuf":
        raise BadMagic(f"{path}: data must be a flat list of numbers")
    if flat.size != dims[0] * dims[1] * dims[2]:
        raise TruncatedFile(f"{path}: data length {flat.size} != product of dims {dims}")
    try:
        return Volume(flat.reshape(dims, order="F"), spacing, source_path=path)
    except ValueError as e:  # the spacing: dims and data are checked above
        raise BadMagic(f"{path}: {e}") from e


def read_volume(path: str) -> Volume:
    """Read a NIfTI-1 (optionally gzipped) or ``.json`` fixture volume."""
    path = str(path)
    if path.endswith(".json"):
        return _read_json_fixture(path)
    return _read_nifti(path)


def read_foreground(path: str, threshold: float = 0.5) -> Foreground:
    """The voxels of a volume file above ``threshold``, read without its grid.

    Equal to ``flatnonzero(read_volume(path).data.T > threshold)``: NIfTI's
    x-fastest voxel order is the z-major scan order, so each chunk's hits,
    offset by the chunk's first voxel, extend the ascending index. Each
    chunk's hits are cast to the grid's ``index_dtype`` on their own.
    """
    path = str(path)
    if path.endswith(".json"):
        return Foreground.from_mask(binarize(_read_json_fixture(path), threshold))
    with _VoxelSource(path) as src:
        # one mask for every chunk: a fresh one per chunk costs more than the compare
        mask = np.empty(src.chunk_voxels, bool)
        dtype = index_dtype(src.dims)
        hits = [
            np.flatnonzero(above(chunk, threshold, path, mask[: chunk.size])).astype(dtype)
            + first
            for first, chunk in src.chunks()
        ]
    return Foreground(np.concatenate(hits), src.dims, src.spacing)


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
    """Write a volume as single-file NIfTI-1 (gzipped for .gz) or JSON fixture.

    Bool data is written as uint8.
    """
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

    data = v.data.view(np.uint8) if v.data.dtype == bool else v.data
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
