"""Seeded input generation for the benchmark workloads, with an on-disk cache.

Inputs are a pure function of (workload, seed, generator parameters). They
are written with the benchmark's own minimal NIfTI-1 writer, so the
program's reader is exercised on files it did not produce, and read back
for the checks with the benchmark's own reader.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
from scipy import ndimage

# Bump when the generator code changes in a way that alters its output.
GEN_VERSION = 3

MS_COHORT = {
    "cases": 8,
    "pool": 16,  # case seeds 0..15; a workload seed picks 8 of them
    "dims": [182, 218, 182],
    "spacing": [1.0, 1.0, 1.0],
    "counts": {"VerySmall": 12, "Small": 16, "Medium": 12, "Large": 6},
    "kinds": ["none", "shift", "dilate", "erode", "split", "drop"],
    "shift_max": 2,
    "dilate_max": 1,
    "erode_max": 1,
    "merge_pairs": 2,
    "n_spurious": 10,
    "score_in": [0.55, 1.0],
    "score_rim": [0.05, 0.45],
}

# Acceptance criterion 12's cube field, on a 192^3 grid with smaller cubes.
DENSE_FIELD = {
    "dim": 192,
    "placements": 1500,
    "side": [2, 6],
    "pos_margin": 16,
    "jitter": [0, 1],
}

PARAMS = {"ms-cohort": MS_COHORT, "dense-field": DENSE_FIELD}

# Keep only this many cached input sets per workload.
CACHE_KEEP = 12
# ms-cohort cases are generated this many at a time (the machine has 2 cores).
GEN_PROCESSES = 2


# ---------------------------------------------------------------------------
# minimal NIfTI-1 single-file I/O (independent of lesioneval.nifti)

_NIFTI_CODES = {np.dtype(np.uint8): (2, 8), np.dtype(np.float32): (16, 32)}
_NIFTI_DTYPES = {2: np.dtype("<u1"), 16: np.dtype("<f4")}


def write_nifti(path: str, data: np.ndarray, spacing) -> None:
    """Write ``data`` (indexed [x, y, z]) as little-endian NIfTI-1, gzipped for .gz."""
    code, bitpix = _NIFTI_CODES[data.dtype]
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<hh", hdr, 70, code, bitpix)
    struct.pack_into("<8f", hdr, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)
    hdr[344:348] = b"n+1\x00"
    payload = bytes(hdr) + b"\x00" * 4 + data.astype(data.dtype.newbyteorder("<")).tobytes(order="F")
    if path.endswith(".gz"):
        payload = gzip.compress(payload, compresslevel=6, mtime=0)
    with open(path, "wb") as f:
        f.write(payload)


def read_nifti(path: str) -> tuple[np.ndarray, tuple]:
    """Read a file written by ``write_nifti``; returns (data [x, y, z], spacing)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    dim = struct.unpack_from("<8h", raw, 40)
    (code,) = struct.unpack_from("<h", raw, 70)
    pixdim = struct.unpack_from("<8f", raw, 76)
    shape = tuple(dim[1:4])
    flat = np.frombuffer(raw, dtype=_NIFTI_DTYPES[code], count=int(np.prod(shape)), offset=352)
    return flat.reshape(shape, order="F").copy(), tuple(float(s) for s in pixdim[1:4])


# ---------------------------------------------------------------------------
# generators


def dense_field_arrays(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 12's generator: cubes at random places, the prediction jittered."""
    p = DENSE_FIELD
    rng = np.random.default_rng(seed)
    n, k = p["dim"], p["placements"]
    gt = np.zeros((n, n, n), dtype=np.uint8)
    centers = []
    for _ in range(k):
        side = int(rng.integers(p["side"][0], p["side"][1] + 1))
        pos = rng.integers(0, n - p["pos_margin"], 3)
        gt[pos[0]:pos[0] + side, pos[1]:pos[1] + side, pos[2]:pos[2] + side] = 1
        centers.append((pos, side))
    pred = np.zeros_like(gt)
    for (pos, side), jitter in zip(centers, rng.integers(p["jitter"][0], p["jitter"][1] + 1, k)):
        q = pos + jitter
        pred[q[0]:q[0] + side, q[1]:q[1] + side, q[2]:q[2] + side] = 1
    return gt, pred


def ms_synth_params(synth):
    p = MS_COHORT
    return synth.SynthParams(
        dims=tuple(p["dims"]),
        spacing=tuple(p["spacing"]),
        counts=dict(p["counts"]),
        kinds=tuple(p["kinds"]),
        shift_max=p["shift_max"],
        dilate_max=p["dilate_max"],
        erode_max=p["erode_max"],
        merge_pairs=p["merge_pairs"],
        n_spurious=p["n_spurious"],
    )


def score_map(pred_mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """float32 scores whose ``> 0.5`` set is exactly ``pred_mask``.

    Every predicted voxel scores in ``score_in``; a one-voxel rim around each
    predicted lesion scores in ``score_rim``, below the threshold.
    """
    p = MS_COHORT
    fg = pred_mask != 0
    rim = ndimage.binary_dilation(fg, structure=ndimage.generate_binary_structure(3, 1)) & ~fg
    out = np.zeros(pred_mask.shape, dtype=np.float32)
    out[fg] = rng.uniform(*p["score_in"], size=int(fg.sum())).astype(np.float32)
    out[rim] = rng.uniform(*p["score_rim"], size=int(rim.sum())).astype(np.float32)
    if not (np.array_equal(out > 0.5, fg)):
        raise RuntimeError("score map does not threshold to the prediction mask")
    return out


# ---------------------------------------------------------------------------
# cache


def source_hash(src: str) -> str:
    """SHA-256 of every ``lesioneval/*.py`` under ``src``, which ms-cohort's inputs come from."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "lesioneval")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def cache_key(workload: str, seed: int, src: str) -> str:
    """Key of one input set: made again when the generator or, for ms-cohort, lesioneval changes."""
    key = {"workload": workload, "seed": seed, "params": PARAMS[workload], "gen": GEN_VERSION}
    if workload == "ms-cohort":
        key["lesioneval"] = source_hash(src)
    blob = json.dumps(key, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_manifest(path: str, rows: list[tuple[str, str, str]]) -> None:
    with open(path, "w", newline="") as f:
        f.write("sample_id,gt_path,pred_path\n")
        for sid, g, p in rows:
            f.write(f"{sid},{g},{p}\n")


def _ms_case(out: str, case_seed: int, src: str) -> None:
    """Write case ``case_seed`` of the pool as GT and score-map files in ``out``."""
    if src not in sys.path:
        sys.path.insert(0, src)
    from lesioneval import synth

    case = synth.generate_case(ms_synth_params(synth), case_seed)
    rng = np.random.default_rng([case_seed, 5])
    gt_name, pred_name = ms_case_files(case_seed)
    for name, data in ((gt_name, case.gt.data.astype(np.uint8)), (pred_name, score_map(case.pred.data, rng))):
        tmp = os.path.join(out, f".{name}.tmp{os.getpid()}")
        write_nifti(tmp, data, MS_COHORT["spacing"])
        os.replace(tmp, os.path.join(out, name))


def ms_case_files(case_seed: int) -> tuple[str, str]:
    return f"case{case_seed:03d}_gt.nii.gz", f"case{case_seed:03d}_pred.nii.gz"


def ms_cohort_case_seeds(seed: int) -> list[int]:
    """The workload seed picks, in order, MS_COHORT["cases"] case seeds of the pool."""
    order = np.random.default_rng(seed).permutation(MS_COHORT["pool"])
    return [int(c) for c in order[:MS_COHORT["cases"]]]


def _make_ms_cases(pool_dir: str, case_seeds: list[int], src: str) -> None:
    """Make the missing pool cases in GEN_PROCESSES child processes, each waited for on every way out."""
    missing = [c for c in case_seeds
               if not all(os.path.exists(os.path.join(pool_dir, f)) for f in ms_case_files(c))]
    procs = []
    try:
        for k in range(min(GEN_PROCESSES, len(missing))):
            cmd = [sys.executable, os.path.abspath(__file__), pool_dir, src] + [str(c) for c in missing[k::GEN_PROCESSES]]
            procs.append(subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True))
        errors = []
        for p in procs:
            _, err = p.communicate()
            if p.returncode != 0:
                errors.append(f"exit {p.returncode}: {err.strip()[-2000:]}")
        if errors:
            raise RuntimeError("ms-cohort case generation failed: " + "; ".join(errors))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()


def _make_ms_cohort(out: str, seed: int, src: str) -> dict:
    """A manifest over the seed's cases, which live one level up in the shared pool."""
    case_seeds = ms_cohort_case_seeds(seed)
    _make_ms_cases(os.path.dirname(out), case_seeds, src)
    rows = [(f"case{c:03d}", *(os.path.join("..", f) for f in ms_case_files(c))) for c in case_seeds]
    _write_manifest(os.path.join(out, "manifest.csv"), rows)
    return {"samples": [r[0] for r in rows], "files": {r[0]: [r[1], r[2]] for r in rows}}


def _make_dense_field(out: str, seed: int) -> dict:
    gt, pred = dense_field_arrays(seed)
    write_nifti(os.path.join(out, "field_gt.nii"), gt, (1.0, 1.0, 1.0))
    write_nifti(os.path.join(out, "field_pred.nii"), pred, (1.0, 1.0, 1.0))
    _write_manifest(os.path.join(out, "manifest.csv"), [("field", "field_gt.nii", "field_pred.nii")])
    return {"samples": ["field"], "files": {"field": ["field_gt.nii", "field_pred.nii"]}}


def ensure_inputs(cache_root: str, workload: str, seed: int, src: str) -> tuple[str, dict, bool]:
    """Return (input dir, meta, made) for the workload, generating on a cache miss.

    ``src`` is the directory lesioneval is imported from. ms-cohort cases
    come from its ``synth.generate_case``, so they are made again when any
    of its modules changes. They are kept in a pool shared by all seeds, and
    a seed's input directory inside the pool holds only its manifest.
    """
    base = os.path.join(cache_root, workload)
    if workload == "ms-cohort":
        pool = os.path.join(base, cache_key(workload, None, src))
        os.makedirs(pool, exist_ok=True)
        _prune(base, keep=pool)
        base = pool
    key = cache_key(workload, seed, src)
    out = os.path.join(base, key)
    meta_path = os.path.join(out, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            meta = json.load(f)
        os.utime(out)
        return out, meta, False
    tmp = out + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload == "ms-cohort":
        meta = _make_ms_cohort(tmp, seed, src)
    else:
        meta = _make_dense_field(tmp, seed)
    meta.update({"workload": workload, "seed": seed, "params": PARAMS[workload], "gen": GEN_VERSION})
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    _prune(base, keep=out)
    return out, meta, True


def _prune(base: str, keep: str) -> None:
    entries = [os.path.join(base, e) for e in os.listdir(base)]
    entries = [e for e in entries if os.path.isdir(e) and e != keep and ".tmp" not in e]
    entries.sort(key=os.path.getmtime, reverse=True)
    for e in entries[CACHE_KEEP - 1:]:
        shutil.rmtree(e, ignore_errors=True)


if __name__ == "__main__":
    # python3 gen.py POOL_DIR SRC CASE_SEED...: write those ms-cohort pool cases.
    for _c in sys.argv[3:]:
        _ms_case(sys.argv[1], int(_c), sys.argv[2])
