"""Report bytes pinned to committed SHA-256s.

Two seeded synthetic cases are evaluated under every distance setting:
HD95 variant × distance units × connectivity. A change that is meant to
keep every reported number must keep these hashes; a change that means to
alter the reports updates them here, and says so.
"""
import csv
import hashlib

import pytest

from lesioneval.cli import main
from lesioneval.nifti import write_volume
from lesioneval.synth import SynthParams, generate_case

PARAMS = SynthParams(
    dims=(64, 64, 24),
    spacing=(0.9, 1.1, 3.0),
    counts={"VerySmall": 6, "Small": 6, "Medium": 3, "Large": 1},
    kinds=("none", "shift", "dilate", "erode", "split", "drop"),
    shift_max=2,
    dilate_max=1,
    erode_max=1,
    merge_pairs=1,
    n_spurious=3,
)
SEEDS = (0, 3)

# (hd95 variant, distance units, connectivity) -> SHA-256 of the report tree
PINNED = {
    ("pooled", "mm", "6"): "f4af033ff5e7fefe58be2e7c5fc4701c85437606a0d300e11e6d85575cad6b93",
    ("pooled", "mm", "26"): "b5db1b9291489e82a96240f147b37afccd07769cd1d1787c3a2568471e976b65",
    ("pooled", "voxels", "6"): "8e472ece58361c24226a2d6db445201d9af5b047790470b0584cfa5879f1da84",
    ("pooled", "voxels", "26"): "e94a35ba4b8be7e4db6bba34eb2def38d9dd577e4184cc748b7ef6d009821edf",
    ("max-of-directed", "mm", "6"): "976c9b7b48dae90a23ae8d0446bcea93a83cf57362c4903d6c0001b0aac48154",
    ("max-of-directed", "mm", "26"): "d2e8cb7b3cc0c7dd41c9f2162c789e9bc50e6300a21add32fdd56337118ef759",
    ("max-of-directed", "voxels", "6"): "9af5715c195a67ac8803083f643e9ffe79cced52c8b7a0c9c609c241822aefea",
    ("max-of-directed", "voxels", "26"): "17f9bbb9d615d4dca4aa1f8fc65cd0cdee5d83b353abc96fb5df7fd38dc9f8df",
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    d = tmp_path_factory.mktemp("cases")
    rows = []
    for seed in SEEDS:
        case = generate_case(PARAMS, seed)
        for role, vol in (("gt", case.gt), ("pred", case.pred)):
            write_volume(vol, str(d / f"c{seed}_{role}.nii.gz"))
        rows.append([f"c{seed}", f"c{seed}_gt.nii.gz", f"c{seed}_pred.nii.gz"])
    path = d / "manifest.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([["sample_id", "gt_path", "pred_path"], *rows])
    return path


def _tree_sha256(root) -> str:
    """One hash over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids="-".join)
def test_report_bytes_are_pinned(manifest, tmp_path, key):
    variant, units, connectivity = key
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out),
                 "--hd95-variant", variant, "--distance-units", units,
                 "--connectivity", connectivity])
    assert code == 0
    assert _tree_sha256(out) == PINNED[key]
