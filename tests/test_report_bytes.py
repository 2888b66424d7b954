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
    ("pooled", "mm", "6"): "34c3ee024240cad54f6109a1030c636c6e419ea1cf71ad683b63038934e86d8b",
    ("pooled", "mm", "26"): "67c98f135c5d41915e7e16a4c1abc3c0012ee9121fd688311a229abde4498950",
    ("pooled", "voxels", "6"): "452e5682379cb7538880a24c43c3cb328cd6681f048ecec0ad9172aa0c5f32e2",
    ("pooled", "voxels", "26"): "34a34beb47a98862bf8a2416ebd018e6132ef152831e5e92d92ae45d6231bccc",
    ("max-of-directed", "mm", "6"): "66d31abc8f8300ed7ac056f3c947aee0f69d3924f67faf7d6580fda56bbb2846",
    ("max-of-directed", "mm", "26"): "fadafa66634ec363c6ba50f51a98c2354659a4eade0afeb28f9765640c7423f4",
    ("max-of-directed", "voxels", "6"): "87752bba1f579e1ce95f51d23409ecc54803749618342525e8f2f677640361f3",
    ("max-of-directed", "voxels", "26"): "bf80f08fc4c3baae4f6db304db5762f1cfb6bfdf443c88a08d0d52be3aab82e0",
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
