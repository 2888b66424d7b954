import csv
import dataclasses
import json
import os
import threading

import numpy as np
import pytest

import lesioneval.cli
from conftest import random_blob_mask
from lesioneval.cli import main
from lesioneval.errors import BadMagic, ManifestParseError
from lesioneval.nifti import read_foreground, read_volume, write_volume
from lesioneval.pipeline import RunConfig, evaluate_pair, read_manifest
from lesioneval.report import emit_reports
from lesioneval.synth import SynthParams, generate_case


def _write_manifest(tmp_path, rows, extra_col=False):
    p = tmp_path / "manifest.csv"
    with open(p, "w", newline="") as f:
        w = csv.writer(f)
        header = ["sample_id", "gt_path", "pred_path"]
        if extra_col:
            header.append("model_tag")
        w.writerow(header)
        w.writerows(rows)
    return p


def _make_pair(tmp_path, name, rng, identical=True):
    gt = random_blob_mask(rng, (14, 14, 14), 0.2)
    write_volume(gt, str(tmp_path / f"{name}_gt.nii.gz"))
    pred = gt if identical else random_blob_mask(rng, (14, 14, 14), 0.2)
    write_volume(pred, str(tmp_path / f"{name}_pred.nii.gz"))
    return f"{name}_gt.nii.gz", f"{name}_pred.nii.gz"


def test_evaluate_perfect_sample(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g, p = _make_pair(tmp_path, "a", rng)
    manifest = _write_manifest(tmp_path, [["a", g, p]])
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 0
    sample = json.loads((out / "samples" / "a.json").read_text())
    assert sample["detection"]["fp"] == 0 and sample["detection"]["fn"] == 0
    assert sample["detection"]["tp"] == sample["gt_lesions"]


def _tree(root) -> dict:
    """Every file under ``root``, by its relative path, as bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_format_json_and_csv_write_their_part_of_the_both_tree(tmp_path):
    rng = np.random.default_rng(19)
    rows = [["a", *_make_pair(tmp_path, "a", rng, identical=False)],
            ["b", *_make_pair(tmp_path, "b", rng)],
            ["gone", "gone_gt.nii.gz", "gone_pred.nii.gz"]]
    manifest = _write_manifest(tmp_path, rows)
    trees = {}
    for fmt in ("both", "json", "csv"):
        out = tmp_path / fmt
        argv = ["evaluate", "--manifest", str(manifest), "--out", str(out), "--format", fmt]
        assert main(argv) == 2
        trees[fmt] = _tree(out)
    assert sorted(trees["both"]) == [
        "lesions.csv", "samples/a.json", "samples/b.json", "stratified.csv", "summary.json"
    ]
    for fmt in ("json", "csv"):
        assert trees[fmt] == {
            name: text for name, text in trees["both"].items() if name.endswith("." + fmt)
        }
    with pytest.raises(ValueError, match="'xml'"):
        emit_reports([], RunConfig(), str(tmp_path / "xml"), formats="xml")
    assert not (tmp_path / "xml").exists()


def test_a_reused_out_holds_only_this_runs_reports(tmp_path):
    # a second run into the same --out used to leave samples/b.json beside a
    # summary.json that lists only a, and a csv run kept the old JSON
    rng = np.random.default_rng(23)
    both = [[sid, *_make_pair(tmp_path, sid, rng, identical=False)] for sid in ("a", "b")]
    runs = [(both, "both"), (both[:1], "both"), (both, "both"), (both, "csv"), (both, "json")]
    for i, (rows, fmt) in enumerate(runs):
        manifest = _write_manifest(tmp_path, rows)
        argv = ["evaluate", "--manifest", str(manifest), "--format", fmt, "--out"]
        assert main([*argv, str(tmp_path / "reused")]) == 0
        assert main([*argv, str(tmp_path / f"fresh{i}")]) == 0
        assert _tree(tmp_path / "reused") == _tree(tmp_path / f"fresh{i}"), (rows, fmt)


def test_a_reused_out_keeps_files_the_tool_never_writes(tmp_path):
    v = random_blob_mask(np.random.default_rng(24), (10, 10, 10), 0.2)
    results = [evaluate_pair(sid, v, v, RunConfig()) for sid in ("a", "b")]
    out = tmp_path / "out"
    emit_reports(results, RunConfig(), str(out))
    own = {"notes.txt": b"mine", "old.json": b"{}", "samples/b.csv": b"x",
           "samples/b.json.bak": b"y", "samples/sub/c.json": b"{}"}
    for name, data in own.items():
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_bytes(data)
    emit_reports(results[:1], RunConfig(), str(out), formats="csv")
    tree = _tree(out)
    assert tree == {**own, **{n: tree[n] for n in ("lesions.csv", "stratified.csv")}}


def test_evaluate_defaults_are_run_config_defaults(tmp_path):
    g, p = _make_pair(tmp_path, "a", np.random.default_rng(0))
    out = tmp_path / "out"
    code = main(["evaluate", "--gt", str(tmp_path / g), "--pred", str(tmp_path / p),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"] == dataclasses.asdict(RunConfig())


def test_evaluate_missing_file_partial_failure(tmp_path, capsys):
    rng = np.random.default_rng(1)
    g, p = _make_pair(tmp_path, "ok", rng)
    manifest = _write_manifest(
        tmp_path, [["ok", g, p], ["bad", "missing.nii", "missing.nii"]]
    )
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["ok"]
    assert summary["failures"][0]["sample_id"] == "bad"
    assert "FAILED bad" in capsys.readouterr().err


def test_two_sample_run_is_union_of_singles(tmp_path):
    rng = np.random.default_rng(2)
    a = _make_pair(tmp_path, "a", rng, identical=False)
    b = _make_pair(tmp_path, "b", rng, identical=False)
    m_ab = _write_manifest(tmp_path, [["a", *a], ["b", *b]])
    main(["evaluate", "--manifest", str(m_ab), "--out", str(tmp_path / "both")])
    lesions_both = (tmp_path / "both" / "lesions.csv").read_text().splitlines()

    rows_single = []
    for sid, pair in (("a", a), ("b", b)):
        m = _write_manifest(tmp_path, [[sid, *pair]])
        main(["evaluate", "--manifest", str(m), "--out", str(tmp_path / f"one_{sid}")])
        rows = (tmp_path / f"one_{sid}" / "lesions.csv").read_text().splitlines()
        rows_single.extend(rows[1:])
    assert lesions_both[1:] == rows_single


def test_single_pair_mode(tmp_path):
    rng = np.random.default_rng(3)
    g, p = _make_pair(tmp_path, "s", rng)
    code = main(
        ["evaluate", "--gt", str(tmp_path / g), "--pred", str(tmp_path / p),
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    assert (tmp_path / "out" / "samples" / "sample.json").exists()


def test_usage_errors(tmp_path):
    assert main(["evaluate"]) == 1
    assert main(["evaluate", "--manifest", "x.csv", "--gt", "y"]) == 1
    assert main(["evaluate", "--gt", "y"]) == 1
    assert main(["evaluate", "--pred", "y"]) == 1
    # bad tau
    rng = np.random.default_rng(4)
    g, p = _make_pair(tmp_path, "u", rng)
    m = _write_manifest(tmp_path, [["u", g, p]])
    assert main(["evaluate", "--manifest", str(m), "--tau", "1.5"]) == 1


def test_jobs_determinism(tmp_path):
    params = SynthParams(
        dims=(64, 64, 1),
        counts={"VerySmall": 1, "Small": 2, "Medium": 1},
        kinds=("none", "shift", "dilate", "drop"),
        shift_max=1,
        dilate_max=1,
        n_spurious=1,
    )
    rows = []
    for i in range(20):
        c = generate_case(params, i)
        gp = f"s{i:02d}_gt.json"
        pp = f"s{i:02d}_pred.json"
        write_volume(c.gt, str(tmp_path / gp))
        write_volume(c.pred, str(tmp_path / pp))
        rows.append([f"s{i:02d}", gp, pp])
    manifest = _write_manifest(tmp_path, rows)
    main(["evaluate", "--manifest", str(manifest), "--jobs", "1",
          "--out", str(tmp_path / "j1")])
    main(["evaluate", "--manifest", str(manifest), "--jobs", "8",
          "--out", str(tmp_path / "j8")])
    for rel in ["summary.json", "stratified.csv", "lesions.csv"] + [
        f"samples/s{i:02d}.json" for i in range(20)
    ]:
        assert (tmp_path / "j1" / rel).read_bytes() == (
            tmp_path / "j8" / rel
        ).read_bytes()


def test_jobs_one_runs_on_the_calling_thread(tmp_path, monkeypatch):
    rng = np.random.default_rng(23)
    rows = [[n, *_make_pair(tmp_path, n, rng, identical=False)] for n in ("a", "b")]
    manifest = _write_manifest(tmp_path, rows)
    threads = []
    evaluate = lesioneval.cli.evaluate_sample

    def recording(row, config):
        threads.append(threading.get_ident())
        return evaluate(row, config)

    def no_pool(*args, **kwargs):
        raise AssertionError("--jobs 1 started a thread pool")

    monkeypatch.setattr(lesioneval.cli, "evaluate_sample", recording)
    with monkeypatch.context() as m:
        m.setattr(lesioneval.cli, "ThreadPoolExecutor", no_pool)
        argv = ["evaluate", "--manifest", str(manifest), "--jobs", "1"]
        assert main(argv + ["--out", str(tmp_path / "j1")]) == 0
    assert threads == [threading.get_ident()] * 2
    threads.clear()
    assert main(["evaluate", "--manifest", str(manifest), "--jobs", "2",
                 "--out", str(tmp_path / "j2")]) == 0
    assert len(threads) == 2 and threading.get_ident() not in threads
    assert _tree(tmp_path / "j1") == _tree(tmp_path / "j2")


def test_model_tag_column(tmp_path):
    rng = np.random.default_rng(5)
    a = _make_pair(tmp_path, "a", rng)
    b = _make_pair(tmp_path, "b", rng)
    manifest = _write_manifest(
        tmp_path, [["a", *a, "net1"], ["b", *b, "net2"]], extra_col=True
    )
    out = tmp_path / "out"
    main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    rows = list(csv.DictReader((out / "stratified.csv").read_text().splitlines()))
    assert {r["model_tag"] for r in rows} == {"net1", "net2"}


def test_inspect(tmp_path, capsys):
    arr = np.zeros((10, 10, 10), dtype=np.uint8)
    arr[0:5, 0:5, 0:2] = 1  # one 50-voxel lesion
    from lesioneval.volume import Volume

    write_volume(Volume(arr, (1, 1, 1)), str(tmp_path / "m.nii"))
    assert main(["inspect", str(tmp_path / "m.nii")]) == 0
    text = capsys.readouterr().out
    assert "foreground voxels: 50" in text
    assert "lesions (connectivity 6): 1" in text
    assert "Small: 1" in text


def test_inspect_empty_mask(tmp_path, capsys):
    from lesioneval.volume import Volume

    write_volume(
        Volume(np.zeros((6, 6, 6), dtype=np.uint8), (1, 1, 1)),
        str(tmp_path / "e.nii.gz"),
    )
    main(["inspect", str(tmp_path / "e.nii.gz")])
    text = capsys.readouterr().out
    assert "foreground voxels: 0" in text
    assert "lesions (connectivity 6): 0" in text


def test_inspect_gzip_matches_plain(tmp_path, capsys):
    rng = np.random.default_rng(6)
    v = random_blob_mask(rng, (12, 12, 12), 0.2)
    write_volume(v, str(tmp_path / "m.nii"))
    write_volume(v, str(tmp_path / "m.nii.gz"))
    main(["inspect", str(tmp_path / "m.nii")])
    plain = capsys.readouterr().out
    main(["inspect", str(tmp_path / "m.nii.gz")])
    assert capsys.readouterr().out == plain


def test_inspect_scaled_float32_gzip(tmp_path, capsys):
    # inspect streams the foreground; its output is the one the dense
    # read-and-binarize path printed for this file
    import gzip
    import struct

    from lesioneval.volume import Volume

    stored = ((np.arange(12 * 10 * 8) * 7919) % 23 / 10).astype(np.float32)
    write_volume(Volume(stored.reshape((12, 10, 8)), (0.75, 1.0, 2.5)), str(tmp_path / "m.nii"))
    raw = bytearray((tmp_path / "m.nii").read_bytes())
    struct.pack_into("<2f", raw, 112, 0.5, 0.1)  # scl_slope, scl_inter
    (tmp_path / "m.nii.gz").write_bytes(gzip.compress(bytes(raw), mtime=0))
    assert main(["inspect", str(tmp_path / "m.nii.gz")]) == 0
    assert capsys.readouterr().out == (
        "dims: 12 x 10 x 8\n"
        "spacing (mm): 0.75 x 1 x 2.5\n"
        "foreground voxels: 584\n"
        "lesions (connectivity 6): 20\n"
        "lesions (connectivity 18): 1\n"
        "lesions (connectivity 26): 1\n"
        "  VerySmall: 14\n"
        "  Small: 4\n"
        "  Medium: 2\n"
        "  Large: 0\n"
    )


def test_provenance_in_reports(tmp_path):
    rng = np.random.default_rng(7)
    g, p = _make_pair(tmp_path, "a", rng)
    m = _write_manifest(tmp_path, [["a", g, p]])
    out = tmp_path / "out"
    main(["evaluate", "--manifest", str(m), "--tau", "0.4",
          "--connectivity", "26", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["tau"] == 0.4
    assert summary["config"]["connectivity"] == 26
    assert summary["tool_version"]


def test_malformed_json_fixture_fails_one_sample(tmp_path, capsys):
    (tmp_path / "good.json").write_text(
        '{"dims": [2, 1, 1], "spacing": [1, 1, 1], "data": [1, 0]}'
    )
    (tmp_path / "bad.json").write_text('{"dims": [2, 1, 1], "data": [1, 0]}')
    manifest = _write_manifest(
        tmp_path, [["good", "good.json", "good.json"], ["bad", "bad.json", "bad.json"]]
    )
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["good"]
    assert [f["sample_id"] for f in summary["failures"]] == ["bad"]
    assert "FAILED bad" in capsys.readouterr().err


def _bad_spacing_fails_one_sample(tmp_path, capsys, sid: str, spacing: str):
    """A two-sample run in which only sample ``sid``, whose masks have
    ``spacing``, fails with ``BadMagic``; the run exits 2."""
    (tmp_path / "good.json").write_text(
        '{"dims": [4, 3, 1], "spacing": [1, 1, 1], "data": [1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]}'
    )
    (tmp_path / f"{sid}.json").write_text(
        f'{{"dims": [4, 3, 1], "spacing": {spacing}, '
        '"data": [1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]}'
    )
    (tmp_path / f"{sid}_pred.json").write_text(
        f'{{"dims": [4, 3, 1], "spacing": {spacing}, '
        '"data": [0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0]}'
    )
    manifest = _write_manifest(
        tmp_path,
        [["good", "good.json", "good.json"], [sid, f"{sid}.json", f"{sid}_pred.json"]],
    )
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["good"]
    (failure,) = summary["failures"]
    assert failure["sample_id"] == sid and failure["reason"].startswith("BadMagic: ")
    assert f"FAILED {sid}" in capsys.readouterr().err


def test_huge_spacing_fails_one_sample(tmp_path, capsys):
    # squared mm offsets of a 1e200 mm spacing overflowed to inf, and the
    # surface search then raised IndexError, which ended the run with no reports
    _bad_spacing_fails_one_sample(tmp_path, capsys, "huge", "[1e200, 1.0, 1.0]")


def test_tiny_spacing_fails_one_sample(tmp_path, capsys):
    # a 1e-200 mm spacing squares to 0, so every distance of the sample read
    # 0.0: the sample passed with an HD95 and ASSD that only looked valid
    _bad_spacing_fails_one_sample(tmp_path, capsys, "tiny", "[1e-200, 1.0, 1.0]")


@pytest.mark.parametrize(
    "raw",
    [
        b'{"dims": [0, 5, 1], "spacing": [1, 1, 1], "data": []}',
        b'{"dims": [-1, -1, 1], "spacing": [1, 1, 1], "data": [1]}',
        b'{"dims": [2, 1, 1], "spacing": [0, 1, 1], "data": [1, 0]}',
        b'{"dims": [2, 1, 1], "spacing": [-1, 1, 1], "data": [1, 0]}',
        b'{"dims": [2, 1, 1], "spacing": [1, NaN, 1], "data": [1, 0]}',
        b'{"dims": [2, 1, 1], "spacing": [1, 1, 1e200], "data": [1, 0]}',
        b'{"dims": [2, 1, 1], "spacing": [1e-200, 1, 1], "data": [1, 0]}',
        b'{"dims": [2, 1, 1], "spacing": [1, 1, 1], "data": [1, 0], "note": "\xff"}',
    ],
    ids=["dims-0", "dims-two-unknown", "spacing-0", "spacing-negative", "spacing-nan",
         "spacing-huge", "spacing-tiny", "not-utf8"],
)
def test_json_fixture_bad_values_are_bad_magic(tmp_path, capsys, raw):
    # each used to escape the reader as a bare ValueError or UnicodeDecodeError:
    # inspect ended in a traceback and evaluate failed the sample under that class
    p = tmp_path / "m.json"
    p.write_bytes(raw)
    for read in (read_volume, read_foreground):
        with pytest.raises(BadMagic):
            read(str(p))
    capsys.readouterr()
    assert main(["inspect", str(p)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("BadMagic: ")
    out = tmp_path / "out"
    assert main(["evaluate", "--gt", str(p), "--pred", str(p), "--out", str(out)]) == 2
    (failure,) = json.loads((out / "summary.json").read_text())["failures"]
    assert failure["reason"].startswith("BadMagic: ")


def test_bad_nifti_header_fails_one_sample(tmp_path, capsys):
    # an infinite vox_offset used to escape the reader as an OverflowError
    # and end the whole run with no reports
    import struct

    rng = np.random.default_rng(9)
    g, p = _make_pair(tmp_path, "good", rng)
    v = random_blob_mask(rng, (6, 6, 6), 0.3)
    write_volume(v, str(tmp_path / "bad.nii"))
    raw = bytearray((tmp_path / "bad.nii").read_bytes())
    struct.pack_into("<f", raw, 108, float("inf"))
    (tmp_path / "bad.nii").write_bytes(bytes(raw))
    manifest = _write_manifest(
        tmp_path, [["good", g, p], ["bad", "bad.nii", "bad.nii"]]
    )
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["good"]
    assert [f["sample_id"] for f in summary["failures"]] == ["bad"]
    assert "vox_offset" in capsys.readouterr().err


def test_cli_import_loads_no_ndimage_or_synth():
    # import budget: evaluate needs neither scipy.ndimage, nor scipy's graph
    # labeller with the sparse linear algebra it pulls in, nor the synthetic
    # case generator, and importing them costs setup time and memory on every run
    import subprocess
    import sys

    import lesioneval

    src = os.path.dirname(os.path.dirname(lesioneval.__file__))
    code = (
        "import sys, lesioneval.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.ndimage', 'scipy.sparse.csgraph', 'scipy.sparse.linalg')) "
        "or m == 'lesioneval.synth'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def test_corrupt_gzip_fails_one_sample(tmp_path, capsys):
    # a cut-off gzip stream (EOFError) and a damaged one (zlib.error) used to
    # escape the reader and end the whole run with no reports
    import gzip

    rng = np.random.default_rng(10)
    g, p = _make_pair(tmp_path, "good", rng)
    write_volume(random_blob_mask(rng, (6, 6, 6), 0.3), str(tmp_path / "m.nii"))
    stream = gzip.compress((tmp_path / "m.nii").read_bytes(), mtime=0)
    (tmp_path / "cut.nii.gz").write_bytes(stream[: len(stream) // 2])
    damaged = bytearray(stream)
    damaged[10] |= 0b110  # first deflate block's type becomes the reserved 3
    (tmp_path / "damaged.nii.gz").write_bytes(bytes(damaged))
    manifest = _write_manifest(
        tmp_path,
        [
            ["good", g, p],
            ["cut", "cut.nii.gz", "cut.nii.gz"],
            ["damaged", "damaged.nii.gz", "damaged.nii.gz"],
        ],
    )
    out = tmp_path / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["good"]
    assert [f["sample_id"] for f in summary["failures"]] == ["cut", "damaged"]
    good = json.loads((out / "samples" / "good.json").read_text())
    assert good["detection"]["fp"] == good["detection"]["fn"] == 0
    err = capsys.readouterr().err
    assert "FAILED cut: TruncatedFile" in err
    assert "FAILED damaged: BadMagic" in err


@pytest.mark.parametrize(
    "bad_row",
    [
        ["sub/dir", "b_gt.nii.gz", "b_pred.nii.gz"],
        ["sub\\dir", "b_gt.nii.gz", "b_pred.nii.gz"],
        ["../escape", "b_gt.nii.gz", "b_pred.nii.gz"],
        ["..", "b_gt.nii.gz", "b_pred.nii.gz"],
        [".", "b_gt.nii.gz", "b_pred.nii.gz"],
        ["short", "b_gt.nii.gz"],
        ["extra", "b_gt.nii.gz", "b_pred.nii.gz", "netB"],
        ["a\0b", "b_gt.nii.gz", "b_pred.nii.gz"],
        [" ", "b_gt.nii.gz", "b_pred.nii.gz"],
        ["b" * 251, "b_gt.nii.gz", "b_pred.nii.gz"],
        ["é" * 126, "b_gt.nii.gz", "b_pred.nii.gz"],
    ],
    ids=["slash", "backslash", "parent-escape", "dotdot", "dot", "short-row",
         "extra-cell", "nul", "blank", "251-bytes", "252-bytes-multibyte"],
)
def test_bad_manifest_row_rejected(tmp_path, capsys, bad_row):
    rng = np.random.default_rng(8)
    a = _make_pair(tmp_path, "a", rng)
    _make_pair(tmp_path, "b", rng)
    c = _make_pair(tmp_path, "c", rng)
    manifest = _write_manifest(tmp_path, [["a", *a], bad_row, ["c", *c]])
    with pytest.raises(ManifestParseError):
        read_manifest(str(manifest))
    out = tmp_path / "run" / "out"
    code = main(["evaluate", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert not (tmp_path / "run").exists()
    assert str(manifest) in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfesample_id,gt_path,pred_path\n",
        b"sample_id,gt_path,pred_path\n" + b"a" * 131_073 + b",g.nii,g.nii\n",
    ],
    ids=["not-utf8", "oversized-cell"],
)
def test_unreadable_manifest_rejected(tmp_path, capsys, content):
    # a manifest that is not UTF-8 used to escape as UnicodeDecodeError, a
    # cell over the csv field limit as _csv.Error; both with a traceback
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(content)
    with pytest.raises(ManifestParseError):
        read_manifest(str(manifest))
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert str(manifest) in capsys.readouterr().err
    assert not out.exists()


def test_nan_prediction_fails_one_sample(tmp_path, capsys):
    # NaN > threshold is False: a prediction whose only lesion is NaN used to
    # score as a clean miss (fn 1) with exit 0
    from lesioneval.volume import Volume

    rng = np.random.default_rng(12)
    g, p = _make_pair(tmp_path, "good", rng)
    gt = np.zeros((6, 6, 6), np.uint8)
    gt[1:4, 1:4, 1:4] = 1
    pred = np.where(gt == 1, np.nan, 0.0).astype(np.float32)
    write_volume(Volume(gt, (1, 1, 1)), str(tmp_path / "nan_gt.nii.gz"))
    write_volume(Volume(pred, (1, 1, 1)), str(tmp_path / "nan_pred.nii.gz"))
    manifest = _write_manifest(
        tmp_path, [["good", g, p], ["nan", "nan_gt.nii.gz", "nan_pred.nii.gz"]]
    )
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == ["good"]
    assert [f["sample_id"] for f in summary["failures"]] == ["nan"]
    assert "FAILED nan: NanVoxels" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_rejected(tmp_path, capsys, threshold):
    # x > nan is always False, so --threshold nan used to exit 0 with empty
    # masks and write NaN (not valid JSON) into summary.json
    rng = np.random.default_rng(13)
    g, p = _make_pair(tmp_path, "a", rng)
    out = tmp_path / "out"
    code = main(["evaluate", "--gt", str(tmp_path / g), "--pred", str(tmp_path / p),
                 f"--threshold={threshold}", "--out", str(out)])
    assert code == 1
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()
    assert main(["inspect", str(tmp_path / g), f"--threshold={threshold}"]) == 1
    assert "bad config" in capsys.readouterr().err
    with pytest.raises(ValueError, match="finite"):
        RunConfig(binarize_threshold=float(threshold))


@pytest.mark.parametrize(
    "field, value",
    [("tau", 1.5), ("connectivity", 4), ("distance_units", "cm"),
     ("hd95_variant", "mean"), ("binarize_threshold", float("nan")),
     ("tau", False), ("binarize_threshold", True), ("connectivity", 6.0),
     ("tau", np.False_), ("binarize_threshold", np.True_), ("connectivity", np.True_),
     ("tau", np.array(False))],
)
def test_run_config_errors_name_the_bad_value(field, value):
    # the message is all `bad config` prints, so it must show what was wrong;
    # a bool or a float connectivity used to pass and be reported as
    # false, true or 6.0, and a numpy bool was stored as 0.0 or 1.0
    with pytest.raises(ValueError) as e:
        RunConfig(**{field: value})
    assert repr(value) in str(e.value)


def test_run_config_stores_plain_python_values(tmp_path):
    # numpy settings used to be stored as given: emit_reports then raised
    # TypeError, not JSON serializable, after it had made samples/
    config = RunConfig(connectivity=np.int64(6), tau=np.float32(0.25))
    assert {type(v) for v in dataclasses.asdict(config).values()} <= {int, float, str}
    assert (config.connectivity, config.tau) == (6, 0.25)
    v = random_blob_mask(np.random.default_rng(20), (10, 10, 10), 0.2)
    s = evaluate_pair("a", v, v, config)
    paths = emit_reports([s], config, str(tmp_path / "out"))
    with open(paths["summary"]) as f:
        assert json.load(f)["config"] == dataclasses.asdict(RunConfig(tau=0.25))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["inspect"],
        ["evaluate", "--bogus"],
        ["evaluate", "--gt", "a", "--pred", "b", "--connectivity", "7"],
        ["evaluate", "--gt", "a", "--pred", "b", "--tau", "abc"],
        ["evaluate", "--gt", "a", "--pred", "b", "--jobs", "x"],
        ["evaluate", "--gt", "a", "--pred", "b", "--format", "xml"],
    ],
    ids=["no-command", "bad-command", "inspect-no-volume", "unknown-flag",
         "bad-connectivity", "tau-not-a-number", "jobs-not-a-number", "bad-format"],
)
def test_argparse_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    # argparse exits 2 on a usage error, and 2 means "some samples failed":
    # a script checking exit codes would take the old reports for a partial run
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["evaluate", "--help"]])
def test_version_and_help_exit_0(argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    g, p = _make_pair(tmp_path, "a", np.random.default_rng(14))
    out = tmp_path / "out"
    code = main(["evaluate", "--gt", str(tmp_path / g), "--pred", str(tmp_path / p),
                 f"--jobs={jobs}", "--out", str(out)])
    assert code == 1
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_utf8_bom(tmp_path):
    # spreadsheet exports often start with a byte order mark; it used to end
    # up in the first column name and fail with "missing columns ['sample_id']"
    rng = np.random.default_rng(15)
    g, p = _make_pair(tmp_path, "a", rng)
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(f"sample_id,gt_path,pred_path\r\na,{g},{p}\r\n".encode("utf-8-sig"))
    (row,) = read_manifest(str(manifest))
    assert row.sample_id == "a"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("sample_id", ["a" * 250, "é" * 125], ids=["ascii", "multibyte"])
def test_sample_id_of_250_bytes_evaluates(tmp_path, sample_id):
    # <id>.json is then 255 bytes, the longest file name Linux allows
    g, p = _make_pair(tmp_path, "a", np.random.default_rng(16))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(f"sample_id,gt_path,pred_path\n{sample_id},{g},{p}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "samples" / f"{sample_id}.json").is_file()


def test_csv_reports_are_utf8_whatever_the_locale(tmp_path):
    # report files used to be written in the locale's encoding: under the C
    # locale a model_tag of "modèle" raised UnicodeEncodeError half way through
    # the CSVs
    import subprocess
    import sys

    import lesioneval

    src = os.path.dirname(os.path.dirname(lesioneval.__file__))
    g, p = _make_pair(tmp_path, "a", np.random.default_rng(17))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        f"sample_id,gt_path,pred_path,model_tag\na,{g},{p},modèle\n", encoding="utf-8"
    )
    envs = {
        "c-locale": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8-mode": {"PYTHONUTF8": "1"},
    }
    csvs = {}
    for name, env in envs.items():
        out = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "lesioneval.cli", "evaluate",
             "--manifest", str(manifest), "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, **env},
        )
        assert done.returncode == 0, done.stderr
        csvs[name] = [(out / f).read_bytes() for f in ("stratified.csv", "lesions.csv")]
    assert csvs["c-locale"] == csvs["utf8-mode"]
    assert "modèle".encode("utf-8") in csvs["c-locale"][0]


_EMIT_TWO_SAMPLES = """
import sys
import numpy as np
from lesioneval.pipeline import RunConfig, evaluate_pair
from lesioneval.report import emit_reports
from lesioneval.volume import Volume

v = Volume(np.ones((4, 4, 4), np.uint8), (1.0, 1.0, 1.0))
s = [evaluate_pair(i, v, v, RunConfig()) for i in ("a", "s\\xe9")]
try:
    emit_reports(s, RunConfig(), sys.argv[1])
except ValueError as e:
    print(ascii(str(e)))
"""


def test_sample_id_the_file_system_cannot_encode_is_rejected(tmp_path):
    # under the C locale without UTF-8 mode, file names are ASCII: an id "sé"
    # used to evaluate, then raise UnicodeEncodeError in open() as a traceback
    # after writing only samples/a.json
    import subprocess
    import sys

    import lesioneval

    src = os.path.dirname(os.path.dirname(lesioneval.__file__))
    rng = np.random.default_rng(18)
    rows = [",".join([sid, *_make_pair(tmp_path, f"case{i}", rng)])
            for i, sid in enumerate(("a", "sé", "z"))]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("sample_id,gt_path,pred_path\n" + "\n".join(rows) + "\n", encoding="utf-8")
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def run(env, *argv):
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, **env})

    evaluate = ("-m", "lesioneval.cli", "evaluate", "--manifest", str(manifest), "--out")
    done = run(c_locale, *evaluate, str(tmp_path / "c-locale"))
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr and "not a file name in this locale" in done.stderr
    assert not (tmp_path / "c-locale").exists()

    # emit_reports checks every id before it makes the output directory
    done = run(c_locale, "-c", _EMIT_TWO_SAMPLES, str(tmp_path / "emitted"))
    assert done.returncode == 0 and "not a file name in this locale" in done.stdout, done.stderr
    assert not (tmp_path / "emitted").exists()

    done = run({"PYTHONUTF8": "1"}, *evaluate, str(tmp_path / "utf8-mode"))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in (tmp_path / "utf8-mode" / "samples").iterdir()) == [
        "a.json", "sé.json", "z.json"
    ]
