"""Command-line interface: evaluate, inspect."""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .components import find_connected_components
from .errors import LesionEvalError, ManifestParseError
from .nifti import read_foreground
from .pipeline import (
    ManifestRow,
    RunConfig,
    SampleFailure,
    evaluate_sample,
    read_manifest,
)
from .report import emit_reports
from .stratify import BIN_NAMES, categorize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    d = RunConfig()
    p.add_argument("--tau", type=float, default=d.tau, help="IoU match threshold")
    p.add_argument(
        "--connectivity", type=int, choices=(6, 18, 26), default=d.connectivity
    )
    p.add_argument(
        "--distance-units", choices=("mm", "voxels"), default=d.distance_units
    )
    p.add_argument(
        "--hd95-variant", choices=("pooled", "max-of-directed"),
        default=d.hd95_variant,
    )
    p.add_argument(
        "--threshold", type=float, default=d.binarize_threshold,
        help="binarize threshold",
    )
    p.add_argument("--out", default="lesioneval-out", help="output directory")
    p.add_argument("--jobs", type=int, default=d.parallelism)
    p.add_argument("--format", choices=("json", "csv", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lesioneval",
        description="Lesion-wise evaluation of 3D binary segmentation masks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate GT/prediction mask pairs")
    ev.add_argument("--manifest", help="CSV with sample_id,gt_path,pred_path")
    ev.add_argument("--gt", help="single-pair mode: ground-truth mask")
    ev.add_argument("--pred", help="single-pair mode: predicted mask")
    _add_eval_flags(ev)

    ins = sub.add_parser("inspect", help="summarize one mask volume")
    ins.add_argument("volume")
    ins.add_argument(
        "--threshold", type=float, default=RunConfig().binarize_threshold
    )
    return parser


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if bool(args.manifest) == bool(args.gt or args.pred):
        print("evaluate needs either --manifest or both --gt and --pred",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        config = RunConfig(
            tau=args.tau,
            connectivity=args.connectivity,
            distance_units=args.distance_units,
            hd95_variant=args.hd95_variant,
            binarize_threshold=args.threshold,
            parallelism=args.jobs,
        )
    except ValueError as e:
        print(f"bad config: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.manifest:
        try:
            rows = read_manifest(args.manifest)
        except ManifestParseError as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
    else:
        if not (args.gt and args.pred):
            print("single-pair mode needs both --gt and --pred", file=sys.stderr)
            return EXIT_USAGE
        rows = [ManifestRow("sample", args.gt, args.pred)]

    def run_one(row: ManifestRow):
        try:
            return evaluate_sample(row, config), None
        except (LesionEvalError, OSError, ValueError) as e:
            return None, SampleFailure(row.sample_id, f"{type(e).__name__}: {e}")

    if config.parallelism > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            outcomes = list(pool.map(run_one, rows))
    else:
        outcomes = [run_one(r) for r in rows]

    samples = [s for s, _ in outcomes if s is not None]
    failures = [f for _, f in outcomes if f is not None]
    failures.sort(key=lambda f: f.sample_id)
    emit_reports(samples, config, args.out, failures, formats=args.format)

    for f in failures:
        print(f"FAILED {f.sample_id}: {f.reason}", file=sys.stderr)
    print(f"evaluated {len(samples)}/{len(rows)} samples -> {args.out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        RunConfig(binarize_threshold=args.threshold)
    except ValueError as e:
        print(f"bad config: {e}", file=sys.stderr)
        return EXIT_USAGE
    fg = read_foreground(args.volume, args.threshold)
    print(f"dims: {fg.dims[0]} x {fg.dims[1]} x {fg.dims[2]}")
    print(f"spacing (mm): {fg.spacing[0]:g} x {fg.spacing[1]:g} x {fg.spacing[2]:g}")
    print(f"foreground voxels: {fg.index.size}")
    by_conn = {conn: find_connected_components(fg, conn) for conn in (6, 18, 26)}
    for conn, ls in by_conn.items():
        print(f"lesions (connectivity {conn}): {len(ls)}")
    counts = {name: 0 for name in BIN_NAMES}
    for l in by_conn[6].lesions:
        counts[categorize(l.volume_vox).name] += 1
    for name in BIN_NAMES:
        print(f"  {name}: {counts[name]}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
    except LesionEvalError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
