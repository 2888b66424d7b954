"""Command-line interface: evaluate, inspect."""
from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NoReturn

from . import __version__
from .components import find_connected_components
from .errors import LesionEvalError
from .nifti import read_foreground
from .pipeline import (
    ManifestRow,
    RunConfig,
    SampleFailure,
    evaluate_sample,
    read_manifest,
)
from .report import emit_reports
from .stratify import BIN_NAMES, bin_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2


class _Parser(argparse.ArgumentParser):
    """Exits EXIT_USAGE on a usage error; argparse's own 2 is EXIT_PARTIAL here."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    d = RunConfig()
    parser = _Parser(
        prog="lesioneval",
        description="Lesion-wise evaluation of 3D binary segmentation masks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate GT/prediction mask pairs")
    ev.add_argument("--manifest", help="CSV with sample_id,gt_path,pred_path")
    ev.add_argument("--gt", help="single-pair mode: ground-truth mask")
    ev.add_argument("--pred", help="single-pair mode: predicted mask")
    ev.add_argument("--tau", type=float, default=d.tau, help="IoU match threshold")
    ev.add_argument("--connectivity", type=int, choices=(6, 18, 26), default=d.connectivity)
    ev.add_argument("--distance-units", choices=("mm", "voxels"), default=d.distance_units)
    ev.add_argument(
        "--hd95-variant", choices=("pooled", "max-of-directed"), default=d.hd95_variant
    )
    ev.add_argument(
        "--threshold", type=float, default=d.binarize_threshold, help="binarize threshold"
    )
    ev.add_argument("--out", default="lesioneval-out", help="output directory")
    ev.add_argument("--jobs", type=int, default=1, help="samples evaluated at once")
    ev.add_argument("--format", choices=("json", "csv", "both"), default="both")
    ev.set_defaults(run=_cmd_evaluate)

    ins = sub.add_parser("inspect", help="summarize one mask volume")
    ins.add_argument("volume")
    ins.add_argument("--threshold", type=float, default=d.binarize_threshold)
    ins.set_defaults(run=_cmd_inspect)
    return parser


def _cmd_evaluate(args: argparse.Namespace) -> int:
    given = (bool(args.manifest), bool(args.gt), bool(args.pred))
    if given not in ((True, False, False), (False, True, True)):
        print("evaluate needs either --manifest or both --gt and --pred",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {args.jobs}")
        config = RunConfig(
            tau=args.tau,
            connectivity=args.connectivity,
            distance_units=args.distance_units,
            hd95_variant=args.hd95_variant,
            binarize_threshold=args.threshold,
        )
    except ValueError as e:
        print(f"bad config: {e}", file=sys.stderr)
        return EXIT_USAGE

    if args.manifest:
        rows = read_manifest(args.manifest)  # ManifestParseError: main exits 1
    else:
        rows = [ManifestRow("sample", args.gt, args.pred)]

    def run_one(row: ManifestRow):
        try:
            return evaluate_sample(row, config), None
        except (LesionEvalError, OSError, ValueError) as e:
            return None, SampleFailure(row.sample_id, f"{type(e).__name__}: {e}")

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        outcomes = list(pool.map(run_one, rows))

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
    bins = bin_index(by_conn[6].sizes).tolist()
    for i, name in enumerate(BIN_NAMES):
        print(f"  {name}: {bins.count(i)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except LesionEvalError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
