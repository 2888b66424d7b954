"""Runs one workload's passes in a fresh process and writes what it measured.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds the workload, its input directory, an output directory, the
seconds to measure and whether to trace. The parent process made the
inputs, so this process's peak RSS is the program's alone. The first pass
is a warm-up and is not timed; for ms-cohort it runs at --jobs 1 and its
report is the reference the timed --jobs 2 reports must equal.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

MIN_PASSES = 3

def tree_sha256(root: str) -> str:
    """SHA-256 over the relative paths and contents of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs)


class EvaluateWorkload:
    """`lesioneval evaluate --manifest ...` through the CLI's main()."""

    def __init__(self, spec: dict, jobs: int) -> None:
        from lesioneval import cli

        self.cli = cli
        self.manifest = os.path.join(spec["input_dir"], "manifest.csv")
        self.n_samples = len(spec["samples"])
        self.jobs = jobs
        self.out_root = spec["out_dir"]

    def run(self, tag: str, jobs: int | None = None) -> dict:
        """One pass; a traced pass goes through the module wrappers the tracer installed."""
        out = os.path.join(self.out_root, tag)
        argv = ["evaluate", "--manifest", self.manifest, "--out", out,
                "--jobs", str(jobs or self.jobs), "--format", "both"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(argv)
        return {"out": out, "rc": rc}

    def settle(self, res: dict, keep: bool) -> dict:
        """Hash (and drop) a pass's report directory, outside the timing."""
        out = res.pop("out")
        res["sha256"] = tree_sha256(out)
        res["bytes_out"] = tree_bytes(out)
        with open(os.path.join(out, "summary.json")) as f:
            res["failed"] = len(json.load(f)["failures"])
        res["attempted"] = self.n_samples
        if keep:
            res["dir"] = out
        else:
            shutil.rmtree(out)
        return res


def timed(fn):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    res = fn()
    res["wall_s"] = time.perf_counter() - w0
    res["cpu_s"] = time.process_time() - c0
    res["start"], res["end"] = w0, w0 + res["wall_s"]
    return res


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import lesioneval

    if not os.path.abspath(lesioneval.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"lesioneval imported from {lesioneval.__file__}, not {spec['src']}", file=sys.stderr)
        return 2

    os.makedirs(spec["out_dir"], exist_ok=True)
    wl = EvaluateWorkload(spec, jobs=2 if spec["workload"] == "ms-cohort" else 1)

    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()

    warm = wl.settle(timed(lambda: wl.run("ref", jobs=1)), keep=True)
    passes = []
    t_start = time.perf_counter()
    i = 0
    while i < MIN_PASSES or time.perf_counter() - t_start < spec["seconds"]:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            res = timed(lambda: wl.run(f"pass{i}"))
        finally:
            if traced:
                tracer.uninstall()
        res = wl.settle(res, keep=False)
        res["traced"] = traced
        if traced:
            res["layers"] = layer_metrics(tracer.spans, res["start"], res["end"], res.get("bytes_out", 0))
        passes.append(res)
        i += 1
    out = {
        "warm": warm,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent if tracer else [],
        "lesioneval": lesioneval.__file__,
    }
    with open(spec["result"], "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
