"""Benchmark for lesioneval: seeded inputs, timed passes, independent checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload ms-cohort --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload dense-field --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload dense-field --seed 1 --seconds 30 --repeat 10

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--repeat N`` runs
the workload N times with seeds seed..seed+N-1, each in its own process,
and prints the median, quartiles and max/min ratio of every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench-cache")
RUNS = os.path.join(ROOT, ".perfbench-runs")

WORKLOADS = ("ms-cohort", "dense-field")
# setup_s is the median of three groups of launches, made before the passes,
# after them and after the checks: the machine's speed changes over tens of
# seconds, and one group would catch only one of its states.
SETUP_PER_GROUP = 2
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import lesioneval.cli as c; c.build_parser(); "
    "t = time.perf_counter() - t; import os, sys; "
    "sys.exit(3) if not c.__file__.startswith(os.environ['PYTHONPATH'] + os.sep) else print(repr(t))"
)
TAU = 0.35  # the evaluate default the workloads run with
HD95_SAMPLES = {"ms-cohort": 6, "dense-field": 40}  # pairs per sample checked by brute force
WORKER_TIMEOUT = 150


def declared_units() -> dict:
    """Each metric's unit, as BENCHMARK.json at the checkout's root declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def child_env() -> dict:
    """The measured processes' environment.

    A fixed hash seed takes one per-process random factor out of the
    timings. A fixed mmap threshold makes glibc return every large array to
    the system when it is freed; with its default, adaptive threshold the
    peak RSS of the same passes on the same inputs came out at about 225 MB
    or about 255 MB from one process to the next.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=1048576"
    return env


def measure_setup(launches: int) -> list[float]:
    """Seconds to import lesioneval.cli and build its parser, in fresh interpreters."""
    times = []
    for _ in range(launches):
        p = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise RuntimeError(f"set-up launch failed ({p.returncode}): {p.stderr.strip()}")
        times.append(float(p.stdout.strip()))
    return times


def run_worker(spec: dict, run_dir: str) -> dict:
    spec_path = os.path.join(run_dir, "spec.json")
    spec["result"] = os.path.join(run_dir, "result.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path], cwd=ROOT,
                       env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if p.returncode != 0:
        raise RuntimeError(f"worker failed ({p.returncode}): {p.stderr.strip()[-2000:]}")
    with open(spec["result"]) as f:
        return json.load(f)


def check_outputs(workload: str, seed: int, meta: dict, input_dir: str, res: dict) -> list[str]:
    errs = []
    hashes = {p["sha256"] for p in res["passes"]} | {res["warm"]["sha256"]}
    if len(hashes) != 1:
        errs.append(f"passes wrote {len(hashes)} different reports")
    for p in [res["warm"]] + res["passes"]:
        if p["rc"] != 0:
            errs.append(f"a pass exited {p['rc']}")
    ref = res["warm"]["dir"]
    rng = np.random.default_rng([seed, 7])  # a stream apart from the generators'
    samples = meta["samples"]
    image_at = int(rng.integers(len(samples)))  # one image-level distance check per run
    for k, sid in enumerate(samples):
        with open(os.path.join(ref, "samples", f"{sid}.json")) as f:
            report = json.load(f)
        gt_file, pred_file = meta["files"][sid]
        gt, spacing = gen.read_nifti(os.path.join(input_dir, gt_file))
        pred, _ = gen.read_nifti(os.path.join(input_dir, pred_file))
        errs += checks.check_sample(report, gt, pred, spacing, TAU, rng,
                                    HD95_SAMPLES[workload], image_check=(k == image_at))
    return errs + checks.check_summary(ref, samples)


def one_run(args) -> int:
    workload, seed = args.workload, args.seed
    run_dir = os.path.join(RUNS, f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        t0 = time.perf_counter()
        input_dir, meta, made = gen.ensure_inputs(CACHE, workload, seed, SRC)
        print(f"inputs: {os.path.relpath(input_dir, ROOT)} "
              f"({'made' if made else 'cached'}, {time.perf_counter() - t0:.1f} s)")

        launches = 0 if args.trace else SETUP_PER_GROUP
        spec = {"workload": workload, "input_dir": input_dir, "out_dir": os.path.join(run_dir, "out"),
                "seconds": args.seconds, "trace": bool(args.trace), "src": SRC, **meta}
        t1 = time.perf_counter()
        setup = measure_setup(launches)
        t2 = time.perf_counter()
        res = run_worker(spec, run_dir)
        t3 = time.perf_counter()
        setup += measure_setup(launches)
        t4 = time.perf_counter()
        errs = check_outputs(workload, seed, meta, input_dir, res)
        t5 = time.perf_counter()
        setup += measure_setup(launches)
        print(f"phases: set-up launches {t2 - t1 + t4 - t3 + time.perf_counter() - t5:.1f} s, "
              f"worker {t3 - t2:.1f} s, checks {t5 - t4:.1f} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = res["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = statistics.median(p["wall_s"] for p in plain)
    units = declared_units()
    print(f"report sha256: {passes[0]['sha256']}")
    print(f"warm-up pass (not timed; --jobs 1 for evaluate): {res['warm']['wall_s']:.3f} s")
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}{'*' if p['traced'] else ''}" for p in passes))
    print(f"attempted {attempted}, failed {failed}")
    if args.trace:
        layers = {}
        for k in traced[0]["layers"]:
            vals = [p["layers"][k] for p in traced]
            if units[k] == "s":
                layers[k] = statistics.median(vals)
            elif len(set(vals)) == 1:
                layers[k] = vals[0]
            else:
                errs.append(f"{k} differs between traced passes: {vals}")
                layers[k] = statistics.median(vals)
        overhead = statistics.median(p["wall_s"] for p in traced) - wall
        layers["trace.overhead_s"] = overhead
        print(f"tracing overhead: traced wall_s {wall + overhead:.3f} - untraced {wall:.3f} = {overhead:.3f} s")
        if res["absent"]:
            print("absent (reported as 0): " + ", ".join(res["absent"]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for e in errs:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({"correct": not errs, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not errs else 1


def repeat(args) -> int:
    """Run the workload N times in fresh processes and summarise each metric's spread."""
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
            return 1
        r = json.loads(lines[-1])
        runs.append(r)
        vals = " ".join(f"{n}={m['value']:.4g}" for n, m in r["metrics"].items() if not args.trace)
        print(f"seed {seed}: {time.perf_counter() - t0:.0f} s, correct={r['correct']} "
              f"attempted={r['attempted']} failed={r['failed']} {vals}", flush=True)
    print(f"{'metric':28} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'max/min':>8}")
    for name, m in runs[0]["metrics"].items():
        v = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        ratio = max(v) / min(v) if min(v) > 0 else float("nan")
        print(f"{name:28} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} {ratio:8.3f}  {m['unit']}")
    shares = {(r["failed"], r["attempted"]) for r in runs}
    print("failed/attempted: " + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    return 0 if all(r["correct"] for r in runs) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run N seeds and summarise the spread")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind like on an exception, so every child process is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "lesioneval", "__init__.py")):
        print(f"no lesioneval package under {SRC}", file=sys.stderr)
        return 2
    return repeat(args) if args.repeat else one_run(args)


if __name__ == "__main__":
    sys.exit(main())
