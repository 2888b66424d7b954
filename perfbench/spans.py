"""Spans around lesioneval's module attributes, for the traced run only.

A wrapper replaces a module attribute that the program calls through (for
example ``lesioneval.pipeline.find_connected_components``), records a span
with its name, start, end, parent span and thread, and attaches counts taken
from the returned object. Spans stay in memory until the run ends. The
timed run installs no wrappers.
"""
from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field


def _lesions(ls) -> dict:
    return {"lesions": len(ls.lesions), "fg_voxels": sum(l.volume_vox for l in ls.lesions)}


def _file_bytes(args) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts from the result, counts from the args)
WRAPPED = [
    ("lesioneval.pipeline", "read_volume", "nifti.read", None, _file_bytes),
    ("lesioneval.pipeline", "binarize", "volume.binarize", None, None),
    ("lesioneval.pipeline", "find_connected_components", "components", _lesions, None),
    ("lesioneval.pipeline", "match_lesions", "matching.match", None, None),
    ("lesioneval.pipeline", "compute_lesion_metrics", "metrics.pair", None, None),
    ("lesioneval.pipeline", "compute_image_metrics", "metrics.image", None, None),
    ("lesioneval.pipeline", "stratify", "stratify", lambda r: {"records": len(r[1])}, None),
    ("lesioneval.matching", "generate_candidates", "matching.candidates", lambda r: {"n": len(r)}, None),
    ("lesioneval.matching", "greedy_match", "matching.greedy", lambda r: {"n": len(r)}, None),
    ("lesioneval.cli", "evaluate_sample", "pipeline.sample", None, None),
    ("lesioneval.cli", "emit_reports", "report.emit", None, None),
    ("lesioneval.report", "rollup", "stratify.rollup", None, None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counts: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.children_s


class Tracer:
    """Collects spans from any thread; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), parent=stack[-1] if stack else None,
                    thread=threading.get_ident())
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.dur

    def wrap(self, fn, name, result_counts=None, arg_counts=None):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self.end(idx)
                counts = {}
                if ok and result_counts is not None:
                    counts.update(result_counts(out))
                if arg_counts is not None:
                    counts.update(arg_counts(args))
                self.spans[idx].counts.update(counts)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, name, rc, ac in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, name, rc, ac))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []


def _union_s(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[Span], pass_start: float, pass_end: float,
                  bytes_out: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``*busy_s`` is self time: a span's duration minus the part its child
    spans cover. ``pipeline.sample_busy_s`` is the whole duration of the
    per-sample spans instead, and ``pipeline.wait_s`` sums, over samples,
    the time from the pass start to the sample's start. ``cli.self_s`` is
    the pass wall time that no span covers.
    """
    def self_sum(name):
        return sum(s.self_s for s in spans if s.name == name)

    def count(name, key=None):
        sel = [s for s in spans if s.name == name]
        return len(sel) if key is None else sum(s.counts.get(key, 0) for s in sel)

    candidates = count("matching.candidates", "n")
    matches = count("matching.greedy", "n")
    samples = [s for s in spans if s.name == "pipeline.sample"]
    top = [(s.start, s.end) for s in spans if s.parent is None]
    return {
        "nifti.busy_s": self_sum("nifti.read"),
        "nifti.calls": count("nifti.read"),
        "nifti.bytes_in": count("nifti.read", "bytes"),
        "volume.busy_s": self_sum("volume.binarize"),
        "components.busy_s": self_sum("components"),
        "components.calls": count("components"),
        "components.lesions": count("components", "lesions"),
        "components.fg_voxels": count("components", "fg_voxels"),
        "matching.candidates_busy_s": self_sum("matching.candidates"),
        "matching.greedy_busy_s": self_sum("matching.greedy"),
        "matching.calls": count("matching.match"),
        "matching.candidates": candidates,
        "matching.matches": matches,
        "matching.accept_ratio": matches / candidates if candidates else 0.0,
        "metrics.pair_busy_s": self_sum("metrics.pair"),
        "metrics.pairs": count("metrics.pair"),
        "metrics.image_busy_s": self_sum("metrics.image"),
        "stratify.busy_s": self_sum("stratify"),
        "stratify.rollup_busy_s": self_sum("stratify.rollup"),
        "stratify.records": count("stratify", "records"),
        "report.busy_s": self_sum("report.emit"),
        "report.bytes_out": bytes_out,
        "pipeline.sample_busy_s": sum(s.dur for s in samples),
        "pipeline.samples": len(samples),
        "pipeline.wait_s": sum(s.start - pass_start for s in samples),
        "cli.self_s": (pass_end - pass_start) - _union_s(top),
    }

