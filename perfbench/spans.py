"""Span recorder for the traced benchmark run.

The recorder times the pipeline's layers from outside: it replaces public
scanloc functions with timing wrappers in every module that looks them up
(``from .cloud import fuse`` binds ``fuse`` in the importing module too),
records one span per call, and restores the originals on ``uninstall``.
Spans stay in memory until the run ends, then ``write`` dumps them as JSON
lines and ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name).  "Class.method" attributes patch the class.
TRACED = (
    ("scanloc.synth", "raycast_depth", "synth.raycast_depth"),
    ("scanloc.synth", "generate_scene", "synth.generate_scene"),
    ("scanloc.synth", "save_scene", "synth.save_scene"),
    ("scanloc.synth", "load_scene", "synth.load_scene"),
    ("scanloc.geometry", "triangulate", "geometry.triangulate"),
    ("scanloc.handeye", "build_motion_pairs", "handeye.build_motion_pairs"),
    ("scanloc.handeye", "estimate_camera_pose", "handeye.estimate_camera_pose"),
    ("scanloc.cloud", "read_pfm", "cloud.read_pfm"),
    ("scanloc.cloud", "fuse", "cloud.fuse"),
    ("scanloc.cloud", "FusedCloud.planar_nearest", "cloud.planar_nearest"),
    ("scanloc.cloud", "FusedCloud.save", "cloud.save"),
    ("scanloc.cloud", "FusedCloud.load", "cloud.load"),
    ("scanloc.targets", "fit_front", "targets.fit_front"),
    ("scanloc.targets", "fit_side", "targets.fit_side"),
    ("scanloc.targets", "localize", "targets.localize"),
    ("scanloc.evaluation", "loocv", "evaluation.loocv"),
    ("scanloc.evaluation", "backprojection_comparison", "evaluation.backprojection"),
    ("scanloc.evaluation", "write_folds_csv", "evaluation.write_report"),
    ("scanloc.evaluation", "write_success_csv", "evaluation.write_report"),
    ("scanloc.evaluation", "write_backprojection_csv", "evaluation.write_report"),
    ("scanloc.evaluation", "write_summary_json", "evaluation.write_report"),
    ("scanloc.cli", "main", "cli.main"),
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "synth.raycast_ms": "ms",
    "synth.generate_scene_ms": "ms",
    "synth.save_scene_ms": "ms",
    "synth.load_scene_ms": "ms",
    "synth.bytes_read": "bytes",
    "cloud.read_pfm_ms": "ms",
    "geometry.triangulate_us": "us",
    "geometry.triangulations": "count",
    "handeye.estimate_camera_pose_ms": "ms",
    "handeye.motion_pairs": "count",
    "handeye.rotation_residual_rad": "rad",
    "cloud.fuse_ms": "ms",
    "cloud.pixels_in": "count",
    "cloud.points_out": "count",
    "cloud.index_build_ms": "ms",
    "cloud.planar_query_us": "us",
    "cloud.planar_queries": "count",
    "cloud.snaps_per_point": "ratio",
    "cloud.save_ms": "ms",
    "cloud.load_ms": "ms",
    "cloud.bytes_written": "bytes",
    "targets.fit_front_ms": "ms",
    "targets.fit_side_ms": "ms",
    "targets.fits": "count",
    "targets.fit_samples": "count",
    "targets.localize_ms": "ms",
    "evaluation.loocv_t1_s": "s",
    "evaluation.loocv_t2_s": "s",
    "evaluation.loocv_t4_s": "s",
    "evaluation.loocv_self_s": "s",
    "evaluation.folds": "count",
    "evaluation.fault_folds": "count",
    "evaluation.backprojection_ms": "ms",
    "evaluation.report_write_ms": "ms",
    "cli.self_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped calls while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.last_cloud = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # spans -------------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                # counting is the tracer's own work: keep it out of the
                # parent's self time by giving it a span of its own
                with tracer.span("trace.count"):
                    try:
                        span.counts.update(count(tracer, args, kwargs, result))
                    except (AttributeError, TypeError, ValueError, KeyError):
                        tracer.absent.add(f"{name} counts")
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced function in each scanloc module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "scanloc" or n.startswith("scanloc."))]
        for module_name, attr, name in TRACED:
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                raw = owner.__dict__.get(method) if owner is not None else None
                if raw is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._patches.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(home, attr, None)
            if original is None:
                self.absent.add(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # output ------------------------------------------------------------------

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_metrics(self, traced_wall: float, untraced_wall: float,
                      iterations: int, index_build_ms: float) -> dict:
        """Every LAYER_METRICS entry computed from the recorded spans.

        `traced_wall` and `untraced_wall` are mean iteration times with and
        without the wrappers; `iterations` counts the traced iterations, whose
        timed regions are the benchmark's "timed" spans.
        """
        own = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def spans(name):
            return by_name.get(name, [])

        def mean_ms(name, scale=1e3):
            items = spans(name)
            return scale * sum(s.duration for s in items) / len(items) if items else 0.0

        def total(name, key):
            return sum(s.counts.get(key, 0) for s in spans(name))

        loocv = spans("evaluation.loocv")

        def loocv_s(target):
            items = [s for s in loocv if s.counts.get("target") == target]
            return sum(s.duration for s in items) / len(items) if items else 0.0

        cli = spans("cli.main")
        evaluate_calls = len(spans("evaluation.write_report")) / 4
        points_out = total("cloud.fuse", "points")
        queries = len(spans("cloud.planar_nearest"))
        fits = spans("targets.fit_front") + spans("targets.fit_side")
        localize = spans("targets.localize")
        residuals = [s.counts["residual_rad"] for s in spans("handeye.estimate_camera_pose")
                     if "residual_rad" in s.counts]
        return {
            "synth.raycast_ms": mean_ms("synth.raycast_depth"),
            "synth.generate_scene_ms": mean_ms("synth.generate_scene"),
            "synth.save_scene_ms": mean_ms("synth.save_scene"),
            "synth.load_scene_ms": mean_ms("synth.load_scene"),
            "synth.bytes_read": total("synth.load_scene", "bytes"),
            "cloud.read_pfm_ms": mean_ms("cloud.read_pfm"),
            "geometry.triangulate_us": mean_ms("geometry.triangulate", 1e6),
            "geometry.triangulations": len(spans("geometry.triangulate")),
            "handeye.estimate_camera_pose_ms": mean_ms("handeye.estimate_camera_pose"),
            "handeye.motion_pairs": total("handeye.build_motion_pairs", "pairs"),
            "handeye.rotation_residual_rad":
                sum(residuals) / len(residuals) if residuals else 0.0,
            "cloud.fuse_ms": mean_ms("cloud.fuse"),
            "cloud.index_build_ms": index_build_ms,
            "cloud.pixels_in": total("cloud.fuse", "pixels"),
            "cloud.points_out": points_out,
            "cloud.planar_query_us": mean_ms("cloud.planar_nearest", 1e6),
            "cloud.planar_queries": queries,
            "cloud.snaps_per_point": queries / points_out if points_out else 0.0,
            "cloud.save_ms": mean_ms("cloud.save"),
            "cloud.load_ms": mean_ms("cloud.load"),
            "cloud.bytes_written": total("cloud.save", "bytes"),
            "targets.fit_front_ms": mean_ms("targets.fit_front"),
            "targets.fit_side_ms": mean_ms("targets.fit_side"),
            "targets.fits": len(fits),
            "targets.fit_samples": sum(s.counts.get("samples", 0) for s in fits),
            "targets.localize_ms":
                1e3 * sum(own[s.span_id] for s in localize) / len(localize)
                if localize else 0.0,
            "evaluation.loocv_t1_s": loocv_s(1),
            "evaluation.loocv_t2_s": loocv_s(2),
            "evaluation.loocv_t4_s": loocv_s(4),
            "evaluation.loocv_self_s": sum(own[s.span_id] for s in loocv),
            "evaluation.folds": total("evaluation.loocv", "folds"),
            "evaluation.fault_folds": total("evaluation.loocv", "fault_folds"),
            "evaluation.backprojection_ms": mean_ms("evaluation.backprojection"),
            "evaluation.report_write_ms":
                1e3 * sum(s.duration for s in spans("evaluation.write_report"))
                / evaluate_calls if evaluate_calls else 0.0,
            "cli.self_s":
                sum(own[s.span_id] for s in cli) / len(cli) if cli else 0.0,
            "trace.uncovered_s": sum(own[s.span_id] for s in spans("timed")) / iterations,
            "trace.overhead_ratio": traced_wall / untraced_wall,
        }


# counters: run after the wrapped call returns, outside its span -------------


def _count_fuse(tracer, args, kwargs, cloud):
    views = kwargs.get("views", args[0] if args else ())
    tracer.last_cloud = cloud
    return {"pixels": int(sum(depth.valid_mask.sum() for _, depth in views)),
            "points": len(cloud)}


def _count_load_scene(tracer, args, kwargs, scene):
    directory = kwargs.get("directory", args[0] if args else None)
    return {"bytes": sum(entry.stat().st_size for entry in os.scandir(directory)
                         if entry.is_file())}


def _count_save(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def _count_pairs(tracer, args, kwargs, pairs):
    return {"pairs": len(pairs)}


def _count_calibration(tracer, args, kwargs, pose):
    """Mean rotation angle of A X (X B)^-1 over the solve's own motion pairs."""
    import numpy as np
    from scipy.spatial.transform import Rotation

    samples = kwargs.get("samples", args[0] if args else None)
    all_pairs = kwargs.get("all_pairs", args[1] if len(args) > 1 else False)
    # the unwrapped solver step, so this recount records no span of its own
    build = sys.modules["scanloc.handeye"].build_motion_pairs
    build = getattr(build, "__wrapped__", build)
    pairs = build(samples, all_pairs=all_pairs)
    angles = [
        Rotation.from_matrix(
            p.a.rotation @ pose.rotation @ (pose.rotation @ p.b.rotation).T
        ).magnitude()
        for p in pairs
    ]
    return {"residual_rad": float(np.mean(angles))}


def _count_fit(tracer, args, kwargs, result):
    data = kwargs.get("data", args[0] if args else None)
    return {"samples": len(data)}


def _count_loocv(tracer, args, kwargs, folds):
    target = kwargs.get("target_id", args[1] if len(args) > 1 else None)
    return {"target": int(target), "folds": len(folds),
            "fault_folds": sum(1 for f in folds if f.faulty)}


_COUNTERS = {
    "cloud.fuse": _count_fuse,
    "synth.load_scene": _count_load_scene,
    "cloud.save": _count_save,
    "handeye.build_motion_pairs": _count_pairs,
    "handeye.estimate_camera_pose": _count_calibration,
    "targets.fit_front": _count_fit,
    "targets.fit_side": _count_fit,
    "evaluation.loocv": _count_loocv,
}
