"""Leave-one-out evaluation, success tables, and back-projection comparison.

A fold fits the ratio parameters on every scene but one, localizes the
held-out scene, and scores position (3D Euclidean, mm) and orientation
(angle between predicted and true surface normal, degrees).  Scenes whose
required joints are missing, known-corrupt or not human-scale are
"faulty": they are kept out of every training set, reported with no error
values, and counted as failures (never successes) in success-rate tables.
An evaluation is of one target, as the paper reports each scan target on
its own: a success table, a back-projection comparison and its medians each
belong to one.  Target ids and the pose kind each one belongs to come from
`targets`.

`scanloc evaluate` runs a study in two passes: `_cohort` builds the fit
rows from every scene without a depth map, then `_fold_and_backprojection`
takes one scene, with its depth maps and cloud, at a time.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .cloud import FusedCloud, _adjusted, _snap, _valid_depths, fuse
from .errors import ConfigError, ImplausibleKeypointsError, ScanlocError
from .geometry import Pixel, angle_between_degrees, triangulate
from .jsonfile import write_json
from .synth import SyntheticScene
from .targets import (
    FitSample,
    RatioPair,
    _fit_rows,
    _sample_arrays,
    _target_poses,
    pose_keypoints,
    pose_kind_for_target,
    regress_targets,
    required_joints,
)

log = logging.getLogger(__name__)

DEFAULT_THRESHOLDS_MM = tuple(float(t) for t in range(5, 45, 5))
DEFAULT_EVAL_VOXEL = 0.002
NEAREST_PIXEL_RADIUS = 2
_EVERY_FOLD_FAULTY = "every fold is faulty; nothing to summarize"


@dataclass(frozen=True)
class FoldResult:
    """Outcome of one leave-one-out fold for one target."""

    scene_id: int
    target_id: int
    faulty: bool
    fault_reason: str = ""
    position_error_mm: float = float("nan")
    normal_error_deg: float = float("nan")
    fitted: RatioPair | None = None
    fit_residual_mm: float = float("nan")


@dataclass(frozen=True)
class SuccessTable:
    """One target's success rate at each threshold; faulty folds never succeed."""

    target_id: int
    rates: tuple  # aligned with DEFAULT_THRESHOLDS_MM


def _check_truth(scene: SyntheticScene, target_id: int) -> None:
    if target_id not in scene.targets_true:
        raise ScanlocError(f"scene {scene.scene_id} has no ground truth for target {target_id}")


def _scene_sample(scene: SyntheticScene, target_id: int) -> tuple[FitSample | None, str]:
    """The scene as one fit sample and '', or None and why it is faulty.

    A sample is the triangulated keypoints plus the ground-truth target.
    A scene is faulty when a required joint is known-corrupt, is not
    visible in both views, or triangulates to a segment that is not
    human-scale (a grossly displaced detection; see `pose_keypoints`).  A
    dropped joint off the segment is logged once, naming the scene.  A
    scene without ground truth for the target raises ScanlocError.
    """
    pose_kind = pose_kind_for_target(target_id)
    needed = required_joints(pose_kind)
    _check_truth(scene, target_id)
    for joint in needed:
        if joint in scene.faulted_joints:
            return None, f"{joint} {scene.faulted_joints[joint]}"
    for joint in needed:
        for vi, camera in enumerate(scene.cameras):
            if scene.observation.joint_in_view(joint, vi, camera) is None:
                return None, f"{joint} not visible in view {vi}"
    try:
        kps, dropped = pose_keypoints(scene.cameras[0], scene.cameras[1], scene.observation,
                                      pose_kind)
    except ImplausibleKeypointsError as exc:
        return None, f"implausible keypoints: {exc}"
    for joint, reason in dropped.items():
        log.warning("scene %d: dropping %s: %s", scene.scene_id, joint, reason)
    sample = FitSample(
        keypoints=kps, target=scene.targets_true[target_id], scene_id=scene.scene_id
    )
    return sample, ""


def cohort_samples(scenes, target_id: int) -> tuple[tuple, tuple]:
    """Each scene's `_scene_sample`, as the samples (None where faulty) and
    the fault reasons, in scene order.  A scene id shared by two scenes
    raises ConfigError: a copied scene would be trained on twice, or, held
    out, trained on its own copy.  An empty cohort raises ScanlocError."""
    ids = [scene.scene_id for scene in scenes]
    if not ids:
        raise ScanlocError("the cohort is empty: no scene to sample")
    shared = sorted({i for i in ids if ids.count(i) > 1})
    if shared:
        raise ConfigError(f"scene id {shared[0]} is shared by {ids.count(shared[0])} scenes")
    samples, faults = zip(*(_scene_sample(scene, target_id) for scene in scenes))
    return samples, faults


def scene_cloud(scene: SyntheticScene, voxel: float = DEFAULT_EVAL_VOXEL) -> FusedCloud:
    return fuse(list(zip(scene.cameras, scene.depths)), voxel=voxel)


@dataclass(frozen=True, eq=False)
class _Cohort:
    """The first pass of a leave-one-out study of one target, which reads no
    depth: each scene's fit sample (None where faulty) and fault reason, as
    `cohort_samples` gives them, and the valid scenes' fit rows, built once."""

    target_id: int
    samples: tuple
    faults: tuple
    valid: np.ndarray  # the indices of the valid scenes
    rows: tuple


def _cohort(scenes, target_id: int) -> _Cohort:
    """`_Cohort` of two or more scenes.  It reads their cameras,
    observations and ground truth only, so a scene whose depth maps are not
    read yet, a SyntheticScene whose `depths` are (), serves as well."""
    if len(scenes) < 2:
        raise ScanlocError(f"leave-one-out needs >= 2 scenes, got {len(scenes)}")
    samples, faults = cohort_samples(scenes, target_id)
    valid = np.flatnonzero([sample is not None for sample in samples])
    rows = _sample_arrays([samples[i] for i in valid], pose_kind_for_target(target_id))
    return _Cohort(target_id, samples, faults, valid, rows)


def _check_summarizable(cohort: _Cohort) -> None:
    """Raise `summarize`'s refusal before any fold runs if every fold of
    `cohort` will be faulty: exactly when fewer than two scenes are valid,
    because a valid scene's fold trains on every other valid scene."""
    if len(cohort.valid) < 2:
        raise ScanlocError(_EVERY_FOLD_FAULTY)


def _fold(cohort: _Cohort, i: int, scene: SyntheticScene, cloud: FusedCloud,
          extra=()) -> tuple[FoldResult, list]:
    """Fold `i` of `cohort`, which holds out `scene`, and the planar neighbors
    in `cloud` of the `extra` points.

    The fold solves the other valid scenes' rows in order (`_fit_rows`), a
    pure function of its training set, regresses the held-out target from
    the keypoints its fit sample holds, and snaps it through the same `_snap`
    as `extra`: one key window serves them all.  A faulty fold, or one with no
    valid training scene, snaps `extra` alone, and nothing if it is empty.
    """
    target_id = cohort.target_id
    keep = cohort.valid != i
    if cohort.faults[i] or not keep.any():
        fold = FoldResult(scene.scene_id, target_id, True,
                          cohort.faults[i] or "no valid training scenes")
        return fold, (_snap(cloud, *extra)[1] if extra else [])
    pose_kind = pose_kind_for_target(target_id)
    params, fit = _fit_rows([row[keep] for row in cohort.rows], target_id)
    keypoints = cohort.samples[i].keypoints
    regressed = regress_targets(keypoints, params, pose_kind)
    points = [point for _, point in regressed]
    surface, neighbors = _snap(cloud, *points, *extra)
    (pose,) = _target_poses(keypoints, pose_kind, regressed,
                            _adjusted(points, surface, neighbors[:len(points)]))
    gt = scene.targets_true[target_id]
    position_error = 1000.0 * float(np.linalg.norm(pose.position - gt))
    normal_error = angle_between_degrees(
        pose.surface_normal, scene.target_normals_true[target_id]
    )
    fold = FoldResult(
        scene_id=scene.scene_id,
        target_id=target_id,
        faulty=False,
        position_error_mm=position_error,
        normal_error_deg=float(normal_error),
        fitted=fit.ratios,
        fit_residual_mm=1000.0 * fit.mean_planar_residual,
    )
    return fold, neighbors[len(points):]


def loocv(scenes, target_id: int, clouds) -> list[FoldResult]:
    """Leave-one-out folds over the scenes, in scene order.

    `clouds` aligns 1:1 with `scenes`, and a list of another length raises
    ConfigError naming both counts: the fused cloud each held-out scene
    is localized in (see `scene_cloud`), from the keypoints its fit sample
    holds, so each scene is triangulated once.  The valid scenes' fit rows
    are built once, before any fold (`_cohort`), and each fold is `_fold`.
    """
    scenes, clouds = list(scenes), list(clouds)
    if len(clouds) != len(scenes):
        raise ConfigError(f"leave-one-out needs one cloud per scene, got {len(clouds)} "
                          f"clouds for {len(scenes)} scenes")
    cohort = _cohort(scenes, target_id)
    return [_fold(cohort, i, scene, cloud)[0]
            for i, (scene, cloud) in enumerate(zip(scenes, clouds))]


def success_table(folds) -> SuccessTable:
    """Success = valid fold with position error within the threshold, at
    each of `DEFAULT_THRESHOLDS_MM`.  The folds are one target's, as `loocv`
    gives them: folds of two targets raise ConfigError, because the table's
    one column names its target."""
    folds = list(folds)
    if not folds:
        raise ScanlocError("success table needs at least one fold")
    target_ids = sorted({f.target_id for f in folds})
    if len(target_ids) > 1:
        raise ConfigError(f"a success table holds one target, got folds of targets {target_ids}")
    rates = tuple(
        sum(1 for f in folds if not f.faulty and f.position_error_mm <= t) / len(folds)
        for t in DEFAULT_THRESHOLDS_MM
    )
    return SuccessTable(target_ids[0], rates)


def summarize(folds) -> dict:
    """Pooled sample statistics (mean, n-1 std) over valid folds."""
    folds = list(folds)
    valid = [f for f in folds if not f.faulty]
    if not valid:
        raise ScanlocError(_EVERY_FOLD_FAULTY)
    pos = np.array([f.position_error_mm for f in valid])
    ang = np.array([f.normal_error_deg for f in valid])

    def stats(values):
        return {
            "mean": float(np.mean(values)),
            "std": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
        }

    return {
        "position_mm": stats(pos),
        "orientation_deg": stats(ang),
        "n_folds": len(folds),
        "n_valid": len(valid),
        "n_faulty": len(folds) - len(valid),
    }


# back-projection comparison ----------------------------------------------------


@dataclass(frozen=True)
class BackprojectionResult:
    """Pixel errors of one target's estimates, projected into both views.

    two_view[v]: error of the triangulated-and-adjusted estimate in view v.
    single_view[k][v]: error in view v of the estimate built from camera
    k's own depth map.
    """

    scene_id: int
    target_id: int
    two_view: tuple
    single_view: tuple


def _nearest_valid_depth(depth_map, pixel: Pixel):
    """Depth at the closest valid pixel within NEAREST_PIXEL_RADIUS of `pixel`.
    Only the window of pixels that close is tested for validity."""
    u0, v0 = int(round(pixel.u)), int(round(pixel.v))
    top, left = max(v0 - NEAREST_PIXEL_RADIUS, 0), max(u0 - NEAREST_PIXEL_RADIUS, 0)
    window = depth_map.values[top:max(v0 + NEAREST_PIXEL_RADIUS + 1, 0),
                              left:max(u0 + NEAREST_PIXEL_RADIUS + 1, 0)]
    valid = _valid_depths(window)
    span = range(-NEAREST_PIXEL_RADIUS, NEAREST_PIXEL_RADIUS + 1)
    offsets = sorted(
        (du * du + dv * dv, du, dv) for du in span for dv in span
        if du * du + dv * dv <= NEAREST_PIXEL_RADIUS**2
    )
    for _, du, dv in offsets:
        u, v = u0 + du, v0 + dv
        if 0 <= u < depth_map.width and 0 <= v < depth_map.height and valid[v - top, u - left]:
            return float(depth_map.values[v, u])
    raise ScanlocError(
        f"no valid depth within {NEAREST_PIXEL_RADIUS} px of ({pixel.u:.1f}, {pixel.v:.1f})"
    )


def _pixel_error(camera, point, truth: Pixel) -> float:
    projected = camera.project(point)
    return float(np.hypot(projected.u - truth.u, projected.v - truth.v))


def _backprojection_estimates(scene: SyntheticScene, target_id: int) -> list:
    """The target's three estimates before their depth is snapped: triangulated
    from the observed pixels of both views, then deprojected from each
    camera's own depth map at its nearest valid depth (naming the view if
    there is none)."""
    observed = [scene.target_pixels_observed[vi][target_id] for vi in (0, 1)]
    points = [triangulate(scene.cameras[0], scene.cameras[1], *observed)]
    for k in (0, 1):
        try:
            depth = _nearest_valid_depth(scene.depths[k], observed[k])
        except ScanlocError as exc:
            raise ScanlocError(f"view {k}: {exc}") from None
        points.append(scene.cameras[k].deproject(observed[k], depth))
    return points


def _backprojection_result(scene: SyntheticScene, target_id: int, estimates,
                           neighbors) -> BackprojectionResult:
    """The estimates, each at its snapped neighbor's depth, scored against the
    true target pixels of both views."""
    truth = [scene.target_pixels_true[vi][target_id] for vi in (0, 1)]
    errors = [
        tuple(_pixel_error(camera, [x, y, neighbor.point[2]], pixel)
              for camera, pixel in zip(scene.cameras, truth))
        for (x, y, _), neighbor in zip(estimates, neighbors, strict=True)
    ]
    return BackprojectionResult(scene.scene_id, target_id, errors[0], tuple(errors[1:]))


def backprojection_comparison(scene: SyntheticScene, cloud: FusedCloud,
                              target_id: int) -> BackprojectionResult:
    """Two-view vs single-view estimates of one target, scored in pixel space.

    Both estimates start from the observed target pixels and end with the
    same nearest-neighbor depth adjustment; the single-view estimate reads
    its depth from that camera's own depth map instead of triangulating.
    The three estimates lie millimetres apart, so one snap adjusts them all,
    through one key window of `cloud`, the scene's fused cloud; no normal of
    it is read.  A scene without ground truth for the target raises
    ScanlocError.
    """
    _check_truth(scene, target_id)
    estimates = _backprojection_estimates(scene, target_id)
    _, neighbors = _snap(cloud, *estimates)
    return _backprojection_result(scene, target_id, estimates, neighbors)


def _fold_and_backprojection(cohort: _Cohort, i: int, scene: SyntheticScene,
                             cloud: FusedCloud) -> tuple[FoldResult, BackprojectionResult]:
    """Fold `i` of `cohort` and the held-out scene's back-projection
    comparison, through one `_snap` of `cloud`, the scene's fused cloud: the
    results of `loocv` and `backprojection_comparison`, bitwise, as a snap's
    results do not depend on the other points it serves."""
    estimates = _backprojection_estimates(scene, cohort.target_id)
    fold, neighbors = _fold(cohort, i, scene, cloud, estimates)
    return fold, _backprojection_result(scene, cohort.target_id, estimates, neighbors)


def median_backprojection_errors(results) -> dict:
    """The medians of every pixel error the results hold, pooled as `summarize`
    pools its folds: {'two_view': ..., 'single_view': ...}."""
    results = list(results)
    if not results:
        raise ScanlocError("back-projection medians need at least one result")
    two = [e for r in results for e in r.two_view]
    single = [e for r in results for source in r.single_view for e in source]
    return {"two_view": float(np.median(two)), "single_view": float(np.median(single))}


# report files ------------------------------------------------------------------


def write_folds_csv(folds, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "scene_id", "target_id", "faulty", "fault_reason",
                "position_error_mm", "normal_error_deg",
                "fitted_segment_ratio", "fitted_offset_ratio", "fit_residual_mm",
            ]
        )
        for f in folds:
            if f.faulty:
                writer.writerow([f.scene_id, f.target_id, 1, f.fault_reason,
                                 "", "", "", "", ""])
            else:
                writer.writerow(
                    [
                        f.scene_id, f.target_id, 0, "",
                        f"{f.position_error_mm:.6f}", f"{f.normal_error_deg:.6f}",
                        f"{f.fitted.segment_ratio:.9f}", f"{f.fitted.offset_ratio:.9f}",
                        f"{f.fit_residual_mm:.6f}",
                    ]
                )


def write_success_csv(table: SuccessTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold_mm", f"target_{table.target_id}"])
        for threshold, rate in zip(DEFAULT_THRESHOLDS_MM, table.rates):
            writer.writerow([f"{threshold:g}", f"{rate:.4f}"])


def write_summary_json(summary: dict, path) -> None:
    write_json(path, summary)


def write_backprojection_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "target_id", "method", "source_camera", "view",
                         "pixel_error"])
        for r in results:
            for vi, err in enumerate(r.two_view):
                writer.writerow([r.scene_id, r.target_id, "two_view", "", vi,
                                 f"{err:.6f}"])
            for k, errors in enumerate(r.single_view):
                for vi, err in enumerate(errors):
                    writer.writerow([r.scene_id, r.target_id, "single_view", k, vi,
                                     f"{err:.6f}"])
