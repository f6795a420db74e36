"""Command-line entry point tying the pipeline stages together.

Subcommands: calibrate (eye-to-hand camera pose), synth (synthetic torso
cohorts), fuse (depth maps to an oriented cloud), fit (ratio parameters
from a scene cohort), localize (scan-target poses for one scene), and
evaluate (leave-one-out reports).  Usage errors exit 2, data errors exit
1, success exits 0.  Everything needed to reproduce a run (seeds and
resolved settings) is logged to stderr and echoed into the reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace

from .cloud import DEFAULT_VOXEL, NORMAL_RADIUS, _check_fusion_options
from .errors import ConfigError, MalformedFileError, ScanlocError
from .evaluation import (
    DEFAULT_EVAL_VOXEL,
    DEFAULT_THRESHOLDS_MM,
    _check_summarizable,
    _cohort,
    _fold_and_backprojection,
    cohort_samples,
    median_backprojection_errors,
    scene_cloud,
    success_table,
    summarize,
    write_backprojection_csv,
    write_folds_csv,
    write_success_csv,
    write_summary_json,
)
from .geometry import PinholeCamera, RigidTransform
from .handeye import build_motion_pairs, load_samples, mean_residual, solve_park_martin
from .jsonfile import _check_keys, _whole, read_json, write_json
from .synth import (
    NoiseSpec,
    _cameras,
    _scene_dir,
    _scene_names,
    _validate_ranges,
    check_depth_maps,
    generate_cohort,
    load_depths,
    load_scene,
    read_scene_json,
    save_cohort,
    scene_directories,
)
from .targets import (
    TARGET_IDS,
    FitDataset,
    fit_target,
    load_params,
    localize,
    params_from_dict,
    save_params,
)

log = logging.getLogger("scanloc")

_SYNTH_KEYS = {"n", "seed", "pose", "torso", "ratios", "noise", "cameras"}


# subcommand handlers -----------------------------------------------------------


def _parse_intrinsics(data) -> PinholeCamera:
    """The intrinsics file's camera, at the identity pose until the solve replaces it."""
    if not isinstance(data, dict):
        raise ConfigError("intrinsics must be a JSON object")
    return PinholeCamera.from_dict({**data, "pose": RigidTransform.identity().to_dict()})


def _cmd_calibrate(args) -> int:
    samples = load_samples(args.samples)
    camera = read_json(args.intrinsics, _parse_intrinsics) if args.intrinsics else None
    pairs = build_motion_pairs(samples, all_pairs=True)
    pose = solve_park_martin(pairs)
    residual = mean_residual(pairs, pose)
    log.info(
        "calibrated from %d samples (%d motion pairs): mean Frobenius norm of "
        "A X - X B %.3e over the 4x4 poses, which mixes meters with rotation terms",
        len(samples), len(pairs), residual,
    )
    output = {"pose": pose.to_dict()} if camera is None else replace(camera, pose=pose).to_dict()
    write_json(args.out, output)
    log.info("wrote %s", args.out)
    return 0


def _parse_synth_config(data):
    _check_keys(data, _SYNTH_KEYS, "synth config")
    if "n" not in data:
        raise ConfigError("synth config needs 'n' (number of scenes)")
    n = _whole(data["n"], "n")
    seed = _whole(data.get("seed", 0), "seed")
    pose_kind = str(data.get("pose", "front"))
    ranges = _validate_ranges(data.get("torso", {}))
    ratios = params_from_dict(data["ratios"]) if "ratios" in data else None
    noise = NoiseSpec.from_dict(data.get("noise", {}))
    cameras = None
    if "cameras" in data:
        cameras = _cameras(data["cameras"], "cameras")
    return dict(n=n, seed=seed, pose_kind=pose_kind, ranges=ranges, ratios=ratios,
                noise=noise, cameras=cameras)


def _cmd_synth(args) -> int:
    config = read_json(args.config, _parse_synth_config)
    # scenes of another run left beside these would join the cohort that fit reads
    if os.path.isdir(args.out) and _scene_names(args.out):
        raise ConfigError(f"--out {args.out} already holds scene_* directories")
    log.info("generating %d %s-pose scenes, master seed %d",
             config["n"], config["pose_kind"], config["seed"])
    try:
        scenes = generate_cohort(**config)
    except ScanlocError as exc:
        raise MalformedFileError(f"{args.config}: {exc}") from None
    save_cohort(scenes, args.out)
    log.info("wrote %d scenes to %s", config["n"], args.out)
    return 0


def _cmd_fuse(args) -> int:
    scene = load_scene(_scene_dir(args.scene))
    cloud = scene_cloud(scene, args.voxel)
    cloud.save(args.out)
    log.info(
        "fused scene %d at %.1f mm voxel: %d points -> %s",
        scene.scene_id, 1000 * args.voxel, len(cloud.points), args.out,
    )
    return 0


def _cmd_fit(args) -> int:
    # the fit reads scene.json alone: no depth map is opened
    scenes = [read_scene_json(directory) for directory in scene_directories(args.dataset)]
    samples, faults = cohort_samples(scenes, args.target)
    for scene, fault in zip(scenes, faults):
        if fault:
            log.warning("skipping scene %d: %s", scene.scene_id, fault)
    samples = [sample for sample in samples if sample is not None]
    params, result = fit_target(FitDataset(samples), args.target)
    save_params(args.out, params)
    log.info(
        "fitted target %d on %d scenes: segment %.6f offset %.6f, "
        "mean planar residual %.3f mm -> %s",
        args.target, len(samples), result.ratios.segment_ratio,
        result.ratios.offset_ratio, 1000 * result.mean_planar_residual, args.out,
    )
    return 0


def _cmd_localize(args) -> int:
    scene = load_scene(_scene_dir(args.scene))
    params = load_params(args.params)
    if not (params.front if scene.pose_kind == "front" else params.side):
        raise ConfigError(f"{args.params} holds no ratios for a {scene.pose_kind} scene")
    cloud = scene_cloud(scene, args.voxel)
    poses = localize(
        scene.cameras[0], scene.cameras[1], scene.observation, cloud,
        params, scene.pose_kind,
    )
    output = {
        "scene_id": scene.scene_id,
        "pose_kind": scene.pose_kind,
        "voxel_m": args.voxel,
        "normal_radius_m": NORMAL_RADIUS,
        "targets": [p.to_dict() for p in poses],
    }
    write_json(args.out, output)
    for p in poses:
        log.info(
            "target %d at (%.4f, %.4f, %.4f) m%s",
            p.target_id, p.x, p.y, p.z,
            " [far from surface]" if p.far_from_surface else "",
        )
    log.info("wrote %s", args.out)
    return 0


def _evaluate_scene(cohort, i: int, directory, scene, voxel: float):
    """Scene `i`'s fold and back-projection: its depth maps are read and fused
    here, and dropped on return, so one scene's depth maps are held at a time.
    An error names the scene's directory."""
    try:
        scene = load_depths(scene, directory)
        return _fold_and_backprojection(cohort, i, scene, scene_cloud(scene, voxel))
    except ScanlocError as exc:
        raise type(exc)(f"{directory}: {exc}") from None


def _cmd_evaluate(args) -> int:
    _check_fusion_options(args.voxel)
    # pass 1: every scene.json and PFM header, and the cohort's fit rows; no depth is read
    directories = scene_directories(args.scenes)
    scenes = [read_scene_json(directory) for directory in directories]
    for scene, directory in zip(scenes, directories):
        check_depth_maps(scene, directory)
    cohort = _cohort(scenes, args.target)
    _check_summarizable(cohort)
    # a bad --out fails here, before any depth map is read
    os.makedirs(args.out, exist_ok=True)
    # the run's settings, echoed into summary.json
    config = {"target_id": args.target, "voxel_m": args.voxel,
              "normal_radius_m": NORMAL_RADIUS, "thresholds_mm": list(DEFAULT_THRESHOLDS_MM)}
    log.info("evaluate config: %s", json.dumps(config, sort_keys=True))
    # pass 2: one scene at a time
    folds, results = zip(*(_evaluate_scene(cohort, i, directory, scene, args.voxel)
                           for i, (directory, scene) in enumerate(zip(directories, scenes))))
    summary = summarize(folds)

    write_folds_csv(folds, os.path.join(args.out, "folds.csv"))
    write_success_csv(success_table(folds), os.path.join(args.out, "success_table.csv"))
    write_backprojection_csv(results, os.path.join(args.out, "backprojection.csv"))
    summary_out = {
        "config": config,
        "n_scenes": len(directories),
        "backprojection_median_px": median_backprojection_errors(results),
        **summary,
    }
    write_summary_json(summary_out, os.path.join(args.out, "summary.json"))
    log.info(
        "target %d: %d/%d valid folds, mean position %.2f mm, mean normal %.2f deg",
        args.target, summary["n_valid"], summary["n_folds"],
        summary["position_mm"]["mean"], summary["orientation_deg"]["mean"],
    )
    log.info("wrote reports to %s", args.out)
    return 0


# parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanloc",
        description="Scan-target localization pipeline: calibration, synthesis, "
                    "fusion, fitting, localization, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="solve the eye-to-hand camera pose")
    p.add_argument("--samples", required=True, help="JSON array of pose-pair samples")
    p.add_argument("--out", required=True, help="output calibration JSON")
    p.add_argument("--intrinsics", help="JSON with fx, fy, cx, cy, width, height "
                                        "to embed alongside the solved pose")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("synth", help="generate a synthetic scene cohort")
    p.add_argument("--config", required=True, help="cohort config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("fuse", help="fuse a scene's depth maps into a cloud")
    p.add_argument("--scene", required=True, help="scene directory or scene.json")
    p.add_argument("--out", required=True, help="output cloud file")
    p.add_argument("--voxel", type=float, default=DEFAULT_VOXEL,
                   help="voxel edge in meters")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("fit", help="fit ratio parameters on a scene cohort")
    p.add_argument("--dataset", required=True, help="cohort directory")
    p.add_argument("--target", type=int, choices=TARGET_IDS, required=True)
    p.add_argument("--out", required=True, help="output params JSON")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("localize", help="localize scan targets in one scene")
    p.add_argument("--scene", required=True, help="scene directory or scene.json")
    p.add_argument("--params", required=True, help="fitted params JSON")
    p.add_argument("--out", required=True, help="output poses JSON")
    p.add_argument("--voxel", type=float, default=DEFAULT_VOXEL)
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("evaluate", help="leave-one-out evaluation reports")
    p.add_argument("--scenes", required=True, help="cohort directory")
    p.add_argument("--target", type=int, choices=TARGET_IDS, required=True)
    p.add_argument("--out", required=True, help="report directory")
    p.add_argument("--voxel", type=float, default=DEFAULT_EVAL_VOXEL)
    # accepted only as 1, because the benchmark's evaluate-noisy argv still passes it
    p.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_evaluate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ScanlocError, OSError) as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
