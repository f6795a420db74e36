"""End-to-end tests for the scanloc command-line interface."""

import argparse
import copy
import csv
import filecmp
import hashlib
import io
import json
import logging
import mmap
import os
import re
import shutil
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    get_path,
    oracle_side_target,
    small_cameras,
    spoil_a_number,
    synthesize_pose_pairs,
)
from scanloc import cli
from scanloc.cli import build_parser, main
from scanloc.cloud import FusedCloud, _snap, fuse, read_pfm, write_pfm
from scanloc.errors import ConfigError, MalformedFileError
from scanloc.geometry import PinholeCamera, RigidTransform, angle_axis_to_rotation
from scanloc.handeye import (
    PosePairSample,
    build_motion_pairs,
    load_samples,
    mean_residual,
    solve_park_martin,
)
from scanloc.jsonfile import _whole, read_json
from scanloc.synth import NoiseSpec, default_ratios, generate_cohort, load_scene, save_cohort
from scanloc.targets import RatioPair, params_to_dict


def without(data, *path):
    """A copy of the JSON value `data` with the key at the key path `path` left out."""
    data = copy.deepcopy(data)
    *parents, key = path
    del get_path(data, parents)[key]
    return data


def edited_cameras(**fields):
    """`small_cameras` as config entries, the first with `fields` replaced."""
    first, second = (c.to_dict() for c in small_cameras())
    return [{**first, **fields}, second]


def write_synth_config(path, n=3, seed=5, pose="front", noise=None):
    config = {
        "n": n,
        "seed": seed,
        "pose": pose,
        "cameras": [c.to_dict() for c in small_cameras()],
    }
    if noise:
        config["noise"] = noise
    with open(path, "w") as fh:
        json.dump(config, fh)


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_cohort")
    config = root / "synth.json"
    write_synth_config(
        config, noise={"keypoint_sigma_px": 0.5, "depth_sigma_m": 0.002}
    )
    scenes = root / "scenes"
    assert main(["synth", "--config", str(config), "--out", str(scenes)]) == 0
    return scenes


@pytest.fixture(scope="module")
def side_cohort_dir(tmp_path_factory):
    """Five noisy side scenes; right-hip faults make scenes 1 and 4 faulty."""
    root = tmp_path_factory.mktemp("cli_side_cohort")
    config = root / "synth.json"
    write_synth_config(
        config, n=5, seed=11, pose="side",
        noise={"keypoint_sigma_px": 0.5, "depth_sigma_m": 0.002,
               "fault_prob": {"right_hip": 0.3}},
    )
    scenes = root / "scenes"
    assert main(["synth", "--config", str(config), "--out", str(scenes)]) == 0
    return scenes


class TestExitCodes:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["--bogus-flag"])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    def test_bad_target_choice_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["evaluate", "--scenes", str(tmp_path), "--target", "9",
                  "--out", str(tmp_path / "r")])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--scenes", "{dir}", "--target", "1", "--thresholds", "5:40:5"],
        ["calibrate", "--samples", "{dir}/samples.json", "--all-pairs"],
    ], ids=["evaluate-thresholds", "calibrate-all-pairs"])
    def test_fixed_table_and_pairing_take_no_option(self, tmp_path, argv):
        """`evaluate` always writes the 5-40 mm table and `calibrate` always
        pairs every sample."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([arg.format(dir=tmp_path) for arg in argv] + ["--out", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["evaluate", "--scenes", str(tmp_path / "nope"), "--target", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 1

    def test_bad_config_exits_1(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text('{"n": 2, "mystery_knob": true}')
        assert main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
        config.write_text('{"seed": 3}')
        assert main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1
        config.write_text("not json at all")
        assert main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 1


class TestSynth:
    def test_writes_scene_dirs(self, cohort_dir):
        names = sorted(p.name for p in cohort_dir.iterdir())
        assert names == ["scene_000", "scene_001", "scene_002"]
        for name in names:
            assert (cohort_dir / name / "scene.json").exists()
            assert (cohort_dir / name / "depth_0.pfm").exists()
            assert (cohort_dir / name / "depth_1.pfm").exists()

    def test_rerun_byte_identical(self, tmp_path):
        config = tmp_path / "synth.json"
        write_synth_config(config, n=2, seed=3)
        for out in ("a", "b"):
            assert main(["synth", "--config", str(config),
                         "--out", str(tmp_path / out)]) == 0
        for scene in ("scene_000", "scene_001"):
            for name in ("scene.json", "depth_0.pfm", "depth_1.pfm"):
                assert filecmp.cmp(
                    tmp_path / "a" / scene / name,
                    tmp_path / "b" / scene / name,
                    shallow=False,
                ), f"{scene}/{name}"

    def test_an_explicit_noise_seed_of_0_is_the_default(self, tmp_path):
        config = tmp_path / "synth.json"
        for out, noise in (("a", {"depth_sigma_m": 0.002}), ("b", {"depth_sigma_m": 0.002, "seed": 0})):
            write_synth_config(config, n=1, noise=noise)
            assert main(["synth", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        for name in ("scene.json", "depth_0.pfm", "depth_1.pfm"):
            assert filecmp.cmp(tmp_path / "a" / "scene_000" / name,
                               tmp_path / "b" / "scene_000" / name, shallow=False), name

    def test_jobs_option_is_a_usage_error(self, tmp_path):
        config = tmp_path / "synth.json"
        write_synth_config(config, n=1)
        with pytest.raises(SystemExit) as info:
            main(["synth", "--config", str(config), "--out", str(tmp_path / "out"), "--jobs", "2"])
        assert info.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_refuses_an_out_holding_scenes(self, tmp_path, caplog):
        """A 2-scene run into a 4-scene cohort would leave scenes 2 and 3 of
        another seed for `fit` to train on: it generates nothing instead."""
        config = tmp_path / "synth.json"
        write_synth_config(config, n=4, seed=3)
        out = tmp_path / "scenes"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        write_synth_config(config, n=2, seed=4)
        with caplog.at_level(logging.ERROR, logger="scanloc"):
            assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert_one_line_error(caplog, f"--out {out}")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("config, detail", [
        ({"n": 0, "seed": 1}, "cohort size must be >= 1, got 0"),
        ({"n": 2, "seed": 1, "pose": "diagonal"}, "'diagonal'"),
    ], ids=["no-scenes", "unknown-pose"])
    def test_a_refused_config_logs_only_its_error(self, tmp_path, caplog, config, detail):
        """The run is logged once its config is accepted: a refused one logs
        one ERROR line and nothing else."""
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "scenes"
        with caplog.at_level(logging.DEBUG, logger="scanloc"):
            assert main(["synth", "--config", str(path), "--out", str(out)]) == 1
        assert [r.levelno for r in caplog.records] == [logging.ERROR]
        assert_one_line_error(caplog, str(path), detail)
        assert not out.exists()


def write_samples(path, samples) -> None:
    path.write_text(json.dumps([
        {"gripper_in_base": s.gripper_in_base.to_dict(), "tag_in_camera": s.tag_in_camera.to_dict()}
        for s in samples
    ]))


def write_calibration_samples(path, n, seed) -> RigidTransform:
    """Write `n` exact pose-pair samples of a random camera pose; return that pose."""
    x_true, samples = synthesize_pose_pairs(np.random.default_rng(seed), n)
    write_samples(path, samples)
    return x_true


INTRINSICS = {"fx": 600, "fy": 600, "cx": 320, "cy": 240, "width": 640, "height": 480}


class TestCalibrate:
    def test_recovers_camera_pose(self, tmp_path):
        samples_file = tmp_path / "samples.json"
        x_true = write_calibration_samples(samples_file, 12, seed=9)
        intr_file = tmp_path / "intrinsics.json"
        intr_file.write_text(json.dumps(INTRINSICS))
        out = tmp_path / "calib.json"
        assert main(["calibrate", "--samples", str(samples_file),
                     "--out", str(out), "--intrinsics", str(intr_file)]) == 0
        cam = PinholeCamera.from_dict(json.loads(out.read_text()))
        assert np.linalg.norm(cam.pose.as_matrix() - x_true.as_matrix()) < 1e-9
        assert cam.fx == 600

    def test_pose_only_output(self, tmp_path):
        samples_file = tmp_path / "samples.json"
        x_true = write_calibration_samples(samples_file, 8, seed=10)
        out = tmp_path / "pose.json"
        assert main(["calibrate", "--samples", str(samples_file),
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"pose"}
        pose = RigidTransform.from_dict(data["pose"])
        assert np.linalg.norm(pose.as_matrix() - x_true.as_matrix()) < 1e-9

    def test_recovers_camera_pose_from_three_samples(self, tmp_path):
        """Three samples give three motion pairs only when every pair is used."""
        samples_file = tmp_path / "samples.json"
        x_true = write_calibration_samples(samples_file, 3, seed=12)
        out = tmp_path / "pose.json"
        assert main(["calibrate", "--samples", str(samples_file), "--out", str(out)]) == 0
        pose = RigidTransform.from_dict(json.loads(out.read_text())["pose"])
        assert np.linalg.norm(pose.as_matrix() - x_true.as_matrix()) < 1e-9

    def test_writes_the_every_pair_solve(self, tmp_path):
        """On a noisy recording, where the two pairings solve to different
        poses, the pose written is bitwise the solve over every sample pair."""
        rng = np.random.default_rng(13)
        _, exact = synthesize_pose_pairs(rng, 12)
        samples_file = tmp_path / "samples.json"
        write_samples(samples_file, [
            PosePairSample(s.gripper_in_base, RigidTransform(
                angle_axis_to_rotation(rng.normal(0, np.radians(0.3), 3)) @ s.tag_in_camera.rotation,
                s.tag_in_camera.translation + rng.normal(0, 0.001, 3)))
            for s in exact
        ])
        out = tmp_path / "pose.json"
        assert main(["calibrate", "--samples", str(samples_file), "--out", str(out)]) == 0
        samples = load_samples(samples_file)
        every_pair = solve_park_martin(build_motion_pairs(samples, all_pairs=True))
        assert json.loads(out.read_text())["pose"] == every_pair.to_dict()
        consecutive = solve_park_martin(build_motion_pairs(samples))
        assert consecutive.to_dict() != every_pair.to_dict()

    def test_logs_the_mean_residual_it_measured(self, tmp_path, caplog):
        """The logged residual is `mean_residual`, the mean Frobenius norm of
        A X - X B, and is named as such, not as a rotation residual: with
        2 mm of translation noise on the tag and none on its rotation, it
        reads a few 1e-3."""
        rng = np.random.default_rng(14)
        _, exact = synthesize_pose_pairs(rng, 6)
        samples_file = tmp_path / "samples.json"
        write_samples(samples_file, [
            PosePairSample(s.gripper_in_base, RigidTransform(
                s.tag_in_camera.rotation, s.tag_in_camera.translation + rng.normal(0, 0.002, 3)))
            for s in exact
        ])
        with caplog.at_level(logging.INFO, logger="scanloc"):
            assert main(["calibrate", "--samples", str(samples_file),
                         "--out", str(tmp_path / "pose.json")]) == 0
        pairs = build_motion_pairs(load_samples(samples_file), all_pairs=True)
        residual = mean_residual(pairs, solve_park_martin(pairs))
        assert residual > 1e-4
        (line,) = [r.getMessage() for r in caplog.records if "motion pairs" in r.getMessage()]
        assert f"mean Frobenius norm of A X - X B {residual:.3e}" in line
        assert "rotation residual" not in line and " rad" not in line


# sha256 of what `fit`, `localize` and `evaluate --target 1` write for the
# `cohort_dir` cohort.  A refactor must leave every byte alone; a deliberate
# change of the maths updates these and says so.
REPORT_SHA256 = {
    "params.json": "7e94b9b14fd369d150ed82dc9dfcbb1aa4d40027a9c7fcf1aa47ba0e0533fd72",
    "poses.json": "58098b53d16b9b55cf3092dab252e6d9dd9d4878576ebf84f65f8ec5318f7c8e",
    "folds.csv": "5091f3d796ae154413227c4c1594bb0d77fd8ef36863c5cd64c33b5542464cbf",
    "success_table.csv": "bf326fc039da97d94c64e57a58ebf59d00fdea91424d2412acb698490b802e47",
    "backprojection.csv": "45cf861f21ab7864b35fbccc2ad120c1b1648155c0047aef7ba6ba96354c0d67",
    "summary.json": "13a58f6a466cef652ade56d61422cb22ca0e628c996eb1ee48e5abd59cdef6f7",
}
# sha256 of what `fit --target 4` and `evaluate --target 4` write for the
# `side_cohort_dir` cohort: the side fit's bytes, held like REPORT_SHA256.
SIDE_REPORT_SHA256 = {
    "params.json": "5b5a6da45d7472d345254dcd75a55a534cedee9d6eb9e1d3cad1467b3c0ea5c4",
    "folds.csv": "9b442d7085a362486ab74eb5a554ccaca84bdc92ecd42c1d87e48a839d356885",
    "summary.json": "eda05d43987a2dc86937f3a258848e0288e4c9ed46659765c261a4a223deae95",
}
# sha256 of what `fuse` writes for `cohort_dir`'s scene_001 at the default voxel
CLOUD_SHA256 = "c4abee7469aba555186fd282c02d9aa2b0efe3dc5bd104ded92fb59ae67d9654"


class TestPipeline:
    def test_fuse_writes_loadable_cloud(self, cohort_dir, tmp_path):
        out = tmp_path / "cloud.bin"
        assert main(["fuse", "--scene", str(cohort_dir / "scene_001"),
                     "--out", str(out), "--voxel", "0.004"]) == 0
        cloud = FusedCloud.load(out)
        assert len(cloud.points) > 1000
        assert np.all(np.isfinite(cloud.normals))

    def test_fuse_accepts_scene_json_path(self, cohort_dir, tmp_path):
        out = tmp_path / "cloud.bin"
        assert main(["fuse", "--scene", str(cohort_dir / "scene_001" / "scene.json"),
                     "--out", str(out), "--voxel", "0.004"]) == 0
        assert out.exists()

    def test_fit_then_localize(self, cohort_dir, tmp_path):
        params_file = tmp_path / "params.json"
        assert main(["fit", "--dataset", str(cohort_dir), "--target", "1",
                     "--out", str(params_file)]) == 0
        params = json.loads(params_file.read_text())
        assert abs(params["front"]["1"]["r_f1"] - 0.75) < 0.05
        assert abs(params["front"]["1"]["r_f2"] - 0.20) < 0.05

        poses_file = tmp_path / "poses.json"
        assert main(["localize", "--scene", str(cohort_dir / "scene_001"),
                     "--params", str(params_file), "--out", str(poses_file),
                     "--voxel", "0.004"]) == 0
        poses = json.loads(poses_file.read_text())
        assert poses["pose_kind"] == "front"
        assert poses["normal_radius_m"] == 0.018
        (target,) = poses["targets"]
        assert target["target_id"] == 1
        assert not target["far_from_surface"]
        truth = json.loads(
            (cohort_dir / "scene_001" / "scene.json").read_text()
        )["targets_true"]["1"]
        err = np.linalg.norm(np.array(target["position_m"]) - np.array(truth))
        assert err < 0.01

    def test_localize_reads_the_pose_kind_from_the_scene(self, cohort_dir, side_cohort_dir,
                                                         tmp_path):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({
            "front": {"1": {"r_f1": 0.75, "r_f2": 0.2}, "2": {"r_f1": 0.75, "r_f2": 0.5}},
            "side": {"r_s1": 0.4, "r_s2": 0.15},
        }))
        for scenes, pose_kind, target_ids in ((cohort_dir, "front", [1, 2]),
                                              (side_cohort_dir, "side", [4])):
            out = tmp_path / f"{pose_kind}.json"
            assert main(["localize", "--scene", str(scenes / "scene_000"),
                         "--params", str(params_file), "--out", str(out),
                         "--voxel", "0.004"]) == 0
            poses = json.loads(out.read_text())
            assert poses["pose_kind"] == pose_kind
            assert [target["target_id"] for target in poses["targets"]] == target_ids

    def test_localize_pose_option_is_a_usage_error(self, cohort_dir, tmp_path):
        out = tmp_path / "poses.json"
        with pytest.raises(SystemExit) as info:
            main([*fusion_argv("localize", cohort_dir, tmp_path, out), "--pose", "front"])
        assert info.value.code == 2
        assert not out.exists()

    def test_evaluate_smoke_and_determinism(self, cohort_dir, tmp_path):
        argv = ["evaluate", "--scenes", str(cohort_dir), "--target", "1", "--voxel", "0.004"]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("summary.json", "folds.csv", "success_table.csv",
                     "backprojection.csv"):
            assert (tmp_path / "r1" / name).exists()
            assert filecmp.cmp(
                tmp_path / "r1" / name, tmp_path / "r2" / name, shallow=False
            ), name
        summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
        assert summary["n_folds"] == 3
        assert set(summary["config"]) == {
            "normal_radius_m", "target_id", "thresholds_mm", "voxel_m"
        }
        assert summary["config"]["thresholds_mm"][0] == 5.0
        assert summary["config"]["normal_radius_m"] == 0.018
        assert summary["position_mm"]["mean"] < 25.0

    def test_report_bytes_are_pinned(self, cohort_dir, tmp_path):
        params_file = tmp_path / "params.json"
        assert main(["fit", "--dataset", str(cohort_dir), "--target", "1",
                     "--out", str(params_file)]) == 0
        assert main(["localize", "--scene", str(cohort_dir / "scene_001"),
                     "--params", str(params_file), "--out", str(tmp_path / "poses.json"),
                     "--voxel", "0.004"]) == 0
        assert main(["evaluate", "--scenes", str(cohort_dir), "--target", "1",
                     "--voxel", "0.004", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in REPORT_SHA256}
        assert digests == REPORT_SHA256

    def test_side_report_bytes_are_pinned(self, side_cohort_dir, tmp_path):
        assert main(["fit", "--dataset", str(side_cohort_dir), "--target", "4",
                     "--out", str(tmp_path / "params.json")]) == 0
        assert main(["evaluate", "--scenes", str(side_cohort_dir), "--target", "4",
                     "--voxel", "0.004", "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in SIDE_REPORT_SHA256}
        assert digests == SIDE_REPORT_SHA256

    def test_cloud_bytes_are_pinned(self, cohort_dir, tmp_path):
        out = tmp_path / "scene_001.cloud"
        assert main(["fuse", "--scene", str(cohort_dir / "scene_001"), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CLOUD_SHA256
        assert len(out.read_bytes()) == 40 + 12 * len(FusedCloud.load(out))

    def test_fuse_computes_no_normal(self, cohort_dir, tmp_path, monkeypatch):
        def no_normals(*args):
            raise AssertionError("fuse computed a PCA normal")

        monkeypatch.setattr("scanloc.cloud._pca_normals", no_normals)
        assert main(["fuse", "--scene", str(cohort_dir / "scene_001"),
                     "--out", str(tmp_path / "cloud.bin")]) == 0

    @pytest.mark.parametrize("jobs", ["2", "0", "-3"])
    def test_evaluate_jobs_other_than_1_is_a_usage_error(self, cohort_dir, tmp_path, jobs):
        argv = ["evaluate", "--scenes", str(cohort_dir), "--target", "1",
                "--out", str(tmp_path / "reports")]
        assert build_parser().parse_args(argv + ["--jobs", "1"]).jobs == 1
        with pytest.raises(SystemExit) as info:
            main(argv + ["--jobs", jobs])
        assert info.value.code == 2
        assert not (tmp_path / "reports").exists()


# every subcommand's options; a new flag is a deliberate edit here
CLI_OPTIONS = {
    "calibrate": {"--samples", "--out", "--intrinsics"},
    "synth": {"--config", "--out"},
    "fuse": {"--scene", "--out", "--voxel"},
    "fit": {"--dataset", "--target", "--out"},
    "localize": {"--scene", "--params", "--out", "--voxel"},
    "evaluate": {"--scenes", "--target", "--out", "--voxel", "--jobs"},
}


def test_cli_options_are_pinned():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {name: {option for action in sub._actions for option in action.option_strings
                      if option.startswith("--") and option != "--help"}
               for name, sub in commands.choices.items()}
    assert options == CLI_OPTIONS


def test_main_builds_one_parser_per_process(monkeypatch, tmp_path):
    """Every `main` call parses with the same parser, and a usage error
    leaves it able to parse the next call."""
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    missing = ["fuse", "--scene", str(tmp_path / "none"), "--out", str(tmp_path / "cloud")]
    assert main(missing) == 1
    with pytest.raises(SystemExit) as info:
        main(["fuse", "--bogus"])
    assert info.value.code == 2
    assert main(missing) == 1
    assert built == [1]


FRONT_PARAMS = {"front": {"1": {"r_f1": 0.75, "r_f2": 0.2}}}
# the sideways convention with its lateral axis flipped, which would mirror target 4
MIRRORED = {"front": [0, 1, 0], "side": [-1, 0, 0]}


def fusion_argv(command, cohort_dir, tmp_path, out):
    """A complete `fuse`, `localize` or `evaluate` command line writing to `out`."""
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(FRONT_PARAMS))
    scene = str(cohort_dir / "scene_001")
    argv = {
        "fuse": ["fuse", "--scene", scene],
        "localize": ["localize", "--scene", scene, "--params", str(params_file)],
        "evaluate": ["evaluate", "--scenes", str(cohort_dir), "--target", "1"],
    }[command]
    return [*argv, "--out", str(out)]


def assert_refused(caplog, argv, out, *names):
    """`main(argv)` exits 1 with `assert_one_line_error(caplog, *names)` and
    leaves no `out`."""
    with caplog.at_level(logging.ERROR, logger="scanloc"):
        assert main(argv) == 1
    assert_one_line_error(caplog, *names)
    assert not out.exists()


def assert_one_line_error(caplog, *names):
    """Exactly one ERROR record: one line, no traceback, naming each of `names`."""
    (error,) = [r for r in caplog.records if r.levelno == logging.ERROR]
    for name in names:
        assert name in error.getMessage()
    assert "\n" not in error.getMessage()
    assert error.exc_info is None


def localize_with_params(tmp_path, pose, params) -> tuple[int, object]:
    """`localize` on a one-scene cohort of pose kind `pose`, with `params` as its
    params file and every warning turned into an error: (exit code, --out path)."""
    config = tmp_path / "synth.json"
    write_synth_config(config, n=1, pose=pose)
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "scenes")]) == 0
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(params))
    out = tmp_path / "poses.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["localize", "--scene", str(tmp_path / "scenes" / "scene_000"),
                     "--params", str(params_file), "--out", str(out)])
    return code, out


@pytest.fixture(scope="module")
def cut_scene(cohort_dir, tmp_path_factory):
    """A copy of `cohort_dir`'s scene_001, for tests that rewrite its files."""
    scene = tmp_path_factory.mktemp("cut_scene") / "scene"
    shutil.copytree(cohort_dir / "scene_001", scene)
    return scene


def main_stderr(argv) -> tuple[int, str]:
    """`main(argv)` and what it logs, formatted as the CLI formats stderr.

    Stands in for `caplog`, which is function-scoped and so cannot serve
    a hypothesis test's examples."""
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("scanloc")
    logger.addHandler(handler)
    try:
        code = main(argv)
    finally:
        logger.removeHandler(handler)
    return code, stream.getvalue()


@pytest.fixture(scope="module")
def full_synth_config():
    """A synth config that sets every section: cameras, torso ranges (one an
    interval, one a scalar), noise with a fault probability, and ratios."""
    return json.dumps({
        "n": 2, "seed": 5, "pose": "front",
        "cameras": [c.to_dict() for c in small_cameras()],
        "torso": {"half_width": [0.14, 0.18], "length": 0.5},
        "noise": {"keypoint_sigma_px": 1.0, "depth_sigma_m": 0.002,
                  "fault_prob": {"right_hip": 0.1}},
        "ratios": params_to_dict(default_ratios()),
    })


class TestMalformedInput:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_any_number_of_calibration_samples_made_bad_is_refused(self, tmp_path_factory, data):
        """Any number of a 6-sample calibration file replaced by a value that
        is not a finite number fails as malformed, naming the file."""
        _, samples = synthesize_pose_pairs(np.random.default_rng(12), 6)
        path = tmp_path_factory.mktemp("samples") / "samples.json"
        write_samples(path, samples)
        items = json.loads(path.read_text())
        spoil_a_number(data.draw, items)
        path.write_text(json.dumps(items))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            load_samples(path)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_any_number_of_a_synth_config_made_bad_is_refused(self, full_synth_config,
                                                              tmp_path_factory, data):
        """Any number of a synth config replaced by a value that is not a
        finite number fails as malformed, naming the file, before a scene is
        generated."""
        config = json.loads(full_synth_config)
        spoil_a_number(data.draw, config)
        path = tmp_path_factory.mktemp("synth") / "config.json"
        path.write_text(json.dumps(config))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            read_json(path, cli._parse_synth_config)

    @pytest.mark.parametrize("call, detail", [
        (lambda: generate_cohort(2, ranges={"length": 10**400}), "invalid interval for length"),
        (lambda: NoiseSpec(depth_sigma_m=10**400), "noise sigmas must be finite"),
        (lambda: fuse([], voxel=10**400), "voxel must be a finite size"),
        (lambda: angle_axis_to_rotation([10**400, 0, 0]), "angle_axis must be finite"),
        (lambda: _whole(10**400, "n"), "n must be a whole number"),
        (lambda: RatioPair(10**400, 0.1), "ratios must be finite"),
    ], ids=["cohort-range", "noise-sigma", "fuse-voxel", "angle-axis", "whole", "ratio-pair"])
    def test_a_number_too_large_for_a_float_is_a_config_error(self, call, detail):
        """An integer too large for a float is refused as not finite, so a
        library caller gets a ConfigError, not an OverflowError or TypeError."""
        with pytest.raises(ConfigError, match=detail):
            call()

    def test_fuse_on_truncated_pfm_exits_1(self, cohort_dir, tmp_path, caplog):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        pfm = scene / "depth_0.pfm"
        pfm.write_bytes(pfm.read_bytes()[:-100])
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(scene), "--out", str(out)], out,
                       str(pfm))

    def test_fuse_on_pfm_header_too_long_exits_1(self, cohort_dir, tmp_path, caplog):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        pfm = scene / "depth_0.pfm"
        pfm.write_bytes(b"Pf\n" + b"9" * 2**20 + b" 240\n-1.0\n")
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(scene), "--out", str(out)], out,
                       str(pfm), "PFM header is longer than 256 bytes")

    @pytest.mark.parametrize("shape", [(4, 4), (480, 640)], ids=["4x4", "twice-the-camera"])
    def test_fuse_on_depth_map_not_its_cameras_size_exits_1(self, cohort_dir, tmp_path, caplog,
                                                            shape):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        pfm = scene / "depth_1.pfm"
        write_pfm(pfm, np.zeros(shape, dtype=np.float32))
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(scene), "--out", str(out)], out,
                       str(pfm), "its camera 320x240")

    def test_evaluate_on_shared_scene_id_exits_1(self, cohort_dir, tmp_path, caplog):
        scenes = tmp_path / "scenes"
        shutil.copytree(cohort_dir, scenes)
        shutil.copytree(scenes / "scene_000", scenes / "scene_009")
        out = tmp_path / "reports"
        assert_refused(caplog, ["evaluate", "--scenes", str(scenes), "--target", "1",
                                "--out", str(out)], out / "folds.csv", "scene id 0 is shared")

    @pytest.mark.parametrize("command, option, out", [("fit", "--dataset", "params.json"),
                                                      ("evaluate", "--scenes", "reports")])
    def test_a_dataset_without_scenes_exits_1(self, tmp_path, caplog, command, option, out):
        dataset = tmp_path / "empty"
        (dataset / "not_a_scene").mkdir(parents=True)
        out = tmp_path / out
        assert_refused(caplog, [command, option, str(dataset), "--target", "1", "--out", str(out)],
                       out, f"no scene_* directories under {dataset}")

    def test_fit_on_shared_scene_id_exits_1(self, cohort_dir, tmp_path, caplog):
        scenes = tmp_path / "scenes"
        shutil.copytree(cohort_dir, scenes)
        shutil.copytree(scenes / "scene_000", scenes / "scene_009")
        params_file = tmp_path / "params.json"
        assert_refused(caplog, ["fit", "--dataset", str(scenes), "--target", "1",
                                "--out", str(params_file)], params_file, "scene id 0 is shared")

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_fuse_on_pfm_cut_at_any_byte_exits_1(self, cohort_dir, cut_scene, data):
        whole = (cohort_dir / "scene_001" / "depth_0.pfm").read_bytes()
        cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
        (cut_scene / "depth_0.pfm").write_bytes(whole[:cut])
        out = cut_scene.parent / "cloud.bin"
        code, stderr = main_stderr(["fuse", "--scene", str(cut_scene), "--out", str(out)])
        assert code == 1
        assert len([line for line in stderr.splitlines()
                    if line.startswith("ERROR scanloc: ")]) == 1, stderr
        assert "Traceback" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("name", ["/etc/hostname", "../scene_000/depth_0.pfm", "",
                                      ".", "..", "sub/depth_1.pfm", "depth_0\0.pfm"])
    def test_fuse_on_depth_file_outside_the_scene_exits_1(self, cohort_dir, tmp_path, caplog,
                                                          monkeypatch, name):
        """scene.json names no depth file: the maps sit at fixed names in the
        scene directory.  A scene.json that still holds a `depth_files` key,
        whatever file it names (another scene's map included), is refused as
        an unknown key naming scene.json, before any depth map is opened."""
        scenes = tmp_path / "scenes"
        shutil.copytree(cohort_dir, scenes)
        path = scenes / "scene_001" / "scene.json"
        data = json.loads(path.read_text())
        data["depth_files"] = [name, "depth_1.pfm"]
        path.write_text(json.dumps(data))
        for opener in ("read_pfm", "pfm_shape"):
            monkeypatch.setattr(f"scanloc.synth.{opener}", refuse_pfm)
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(scenes / "scene_001"), "--out", str(out)],
                       out, str(path), "unknown scene keys: ['depth_files']")

    @pytest.mark.parametrize(
        "corrupt, detail",
        [
            (lambda d: {**d, "keypoints_true": {**d["keypoints_true"],
                                                "right_hip": [0.1, float("nan"), 0.8]}},
             "right_hip"),
            (lambda d: {k: v for k, v in d.items() if k != "cameras"}, "missing key 'cameras'"),
            (lambda d: {**d, "torso": {**d["torso"], "length": "long"}}, "long"),
            (lambda d: json.dumps(d)[:-40], ""),
            (lambda d: {**d, "target_pixels_true": [1, 2]}, "two JSON objects"),
            (lambda d: {**d, "target_pixels_true": d["target_pixels_true"][:1]},
             "two JSON objects"),
            (lambda d: {**d, "observation": [[], {}]},
             "observation must be a list of exactly two JSON objects"),
            (lambda d: {**d, "cameras": d["cameras"][:1]},
             "cameras must be a list of exactly two JSON objects"),
            (lambda d: {**d, "cameras": 5}, "cameras must be a list of exactly two JSON objects"),
            (lambda d: {**d, "depth_files": 7}, "unknown scene keys: ['depth_files']"),
            (lambda d: {**d, "pose_kind": 3}, "pose_kind must be 'front' or 'side', got 3"),
            (lambda d: {**d, "target_pixels_observed": [{}, {}]},
             "target_pixels_observed view0 and targets_true disagree on target 1"),
            (lambda d: {**d, "target_normals_true": {}},
             "target_normals_true and targets_true disagree on target 1"),
            (lambda d: {**d, "target_pixels_true": [{}, {}]},
             "target_pixels_true view0 and targets_true disagree on target 1"),
            (lambda d: {**d, "targets_true": []}, "targets_true must be a JSON object"),
            (lambda d: {**d, "keypoints_true": [1]}, "keypoints_true must be a JSON object"),
            (lambda d: {**d, "faulted_joints": [1]}, "faulted_joints must be a JSON object"),
            (lambda d: {**d, "noise": {**d["noise"], "fault_prob": [1]}},
             "noise fault_prob must be a JSON object"),
            (lambda d: {**d, "target_pixels_true": [{"1": 5}, {}]},
             "target_pixels_true view0 1 must be 2 finite numbers"),
            (lambda d: {**d, "target_pixels_true": [{"x": [1, 2]}, {}]},
             "unknown target_pixels_true view0 keys: ['x']"),
            (lambda d: {**d, "noise": {**d["noise"], "fault_prob": {"right_hip": "abc"}}},
             "noise fault_prob right_hip must be a finite number, got 'abc'"),
            (lambda d: {**d, "cameras": [{**d["cameras"][0], "fx": float("nan")},
                                         d["cameras"][1]]},
             "camera 0 fx must be a finite number, got nan"),
            (lambda d: {**d, "cameras": [d["cameras"][0],
                                         {**d["cameras"][1], "width": 320.5}]},
             "camera 1 width must be a whole number, got 320.5"),
            (lambda d: {**d, "cameras": [{**d["cameras"][0], "height": True},
                                         d["cameras"][1]]},
             "camera 0 height must be a whole number, got True"),
            (lambda d: {**d, "cameras": [{**d["cameras"][0], "fx": True},
                                         d["cameras"][1]]},
             "camera 0 fx must be a finite number, got True"),
            (lambda d: {**d, "torso": {**d["torso"], "half_width": True}},
             "torso half_width must be a finite number, got True"),
            (lambda d: {**d, "noise": {**d["noise"], "keypoint_sigma_px": "abc"}},
             "noise keypoint_sigma_px must be a finite number, got 'abc'"),
            (lambda d: {**d, "noise": {**d["noise"], "depth_sigma_m": False}},
             "noise depth_sigma_m must be a finite number, got False"),
            (lambda d: {**d, "noise": {**d["noise"], "seed": 1.5}},
             "noise seed must be a whole number, got 1.5"),
            (lambda d: {**d, "scene_id": "one"}, "scene_id must be a whole number, got 'one'"),
            (lambda d: {**d, "scene_id": True}, "scene_id must be a whole number, got True"),
            (lambda d: {**d, "observation": [{**d["observation"][0], "left_shoulder": ["abc", 5]},
                                             d["observation"][1]]},
             "observation view0 left_shoulder must be 2 finite numbers, got ['abc', 5]"),
            (lambda d: {**d, "observation": [d["observation"][0],
                                             {**d["observation"][1], "right_shoulder": [True, 5]}]},
             "observation view1 right_shoulder must be 2 finite numbers, got [True, 5]"),
            (lambda d: {**d, "keypoints_true": {**d["keypoints_true"],
                                                "left_shoulder": [True, 0.1, 0.1]}},
             "keypoints_true left_shoulder must be 3 finite numbers"),
            (lambda d: {**d, "targets_true": {**d["targets_true"], "1": ["a", 0.1, 0.1]}},
             "targets_true 1 must be 3 finite numbers, got ['a', 0.1, 0.1]"),
            (lambda d: {**d, "target_normals_true": {**d["target_normals_true"],
                                                     "1": [0.0, True, 1.0]}},
             "target_normals_true 1 must be 3 finite numbers, got [0.0, True, 1.0]"),
            (lambda d: {**d, "targets_true": {**d["targets_true"], "1": [[0.1, 0.1, 0.1]]}},
             "targets_true 1 must be 3 finite numbers, got [[0.1, 0.1, 0.1]]"),
            (lambda d: {**d, "ratios": {**d["ratios"], "front": {
                **d["ratios"]["front"], "3": d["ratios"]["front"]["1"]}}},
             "unsupported front target id '3'"),
            (lambda d: {**d, "torso": {**d["torso"], "half_width": 10**400}},
             "torso half_width must be a finite number, got 1000"),
            (lambda d: {**d, "cameras": [{**d["cameras"][0], "fx": 10**400},
                                         d["cameras"][1]]},
             "camera 0 fx must be a finite number, got 1000"),
            (lambda d: {**d, "cameras": [d["cameras"][0], {**d["cameras"][1], "pose": {
                **d["cameras"][1]["pose"],
                "rotation": [10**400, *d["cameras"][1]["pose"]["rotation"][1:]]}}]},
             "pose rotation must be 9 finite numbers, got [1000"),
            (lambda d: {**d, "ratios": {**d["ratios"], "side": {
                **d["ratios"]["side"], "r_s1": 10**400}}},
             "side target r_s1 must be a finite number, got 1000"),
            (lambda d: {**d, "noise": {**d["noise"], "seed": -1}},
             "noise seed must be >= 0, got -1"),
            (lambda d: {**d, "scene_id": 10**400}, "scene_id must be a whole number, got 1000"),
            (lambda d: {**d, "cameras": [{**d["cameras"][0], "pose": {
                "rotation": [True, 0, 0, 0, 1, 0, 0, 0, 1], "translation": ["-0.15", 0, 1]}},
                d["cameras"][1]]}, "pose rotation must be 9 finite numbers, got [True"),
            (lambda d: {**d, "cameras": [d["cameras"][0], {**d["cameras"][1], "pose": {
                **d["cameras"][1]["pose"], "translation": ["-0.15", 0, 1]}}]},
             "pose translation must be 3 finite numbers, got ['-0.15', 0, 1]"),
            (lambda d: without(d, "torso", "thickness"), "torso is missing key 'thickness'"),
            (lambda d: without(d, "noise", "seed"), "noise is missing key 'seed'"),
            (lambda d: without(d, "keypoints_true", "right_hip"),
             "keypoints_true is missing key 'right_hip'"),
            (lambda d: without(d, "keypoint_pixels_true", 1, "right_hip"),
             "keypoint_pixels_true view1 is missing key 'right_hip'"),
            (lambda d: without(d, "observation", 1),
             "observation must be a list of exactly two JSON objects"),
            (lambda d: {**d, "observation": {f"view{vi}": view
                                             for vi, view in enumerate(d["observation"])}},
             "observation must be a list of exactly two JSON objects"),
            (lambda d: without(d, "cameras", 1, "pose"), "camera 1 is missing key 'pose'"),
            (lambda d: without(d, "cameras", 1, "pose", "rotation"),
             "camera 1 pose is missing key 'rotation'"),
            (lambda d: {**d, "faulted_joints": {"right_hip": None}},
             "faulted_joints right_hip must be 'dropped' or 'displaced', got None"),
            (lambda d: {**d, "faulted_joints": {"left_shoulder": "missed"}},
             "faulted_joints left_shoulder must be 'dropped' or 'displaced', got 'missed'"),
            (lambda d: {**d, "ratios": {**d["ratios"], "front": {}}},
             "front scenes need ratios for targets 1 and 2, got []"),
            (lambda d: {**d, "cameras": [d["cameras"][0], {**d["cameras"][1], "bogus": 1}]},
             "unknown camera 1 keys: ['bogus']"),
        ],
        ids=["nan-keypoint", "missing-key", "non-numeric", "not-json", "pixel-view-not-object",
             "one-pixel-view", "observation-view-not-object", "one-camera", "cameras-not-list",
             "depth-files-not-list", "pose-kind-not-a-kind", "observed-target-pixels-disagree",
             "target-normals-disagree", "true-target-pixels-disagree",
             "targets-not-object", "keypoints-not-object", "faulted-joints-not-object",
             "fault-prob-not-object", "pixel-not-two-numbers", "pixel-target-key",
             "fault-prob-not-number", "camera-nan-fx", "camera-fractional-width",
             "camera-bool-height", "camera-bool-fx", "torso-bool", "keypoint-sigma-not-number",
             "depth-sigma-bool", "noise-seed-fraction", "scene-id-not-number", "scene-id-bool",
             "observation-not-number", "observation-bool", "keypoint-bool", "target-not-number",
             "normal-bool-inside", "target-nested-list",
             "ratios-name-target-3", "huge-torso-int", "huge-camera-int", "huge-rotation-int",
             "huge-ratio-int", "negative-noise-seed", "huge-scene-id", "pose-bool", "pose-string",
             "torso-no-thickness", "noise-no-seed", "keypoints-no-hip", "keypoint-pixels-no-hip",
             "observation-no-view", "observation-keyed-by-view", "camera-no-pose",
             "camera-pose-no-rotation", "fault-kind-null", "fault-kind-unknown", "front-ratios-empty",
             "camera-unknown-key"],
    )
    def test_fuse_on_bad_scene_json_exits_1(self, cohort_dir, tmp_path, caplog,
                                            corrupt, detail):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        path = scene / "scene.json"
        bad = corrupt(json.loads(path.read_text()))
        path.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(scene), "--out", str(out)], out,
                       str(path), detail)

    @pytest.mark.parametrize(
        "params, key",
        [
            ({"front": {"1": {"r_f1": "abc", "r_f2": 0.2}}}, "front target 1 r_f1"),
            ({"front": {"1": {"r_f1": 0.75, "r_f2": None}}}, "front target 1 r_f2"),
            ({"front": {"1": {"r_f1": 0.75}}}, "front target 1 r_f2"),
            ({"front": {"one": {"r_f1": 0.75, "r_f2": 0.2}}}, "front target id"),
            ({"front": {"1": {"r_f1": 0.75, "r_f2": 0.2}, "3": {"r_f1": 0.75, "r_f2": 0.5}}},
             "unsupported front target id '3'"),
            ({"front": {}, "side": {"r_s1": [0.4], "r_s2": 0.1}}, "side target r_s1"),
            ({"front": {}, "reference_axes": {"front": [0, 1]}}, "reference_axes front"),
            ({"front": []}, "params front must be a JSON object"),
            ({"front": {"1": {"r_f1": True, "r_f2": 0.2}}},
             "front target 1 r_f1 must be a finite number, got True"),
            ({"front": {}, "reference_axes": {"front": [0, 1, False]}},
             "reference_axes front must be 3 finite numbers, got [0, 1, False]"),
            ({"front": {"1": {"r_f1": 10**400, "r_f2": 0.2}}},
             "front target 1 r_f1 must be a finite number, got 1000"),
            ({**FRONT_PARAMS, "reference_axes": MIRRORED},
             "reference_axes side must be [1.0, 0.0, 0.0], got [-1, 0, 0]"),
            ({"side": {"r_s1": 0.4, "r_s2": 0.15}}, "holds no ratios for a front scene"),
        ],
        ids=["non-numeric", "null", "missing", "target-id", "unsupported-target-id", "list",
             "short-axis", "front-not-object", "bool-ratio", "bool-axis", "huge-int-ratio",
             "mirrored-axis", "no-ratios-for-the-pose"],
    )
    def test_localize_on_bad_params_exits_1(self, cohort_dir, tmp_path, caplog, params, key):
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(params))
        out = tmp_path / "poses.json"
        assert_refused(caplog, ["localize", "--scene", str(cohort_dir / "scene_001"),
                                "--params", str(params_file), "--out", str(out)],
                       out, str(params_file), key)

    @pytest.mark.parametrize("option, name", [
        ("--voxel=-1", "voxel"), ("--voxel=nan", "voxel"), ("--voxel=inf", "voxel"),
    ])
    @pytest.mark.parametrize("command", ["fuse", "localize", "evaluate"])
    def test_bad_fusion_option_exits_1(self, cohort_dir, tmp_path, caplog, command,
                                       option, name):
        out = tmp_path / "out"
        assert_refused(caplog, [*fusion_argv(command, cohort_dir, tmp_path, out), option], out,
                       name, option.split("=")[1])

    def test_fuse_at_a_voxel_too_fine_to_key_writes_no_file(self, cohort_dir, tmp_path,
                                                             caplog):
        """The grid is refused when `save` reads the points, before --out is opened."""
        out = tmp_path / "cloud.bin"
        assert_refused(caplog, ["fuse", "--scene", str(cohort_dir / "scene_001"), "--out", str(out),
                                "--voxel", "1e-12"], out, "1e-12")

    @pytest.mark.parametrize("command", ["fuse", "localize", "evaluate"])
    def test_neighbors_option_is_a_usage_error(self, cohort_dir, tmp_path, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([*fusion_argv(command, cohort_dir, tmp_path, out), "--neighbors=30"])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field, detail", [
        ({"n": "abc"}, "abc"),
        ({"seed": "abc"}, "abc"),
        ({"torso": {"length": "abc"}}, "abc"),
        ({"torso": {"half_width": [0.17, "abc"]}}, "abc"),
        ({"noise": {"keypoint_sigma_px": "abc"}},
         "noise keypoint_sigma_px must be a finite number, got 'abc'"),
        ({"noise": {"depth_sigma_m": "abc"}}, "noise depth_sigma_m must be a finite number, got 'abc'"),
        ({"noise": {"depth_sigma_m": float("nan")}}, "nan"),
        ({"noise": {"keypoint_sigma_px": float("inf")}}, "inf"),
        ({"n": 0}, "cohort size must be >= 1"),
        ({"pose": "back"}, "'back'"),
        ({"n": 2.5}, "n must be a whole number, got 2.5"),
        ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
        ({"n": True}, "n must be a whole number, got True"),
        ({"seed": False}, "seed must be a whole number, got False"),
        ({"noise": {"seed": 1.5}}, "noise seed must be a whole number, got 1.5"),
        ({"torso": {"half_width": True}}, "invalid interval for half_width: True"),
        ({"noise": {"depth_sigma_m": True}}, "noise depth_sigma_m must be a finite number, got True"),
        ({"ratios": {"front": {"1": {"r_f1": 0.75, "r_f2": 0.2}}}},
         "front scenes need ratios for targets 1 and 2, got [1]"),
        ({"ratios": {"front": {"1": {"r_f1": 0.75, "r_f2": 0.2},
                               "2": {"r_f1": 0.75, "r_f2": 0.5},
                               "7": {"r_f1": 0.75, "r_f2": 0.8}}}},
         "unsupported front target id '7'"),
        ({"pose": "side", "ratios": {"front": {"1": {"r_f1": 0.75, "r_f2": 0.2}}}},
         "side scenes need side ratios"),
        ({"noise": {"fault_prob": {"right_hip": "abc"}}},
         "noise fault_prob right_hip must be a finite number, got 'abc'"),
        ({"cameras": edited_cameras(fx=float("nan"))},
         "camera 0 fx must be a finite number, got nan"),
        ({"cameras": edited_cameras(height=240.5)},
         "camera 0 height must be a whole number, got 240.5"),
        ({"cameras": 5}, "cameras must be a list of exactly two JSON objects"),
        ({"cameras": {"a": 1, "b": 2}}, "cameras must be a list of exactly two JSON objects"),
        ({"noise": {"seed": 7}},
         "a cohort draws each scene's noise seed from its seed; got noise seed 7"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"ratios": {"front": {**FRONT_PARAMS["front"], "2": {"r_f1": 0.75, "r_f2": 0.5}},
                     "reference_axes": MIRRORED}}, "reference_axes side"),
        ({"torso": {"shoulder_span": [0.5, 0.5]}}, "shoulder span must be narrower than the torso"),
        ({"ratios": {"front": {"1": {"r_f1": 0.75, "r_f2": 5}, "2": {"r_f1": 0.75, "r_f2": 0.5}}}},
         "falls off the torso surface"),
    ], ids=["n", "seed", "torso-scalar", "torso-interval", "keypoint-sigma", "depth-sigma",
            "nan-depth-sigma", "inf-keypoint-sigma", "no-scenes", "pose", "n-fraction", "seed-fraction", "n-bool", "seed-bool",
            "noise-seed-fraction", "torso-bool", "depth-sigma-bool",
            "front-ratios-lack-target-2", "front-ratios-name-target-7", "side-ratios-missing",
            "fault-prob-not-number",
            "camera-nan-fx", "camera-fractional-height", "cameras-not-list", "cameras-object",
            "noise-seed", "negative-seed", "mirrored-axis", "drawn-torso-refused",
            "drawn-target-refused"])
    def test_synth_on_bad_config_value_exits_1(self, tmp_path, caplog, field, detail):
        config = tmp_path / "synth.json"
        write_synth_config(config, n=1)
        config.write_text(json.dumps({**json.loads(config.read_text()), **field}))
        out = tmp_path / "scenes"
        assert_refused(caplog, ["synth", "--config", str(config), "--out", str(out)], out,
                       str(config), detail)

    @pytest.mark.parametrize("corrupt, detail", [
        (lambda text: text[:-10], ""),
        (lambda text: text.replace("[0.0, 0.0, 0.0]", '["a", 0, 0]', 1), "'a'"),
        (lambda text: text.replace("[0.0, 0.0, 0.0]", "[NaN, 0, 0]", 1), "finite"),
        (lambda text: text.replace("1.0", "2.0", 1), "orthonormal"),
        (lambda text: text.replace("[0.0, 0.0, 0.0]", "[true, 0, 0]", 1), "got [True, 0, 0]"),
        (lambda text: text.replace("1.0", '"1.0"', 1),
         "calibration sample 0 gripper_in_base rotation must be 9 finite numbers, "
         "got ['1.0', 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]"),
        (lambda text: text.replace(", 1.0]", "]", 1),
         "calibration sample 0 gripper_in_base rotation must be 9 finite numbers, "
         "got [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]"),
        (lambda text: json.dumps(without(json.loads(text), 2, "tag_in_camera")),
         "calibration sample 2 is missing key 'tag_in_camera'"),
        (lambda text: '["a", 0, 0]'.join(text.rsplit("[0.0, 0.0, 0.0]", 1)),
         "calibration sample 2 tag_in_camera translation must be 3 finite numbers, "
         "got ['a', 0, 0]"),
    ], ids=["truncated", "non-numeric", "nan", "not-orthonormal", "bool", "string", "eight-values",
            "missing-pose", "bad-pose-in-a-later-sample"])
    def test_calibrate_on_bad_samples_exits_1(self, tmp_path, caplog, corrupt, detail):
        identity = RigidTransform(np.eye(3), np.zeros(3)).to_dict()
        samples = tmp_path / "samples.json"
        samples.write_text(corrupt(json.dumps(
            [{"gripper_in_base": identity, "tag_in_camera": identity}] * 3
        )))
        out = tmp_path / "calib.json"
        assert_refused(caplog, ["calibrate", "--samples", str(samples), "--out", str(out)], out,
                       str(samples), detail)

    @pytest.mark.parametrize("field, detail", [
        ({"fx": float("nan")}, "camera fx must be a finite number, got nan"),
        ({"fy": float("inf")}, "camera fy must be a finite number, got inf"),
        ({"fy": None}, "camera fy must be a finite number, got None"),
        ({"cx": float("nan")}, "camera cx must be a finite number, got nan"),
        ({"width": 640.7}, "camera width must be a whole number, got 640.7"),
        ({"width": True}, "camera width must be a whole number, got True"),
        ({"fx": True}, "camera fx must be a finite number, got True"),
        ({"cy": "240"}, "camera cy must be a finite number, got '240'"),
        ({"bogus": 1}, "unknown camera keys: ['bogus']"),
    ], ids=["nan-fx", "inf-fy", "missing-fy", "nan-cx", "fractional-width", "bool-width",
            "bool-fx", "string-cy", "unknown-key"])
    def test_calibrate_on_bad_intrinsics_exits_1(self, tmp_path, caplog, field, detail):
        samples = tmp_path / "samples.json"
        write_calibration_samples(samples, 4, seed=1)
        intrinsics = tmp_path / "intrinsics.json"
        intrinsics.write_text(json.dumps(
            {k: v for k, v in {**INTRINSICS, **field}.items() if v is not None}
        ))
        out = tmp_path / "calib.json"
        assert_refused(caplog, ["calibrate", "--samples", str(samples), "--intrinsics",
                                str(intrinsics), "--out", str(out)], out, str(intrinsics), detail)

    @pytest.mark.parametrize("content", [b"not json", b'{"n": "\xff"}', b"[" * 100_000, None],
                             ids=["not-json", "not-utf8", "too-deep", "wrong-type"])
    @pytest.mark.parametrize("kind", ["synth-config", "params", "intrinsics",
                                      "calibration-samples", "scene-json"])
    def test_bad_json_file_names_itself(self, cohort_dir, tmp_path, caplog, kind, content):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        samples = tmp_path / "samples.json"
        write_calibration_samples(samples, 4, seed=1)
        params = tmp_path / "params.json"
        params.write_text(json.dumps(FRONT_PARAMS))
        bad, argv = {
            "synth-config": (tmp_path / "synth.json", ["synth", "--config", "{bad}"]),
            "params": (params, ["localize", "--scene", scene, "--params", "{bad}"]),
            "intrinsics": (tmp_path / "intrinsics.json",
                           ["calibrate", "--samples", samples, "--intrinsics", "{bad}"]),
            "calibration-samples": (samples, ["calibrate", "--samples", "{bad}"]),
            "scene-json": (scene / "scene.json", ["fuse", "--scene", scene]),
        }[kind]
        # the wrong top-level type: samples are a JSON array, every other file an object
        wrong_type = b"{}" if kind == "calibration-samples" else b"[1, 2]"
        bad.write_bytes(wrong_type if content is None else content)
        out = tmp_path / "out"
        assert_refused(caplog, [str(a).format(bad=bad) for a in argv] + ["--out", str(out)], out,
                       str(bad))

    @pytest.mark.parametrize("bad, argv", [
        ("dir", ["calibrate", "--samples", "{dir}", "--out", "{out}"]),
        ("dir", ["synth", "--config", "{dir}", "--out", "{out}"]),
        ("dir", ["localize", "--scene", "{scenes}/scene_001", "--params", "{dir}",
                 "--out", "{out}"]),
        ("file", ["evaluate", "--scenes", "{file}", "--target", "1", "--out", "{out}"]),
        ("file", ["evaluate", "--scenes", "{scenes}", "--target", "1", "--out", "{file}"]),
        ("file", ["fit", "--dataset", "{file}", "--target", "1", "--out", "{out}"]),
        ("missing", ["fit", "--dataset", "{missing}", "--target", "1", "--out", "{out}"]),
    ], ids=["calibrate-samples-dir", "synth-config-dir", "localize-params-dir",
            "evaluate-scenes-file", "evaluate-out-file", "fit-dataset-file",
            "fit-dataset-missing"])
    def test_bad_path_exits_1(self, cohort_dir, tmp_path, caplog, monkeypatch, bad, argv):
        paths = {"dir": tmp_path / "a_dir", "file": tmp_path / "a_file",
                 "missing": tmp_path / "missing", "out": tmp_path / "out",
                 "scenes": cohort_dir}
        paths["dir"].mkdir()
        paths["file"].write_text("{}")

        def no_fusion(*args, **kwargs):
            raise AssertionError("fused a scene before the bad path was reported")

        monkeypatch.setattr("scanloc.cli.scene_cloud", no_fusion)
        assert_refused(caplog, [arg.format(**paths) for arg in argv], paths["out"],
                       str(paths[bad]))


def edit_observation(scene_dir, edit):
    """Apply `edit` to each view's observed joint pixels in scene.json."""
    path = scene_dir / "scene.json"
    data = json.loads(path.read_text())
    for view in data["observation"]:
        edit(view)
    path.write_text(json.dumps(data))


def collapse(scene_dir, joint):
    """Observe `joint` at the right shoulder's pixels in both views."""
    edit_observation(scene_dir, lambda view: view.update({joint: view["right_shoulder"]}))


class TestFitFaults:
    def test_fit_skips_implausible_scene(self, cohort_dir, tmp_path, caplog):
        dataset = tmp_path / "scenes"
        shutil.copytree(cohort_dir, dataset)
        collapse(dataset / "scene_001", "left_shoulder")
        params_file = tmp_path / "params.json"
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            assert main(["fit", "--dataset", str(dataset), "--target", "1",
                         "--out", str(params_file)]) == 0
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "skipping scene 1: implausible keypoints" in warning.getMessage()
        assert "1" in json.loads(params_file.read_text())["front"]

    def test_fit_with_every_scene_faulty_exits_1(self, cohort_dir, tmp_path, caplog):
        dataset = tmp_path / "scenes"
        shutil.copytree(cohort_dir, dataset)
        for scene_dir in sorted(dataset.glob("scene_*")):
            collapse(scene_dir, "left_shoulder")
        params_file = tmp_path / "params.json"
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            assert main(["fit", "--dataset", str(dataset), "--target", "1",
                         "--out", str(params_file)]) == 1
        (error,) = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert "at least one sample" in error.getMessage()
        assert "\n" not in error.getMessage()
        assert error.exc_info is None
        assert not params_file.exists()

    def test_localize_on_implausible_keypoints_exits_1(self, cohort_dir, tmp_path, caplog):
        scene = tmp_path / "scene"
        shutil.copytree(cohort_dir / "scene_001", scene)
        collapse(scene, "left_shoulder")
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(FRONT_PARAMS))
        out = tmp_path / "poses.json"
        assert_refused(caplog, ["localize", "--scene", str(scene), "--params", str(params_file),
                                "--out", str(out)], out, "not human-scale")

    def test_front_localize_drops_a_collapsed_hip(self, cohort_dir, tmp_path, caplog):
        for name in ("collapsed", "unseen"):
            shutil.copytree(cohort_dir / "scene_001", tmp_path / name)
        collapse(tmp_path / "collapsed", "right_hip")
        edit_observation(tmp_path / "unseen", lambda view: view.pop("right_hip"))
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps(FRONT_PARAMS))
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            for name in ("collapsed", "unseen"):
                assert main(["localize", "--scene", str(tmp_path / name),
                             "--params", str(params_file),
                             "--out", str(tmp_path / f"{name}.json")]) == 0
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "dropping right_hip" in warning.getMessage()
        # a dropped hip falls back to the front axis, as a hip not seen does
        assert (tmp_path / "collapsed.json").read_bytes() == (tmp_path / "unseen.json").read_bytes()

    def test_fit_keeps_a_front_scene_with_a_collapsed_hip(self, cohort_dir, tmp_path, caplog):
        dataset = tmp_path / "scenes"
        shutil.copytree(cohort_dir, dataset)
        collapse(dataset / "scene_001", "right_hip")
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            for scenes, out in ((cohort_dir, "clean.json"), (dataset, "collapsed.json")):
                assert main(["fit", "--dataset", str(scenes), "--target", "1",
                             "--out", str(tmp_path / out)]) == 0
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "scene 1: dropping right_hip" in warning.getMessage()
        # the hip only picks the sideways sign, and the front axis picks the same one
        assert (tmp_path / "clean.json").read_bytes() == (tmp_path / "collapsed.json").read_bytes()

    def test_evaluate_warns_once_per_dropped_joint(self, cohort_dir, tmp_path, caplog):
        dataset = tmp_path / "scenes"
        shutil.copytree(cohort_dir, dataset)
        collapse(dataset / "scene_001", "right_hip")
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            assert main(["evaluate", "--scenes", str(dataset), "--target", "1",
                         "--voxel", "0.004", "--out", str(tmp_path / "reports")]) == 0
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "scene 1: dropping right_hip" in warning.getMessage()

    def test_side_scene_is_refused_only_for_its_segment(self, tmp_path, caplog):
        config = tmp_path / "synth.json"
        write_synth_config(config, n=1, pose="side")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "scenes")]) == 0
        scene = tmp_path / "scenes" / "scene_000"
        params_file = tmp_path / "params.json"
        params_file.write_text(json.dumps({"side": {"r_s1": 0.4, "r_s2": 0.1}}))
        argv = ["localize", "--scene", str(scene), "--params", str(params_file),
                "--out", str(tmp_path / "poses.json")]
        # the left shoulder is off the side segment: dropped, and the scene kept
        collapse(scene, "left_shoulder")
        with caplog.at_level(logging.WARNING, logger="scanloc"):
            assert main(argv) == 0
        (warning,) = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert "dropping left_shoulder" in warning.getMessage()
        (tmp_path / "poses.json").unlink()
        collapse(scene, "right_hip")
        assert_refused(caplog, argv, tmp_path / "poses.json", "right_shoulder-right_hip",
                       "not human-scale")

    def test_localize_with_overflowing_ratios_exits_1(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="scanloc"):
            code, out = localize_with_params(
                tmp_path, "side", {"side": {"r_s1": 1e308, "r_s2": 0.1}})
        assert code == 1
        assert_one_line_error(caplog, "side target r_s1 must be at most 30 in magnitude")
        assert not out.exists()

    def test_localize_with_overflowing_front_ratio_exits_1(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR, logger="scanloc"):
            code, out = localize_with_params(
                tmp_path, "front", {"front": {"1": {"r_f1": 1e308, "r_f2": 0.1}}})
        assert code == 1
        assert_one_line_error(caplog, "front target 1 r_f1 must be at most 30 in magnitude")
        assert not out.exists()

    def test_fit_to_a_ratio_beyond_thirty_writes_no_file(self, tmp_path, caplog):
        """Targets placed 0.01% of the way down each side segment, by an
        offset ratio of 150, fit to an offset ratio beyond the 30 that
        `localize` reads: `fit` refuses it before --out is opened."""
        config = tmp_path / "synth.json"
        write_synth_config(config, pose="side")
        scenes = tmp_path / "scenes"
        assert main(["synth", "--config", str(config), "--out", str(scenes)]) == 0
        for path in scenes.glob("scene_*/scene.json"):
            data = json.loads(path.read_text())
            shoulder, hip = (data["keypoints_true"][j] for j in ("right_shoulder", "right_hip"))
            target = oracle_side_target(shoulder, hip, 1e-4, 150.0, [1.0, 0.0, 0.0])
            data["targets_true"]["4"] = target.tolist()
            path.write_text(json.dumps(data))
        params_file = tmp_path / "params.json"
        assert_refused(caplog, ["fit", "--dataset", str(scenes), "--target", "4",
                                "--out", str(params_file)], params_file,
                       "side target r_s2 must be at most 30 in magnitude")

    def test_fit_on_cohort_without_the_target_exits_1(self, cohort_dir, tmp_path, caplog):
        params_file = tmp_path / "params.json"
        assert_refused(caplog, ["fit", "--dataset", str(cohort_dir), "--target", "4",
                                "--out", str(params_file)], params_file,
                       "no ground truth for target 4")


def refuse_fusion(*args, **kwargs):
    raise AssertionError("a scene was fused")


def refuse_pfm(*args, **kwargs):
    raise AssertionError("a depth map was opened")


def counted_mappings(monkeypatch) -> list[int]:
    """The byte counts of the anonymous mappings made from now on, in order."""
    made, make = [], mmap.mmap

    def counted_mmap(fileno, length, *args, **kwargs):
        made.append(length)
        return make(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", counted_mmap)
    return made


class TestEvaluateOnePass:
    """`evaluate` reads every scene.json and PFM header first, then takes one
    scene at a time: its depth maps are read, fused and snapped once, for its
    fold and its back-projection together, and dropped before the next."""

    def test_snaps_each_scene_once(self, side_cohort_dir, tmp_path, monkeypatch):
        snaps = []

        def counted_snap(cloud, *targets):
            snaps.append(len(targets))
            return _snap(cloud, *targets)

        monkeypatch.setattr("scanloc.evaluation._snap", counted_snap)
        assert main(["evaluate", "--scenes", str(side_cohort_dir), "--target", "4",
                     "--voxel", "0.004", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "folds.csv", newline="") as fh:
            faulty = [row["faulty"] == "1" for row in csv.DictReader(fh)]
        # a valid fold's target joins its three back-projection estimates
        assert snaps == [3 if fault else 4 for fault in faulty]
        assert faulty == [False, True, False, False, True]

    def test_holds_one_scenes_depth_maps_at_a_time(self, side_cohort_dir, tmp_path,
                                                   monkeypatch):
        """No earlier scene's depth map is alive when a PFM is read, so reading
        it into the mapping the earlier scene's map lies in overwrites nothing
        still in use."""
        read = []  # (scene directory, weak reference to the array read)

        def watched_read_pfm(path, reuse):
            scene = os.path.dirname(path)
            alive = [earlier for earlier, ref in read if earlier != scene and ref() is not None]
            assert not alive, f"{alive} still held while {path} is read"
            values = read_pfm(path, reuse)
            read.append((scene, weakref.ref(values)))
            return values

        monkeypatch.setattr("scanloc.synth.read_pfm", watched_read_pfm)
        assert main(["evaluate", "--scenes", str(side_cohort_dir), "--target", "4",
                     "--voxel", "0.004", "--out", str(tmp_path)]) == 0
        assert len(read) == 10
        assert all(ref() is None for _, ref in read)

    def test_reads_every_scene_into_one_mapping_per_view(self, side_cohort_dir, tmp_path,
                                                          monkeypatch):
        mappings = counted_mappings(monkeypatch)
        assert main(["evaluate", "--scenes", str(side_cohort_dir), "--target", "4",
                     "--voxel", "0.004", "--out", str(tmp_path)]) == 0
        assert mappings == [4 * 320 * 240] * 2

    def test_a_cohort_of_two_image_sizes_reports_as_scenes_read_alone(self, tmp_path,
                                                                      monkeypatch):
        """Scenes 0, 1 and 4 are 320x240 and scenes 2 and 3 256x192: each
        view's mapping is made again at every change of size, and the reports
        are those of depth maps read by `load_scene`, scene by scene."""
        scenes = tmp_path / "scenes"
        noise = NoiseSpec(keypoint_sigma_px=0.5, depth_sigma_m=0.002)
        small = small_cameras()
        smaller = tuple(PinholeCamera(fx=240.0, fy=240.0, cx=127.5, cy=95.5, width=256,
                                      height=192, pose=camera.pose) for camera in small)
        for cameras, ids in ((small, (0, 1, 4)), (smaller, (2, 3))):
            drawn = generate_cohort(5, noise=noise, pose_kind="side", seed=13, cameras=cameras)
            save_cohort([drawn[i] for i in ids], scenes)
        mappings = counted_mappings(monkeypatch)
        argv = ["evaluate", "--scenes", str(scenes), "--target", "4", "--voxel", "0.004"]
        assert main([*argv, "--out", str(tmp_path / "reused")]) == 0
        assert mappings == [4 * 320 * 240] * 2 + [4 * 256 * 192] * 2 + [4 * 320 * 240] * 2

        monkeypatch.setattr("scanloc.cli.load_depths",
                            lambda scene, directory, *reuse: load_scene(directory))
        assert main([*argv, "--out", str(tmp_path / "alone")]) == 0
        assert len(mappings) == 6 + 10
        names = sorted(os.listdir(tmp_path / "alone"))
        assert names == sorted(os.listdir(tmp_path / "reused")) and len(names) == 4
        for name in names:
            assert (tmp_path / "reused" / name).read_bytes() == (
                tmp_path / "alone" / name).read_bytes(), name

    @pytest.mark.parametrize("spoil, detail", [
        (lambda pfm: pfm.write_bytes(pfm.read_bytes()[:-100]), "data bytes follow"),
        (lambda pfm: write_pfm(pfm, np.zeros((4, 4), dtype=np.float32)),
         "its camera 320x240"),
    ], ids=["truncated", "wrong-size"])
    def test_a_bad_last_pfm_is_refused_before_out_and_any_fusion(
            self, cohort_dir, tmp_path, caplog, monkeypatch, spoil, detail):
        scenes = tmp_path / "scenes"
        shutil.copytree(cohort_dir, scenes)
        pfm = scenes / "scene_002" / "depth_1.pfm"
        spoil(pfm)
        monkeypatch.setattr("scanloc.cli.scene_cloud", refuse_fusion)
        out = tmp_path / "reports"
        assert_refused(caplog, ["evaluate", "--scenes", str(scenes), "--target", "1",
                                "--out", str(out)], out, str(pfm), detail)

    @pytest.mark.parametrize("valid", [0, 1], ids=["no-valid-scene", "one-valid-scene"])
    def test_an_all_faulty_cohort_is_refused_before_out_and_any_depth_map(
            self, side_cohort_dir, tmp_path, caplog, monkeypatch, valid):
        """With fewer than two valid scenes no fold can train, so every fold
        is faulty: the first pass refuses the cohort before --out is made and
        before any depth map is read or fused."""
        scenes = tmp_path / "scenes"
        shutil.copytree(side_cohort_dir, scenes)
        for scene in sorted(scenes.glob("scene_*"))[valid:]:
            edit_observation(scene, lambda view: view.pop("right_hip", None))
        monkeypatch.setattr("scanloc.synth.read_pfm", refuse_pfm)
        monkeypatch.setattr("scanloc.cli.scene_cloud", refuse_fusion)
        out = tmp_path / "reports"
        assert_refused(caplog, ["evaluate", "--scenes", str(scenes), "--target", "4",
                                "--out", str(out)], out,
                       "every fold is faulty; nothing to summarize")

    def test_an_error_in_a_scenes_pass_names_the_scene_and_view(
            self, side_cohort_dir, tmp_path, caplog):
        scenes = tmp_path / "scenes"
        shutil.copytree(side_cohort_dir, scenes)
        scene = scenes / "scene_002"
        click = json.loads((scene / "scene.json").read_text())["target_pixels_observed"][0]["4"]
        u, v = (int(round(c)) for c in click)
        depth = read_pfm(scene / "depth_0.pfm").copy()
        depth[v - 3:v + 4, u - 3:u + 4] = 0.0  # a hole under the click
        write_pfm(scene / "depth_0.pfm", depth)
        with caplog.at_level(logging.ERROR, logger="scanloc"):
            assert main(["evaluate", "--scenes", str(scenes), "--target", "4",
                         "--voxel", "0.004", "--out", str(tmp_path / "reports")]) == 1
        assert_one_line_error(caplog, f"{scene}: view 0: no valid depth within 2 px of")

    def test_fit_opens_no_depth_map(self, cohort_dir, tmp_path):
        scenes = tmp_path / "scenes"
        shutil.copytree(cohort_dir, scenes)
        for pfm in scenes.glob("scene_*/depth_*.pfm"):
            pfm.write_bytes(b"")
        for dataset, out in ((cohort_dir, "intact.json"), (scenes, "no_depths.json")):
            assert main(["fit", "--dataset", str(dataset), "--target", "1",
                         "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "intact.json").read_bytes() == (tmp_path / "no_depths.json").read_bytes()
