"""Tests for leave-one-out evaluation, statistics, and back-projection."""

import csv
import filecmp
import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import small_cameras
from scanloc import targets
from scanloc.cloud import DepthMap
from scanloc.errors import ConfigError, ScanlocError
from scanloc.evaluation import (
    DEFAULT_THRESHOLDS_MM,
    BackprojectionResult,
    FoldResult,
    SuccessTable,
    backprojection_comparison,
    cohort_samples,
    loocv,
    median_backprojection_errors,
    scene_cloud,
    success_table,
    summarize,
    write_backprojection_csv,
    write_folds_csv,
    write_success_csv,
    write_summary_json,
)
from scanloc.geometry import Pixel, angle_between_degrees
from scanloc.synth import (
    NoiseSpec,
    TorsoSpec,
    default_cameras,
    default_ratios,
    generate_cohort,
    generate_scene,
)
from scanloc.targets import (
    FitDataset,
    RatioPair,
    TargetModelParams,
    _sample_arrays,
    fit_front,
    fit_target,
    pose_kind_for_target,
    poses_from_keypoints,
)
from scanloc.evaluation import (
    _cohort,
    _fold_and_backprojection,
    _nearest_valid_depth,
    _scene_sample,
)


def valid_fold(scene_id, error_mm, target_id=1, normal_deg=0.5):
    return FoldResult(
        scene_id=scene_id,
        target_id=target_id,
        faulty=False,
        position_error_mm=error_mm,
        normal_error_deg=normal_deg,
        fitted=RatioPair(0.5, 0.2),
        fit_residual_mm=0.1,
    )


def faulty_fold(scene_id, target_id=1):
    return FoldResult(scene_id, target_id, True, "right_hip dropped")


class TestSuccessTable:
    """Rates at the fixed thresholds 5, 10, ..., 40 mm."""

    def test_thresholds_are_inclusive(self):
        folds = [valid_fold(0, 10.0), valid_fold(1, 10.0), valid_fold(2, 12.5),
                 valid_fold(3, 40.0)]
        table = success_table(folds)
        assert DEFAULT_THRESHOLDS_MM == (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        assert table == SuccessTable(1, (0.0, 0.5, 0.75, 0.75, 0.75, 0.75, 0.75, 1.0))

    def test_one_faulty_among_ten(self):
        folds = [valid_fold(i, 0.0) for i in range(9)] + [faulty_fold(9)]
        table = success_table(folds)
        assert table.rates == (0.9,) * 8

    def test_faulty_never_succeeds_at_any_threshold(self):
        # a faulty fold fails even where its error field would pass
        folds = [faulty_fold(0), replace(faulty_fold(1), position_error_mm=0.0),
                 valid_fold(2, 1.0), valid_fold(3, 2.0)]
        table = success_table(folds)
        assert table.rates == (0.5,) * 8

    def test_monotone_rates_random_folds(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            target_id = int(rng.integers(1, 3))
            folds = []
            for i in range(int(rng.integers(1, 40))):
                if rng.uniform() < 0.2:
                    folds.append(faulty_fold(i, target_id=target_id))
                else:
                    folds.append(valid_fold(i, float(rng.uniform(0, 60)), target_id=target_id))
            table = success_table(folds)
            assert table.target_id == target_id
            rates = np.array(table.rates)
            assert len(rates) == len(DEFAULT_THRESHOLDS_MM)
            assert np.all(np.diff(rates) >= 0)
            assert np.all((rates >= 0) & (rates <= 1))
            n_valid = sum(1 for f in folds if not f.faulty)
            assert rates[-1] <= n_valid / len(folds) + 1e-12

    def test_folds_of_two_targets_refused(self):
        """A table's CSV column names its one target, so it pools no two."""
        folds = [valid_fold(0, 3.0, target_id=1), valid_fold(0, 30.0, target_id=4)]
        assert success_table(folds[:1]) == SuccessTable(1, (1.0,) * 8)
        assert success_table(folds[1:]) == SuccessTable(4, (0.0,) * 5 + (1.0,) * 3)
        with pytest.raises(ConfigError, match=r"one target, got folds of targets \[1, 4\]"):
            success_table(folds)

    def test_empty_rejected(self):
        with pytest.raises(ScanlocError, match="success table needs at least one fold"):
            success_table([])


class TestSummarize:
    def test_single_fold(self):
        out = summarize([valid_fold(0, 7.5, normal_deg=2.0)])
        assert out["position_mm"] == {"mean": 7.5, "std": 0.0}
        assert out["orientation_deg"] == {"mean": 2.0, "std": 0.0}

    def test_hand_pair(self):
        out = summarize([valid_fold(0, 10.0), valid_fold(1, 20.0)])
        assert out["position_mm"]["mean"] == pytest.approx(15.0, abs=1e-12)
        assert out["position_mm"]["std"] == pytest.approx(7.0710678118654755, abs=1e-12)

    def test_spreadsheet_oracle(self):
        # plain-Python running sums, the way a spreadsheet would do it
        rng = np.random.default_rng(7)
        errors = [float(e) for e in rng.uniform(0, 50, size=100)]
        folds = [valid_fold(i, e) for i, e in enumerate(errors)]
        out = summarize(folds)
        n = len(errors)
        mean = sum(errors) / n
        var = sum((e - mean) ** 2 for e in errors) / (n - 1)
        assert out["position_mm"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert out["position_mm"]["std"] == pytest.approx(var ** 0.5, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        folds = [valid_fold(i, float(rng.uniform(0, 30))) for i in range(20)]
        before = summarize(folds)
        rng.shuffle(folds)
        assert summarize(folds) == before

    def test_faulty_excluded_from_stats(self):
        folds = [valid_fold(0, 10.0), valid_fold(1, 20.0), faulty_fold(2)]
        out = summarize(folds)
        assert out["position_mm"]["mean"] == pytest.approx(15.0)
        assert out["n_valid"] == 2
        assert out["n_faulty"] == 1

    def test_all_faulty_rejected(self):
        with pytest.raises(ScanlocError, match="every fold is faulty; nothing to summarize"):
            summarize([faulty_fold(0), faulty_fold(1)])

    def test_reads_a_generator_once(self):
        folds = [valid_fold(0, 10.0), valid_fold(1, 20.0), faulty_fold(2)]
        assert summarize(fold for fold in folds) == summarize(folds)
        assert summarize(iter(folds))["n_folds"] == 3


@pytest.fixture(scope="module")
def torso():
    return TorsoSpec()


@pytest.fixture(scope="module")
def cameras(torso):
    return default_cameras(torso)


@pytest.fixture(scope="module")
def front_cohort():
    scenes = generate_cohort(4, noise=NoiseSpec(seed=0), pose_kind="front", seed=11)
    return scenes, [scene_cloud(s) for s in scenes]


@pytest.fixture(scope="module")
def side_pair(torso, cameras):
    ratios = TargetModelParams(front=default_ratios().front, side=RatioPair(0.55, 0.15))
    scenes = [
        generate_scene(torso, ratios, cameras, NoiseSpec(seed=0), "side", scene_id=i)
        for i in (0, 1)
    ]
    return scenes, [scene_cloud(s) for s in scenes]


class TestLoocv:
    def test_two_identical_scenes_front(self, torso, cameras):
        ratios = default_ratios()
        scenes = [
            generate_scene(torso, ratios, cameras, NoiseSpec(seed=0), "front", scene_id=i)
            for i in (0, 1)
        ]
        clouds = [scene_cloud(s) for s in scenes]
        for target_id in (1, 2):
            folds = loocv(scenes, target_id, clouds=clouds)
            assert all(not f.faulty for f in folds)
            assert all(f.position_error_mm < 2.0 for f in folds)

    def test_two_identical_scenes_side(self, side_pair):
        scenes, clouds = side_pair
        folds = loocv(scenes, 4, clouds=clouds)
        assert all(not f.faulty for f in folds)
        assert all(f.position_error_mm < 2.0 for f in folds)

    def test_noiseless_cohort_small(self, front_cohort):
        scenes, clouds = front_cohort
        for target_id in (1, 2):
            folds = loocv(scenes, target_id, clouds=clouds)
            assert len(folds) == 4
            assert all(not f.faulty for f in folds)
            assert all(f.position_error_mm < 2.0 for f in folds)
            assert all(f.normal_error_deg < 1.0 for f in folds)
            # front fit on noiseless data recovers the generative ratios
            truth = default_ratios().front[target_id]
            for f in folds:
                assert abs(f.fitted.segment_ratio - truth.segment_ratio) < 1e-4
                assert abs(f.fitted.offset_ratio - truth.offset_ratio) < 1e-4

    @pytest.mark.parametrize("pose_kind, target_id", [("front", 1), ("side", 4)])
    def test_noisy_orientation_within_paper_scale(self, pose_kind, target_id):
        # 2 px keypoint and 5 mm depth noise at a 2 mm voxel: a normal taken over
        # a few millimetres sees the noise, not the surface (the paper reports
        # 4.44 +- 3.75 degrees for probe orientation)
        noise = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005, seed=0)
        scenes = generate_cohort(6, noise=noise, pose_kind=pose_kind, seed=7)
        folds = loocv(scenes, target_id, clouds=[scene_cloud(s, 0.002) for s in scenes])
        assert summarize(folds)["orientation_deg"]["mean"] <= 2.5

    def test_determinism(self, front_cohort):
        scenes, clouds = front_cohort
        first = loocv(scenes, 1, clouds=clouds)
        second = loocv(scenes, 1, clouds=clouds)
        assert first == second

    def test_no_leak_training_equals_other_scene_fit(self, torso, cameras):
        ratios = default_ratios()
        scenes = [
            generate_scene(torso, ratios, cameras, NoiseSpec(seed=0), "front", scene_id=i)
            for i in (0, 1)
        ]
        clouds = [scene_cloud(s) for s in scenes]
        folds = loocv(scenes, 1, clouds=clouds)
        # fold 0 trains only on scene 1: its ratios must equal a direct fit there
        sample, fault = _scene_sample(scenes[1], 1)
        assert fault == ""
        direct = fit_front(FitDataset([sample]))
        assert folds[0].fitted.segment_ratio == direct.ratios.segment_ratio
        assert folds[0].fitted.offset_ratio == direct.ratios.offset_ratio

    def test_shared_scene_id_rejected_before_any_fold(self, front_cohort, monkeypatch):
        scenes, clouds = front_cohort

        def no_fit(*args, **kwargs):
            raise AssertionError("fitted a fold before the shared id was reported")

        monkeypatch.setattr("scanloc.evaluation._fit_rows", no_fit)
        with pytest.raises(ConfigError, match="scene id 0 is shared by 2 scenes"):
            loocv([*scenes, scenes[0]], 1, clouds=[*clouds, clouds[0]])

    def test_too_few_scenes(self, front_cohort):
        scenes, clouds = front_cohort
        with pytest.raises(ScanlocError, match="leave-one-out needs >= 2 scenes, got 1"):
            loocv(scenes[:1], 1, clouds=clouds[:1])

    @pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
    def test_clouds_must_align_with_scenes(self, front_cohort, extra):
        scenes, clouds = front_cohort
        clouds = clouds[:extra] if extra < 0 else [*clouds, clouds[0]]
        message = f"got {len(scenes) + extra} clouds for {len(scenes)} scenes"
        with pytest.raises(ConfigError, match=message):
            loocv(scenes, 1, clouds=clouds)

    def test_missing_target_rejected(self, front_cohort):
        scenes, clouds = front_cohort
        with pytest.raises(ScanlocError, match=r"scene \d+ has no ground truth for target 4"):
            loocv(scenes, 4, clouds=clouds)  # front scenes carry no side-target truth

    def test_unknown_target_rejected(self, front_cohort):
        scenes, clouds = front_cohort
        with pytest.raises(ValueError):
            loocv(scenes, 3, clouds=clouds)


@pytest.fixture(scope="module")
def side_with_faults(torso, cameras):
    ratios = TargetModelParams(
        front=default_ratios().front, side=RatioPair(0.55, 0.15)
    )
    clean = [
        generate_scene(torso, ratios, cameras, NoiseSpec(seed=0), "side", scene_id=i)
        for i in (0, 1, 2)
    ]
    fault = NoiseSpec(fault_prob={"right_hip": 1.0}, seed=0)
    dropped = generate_scene(torso, ratios, cameras, fault, "side", scene_id=7)
    displaced = generate_scene(
        torso, ratios, cameras, replace(fault, seed=1), "side", scene_id=8
    )
    assert dropped.faulted_joints == {"right_hip": "dropped"}
    assert displaced.faulted_joints == {"right_hip": "displaced"}
    scenes = [clean[0], dropped, clean[1], displaced, clean[2]]
    clouds = [
        scene_cloud(s) if not s.faulted_joints else None for s in scenes
    ]
    return scenes, clouds


class TestFaultAccounting:
    def test_faulty_folds_marked(self, side_with_faults):
        scenes, clouds = side_with_faults
        folds = loocv(scenes, 4, clouds=clouds)
        by_id = {f.scene_id: f for f in folds}
        assert by_id[7].faulty and "dropped" in by_id[7].fault_reason
        assert by_id[8].faulty and "displaced" in by_id[8].fault_reason
        assert np.isnan(by_id[7].position_error_mm)
        assert by_id[7].fitted is None
        for sid in (0, 1, 2):
            assert not by_id[sid].faulty
            assert by_id[sid].position_error_mm < 2.0

    def test_faulty_scenes_excluded_from_training(self, side_with_faults, torso, cameras):
        scenes, clouds = side_with_faults
        folds = loocv(scenes, 4, clouds=clouds)
        clean = [s for s in scenes if not s.faulted_joints]
        clean_clouds = [c for s, c in zip(scenes, clouds) if not s.faulted_joints]
        # clean-only run must reproduce the same targets: each fold's fit is a
        # pure function of its training set, which the faulty scenes never join
        reference = loocv(clean, 4, clouds=clean_clouds)
        by_id = {f.scene_id: f for f in folds}
        for ref in reference:
            got = by_id[ref.scene_id]
            assert got.fitted == ref.fitted

    def test_front_folds_ignore_hip_faults(self, torso, cameras):
        ratios = default_ratios()
        clean = [
            generate_scene(torso, ratios, cameras, NoiseSpec(seed=0), "front", scene_id=i)
            for i in (0, 1)
        ]
        fault = NoiseSpec(fault_prob={"right_hip": 1.0}, seed=0)
        dropped = generate_scene(torso, ratios, cameras, fault, "front", scene_id=7)
        scenes = [clean[0], dropped, clean[1]]
        clouds = [scene_cloud(s) for s in scenes]
        folds = loocv(scenes, 1, clouds=clouds)
        assert all(not f.faulty for f in folds)
        assert all(f.position_error_mm < 2.0 for f in folds)

    def test_success_table_counts_faulty(self, side_with_faults):
        scenes, clouds = side_with_faults
        folds = loocv(scenes, 4, clouds=clouds)
        table = success_table(folds)
        assert table.rates == (3 / 5,) * len(DEFAULT_THRESHOLDS_MM)
        summary = summarize(folds)
        assert summary["n_valid"] == 3
        assert summary["n_faulty"] == 2


def per_fold_loocv(scenes, target_id, clouds):
    """`loocv` written with a fit of its own per fold: `fit_target` on a
    `FitDataset` of the fold's training samples."""
    samples, faults = cohort_samples(scenes, target_id)
    folds = []
    for i, scene in enumerate(scenes):
        training = [s for j, s in enumerate(samples) if j != i and s is not None]
        if faults[i] or not training:
            reason = faults[i] or "no valid training scenes"
            folds.append(FoldResult(scene.scene_id, target_id, True, reason))
            continue
        params, fit = fit_target(FitDataset(training), target_id)
        (pose,) = poses_from_keypoints(samples[i].keypoints, clouds[i], params,
                                       pose_kind_for_target(target_id))
        error = np.linalg.norm(pose.position - scene.targets_true[target_id])
        normal = angle_between_degrees(pose.surface_normal,
                                       scene.target_normals_true[target_id])
        folds.append(FoldResult(scene.scene_id, target_id, False, "", 1000.0 * float(error),
                                float(normal), fit.ratios, 1000.0 * fit.mean_planar_residual))
    return folds


def refuse_segments_from(monkeypatch, start):
    """Make every keypoint segment that starts at `start` have no planar
    perpendicular, as a vertical one has none."""
    planar = targets.perpendicular_planar_direction

    def refusing(seg_start, end, reference):
        if np.array_equal(seg_start, start):
            raise ScanlocError("keypoint segment is vertical; no planar perpendicular")
        return planar(seg_start, end, reference)

    monkeypatch.setattr(targets, "perpendicular_planar_direction", refusing)


@pytest.fixture(scope="module")
def noisy_cohorts():
    """Noisy 8-scene cohorts by target id, quarter-resolution, 5 mm clouds:
    front scenes 0, 1 and 6 lose their left shoulder, and others their
    right hip; side scenes 0, 1, 6 and 7 lose their right hip."""
    cohorts = {}
    for target_id, faults in ((1, {"right_hip": 0.5, "left_shoulder": 0.2}),
                              (4, {"right_hip": 0.3})):
        noise = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005, fault_prob=faults)
        scenes = generate_cohort(8, noise=noise, pose_kind=pose_kind_for_target(target_id),
                                 seed=8, cameras=small_cameras())
        cohorts[target_id] = scenes, [scene_cloud(s, 0.005) for s in scenes]
    return cohorts


class TestOneDesign:
    """`loocv` builds the valid scenes' fit rows once and masks each fold's own."""

    @pytest.mark.parametrize("target_id", [1, 4])
    def test_folds_have_the_bits_of_a_fit_per_fold(self, noisy_cohorts, target_id):
        scenes, clouds = noisy_cohorts[target_id]
        folds = loocv(scenes, target_id, clouds=clouds)
        faulty = [f.scene_id for f in folds if f.faulty]
        assert faulty == ([0, 1, 6] if target_id == 1 else [0, 1, 6, 7])
        # repr spells every float exactly, so equal reprs are equal bits
        assert repr(folds) == repr(per_fold_loocv(scenes, target_id, clouds))

    @pytest.mark.parametrize("target_id", [1, 4])
    def test_one_snap_has_the_bits_of_loocv_and_backprojection(self, noisy_cohorts,
                                                               target_id):
        """A fold that snaps the back-projection's three estimates with its own
        target, on rows built from depthless scenes, gives bitwise the results
        of `loocv` and `backprojection_comparison`, faulty folds included."""
        scenes, clouds = noisy_cohorts[target_id]
        cohort = _cohort([replace(scene, depths=()) for scene in scenes], target_id)
        together = [_fold_and_backprojection(cohort, i, scene, scene_cloud(scene, 0.005))
                    for i, scene in enumerate(scenes)]
        apart = zip(loocv(scenes, target_id, clouds=clouds),
                    [backprojection_comparison(s, c, target_id) for s, c in zip(scenes, clouds)])
        assert repr(together) == repr(list(apart))

    def test_one_valid_scene_has_no_training_scenes(self, side_with_faults):
        scenes, clouds = side_with_faults
        scenes, clouds = scenes[1:4], clouds[1:4]  # dropped, clean, displaced
        folds = loocv(scenes, 4, clouds=clouds)
        assert [f.fault_reason for f in folds] == [
            "right_hip dropped", "no valid training scenes", "right_hip displaced"]
        assert repr(folds) == repr(per_fold_loocv(scenes, 4, clouds))

    @pytest.mark.parametrize("target_id", [1, 4])
    def test_one_row_per_valid_sample_from_one_call(self, noisy_cohorts, target_id,
                                                     monkeypatch):
        scenes, clouds = noisy_cohorts[target_id]
        calls = []

        def counted(samples, pose_kind):
            rows = _sample_arrays(samples, pose_kind)
            calls.append(([s.scene_id for s in samples], [len(row) for row in rows]))
            return rows

        monkeypatch.setattr("scanloc.targets._sample_arrays", counted)
        monkeypatch.setattr("scanloc.evaluation._sample_arrays", counted)
        folds = loocv(scenes, target_id, clouds=clouds)
        valid = [f.scene_id for f in folds if not f.faulty]
        assert calls == [(valid, [len(valid)] * 5)]

    def test_empty_cohort_refused(self):
        with pytest.raises(ScanlocError, match="the cohort is empty: no scene to sample"):
            cohort_samples([], 1)

    def test_rows_that_cannot_be_built_are_refused_before_any_fold(
            self, side_with_faults, monkeypatch):
        scenes, clouds = side_with_faults
        last, _ = _scene_sample(scenes[-1], 4)
        refuse_segments_from(monkeypatch, last.keypoints.right_shoulder)

        def no_fold(*args, **kwargs):
            raise AssertionError("a fold ran before the cohort's rows were built")

        monkeypatch.setattr("scanloc.evaluation._fit_rows", no_fold)
        monkeypatch.setattr("scanloc.evaluation._target_poses", no_fold)
        with pytest.raises(ScanlocError, match="keypoint segment is vertical"):
            loocv(scenes, 4, clouds=clouds)

    def test_the_only_valid_sample_is_refused_too(self, side_with_faults, monkeypatch):
        """Its fold would have no training scenes, but its rows are still built."""
        scenes, clouds = side_with_faults
        only, _ = _scene_sample(scenes[2], 4)
        refuse_segments_from(monkeypatch, only.keypoints.right_shoulder)
        with pytest.raises(ScanlocError, match="keypoint segment is vertical"):
            loocv(scenes[1:4], 4, clouds=clouds[1:4])


class TestBackprojection:
    def test_noiseless_clean_closure(self, front_cohort):
        scenes, clouds = front_cohort
        results = [backprojection_comparison(scenes[0], clouds[0], t) for t in (1, 2)]
        assert [r.target_id for r in results] == [1, 2]
        for r in results:
            assert all(e <= 2.0 for e in r.two_view)
            for source in r.single_view:
                assert all(e <= 2.0 for e in source)

    def test_reads_no_normals(self, front_cohort, monkeypatch):
        scenes, _ = front_cohort
        cloud = scene_cloud(scenes[0])

        def no_pca(*args):
            raise AssertionError("back-projection estimated a normal")

        monkeypatch.setattr("scanloc.cloud._pca_normals", no_pca)
        for target_id in (1, 2):  # each snaps without a PCA
            assert backprojection_comparison(scenes[0], cloud, target_id)

    def test_deproject_reproject_round_trip(self, front_cohort):
        scenes, _ = front_cohort
        scene = scenes[0]
        for k in (0, 1):
            pixel = scene.target_pixels_observed[k][1]
            depth = _nearest_valid_depth(scene.depths[k], pixel)
            point = scene.cameras[k].deproject(pixel, depth)
            back = scene.cameras[k].project(point)
            assert abs(back.u - pixel.u) < 1e-9
            assert abs(back.v - pixel.v) < 1e-9

    def test_missing_depth_raises(self, front_cohort):
        scenes, clouds = front_cohort
        empty = DepthMap(np.zeros((480, 640)))
        broken = replace(scenes[0], depths=(empty, empty))
        with pytest.raises(ScanlocError, match="no valid depth within 2 px of"):
            backprojection_comparison(broken, clouds[0], 1)

    def test_nearest_depth_order(self):
        values = np.zeros((10, 10))
        values[5, 4] = 0.3
        values[5, 6] = 0.9
        # distance tie resolved toward the smaller column offset
        assert _nearest_valid_depth(DepthMap(values), Pixel(5.0, 5.0)) == 0.3
        values = np.zeros((10, 10))
        values[5, 7] = 0.8
        values[6, 6] = 0.2
        assert _nearest_valid_depth(DepthMap(values), Pixel(5.0, 5.0)) == 0.2
        with pytest.raises(ScanlocError, match=r"no valid depth within 2 px of \(5\.0, 5\.0\)"):
            _nearest_valid_depth(DepthMap(np.zeros((10, 10))), Pixel(5.0, 5.0))

    def test_nearest_depth_image_edge(self):
        values = np.zeros((10, 10))
        values[0, 1] = 0.4
        assert _nearest_valid_depth(DepthMap(values), Pixel(0.0, 0.0)) == 0.4

    def test_nearest_depth_beyond_the_image(self):
        values = np.zeros((10, 10))
        values[5, 9] = 0.7
        assert _nearest_valid_depth(DepthMap(values), Pixel(11.0, 5.0)) == 0.7
        for far in (Pixel(-40.0, -40.0), Pixel(40.0, 5.0), Pixel(5.0, 12.5)):
            with pytest.raises(ScanlocError, match="no valid depth within 2 px of"):
                _nearest_valid_depth(DepthMap(values), far)

    def test_median_pooling(self):
        results = [
            BackprojectionResult(0, 1, (1.0, 3.0), ((2.0, 4.0), (6.0, 8.0))),
            BackprojectionResult(1, 1, (5.0, 7.0), ((10.0, 12.0), (14.0, 16.0))),
        ]
        assert median_backprojection_errors(results) == {"two_view": 4.0, "single_view": 9.0}
        with pytest.raises(ScanlocError, match="need at least one result"):
            median_backprojection_errors([])

    def test_target_without_ground_truth_raises(self, front_cohort):
        scenes, clouds = front_cohort
        with pytest.raises(ScanlocError, match="scene 0 has no ground truth for target 4"):
            backprojection_comparison(scenes[0], clouds[0], 4)


class TestReports:
    def test_round_trip_and_determinism(self, tmp_path, front_cohort):
        scenes, clouds = front_cohort
        folds = loocv(scenes, 1, clouds=clouds) + [faulty_fold(99)]
        table = success_table(folds)
        summary = summarize(folds)
        results = [backprojection_comparison(scenes[0], clouds[0], t) for t in (1, 2)]

        for name, writer, payload in (
            ("folds.csv", write_folds_csv, folds),
            ("success_table.csv", write_success_csv, table),
            ("summary.json", write_summary_json, summary),
            ("backprojection.csv", write_backprojection_csv, results),
        ):
            writer(payload, tmp_path / name)
            writer(payload, tmp_path / ("again_" + name))
            assert filecmp.cmp(
                tmp_path / name, tmp_path / ("again_" + name), shallow=False
            ), name

        with open(tmp_path / "folds.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "scene_id"
        assert len(rows) == 1 + len(folds)
        faulty_row = [r for r in rows[1:] if r[0] == "99"]
        assert faulty_row and faulty_row[0][2] == "1"

        with open(tmp_path / "summary.json") as fh:
            parsed = json.load(fh)
        assert parsed["position_mm"]["mean"] == summary["position_mm"]["mean"]

        with open(tmp_path / "success_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold_mm", "target_1"]
        assert [row[0] for row in rows[1:]] == ["5", "10", "15", "20", "25", "30", "35", "40"]
        assert float(rows[1][1]) <= float(rows[2][1])
