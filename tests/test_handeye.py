"""Tests for the AX = XB camera-to-base calibration.

The oracle here is forward synthesis: pick a ground-truth camera-to-base
transform X and a tag-to-gripper mount Y, generate gripper poses, and
compute each tag detection as X^-1 @ G @ Y using plain 4x4 matrix algebra.
The solver has to give X back, and every motion pair has to satisfy the
conjugation identity it was built for.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from helpers import random_transform, synthesize_samples
from scanloc.errors import ScanlocError
from scanloc.geometry import RigidTransform, rotation_to_angle_axis
from scanloc.handeye import (
    PosePairSample,
    build_motion_pairs,
    estimate_camera_pose,
    mean_residual,
    solve_park_martin,
)


def perturb(sample: PosePairSample, rng, rot_sigma_rad, trans_sigma_m):
    """Add measurement noise to the tag detection."""
    noise_rot = Rotation.from_rotvec(rng.normal(0, rot_sigma_rad, 3)).as_matrix()
    c = sample.tag_in_camera
    noisy = RigidTransform(
        c.rotation @ noise_rot, c.translation + rng.normal(0, trans_sigma_m, 3)
    )
    return PosePairSample(sample.gripper_in_base, noisy)


def rotation_error_rad(a: RigidTransform, b: RigidTransform) -> float:
    rel = a.rotation @ b.rotation.T
    return float(np.linalg.norm(rotation_to_angle_axis(rel)))


class TestMotionPairs:
    def test_pairs_satisfy_conjugation_identity(self):
        rng = np.random.default_rng(31)
        x_true = random_transform(rng)
        y = random_transform(rng, trans_scale=0.1)
        grippers = [random_transform(rng) for _ in range(3)]
        samples = synthesize_samples(x_true, y, grippers)
        pairs = build_motion_pairs(samples, all_pairs=True)
        assert len(pairs) == 3
        xm = x_true.as_matrix()
        for pair in pairs:
            diff = pair.a.as_matrix() @ xm - xm @ pair.b.as_matrix()
            assert np.linalg.norm(diff) < 1e-9

    def test_too_few_samples_rejected(self):
        rng = np.random.default_rng(32)
        x_true = random_transform(rng)
        samples = synthesize_samples(
            x_true, random_transform(rng), [random_transform(rng) for _ in range(2)]
        )
        with pytest.raises(ScanlocError, match="need at least 4 samples .* got 2"):
            build_motion_pairs(samples)

    def test_too_few_samples_for_three_pairs_name_the_count_needed(self):
        rng = np.random.default_rng(37)
        x_true = random_transform(rng)
        samples = synthesize_samples(
            x_true, random_transform(rng), [random_transform(rng) for _ in range(3)]
        )
        with pytest.raises(ScanlocError, match="need at least 4 samples .* got 3"):
            build_motion_pairs(samples)
        with pytest.raises(ScanlocError,
                           match="need at least 3 samples to calibrate from every pair, got 2"):
            build_motion_pairs(samples[:2], all_pairs=True)

    def test_near_identity_motions_dropped(self):
        rng = np.random.default_rng(33)
        x_true = random_transform(rng)
        y = random_transform(rng)
        base = random_transform(rng)
        # gripper barely moves between samples 2 and 3
        nudge = RigidTransform(np.eye(3), np.array([1e-5, 0, 0]))
        grippers = [random_transform(rng), random_transform(rng), base, base.compose(nudge), random_transform(rng)]
        pairs = build_motion_pairs(synthesize_samples(x_true, y, grippers))
        assert len(pairs) == 3  # 4 consecutive pairs, one dropped

    def test_two_usable_pairs_rejected(self):
        """Two motion pairs give a rotation normal matrix of rank at most 2,
        which never solves; four samples whose first two share a gripper pose
        leave exactly two."""
        rng = np.random.default_rng(38)
        x_true = random_transform(rng)
        base = random_transform(rng)
        grippers = [base, base, random_transform(rng), random_transform(rng)]
        samples = synthesize_samples(x_true, random_transform(rng), grippers)
        with pytest.raises(ScanlocError,
                           match="only 2 motion pairs rotate enough to use; need at least 3"):
            build_motion_pairs(samples)
        pairs = build_motion_pairs(samples, all_pairs=True)
        with pytest.raises(ScanlocError, match="need at least 3 motion pairs"):
            solve_park_martin(pairs[:2])

    def test_pure_translation_motions_rejected(self):
        rng = np.random.default_rng(34)
        x_true = random_transform(rng)
        y = random_transform(rng)
        start = random_transform(rng)
        grippers = [
            RigidTransform(start.rotation, start.translation + [0.1 * i, 0.05 * i, 0])
            for i in range(5)
        ]
        with pytest.raises(ScanlocError,
                           match="only 0 motion pairs rotate enough to use; need at least 3"):
            build_motion_pairs(synthesize_samples(x_true, y, grippers))

    def test_single_axis_motions_rejected(self):
        rng = np.random.default_rng(35)
        x_true = random_transform(rng)
        y = random_transform(rng)
        grippers = [
            RigidTransform(
                Rotation.from_rotvec([0, 0, 0.4 * i]).as_matrix(),
                rng.uniform(-1, 1, 3),
            )
            for i in range(5)
        ]
        with pytest.raises(ScanlocError, match=r"all motions rotate about \(anti\)parallel axes"):
            build_motion_pairs(synthesize_samples(x_true, y, grippers))

    def test_all_pairs_mode_uses_every_combination(self):
        rng = np.random.default_rng(36)
        x_true = random_transform(rng)
        y = random_transform(rng)
        grippers = [random_transform(rng) for _ in range(6)]
        pairs = build_motion_pairs(synthesize_samples(x_true, y, grippers), all_pairs=True)
        assert len(pairs) == 15


class TestParkMartin:
    def test_recovers_truth_from_noiseless_samples(self):
        rng = np.random.default_rng(41)
        for trial in range(5):
            x_true = random_transform(rng)
            y = random_transform(rng, trans_scale=0.1)
            grippers = [random_transform(rng) for _ in range(20)]
            solved = estimate_camera_pose(synthesize_samples(x_true, y, grippers))
            assert rotation_error_rad(solved, x_true) < 1e-6
            assert np.linalg.norm(solved.translation - x_true.translation) < 1e-6

    def test_noisy_residual_close_to_truth_residual(self):
        rng = np.random.default_rng(42)
        x_true = random_transform(rng)
        y = random_transform(rng, trans_scale=0.1)
        grippers = [random_transform(rng) for _ in range(25)]
        clean = synthesize_samples(x_true, y, grippers)
        noisy = [perturb(s, rng, np.radians(0.2), 0.001) for s in clean]
        pairs = build_motion_pairs(noisy)
        solved = solve_park_martin(pairs)
        assert mean_residual(pairs, solved) <= 1.5 * mean_residual(pairs, x_true)

    def test_solution_beats_random_perturbations(self):
        rng = np.random.default_rng(43)
        x_true = random_transform(rng)
        y = random_transform(rng, trans_scale=0.1)
        clean = synthesize_samples(x_true, y, [random_transform(rng) for _ in range(25)])
        noisy = [perturb(s, rng, np.radians(0.2), 0.001) for s in clean]
        pairs = build_motion_pairs(noisy)
        solved = solve_park_martin(pairs)
        base = mean_residual(pairs, solved)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis *= np.radians(1.0) / np.linalg.norm(axis)
            shift = rng.normal(size=3)
            shift *= 0.005 / np.linalg.norm(shift)
            tweaked = RigidTransform(
                solved.rotation @ Rotation.from_rotvec(axis).as_matrix(),
                solved.translation + shift,
            )
            assert base <= mean_residual(pairs, tweaked)

    def test_base_redefinition_maps_solution(self):
        rng = np.random.default_rng(44)
        x_true = random_transform(rng)
        y = random_transform(rng, trans_scale=0.1)
        grippers = [random_transform(rng) for _ in range(10)]
        samples = synthesize_samples(x_true, y, grippers)
        t0 = random_transform(rng)
        moved = [
            PosePairSample(t0.compose(s.gripper_in_base), s.tag_in_camera)
            for s in samples
        ]
        solved = estimate_camera_pose(moved)
        expected = t0.compose(x_true)
        assert rotation_error_rad(solved, expected) < 1e-9
        assert np.linalg.norm(solved.translation - expected.translation) < 1e-9
