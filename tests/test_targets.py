"""Target regression, parameter fitting, and the full localization path."""

import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanloc.cloud import FusedCloud, adjust_target, fuse
from scanloc.errors import ConfigError, MalformedFileError, ScanlocError
from scanloc.evaluation import scene_cloud
from scanloc.geometry import PinholeCamera, Pixel, angle_axis_to_rotation, RigidTransform, triangulate
from scanloc.synth import NoiseSpec, generate_cohort
from scanloc.targets import (
    ALL_JOINTS,
    FitDataset,
    FitSample,
    Keypoints3D,
    LATERAL,
    RatioPair,
    ScanTargetPose,
    TOWARD_HIPS,
    TargetModelParams,
    _sample_arrays,
    _segment,
    fit_front,
    fit_side,
    fit_target,
    front_target,
    front_reference,
    load_params,
    localize,
    orientation_from_normal,
    params_from_dict,
    params_to_dict,
    perpendicular_planar_direction,
    pose_keypoints,
    pose_kind_for_target,
    regress_targets,
    required_joints,
    save_params,
    side_target,
    triangulate_joints,
)

from helpers import (
    make_front_dataset,
    make_side_dataset,
    oracle_front_target,
    oracle_perpendicular,
    oracle_side_target,
    planar_design,
    spoil_a_number,
    translated_pair,
    two_view_rig,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])


def random_segment(rng):
    """A keypoint pair whose segment is safely non-vertical."""
    while True:
        start = rng.uniform(-1, 1, 3)
        seg = rng.uniform(-1, 1, 3)
        planar = np.hypot(seg[0], seg[1])
        if 0.05 < np.linalg.norm(seg) < 1.4 and planar > 1e-3 * np.linalg.norm(seg):
            return start, start + seg


def random_reference(rng, start, end):
    """A reference direction not perpendicular to the planar axis."""
    while True:
        ref = rng.uniform(-1, 1, 3)
        axis = oracle_perpendicular(start, end, np.array([1.0, 0.0, 0.0]))
        if abs(np.dot(ref, axis)) > 1e-3:
            return ref


class TestPerpendicularDirection:
    def test_axis_aligned_hand_case(self):
        t2 = perpendicular_planar_direction([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert np.array_equal(t2, [0.0, 1.0, 0.0])

    def test_vertical_segment_rejected(self):
        with pytest.raises(ScanlocError, match="keypoint segment is vertical; no planar perpendicular"):
            perpendicular_planar_direction([0, 0, 0], [0, 0, 1], [0, 1, 0])

    def test_zero_segment_rejected(self):
        with pytest.raises(ScanlocError, match="keypoint segment has zero length"):
            perpendicular_planar_direction([0.2, 0.1, 0], [0.2, 0.1, 0], [0, 1, 0])

    def test_perpendicular_reference_rejected(self):
        # the candidate axis for an X-aligned segment is +/-Y; an X reference
        # cannot pick a side
        with pytest.raises(ScanlocError, match="reference direction is perpendicular to the candidate axis"):
            perpendicular_planar_direction([0, 0, 0], [1, 0, 0], [1, 0, 0])

    def test_orthogonality_and_sign(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            t2 = perpendicular_planar_direction(start, end, ref)
            t1 = (end - start) / np.linalg.norm(end - start)
            assert abs(np.dot(t2, t1)) < 1e-12
            assert t2[2] == 0.0
            assert abs(np.linalg.norm(t2) - 1.0) < 1e-12
            assert np.dot(t2, ref) > 0
            assert np.allclose(t2, oracle_perpendicular(start, end, ref), atol=1e-12)


class TestTargetFormulas:
    def test_front_hand_case(self):
        got = front_target([0, 0, 0], [0.4, 0, 0], 0.5, 0.5, [0, 1, 0])
        assert np.allclose(got, [0.2, 0.2, 0.0], atol=1e-15)

    def test_front_zero_ratios_return_first_keypoint(self):
        f1 = np.array([0.3, -0.2, 0.7])
        got = front_target(f1, [0.9, 0.1, 0.6], 0.0, 0.0, [0, 1, 0])
        assert np.array_equal(got, f1)

    def test_side_hand_case(self):
        got = side_target([0, 0, 0], [0, -0.5, 0], 0.4, 0.5, [1, 0, 0])
        assert np.allclose(got, [0.1, -0.2, 0.0], atol=1e-15)

    def test_side_zero_walk_collapses_to_shoulder(self):
        s1 = np.array([0.1, 0.2, 0.3])
        got = side_target(s1, [0.1, -0.4, 0.25], 0.0, 0.77, [1, 0, 0])
        assert np.array_equal(got, s1)

    def test_front_matches_independent_transcription(self):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            r1, r2 = rng.uniform(-0.95, 0.95, 2)
            got = front_target(start, end, r1, r2, ref)
            want = oracle_front_target(start, end, r1, r2, ref)
            assert np.allclose(got, want, atol=1e-12)

    def test_side_matches_independent_transcription(self):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            r1, r2 = rng.uniform(-0.95, 0.95, 2)
            got = side_target(start, end, r1, r2, ref)
            want = oracle_side_target(start, end, r1, r2, ref)
            assert np.allclose(got, want, atol=1e-12)

    def test_affine_in_each_ratio(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)

            at0 = front_target(start, end, 0.0, 0.3, ref)
            at1 = front_target(start, end, 1.0, 0.3, ref)
            r = rng.uniform(-0.9, 0.9)
            interp = at0 + r * (at1 - at0)
            assert np.allclose(front_target(start, end, r, 0.3, ref), interp, atol=1e-12)

            bt0 = front_target(start, end, 0.4, 0.0, ref)
            bt1 = front_target(start, end, 0.4, 1.0, ref)
            assert np.allclose(
                front_target(start, end, 0.4, r, ref), bt0 + r * (bt1 - bt0), atol=1e-12
            )

            st0 = side_target(start, end, 0.4, 0.0, ref)
            st1 = side_target(start, end, 0.4, 1.0, ref)
            assert np.allclose(
                side_target(start, end, 0.4, r, ref), st0 + r * (st1 - st0), atol=1e-12
            )

    def test_offset_is_planar_and_perpendicular(self):
        # the sideways step leaves the anchor along a direction that is
        # horizontal and perpendicular to the keypoint segment
        rng = np.random.default_rng(505)
        for _ in range(100):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            r1, r2 = rng.uniform(-0.9, 0.9, 2)
            target = front_target(start, end, r1, r2, ref)
            anchor = start + r1 * (end - start)
            step = target - anchor
            t1 = (end - start) / np.linalg.norm(end - start)
            assert abs(np.dot(step, t1)) < 1e-12
            assert abs(np.dot(step, Z_AXIS)) < 1e-12

    def test_translation_equivariance(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            d = rng.uniform(-2, 2, 3)
            base = front_target(start, end, 0.3, 0.6, ref)
            moved = front_target(start + d, end + d, 0.3, 0.6, ref)
            assert np.allclose(moved, base + d, atol=1e-9)
            base_s = side_target(start, end, 0.5, -0.2, ref)
            moved_s = side_target(start + d, end + d, 0.5, -0.2, ref)
            assert np.allclose(moved_s, base_s + d, atol=1e-9)

    def test_rotation_about_z_equivariance(self):
        rng = np.random.default_rng(707)
        for _ in range(50):
            start, end = random_segment(rng)
            ref = random_reference(rng, start, end)
            ang = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(ang), np.sin(ang)
            rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
            base = front_target(start, end, 0.3, 0.6, ref)
            moved = front_target(rz @ start, rz @ end, 0.3, 0.6, rz @ ref)
            assert np.allclose(moved, rz @ base, atol=1e-9)


class TestFitFront:
    def test_recovers_generative_ratios(self):
        rng = np.random.default_rng(808)
        data = make_front_dataset(rng, 15, (0.62, 0.31))
        result = fit_front(data)
        assert abs(result.ratios.segment_ratio - 0.62) < 1e-9
        assert abs(result.ratios.offset_ratio - 0.31) < 1e-9
        assert result.mean_planar_residual < 1e-9

    def test_recovers_without_hips_using_fallback_reference(self):
        rng = np.random.default_rng(909)
        data = make_front_dataset(rng, 10, (0.4, -0.15), with_hip=False)
        result = fit_front(data)
        assert abs(result.ratios.segment_ratio - 0.4) < 1e-9
        assert abs(result.ratios.offset_ratio + 0.15) < 1e-9

    def test_single_clean_sample_is_exactly_determined(self):
        rng = np.random.default_rng(1010)
        data = make_front_dataset(rng, 1, (0.55, 0.22))
        result = fit_front(data)
        assert abs(result.ratios.segment_ratio - 0.55) < 1e-9
        assert abs(result.ratios.offset_ratio - 0.22) < 1e-9
        assert result.mean_planar_residual < 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ScanlocError, match="a fit dataset needs at least one sample"):
            FitDataset([])

    def test_noisy_fit_beats_dense_grid(self):
        # closed-form optimum vs every probe of a 201x201 grid over [-1,1]^2,
        # compared in the mean squared planar loss the fit minimizes
        grid = np.linspace(-1.0, 1.0, 201)
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            data = make_front_dataset(rng, 20, (0.62, 0.31), noise_sigma=0.005)
            result = fit_front(data)
            starts, segs, offs, gts = planar_design(data)

            def mean_sq(r1, r2):
                pred = starts + r1 * segs + r2 * offs
                return np.mean(np.sum((pred - gts) ** 2, axis=1))

            fit_loss = mean_sq(result.ratios.segment_ratio, result.ratios.offset_ratio)
            r1g, r2g = np.meshgrid(grid, grid, indexing="ij")
            pred = (
                starts[None, None]
                + r1g[..., None, None] * segs[None, None]
                + r2g[..., None, None] * offs[None, None]
            )
            grid_losses = np.mean(np.sum((pred - gts[None, None]) ** 2, axis=-1), axis=-1)
            assert fit_loss <= grid_losses.min() + 1e-12

    def test_reported_residual_is_unsquared_mean(self):
        rng = np.random.default_rng(1212)
        data = make_front_dataset(rng, 20, (0.62, 0.31), noise_sigma=0.005)
        result = fit_front(data)
        starts, segs, offs, gts = planar_design(data)
        pred = starts + result.ratios.segment_ratio * segs + result.ratios.offset_ratio * offs
        want = np.mean(np.linalg.norm(pred - gts, axis=1))
        assert abs(result.mean_planar_residual - want) < 1e-12


class TestFitSide:
    def test_recovers_generative_ratios(self):
        rng = np.random.default_rng(1414)
        data = make_side_dataset(rng, 12, (0.55, 0.35))
        result = fit_side(data)
        assert abs(result.ratios.segment_ratio - 0.55) < 1e-3
        assert abs(result.ratios.offset_ratio - 0.35) < 1e-3
        assert result.mean_planar_residual < 1e-4

    def test_noisy_fit_beats_dense_grid(self):
        # exact optimum vs every probe of a 201x201 grid over [-1,1]^2, in the
        # mean squared planar loss of the lateral model
        grid = np.linspace(-1.0, 1.0, 201)
        for seed in range(10):
            rng = np.random.default_rng(1500 + seed)
            data = make_side_dataset(rng, 20, (0.5, 0.2), noise_sigma=0.005)
            shoulders, segs, lengths, perps, gts = _sample_arrays(data.samples, "side")
            result = fit_side(data)
            a, b = result.ratios.segment_ratio, result.ratios.offset_ratio
            pred_fit = shoulders + a * segs + (b * abs(a) * lengths)[:, None] * perps
            fit_loss = np.mean(np.sum((pred_fit - gts) ** 2, axis=1))
            a, b = np.meshgrid(grid, grid, indexing="ij")
            step = (b * np.abs(a))[..., None, None] * (lengths[:, None] * perps)[None, None]
            pred = shoulders[None, None] + a[..., None, None] * segs[None, None] + step
            grid_losses = np.mean(np.sum((pred - gts[None, None]) ** 2, axis=-1), axis=-1)
            assert fit_loss <= grid_losses.min() + 1e-12, f"cohort seed {1500 + seed}"

    def test_noiseless_recovery_is_exact(self):
        for seed, ratios in enumerate([(0.55, 0.35), (0.4, 0.15), (-0.3, 0.6)]):
            data = make_side_dataset(np.random.default_rng(1600 + seed), 12, ratios)
            result = fit_side(data)
            assert abs(result.ratios.segment_ratio - ratios[0]) < 1e-9
            assert abs(result.ratios.offset_ratio - ratios[1]) < 1e-9
            assert result.mean_planar_residual < 1e-9

    def test_targets_at_shoulder_are_rank_deficient(self):
        data = make_side_dataset(np.random.default_rng(1616), 6, (0.5, 0.2))
        at_shoulder = FitDataset([
            FitSample(s.keypoints, s.keypoints.right_shoulder, s.scene_id)
            for s in data.samples
        ])
        with pytest.raises(ScanlocError, match="fitted segment ratio is 0; the offset ratio is not identifiable"):
            fit_side(at_shoulder)


class TestFitTarget:
    @pytest.mark.parametrize("target_id", [1, 2])
    def test_front_target_holds_only_its_ratios(self, target_id):
        data = make_front_dataset(np.random.default_rng(1700), 6, (0.62, 0.31))
        params, result = fit_target(data, target_id)
        assert params == TargetModelParams(front={target_id: result.ratios})
        assert result.ratios == fit_front(data).ratios

    def test_side_target_holds_only_the_side_ratios(self):
        data = make_side_dataset(np.random.default_rng(1701), 6, (0.5, 0.2))
        params, result = fit_target(data, 4)
        assert params == TargetModelParams(side=result.ratios)
        assert result.ratios == fit_side(data).ratios

    def test_unknown_target_is_refused(self):
        data = make_front_dataset(np.random.default_rng(1702), 3, (0.62, 0.31))
        with pytest.raises(ValueError, match="unsupported target id 3"):
            fit_target(data, 3)

    def test_a_sample_needs_a_target(self):
        """A sample without a target is refused when it is built, not at the
        fit; a sample's target is a read-only copy of what it was given."""
        (sample,) = make_front_dataset(np.random.default_rng(1703), 1, (0.62, 0.31)).samples
        keypoints = sample.keypoints
        with pytest.raises(ConfigError, match="target must be a 3-vector"):
            FitSample(keypoints=keypoints, target=None)
        given_target = np.array([0.1, 0.2, 0.3])
        sample = FitSample(keypoints=keypoints, target=given_target)
        assert not sample.target.flags.writeable and sample.target is not given_target


class TestOrientation:
    def test_flat_surface_hand_case(self):
        rotvec = orientation_from_normal([0, 0, 1], [1, 0, 0])
        rot = angle_axis_to_rotation(rotvec)
        want = np.diag([1.0, -1.0, -1.0])  # 180 degrees about X
        assert np.allclose(rot, want, atol=1e-12)

    def test_constraints_hold_for_random_inputs(self):
        rng = np.random.default_rng(1717)
        for _ in range(200):
            normal = rng.standard_normal(3)
            normal /= np.linalg.norm(normal)
            ref = rng.standard_normal(3)
            if np.linalg.norm(np.cross(ref / np.linalg.norm(ref), normal)) < 1e-3:
                continue
            rot = angle_axis_to_rotation(orientation_from_normal(normal, ref))
            assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) > 0
            assert np.linalg.norm(rot @ Z_AXIS + normal) < 1e-9
            # tool X axis carries the projected roll reference
            proj = ref - np.dot(ref, normal) * normal
            assert np.allclose(rot @ [1, 0, 0], proj / np.linalg.norm(proj), atol=1e-9)

    def test_parallel_roll_reference_rejected(self):
        with pytest.raises(ScanlocError, match="roll reference is parallel to the surface normal"):
            orientation_from_normal([0, 0, 1], [0, 0, 1])
        with pytest.raises(ScanlocError, match="roll reference is parallel to the surface normal"):
            orientation_from_normal([0, 0, 1], [0, 0, -2.5])
        with pytest.raises(ScanlocError, match="roll reference is parallel to the surface normal"):
            orientation_from_normal([0, 0, 1], [1e-9, 0, 1])
        # a milliradian away is fine
        orientation_from_normal([0, 0, 1], [1e-3, 0, 1])


class TestKeypointsValidation:
    def test_rejects_non_human_scale(self):
        with pytest.raises(ValueError):
            Keypoints3D(left_shoulder=[0, 0, 0], right_shoulder=[0.01, 0, 0])
        with pytest.raises(ValueError):
            Keypoints3D(left_shoulder=[0, 0, 0], right_hip=[2.0, 0, 0])

    def test_partial_keypoints_allowed(self):
        kps = Keypoints3D(right_shoulder=[0.1, 0.1, 0.05])
        assert kps.left_shoulder is None
        assert kps.right_hip is None


@pytest.fixture(scope="module")
def fitted_params_text():
    """The params file that fits of targets 1, 2 and 4 on noisy samples write."""
    rng = np.random.default_rng(77)
    front = {tid: fit_front(make_front_dataset(rng, 6, ratios, noise_sigma=0.002)).ratios
             for tid, ratios in ((1, (0.75, 0.2)), (2, (0.75, 0.5)))}
    side = fit_side(make_side_dataset(rng, 6, (0.4, 0.15), noise_sigma=0.002)).ratios
    return json.dumps(params_to_dict(TargetModelParams(front=front, side=side)))


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        params = TargetModelParams(
            front={1: RatioPair(0.3, 0.2), 2: RatioPair(0.55, 0.4)},
            side=RatioPair(0.4, 0.3),
        )
        path = tmp_path / "params.json"
        save_params(path, params)
        loaded = load_params(path)
        assert loaded.front[1] == RatioPair(0.3, 0.2)
        assert loaded.front[2] == RatioPair(0.55, 0.4)
        assert loaded.side == RatioPair(0.4, 0.3)
        assert json.loads(path.read_text())["reference_axes"] == {
            "front": [0.0, 1.0, 0.0], "side": [1.0, 0.0, 0.0]}

    def test_side_is_optional(self):
        params = params_from_dict({"front": {"1": {"r_f1": 0.1, "r_f2": 0.2}}})
        assert params.side is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            params_from_dict({"front": {}, "sides": {}})
        with pytest.raises(ConfigError):
            params_from_dict({"front": {"1": {"r_f1": 0.1, "r_f2": 0.2, "r_f3": 0.3}}})

    def test_out_of_range_ratio_flagged_not_rejected(self, caplog):
        with caplog.at_level(logging.WARNING, logger="scanloc.targets"):
            pair = RatioPair(1.5, 0.2)
        assert pair.segment_ratio == 1.5
        assert any("outside" in rec.message for rec in caplog.records)

    def test_ratio_beyond_thirty_rejected_naming_its_key(self):
        # 30 = the longest over the shortest human-scale segment: the bound is inclusive
        params = params_from_dict({"side": {"r_s1": -30.0, "r_s2": 30}, "front": {}})
        assert params.side == RatioPair(-30.0, 30.0)
        for entry, key in (({"side": {"r_s1": 0.4, "r_s2": -30.5}}, "side target r_s2"),
                           ({"front": {"2": {"r_f1": 31, "r_f2": 0.2}}}, "front target 2 r_f1")):
            with pytest.raises(MalformedFileError, match=key):
                params_from_dict(entry)

    def test_dict_round_trip_exact(self):
        params = TargetModelParams(front={1: RatioPair(0.123456789, -0.5)}, side=None)
        back = params_from_dict(params_to_dict(params))
        assert back.front[1] == params.front[1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_any_number_made_bad_is_refused(self, fitted_params_text, tmp_path_factory, data):
        """Any number of a fitted params file, `reference_axes` included,
        replaced by a value that is not a finite number fails as malformed,
        naming the file."""
        params = json.loads(fitted_params_text)
        spoil_a_number(data.draw, params)
        path = tmp_path_factory.mktemp("params") / "params.json"
        path.write_text(json.dumps(params))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            load_params(path)

    def test_reference_axes_may_be_left_out_or_hold_the_convention(self):
        entry = {"front": {"1": {"r_f1": 0.1, "r_f2": 0.2}}}
        for axes in ({"front": list(TOWARD_HIPS), "side": list(LATERAL)},
                     {"front": [0.0, 1.0, 0.0], "side": [1.0, 0.0, 0.0]}):
            assert params_from_dict({**entry, "reference_axes": axes}) == params_from_dict(entry)

    @pytest.mark.parametrize("axes, key", [
        ({"front": [0, 1, 0], "side": [-1, 0, 0]}, "side"),
        ({"front": [0, -1, 0], "side": [1, 0, 0]}, "front"),
        ({"front": [0, 2, 0], "side": [1, 0, 0]}, "front"),
        ({"front": [0, 1, 0], "side": [0.8, 0.6, 0]}, "side"),
        ({"side": [1, 0, 0]}, "front"),
        ({}, "front"),
    ], ids=["mirrored-side", "mirrored-front", "scaled-front", "turned-side", "no-front", "empty"])
    def test_reference_axes_other_than_the_convention_rejected(self, axes, key):
        """Another axis would mirror or move the targets the ratios were fit for."""
        with pytest.raises(MalformedFileError, match=f"reference_axes {key} must be .*: the "
                                                     "ratio model's sideways convention is fixed"):
            params_from_dict({"front": {}, "reference_axes": axes})

    @pytest.mark.parametrize("tid", [3, 4, 0, "1"])
    def test_unsupported_front_target_rejected_naming_it(self, tid):
        with pytest.raises(ConfigError, match=f"unsupported front target id {tid!r};"):
            TargetModelParams(front={1: RatioPair(0.3, 0.2), tid: RatioPair(0.5, 0.4)})

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(front=st.dictionaries(
        st.one_of(st.sampled_from(["1", "2"]), st.integers(-2, 5),
                  st.builds("{}{}".format, st.sampled_from(["0", "00"]), st.integers(0, 9)),
                  st.text(alphabet="012３²", max_size=3), st.text(max_size=3)),
        st.tuples(*[st.floats(-30, 30)] * 2), max_size=3))
    def test_params_file_loads_only_front_targets_1_and_2(self, tmp_path_factory, front):
        # JSON writes an integer key as its decimal text
        keys = {str(key) for key in front}
        path = tmp_path_factory.mktemp("params") / "params.json"
        path.write_text(json.dumps(
            {"front": {key: {"r_f1": a, "r_f2": b} for key, (a, b) in front.items()}}))
        if keys <= {"1", "2"}:
            params = load_params(path)
            assert set(params.front) == {int(key) for key in keys}
        else:
            with pytest.raises(MalformedFileError) as info:
                load_params(path)
            assert str(path) in str(info.value)
            assert "\n" not in str(info.value)


def slab_cloud(x_range=(-0.35, 0.35), y_range=(-0.1, 0.6), z=0.2, step=0.004):
    xs = np.arange(x_range[0], x_range[1] + step / 2, step)
    ys = np.arange(y_range[0], y_range[1] + step / 2, step)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, z)])
    normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return FusedCloud(points=points, normals=normals)


def observe(cam_a, cam_b, points_by_joint):
    views = ({}, {})
    for joint, point in points_by_joint.items():
        views[0][joint] = cam_a.project(point)
        views[1][joint] = cam_b.project(point)
    return views


SLAB_KEYPOINTS = {
    "left_shoulder": np.array([-0.15, 0.10, 0.20]),
    "right_shoulder": np.array([0.15, 0.10, 0.20]),
    "right_hip": np.array([0.12, 0.45, 0.18]),
}

SLAB_PARAMS = TargetModelParams(
    front={1: RatioPair(0.30, 0.20), 2: RatioPair(0.55, 0.40)},
    side=RatioPair(0.40, 0.30),
)


class TestLocalize:
    def test_front_targets_on_flat_slab(self):
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        poses = localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, "front")
        assert [p.target_id for p in poses] == [1, 2]
        mid = 0.5 * (SLAB_KEYPOINTS["left_shoulder"] + SLAB_KEYPOINTS["right_shoulder"])
        ref = SLAB_KEYPOINTS["right_hip"] - mid
        for pose, tid in zip(poses, (1, 2)):
            pair = SLAB_PARAMS.front[tid]
            expected = oracle_front_target(
                SLAB_KEYPOINTS["left_shoulder"],
                SLAB_KEYPOINTS["right_shoulder"],
                pair.segment_ratio,
                pair.offset_ratio,
                ref,
            )
            assert np.allclose(pose.position[:2], expected[:2], atol=1e-6)
            assert abs(pose.z - 0.2) < 1e-9  # snapped onto the slab
            assert not pose.far_from_surface
            rot = angle_axis_to_rotation(pose.rotation_vector)
            assert np.allclose(rot @ Z_AXIS, [0, 0, -1], atol=1e-6)
            assert np.allclose(pose.surface_normal, [0, 0, 1], atol=1e-6)
            # roll follows the shoulder line
            assert np.allclose(rot @ [1, 0, 0], [1, 0, 0], atol=1e-5)

    def test_side_target_on_flat_slab(self):
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        poses = localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, "side")
        assert [p.target_id for p in poses] == [4]
        expected = oracle_side_target(
            SLAB_KEYPOINTS["right_shoulder"],
            SLAB_KEYPOINTS["right_hip"],
            0.40,
            0.30,
            np.array([1.0, 0.0, 0.0]),
        )
        assert np.allclose(poses[0].position[:2], expected[:2], atol=1e-6)
        assert abs(poses[0].z - 0.2) < 1e-9

    def test_pose_z_stays_within_cloud_range(self):
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        for kind in ("front", "side"):
            for pose in localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, kind):
                assert cloud.points[:, 2].min() <= pose.z <= cloud.points[:, 2].max()

    def test_missing_hip_fails_side_but_not_front(self):
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        kps = {k: v for k, v in SLAB_KEYPOINTS.items() if k != "right_hip"}
        obs = observe(cam_a, cam_b, kps)
        with pytest.raises(ScanlocError, match="side targets need right_hip, not seen in both views"):
            localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, "side")
        poses = localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, "front")
        assert len(poses) == 2  # falls back to the configured hip-ward axis

    def test_out_of_bounds_pixel_counts_as_missing(self):
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        views = (dict(obs[0]), dict(obs[1]))
        views[1]["right_hip"] = Pixel(-5.0, 10.0)
        with pytest.raises(ScanlocError, match="side targets need right_hip, not seen in both views"):
            localize(cam_a, cam_b, views, cloud, SLAB_PARAMS, "side")

    def test_far_from_surface_flagged_and_logged(self, caplog):
        cam_a, cam_b = two_view_rig()
        patch = slab_cloud(x_range=(-0.3, -0.2), y_range=(0.0, 0.1))
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        with caplog.at_level(logging.WARNING, logger="scanloc.targets"):
            poses = localize(cam_a, cam_b, obs, patch, SLAB_PARAMS, "side")
        assert poses[0].far_from_surface
        assert any("away from" in rec.message for rec in caplog.records)

    def test_a_second_localize_constructs_no_transform(self, monkeypatch):
        """A camera's inverse pose and projection matrix are built once, so a
        second request on the same camera pair, with a fresh cloud, builds no
        RigidTransform."""
        (scene,) = generate_cohort(1, pose_kind="front", seed=63)
        cameras = [PinholeCamera.from_dict(camera.to_dict()) for camera in scene.cameras]
        views = list(zip(cameras, scene.depths))
        built = []
        post_init = RigidTransform.__post_init__

        def counting(transform):
            built.append(transform)
            post_init(transform)

        monkeypatch.setattr(RigidTransform, "__post_init__", counting)
        requests = []
        for _ in range(2):
            before = len(built)
            poses = localize(*cameras, scene.observation, fuse(views), scene.ratios,
                             scene.pose_kind)
            assert [p.target_id for p in poses] == [1, 2]
            requests.append(len(built) - before)
        assert requests[0] > 0 and requests[1] == 0, requests

    def test_rigid_equivariance_of_full_pipeline(self):
        # rotating the whole scene about Z (and translating it) transforms
        # the predicted poses by exactly the same motion
        cam_a, cam_b = two_view_rig()
        cloud = slab_cloud()
        obs = observe(cam_a, cam_b, SLAB_KEYPOINTS)
        base = localize(cam_a, cam_b, obs, cloud, SLAB_PARAMS, "front")

        ang = 0.7
        c, s = np.cos(ang), np.sin(ang)
        motion = RigidTransform(
            np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]), np.array([0.3, -0.2, 0.15])
        )
        cam_a2 = type(cam_a)(
            cam_a.fx, cam_a.fy, cam_a.cx, cam_a.cy, cam_a.width, cam_a.height,
            motion.compose(cam_a.pose),
        )
        cam_b2 = type(cam_b)(
            cam_b.fx, cam_b.fy, cam_b.cx, cam_b.cy, cam_b.width, cam_b.height,
            motion.compose(cam_b.pose),
        )
        cloud2 = FusedCloud(
            points=motion.apply(cloud.points),
            normals=cloud.normals @ motion.rotation.T,
        )
        moved = localize(cam_a2, cam_b2, obs, cloud2, SLAB_PARAMS, "front")
        for before, after in zip(base, moved):
            assert np.allclose(after.position, motion.apply(before.position), atol=1e-9)
            rot_before = angle_axis_to_rotation(before.rotation_vector)
            rot_after = angle_axis_to_rotation(after.rotation_vector)
            assert np.allclose(rot_after, motion.rotation @ rot_before, atol=1e-9)


MILD = NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002)
NOISY = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005)


def poses_json(poses) -> str:
    """The poses as `scanloc localize` writes them: every float by its repr."""
    return json.dumps([pose.to_dict() for pose in poses])


def lone_snap_poses(scene, params, voxel) -> list[ScanTargetPose]:
    """`localize` written out with one `adjust_target` call per target, each
    on its own fresh cloud."""
    keypoints, _ = pose_keypoints(*scene.cameras, scene.observation, scene.pose_kind)
    start, end = (getattr(keypoints, joint) for joint in required_joints(scene.pose_kind))
    poses = []
    for target_id, point in regress_targets(keypoints, params, scene.pose_kind):
        adjusted = adjust_target(scene_cloud(scene, voxel), point)
        rotvec = orientation_from_normal(adjusted.normal, end - start)
        poses.append(ScanTargetPose(target_id, *adjusted.position.tolist(), *rotvec.tolist(),
                                    far_from_surface=adjusted.far_from_surface))
    return poses


class TestOneSnap:
    """`localize` snaps a scene's targets through one window and gives the
    poses of one snap per target, bit for bit."""

    def assert_lone_snap_poses(self, scene, params, voxel):
        poses = localize(*scene.cameras, scene.observation, scene_cloud(scene, voxel), params,
                         scene.pose_kind)
        assert poses_json(poses) == poses_json(lone_snap_poses(scene, params, voxel))
        return poses

    @pytest.mark.parametrize("voxel", [0.002, 0.005])
    @pytest.mark.parametrize("noise", [MILD, NOISY], ids=["mild", "noisy"])
    @pytest.mark.parametrize("pose_kind", ["front", "side"])
    def test_scenes(self, pose_kind, noise, voxel):
        for scene in generate_cohort(2, noise=noise, pose_kind=pose_kind, seed=71):
            poses = self.assert_lone_snap_poses(scene, scene.ratios, voxel)
            assert [p.target_id for p in poses] == sorted(scene.targets_true)

    @pytest.mark.parametrize("voxel", [0.002, 0.005])
    def test_a_front_scene_without_its_right_hip(self, voxel):
        faults = NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002,
                           fault_prob={"right_hip": 1.0})
        scenes = generate_cohort(6, noise=faults, pose_kind="front", seed=72)
        scene = next(s for s in scenes if s.faulted_joints.get("right_hip") == "dropped")
        keypoints, _ = pose_keypoints(*scene.cameras, scene.observation, "front")
        assert keypoints.right_hip is None  # the targets step along TOWARD_HIPS
        self.assert_lone_snap_poses(scene, scene.ratios, voxel)

    @pytest.mark.parametrize("voxel", [0.002, 0.005])
    def test_a_target_far_from_the_surface(self, voxel):
        """Target 2 steps toward the head, off the scanned torso, so the one
        window must widen to hold target 1's neighbourhood and target 2's."""
        (scene,) = generate_cohort(1, noise=MILD, pose_kind="front", seed=73)
        params = TargetModelParams(front={1: scene.ratios.front[1], 2: RatioPair(0.5, -0.9)})
        poses = self.assert_lone_snap_poses(scene, params, voxel)
        assert [p.far_from_surface for p in poses] == [False, True]


class TestTriangulateJoints:
    def test_one_call_per_scene_with_the_bits_of_each_joint_alone(self, monkeypatch):
        (scene,) = generate_cohort(1, noise=NOISY, pose_kind="front", seed=74)
        calls = []

        def counted(camera_a, camera_b, pixels_a, pixels_b):
            calls.append(len(pixels_a))
            return triangulate(camera_a, camera_b, pixels_a, pixels_b)

        monkeypatch.setattr("scanloc.targets.triangulate", counted)
        joints = triangulate_joints(*scene.cameras, scene.observation)
        assert calls == [len(ALL_JOINTS)]
        assert list(joints) == list(ALL_JOINTS)
        for joint, point in joints.items():
            pixels = [scene.observation[vi][joint] for vi in (0, 1)]
            assert point.tobytes() == triangulate(*scene.cameras, *pixels).tobytes()

    def test_no_joint_seen_makes_no_call(self, monkeypatch):
        monkeypatch.setattr("scanloc.targets.triangulate", None)
        assert triangulate_joints(*two_view_rig(), ({}, {})) == {}

    def test_the_first_failing_joint_in_all_joints_order_is_reported(self):
        """Whatever order the views list them in: cameras 1000 km apart, where
        pixels 1e-5 px apart meet at infinity and one pixel in both is
        parallel rays."""
        cameras = translated_pair([1e6, 0.0, 0.0])
        far = (Pixel(300.0, 200.0), Pixel(300.00001, 200.0))
        parallel = (Pixel(100.0, 200.0), Pixel(100.0, 200.0))
        for left, right, message in ((far, parallel, "at infinity"),
                                     (parallel, far, "viewing rays are parallel")):
            views = tuple({"right_shoulder": right[vi], "left_shoulder": left[vi]}
                          for vi in (0, 1))
            with pytest.raises(ScanlocError, match=message):
                triangulate_joints(*cameras, views)


class TestRegressTargets:
    def test_front_ordering_and_hip_reference(self):
        kps = Keypoints3D(**SLAB_KEYPOINTS)
        out = regress_targets(kps, SLAB_PARAMS, "front")
        assert [tid for tid, _ in out] == [1, 2]
        mid = 0.5 * (kps.left_shoulder + kps.right_shoulder)
        want = oracle_front_target(
            kps.left_shoulder, kps.right_shoulder, 0.30, 0.20, kps.right_hip - mid
        )
        assert np.allclose(out[0][1], want, atol=1e-12)

    def test_missing_required_keypoint_raises(self):
        kps = Keypoints3D(right_shoulder=[0.15, 0.1, 0.2], right_hip=[0.12, 0.45, 0.18])
        with pytest.raises(ScanlocError, match="front targets need left_shoulder, not seen in both views"):
            regress_targets(kps, SLAB_PARAMS, "front")
        kps2 = Keypoints3D(
            left_shoulder=[-0.15, 0.1, 0.2], right_shoulder=[0.15, 0.1, 0.2]
        )
        with pytest.raises(ScanlocError, match="side targets need right_hip, not seen in both views"):
            regress_targets(kps2, SLAB_PARAMS, "side")

    def test_unknown_pose_kind_rejected(self):
        kps = Keypoints3D(**SLAB_KEYPOINTS)
        with pytest.raises(ValueError):
            regress_targets(kps, SLAB_PARAMS, "prone")


class TestSegment:
    @pytest.mark.parametrize("pose_kind, missing", [
        ("front", "left_shoulder"), ("front", "right_shoulder"),
        ("side", "right_shoulder"), ("side", "right_hip"),
    ])
    def test_missing_segment_joint_is_named(self, pose_kind, missing):
        kps = Keypoints3D(**{k: v for k, v in SLAB_KEYPOINTS.items() if k != missing})
        with pytest.raises(ScanlocError, match=f"{pose_kind} targets need {missing}, not seen"):
            _segment(kps, pose_kind)

    def test_segment_ends_and_references(self):
        kps = Keypoints3D(**SLAB_KEYPOINTS)
        start, end, ref = _segment(kps, "front")
        assert start is kps.left_shoulder and end is kps.right_shoulder
        assert np.array_equal(ref, front_reference(kps))
        start, end, ref = _segment(kps, "side")
        assert start is kps.right_shoulder and end is kps.right_hip
        assert ref is LATERAL

    def test_pose_kind_for_target(self):
        assert [pose_kind_for_target(t) for t in (1, 2, 4)] == ["front", "front", "side"]
        with pytest.raises(ValueError):
            pose_kind_for_target(3)
