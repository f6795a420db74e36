"""Tests for rigid transforms, pinhole projection, and triangulation.

Expected values come from three independent routes:

* hand-computed pixel/point values for the axis-aligned cases,
* a from-scratch transcription of the pinhole equations (plain numpy on
  K, R, t) used to cross-check the camera class,
* a brute-force 3D grid search minimizing summed reprojection error, used
  as the oracle for triangulation under pixel noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from helpers import (
    batched_rotation,
    look_at_camera,
    random_transform,
    translated_pair,
    two_view_rig,
)
from scanloc.errors import ConfigError, ScanlocError
from scanloc.geometry import (
    MIN_DEPTH,
    PinholeCamera,
    Pixel,
    RigidTransform,
    _floor_in,
    angle_axis_to_rotation,
    angle_between_degrees,
    rotation_to_angle_axis,
    triangulate,
)
from scanloc.synth import TorsoSpec, default_cameras
from scanloc.targets import RatioPair, pose_kind_for_target, required_joints


def reference_project(camera: PinholeCamera, point) -> np.ndarray:
    """Independent pinhole transcription: K, R, t written out longhand."""
    r = camera.pose.rotation
    t = camera.pose.translation
    p_cam = r.T @ (np.asarray(point, dtype=float) - t)
    u = camera.fx * p_cam[0] / p_cam[2] + camera.cx
    v = camera.fy * p_cam[1] / p_cam[2] + camera.cy
    return np.array([u, v])


class TestRigidTransform:
    def test_identity_leaves_points_alone(self):
        p = np.array([0.3, -1.2, 2.5])
        assert np.allclose(RigidTransform.identity().apply(p), p)

    def test_compose_matches_sequential_action(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t1 = random_transform(rng, trans_scale=2)
            t2 = random_transform(rng, trans_scale=2)
            p = rng.uniform(-3, 3, size=3)
            assert np.allclose(
                t1.compose(t2).apply(p), t1.apply(t2.apply(p)), atol=1e-12
            )

    def test_inverse_round_trip_is_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = random_transform(rng, trans_scale=2)
            m = t.compose(t.inverse()).as_matrix()
            assert np.allclose(m, np.eye(4), atol=1e-12)

    def test_inverse_is_built_once_and_bitwise_the_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_transform(rng, trans_scale=2)
            inverse = t.inverse()
            assert t.inverse() is inverse
            rt = t.rotation.T
            assert inverse.rotation.tobytes() == rt.tobytes()
            assert inverse.translation.tobytes() == (-rt @ t.translation).tobytes()
            for array in (inverse.rotation, inverse.translation):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_composition_stays_orthonormal(self):
        rng = np.random.default_rng(9)
        t = RigidTransform.identity()
        for _ in range(200):
            t = t.compose(random_transform(rng, trans_scale=2))
        r = t.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-9
        assert abs(np.linalg.det(r) - 1) < 1e-9

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_dict_round_trip(self):
        rng = np.random.default_rng(10)
        t = random_transform(rng, trans_scale=2)
        back = RigidTransform.from_dict(t.to_dict())
        assert np.array_equal(back.rotation, t.rotation)
        assert np.array_equal(back.translation, t.translation)


IDENTITY = RigidTransform.identity()
CAMERA = PinholeCamera(600.0, 600.0, 320.0, 240.0, 640, 480, IDENTITY)
BAD_CONSTRUCTOR_INPUT = {
    "vector-shape": lambda: angle_axis_to_rotation([1.0, 2.0]),
    "vector-finite": lambda: angle_axis_to_rotation([np.nan, 0.0, 0.0]),
    "rotation-shape": lambda: RigidTransform(np.eye(2), np.zeros(3)),
    "rotation-finite": lambda: RigidTransform(np.full((3, 3), np.inf), np.zeros(3)),
    "rotation-orthonormal": lambda: RigidTransform(np.eye(3) * 1.01, np.zeros(3)),
    "rotation-reflection": lambda: RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)),
    "points-shape": lambda: IDENTITY.apply(np.zeros((2, 2))),
    "project-flat-points": lambda: CAMERA.project_points(np.arange(1.0, 7.0)),
    "project-point-columns": lambda: CAMERA.project_points(np.ones((3, 2))),
    "project-points-3d": lambda: CAMERA.project_points(np.ones((2, 3, 1))),
    "deproject-pixels-not-depths": lambda: CAMERA.deproject(np.ones((3, 2)), [1.0, 2.0]),
    "deproject-u-not-v": lambda: CAMERA.deproject((np.ones(3), np.ones(2)), np.ones(3)),
    "deproject-pixel-columns": lambda: CAMERA.deproject(np.ones((2, 3)), [1.0, 1.0]),
    "deproject-one-pixel-many-depths": lambda: CAMERA.deproject(Pixel(1.0, 2.0), [1.0, 2.0]),
    "deproject-out-columns": lambda: CAMERA.deproject(np.ones((5, 2)), np.ones(5), np.empty((3, 4))),
    "deproject-out-rows": lambda: CAMERA.deproject(np.ones((5, 2)), np.ones(5), np.empty((4, 5))),
    "deproject-out-float32": lambda: CAMERA.deproject(
        np.ones((5, 2)), np.ones(5), np.empty((3, 5), np.float32)),
    "rays-pixel-columns": lambda: CAMERA.pixel_rays(np.ones((4, 3))),
    "rays-one-pixel": lambda: CAMERA.pixel_rays(Pixel(1.0, 2.0)),
    "angle-axis-shape": lambda: rotation_to_angle_axis(np.eye(2)),
    "angle-axis-finite": lambda: rotation_to_angle_axis(np.full((3, 3), np.nan)),
    "angle-axis-reflection": lambda: rotation_to_angle_axis(np.diag([1.0, 1.0, -1.0])),
    "angle-axis-singular": lambda: rotation_to_angle_axis(np.zeros((3, 3))),
    "vector-angle-overflow": lambda: angle_axis_to_rotation([1e308, 1e308, 0.0]),
    "focal-length": lambda: PinholeCamera(0.0, 600.0, 320.0, 240.0, 640, 480, IDENTITY),
    "image-size": lambda: PinholeCamera(600.0, 600.0, 320.0, 240.0, 0, 480, IDENTITY),
    "principal-point": lambda: PinholeCamera(600.0, 600.0, 700.0, 240.0, 640, 480, IDENTITY),
    "ratio-finite": lambda: RatioPair(np.nan, 0.2),
    "target-id": lambda: pose_kind_for_target(3),
    "pose-kind": lambda: required_joints("back"),
}


@pytest.mark.parametrize("build", BAD_CONSTRUCTOR_INPUT.values(), ids=BAD_CONSTRUCTOR_INPUT.keys())
def test_bad_input_is_a_scanloc_value_error(build):
    """Geometry and target-model values outside their domain raise a
    ScanlocError, which the CLI reports in one line, and stay ValueErrors."""
    with pytest.raises(ScanlocError) as info:
        build()
    assert isinstance(info.value, ValueError)


class TestAngleAxis:
    def test_quarter_turn_about_z(self):
        # axis (0,0,1), angle pi/2: x-axis maps to y-axis
        r = angle_axis_to_rotation([0, 0, np.pi / 2])
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_round_trip_preserves_rotation_action(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.uniform(-np.pi, np.pi, size=3)
            r = angle_axis_to_rotation(v)
            r2 = angle_axis_to_rotation(rotation_to_angle_axis(r))
            assert np.linalg.norm(r - r2) < 1e-9


def unit_axes():
    axes = st.tuples(*[st.floats(-1, 1)] * 3).map(np.array)
    return axes.filter(lambda a: np.linalg.norm(a) > 0.1)


def assert_matrix_is_scipys(vector):
    assert np.array_equal(angle_axis_to_rotation(vector), Rotation.from_rotvec(vector).as_matrix())


def assert_vector_is_scipys(matrix):
    assert np.array_equal(rotation_to_angle_axis(matrix), Rotation.from_matrix(matrix).as_rotvec())


class TestScipyOracle:
    """The conversions repeat scipy's `Rotation` steps, so they give its bits."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(axis=unit_axes(), exponent=st.floats(-300, 1))
    def test_conversions_match_scipy_at_every_angle_scale(self, axis, exponent):
        vector = axis / np.linalg.norm(axis) * 10.0**exponent
        assert_matrix_is_scipys(vector)
        assert_vector_is_scipys(angle_axis_to_rotation(vector))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(axis=unit_axes(), angle=st.floats(0, np.pi), exponent=st.floats(-11, -7),
           noise=st.lists(st.floats(-1, 1), min_size=9, max_size=9))
    def test_near_orthogonal_matrices_match_scipy(self, axis, angle, exponent, noise):
        """A matrix off orthogonal by 1e-11 to 1e-7 is projected by its SVD first."""
        matrix = angle_axis_to_rotation(axis / np.linalg.norm(axis) * angle)
        perturbed = matrix + 10.0**exponent * np.reshape(noise, (3, 3))
        assert_vector_is_scipys(perturbed)

    @pytest.mark.parametrize("angle", [0.0, 1e-3, np.nextafter(1e-3, 1.0), np.pi],
                             ids=["zero", "taylor-edge", "above-taylor-edge", "pi"])
    def test_pinned_angles(self, angle):
        for axis in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 2.0, -2.0]):
            vector = np.divide(axis, np.linalg.norm(axis)) * angle
            assert_matrix_is_scipys(vector)
            matrix = angle_axis_to_rotation(vector)
            assert_vector_is_scipys(matrix)
            assert np.linalg.norm(rotation_to_angle_axis(matrix)) == pytest.approx(angle)

    @pytest.mark.parametrize("vector, case", [([2.5, 0.0, 0.0], 0), ([0.0, 2.5, 0.0], 1),
                                              ([0.0, 0.0, 2.5], 2), ([0.3, -0.2, 0.1], 3)],
                             ids=["m00", "m11", "m22", "trace"])
    def test_each_quaternion_case(self, vector, case):
        """The first largest of (m00, m11, m22, trace) picks the quaternion's case."""
        matrix = angle_axis_to_rotation(vector)
        assert np.argmax([*np.diag(matrix), np.trace(matrix)]) == case
        assert_vector_is_scipys(matrix)
        assert np.allclose(rotation_to_angle_axis(matrix), vector, atol=1e-12)

    @pytest.mark.parametrize("axis", [[-0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [0.0, 0.0, -1.0]])
    def test_half_turns_are_made_canonical(self, axis):
        """A half-turn 2nn^T - I has w == 0 exactly: the quaternion's first
        nonzero x, y, z component decides its sign, so the vector's too."""
        n = np.array(axis)
        matrix = 2 * np.outer(n, n) - np.eye(3)
        assert_vector_is_scipys(matrix)
        assert np.allclose(np.abs(rotation_to_angle_axis(matrix)), np.pi * np.abs(n), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-11, 1e-9, 1e-7])
    def test_near_orthogonal_takes_the_svd(self, scale):
        """A Gramian off the identity by more than scipy's tolerance, `np.isclose`
        at atol 1e-12, sends the matrix through the SVD projection."""
        matrix = angle_axis_to_rotation([0.4, -1.1, 0.7]) + scale * np.outer([1, -2, 3], [2, 1, -1])
        assert not np.isclose(matrix @ matrix.T, np.eye(3), atol=1e-12).all()
        assert_vector_is_scipys(matrix)


class TestAngleBetween:
    def test_hand_values(self):
        assert angle_between_degrees([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0)
        assert angle_between_degrees([0, 0, 1], [0, 0, -1]) == pytest.approx(180.0)
        assert angle_between_degrees([1, 1, 0], [1, 1, 0]) < 1e-5

    def test_zero_vector_rejected(self):
        with pytest.raises(ScanlocError, match="cannot measure an angle against a zero vector"):
            angle_between_degrees([0, 0, 0], [1, 0, 0])


class TestProjection:
    def test_principal_point_at_identity_pose(self):
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        assert cam.project([0, 0, 1.0]) == Pixel(320.0, 240.0)

    def test_hand_computed_offset_point(self):
        # u = 500 * 0.1 / 2 + 320 = 345, v = 500 * (-0.2) / 2 + 240 = 190
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        pix = cam.project([0.1, -0.2, 2.0])
        assert pix.u == pytest.approx(345.0)
        assert pix.v == pytest.approx(190.0)

    def test_projection_matrix_is_built_once_and_read_only(self):
        cam = look_at_camera([0.2, -0.1, 1.5], [0.0, 0.1, 0.2])
        p = cam.projection_matrix()
        assert cam.projection_matrix() is p
        k = np.array([[cam.fx, 0, cam.cx], [0, cam.fy, cam.cy], [0, 0, 1]])
        inv = cam.pose.inverse()
        assert p.tobytes() == (k @ np.hstack([inv.rotation, inv.translation[:, None]])).tobytes()
        with pytest.raises(ValueError):
            p[0, 0] = 1.0

    def test_matches_independent_transcription(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            cam = look_at_camera(rng.uniform(-1, 1, 3) + [0, 0, 2], rng.uniform(-0.3, 0.3, 3))
            point = rng.uniform(-0.4, 0.4, 3)
            pix = cam.project(point)
            assert np.allclose([pix.u, pix.v], reference_project(cam, point), atol=1e-9)

    def test_deproject_round_trip(self):
        rng = np.random.default_rng(13)
        cam = look_at_camera([0.2, -0.1, 1.5], [0, 0, 0])
        for _ in range(100):
            pix = Pixel(rng.uniform(0, 640), rng.uniform(0, 480))
            depth = rng.uniform(0.2, 5.0)
            point = cam.deproject(pix, depth)
            back = cam.project(point)
            assert abs(back.u - pix.u) < 1e-9 and abs(back.v - pix.v) < 1e-9

    def test_point_behind_camera_rejected(self):
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        with pytest.raises(ScanlocError, match="is at or behind the camera plane"):
            cam.project([0, 0, -1.0])
        with pytest.raises(ScanlocError, match="depth must be positive, got 0.0"):
            cam.deproject(Pixel(320, 240), 0.0)

    def test_deproject_many_equals_each_bitwise(self):
        # every other camera looks straight down, with a signed-permutation
        # rotation; the rest take a general pose
        rng = np.random.default_rng(14)
        for k in range(20):
            centre = rng.uniform(-1, 1, 3) + [0, 0, 2]
            target = centre - [0, 0, 1] if k % 2 else rng.uniform(-0.3, 0.3, 3)
            cam = look_at_camera(centre, target)
            uv = np.column_stack([rng.uniform(0, 640, 50), rng.uniform(0, 480, 50)])
            depths = rng.uniform(0.2, 5.0, 50)
            many = cam.deproject(uv, depths)
            assert many.shape == (50, 3)
            each = np.array([cam.deproject(Pixel(*pixel), depth) for pixel, depth in zip(uv, depths)])
            assert many.tobytes() == each.tobytes()

    def test_deproject_rejects_any_depth_at_or_below_min(self):
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        with pytest.raises(ScanlocError, match="depth must be positive, got 1e-10"):
            cam.deproject([[320, 240], [10, 20]], [1.0, 1e-10])

    def test_float32_depths_deproject_as_their_float64_upcast(self):
        """Float32 depths give bitwise the points of their float64 upcast, and
        are refused at MIN_DEPTH exactly where the upcast is."""
        rng = np.random.default_rng(16)
        cam = look_at_camera([0.2, -0.1, 1.5], [0, 0, 0])
        uv = np.column_stack([rng.uniform(0, 640, 200), rng.uniform(0, 480, 200)])
        depths = rng.uniform(0.2, 5.0, 200).astype(np.float32)
        assert np.array_equal(cam.deproject(uv, depths), cam.deproject(uv, depths.astype(float)))
        assert np.array_equal(cam.deproject(Pixel(1.0, 2.0), depths[0]),
                              cam.deproject(Pixel(1.0, 2.0), float(depths[0])))
        edge = np.float32(MIN_DEPTH)
        for depth in (np.nextafter(edge, np.float32(0)), edge, np.nextafter(edge, np.float32(1))):
            z = np.array([1.0, depth], dtype=np.float32)
            if float(depth) <= MIN_DEPTH:
                with pytest.raises(ScanlocError, match="depth must be positive, got "):
                    cam.deproject(uv[:2], z)
            else:
                assert np.array_equal(cam.deproject(uv[:2], z), cam.deproject(uv[:2], z.astype(float)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(bound=st.floats(1e-12, 20.0), steps=st.lists(st.integers(-3, 3), min_size=1))
    def test_float32_bound_compares_as_the_float64_bound(self, bound, steps):
        """Against `_floor_in`, a float32 compares bitwise as its upcast does
        against the float64 bound, whichever way the bound rounds to float32."""
        lo = _floor_in(np.dtype(np.float32), bound)
        assert lo.dtype == np.float32 and float(lo) <= bound < float(np.nextafter(lo, np.inf))
        values = np.array([np.float32(bound)] * len(steps), dtype=np.float32)
        for i, step in enumerate(steps):
            for _ in range(abs(step)):
                values[i] = np.nextafter(values[i], np.float32(np.sign(step) * np.inf))
        upcast = values.astype(np.float64)
        assert np.array_equal(values > lo, upcast > bound)
        assert np.array_equal(values <= lo, upcast <= bound)
        assert _floor_in(np.dtype(np.float64), bound) == bound

    def test_project_points_rows_equal_project_bitwise(self):
        # straight-down and general poses, as in the deproject test above
        rng = np.random.default_rng(15)
        for k in range(20):
            centre = rng.uniform(-1, 1, 3) + [0, 0, 2]
            target = centre - [0, 0, 1] if k % 2 else rng.uniform(-0.3, 0.3, 3)
            cam = look_at_camera(centre, target)
            points = rng.uniform(-0.4, 0.4, (50, 3))
            many = cam.project_points(points)
            assert many.shape == (50, 2)
            each = np.array([cam.project(point) for point in points])
            assert many.tobytes() == each.tobytes()

    def test_project_points_gives_nan_behind_the_camera(self):
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        uv = cam.project_points([[0.1, -0.2, 2.0], [0, 0, -1.0], [0.3, 0.1, 0.0]])
        assert uv[0].tolist() == [345.0, 190.0]
        assert np.isnan(uv[1:]).all()

    def test_contains_one_pixel_or_many(self):
        cam = PinholeCamera(500, 500, 320, 240, 640, 480, RigidTransform.identity())
        uv = np.array([[0, 0], [639.5, 479.5], [640, 10], [10, -0.5], [np.nan, 10], [10, 240]])
        assert cam.contains(uv).tolist() == [True, True, False, False, False, True]
        assert cam.contains(Pixel(639.5, 0.0)) is True
        assert cam.contains(Pixel(float("nan"), 0.0)) is False

    def test_camera_dict_round_trip(self):
        cam = look_at_camera([0.15, 0.3, 1.0], [0, 0.3, 0.1])
        back = PinholeCamera.from_dict(cam.to_dict())
        assert (back.fx, back.fy, back.cx, back.cy) == (cam.fx, cam.fy, cam.cx, cam.cy)
        assert (back.width, back.height) == (cam.width, cam.height)
        assert np.array_equal(back.pose.rotation, cam.pose.rotation)
        assert np.array_equal(back.pose.translation, cam.pose.translation)


def random_camera(rng) -> PinholeCamera:
    """A camera at a uniformly random rotation, with random intrinsics."""
    fx, fy = rng.uniform(200, 900, 2)
    return PinholeCamera(fx, fy, rng.uniform(100, 540), rng.uniform(80, 400), 640, 480,
                         random_transform(rng, trans_scale=2))


def batched_transform(points, transform: RigidTransform) -> np.ndarray:
    """The (N, 3) batched expression the rows transform replaces: one matmul
    against the transposed rotation (a lone point taken from a two-row batch),
    then the translation broadcast over rows."""
    return batched_rotation(points, transform.rotation) + transform.translation


def rows_transform_case(n: int, rng):
    """A random camera, n base-frame points, n pixels and n depths."""
    cam = random_camera(rng)
    points = rng.uniform(-2, 2, (n, 3))
    uv = np.column_stack([rng.uniform(0, 640, n), rng.uniform(0, 480, n)])
    return cam, points, uv, rng.uniform(0.1, 5.0, n)


ROWS_CASES = [pytest.param(n, rotations, id=f"n{n}")
              for n, rotations in ((1, 400), (2, 400), (3, 400), (50, 200), (80_000, 12))]


class TestRowsTransform:
    """`RigidTransform.apply_rows` (`R @ rows`, then the translation row by
    row) against the (N, 3) expression it replaced, bit for bit: every batched
    transform in the camera model goes through it."""

    @pytest.mark.parametrize("n, rotations", ROWS_CASES)
    def test_apply_equals_points_times_rotation_transposed(self, n, rotations):
        rng = np.random.default_rng(1000 + n)
        for _ in range(rotations):
            cam, points, _, _ = rows_transform_case(n, rng)
            got = cam.pose.apply(points)
            assert got.shape == (n, 3)
            assert got.tobytes() == batched_transform(points, cam.pose).tobytes()
            rows = np.ascontiguousarray(points.T)
            assert cam.pose.apply_rows(rows).T.tobytes() == got.tobytes()

    @pytest.mark.parametrize("n, rotations", ROWS_CASES)
    def test_deproject_equals_the_pinhole_formula_then_the_batch(self, n, rotations):
        rng = np.random.default_rng(2000 + n)
        for _ in range(rotations):
            cam, _, uv, z = rows_transform_case(n, rng)
            p_cam = np.column_stack([(uv[:, 0] - cam.cx) * z / cam.fx,
                                     (uv[:, 1] - cam.cy) * z / cam.fy, z])
            want = batched_transform(p_cam, cam.pose).tobytes()
            assert cam.deproject(uv, z).tobytes() == want
            out = np.full((3, n + 4), np.nan)
            cam.deproject((uv[:, 0], uv[:, 1]), z, out=out[:, 2:n + 2])
            assert out[:, 2:n + 2].T.tobytes() == want
            assert np.isnan(out[:, [0, 1, -2, -1]]).all()

    @pytest.mark.parametrize("n, rotations", ROWS_CASES)
    def test_project_points_equals_the_batch_then_the_pinhole_formula(self, n, rotations):
        rng = np.random.default_rng(3000 + n)
        for _ in range(rotations):
            cam, points, _, _ = rows_transform_case(n, rng)
            p_cam = batched_transform(points, cam.pose.inverse())
            z = np.where(p_cam[:, 2] > MIN_DEPTH, p_cam[:, 2], np.nan)
            want = np.column_stack([cam.fx * p_cam[:, 0] / z + cam.cx,
                                    cam.fy * p_cam[:, 1] / z + cam.cy])
            assert cam.project_points(points).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, rotations", ROWS_CASES)
    def test_pixel_rays_equal_directions_times_rotation_transposed(self, n, rotations):
        rng = np.random.default_rng(4000 + n)
        for _ in range(rotations):
            cam, _, uv, _ = rows_transform_case(n, rng)
            dirs = np.column_stack([(uv[:, 0] - cam.cx) / cam.fx,
                                    (uv[:, 1] - cam.cy) / cam.fy, np.ones(n)])
            origin, got = cam.pixel_rays(uv)
            assert origin.tobytes() == cam.pose.translation.tobytes()
            assert got.tobytes() == batched_rotation(dirs, cam.pose.rotation).tobytes()

    def test_one_point_equals_its_row_of_a_batch(self):
        """A point (3,) and a pixel at a scalar depth transform to the bits of
        their row of the batched expression, at a general pose."""
        rng = np.random.default_rng(5000)
        for _ in range(400):
            cam, points, uv, z = rows_transform_case(2, rng)
            point, pixel, depth = points[0], uv[0], z[0]
            assert cam.pose.apply(point).tobytes() == batched_transform(points, cam.pose)[0].tobytes()
            p_cam = np.column_stack([(uv[:, 0] - cam.cx) * z / cam.fx,
                                     (uv[:, 1] - cam.cy) * z / cam.fy, z])
            want = batched_transform(p_cam, cam.pose)[0].tobytes()
            assert cam.deproject(Pixel(*pixel), depth).tobytes() == want

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), data=st.data())
    def test_a_point_alone_equals_its_row_of_any_batch(self, seed, n, data):
        """`apply`, `deproject`, `project_points` and `pixel_rays` give point i
        of a batch of 1 to 8 the bits they give it alone, at a random pose."""
        cam, points, uv, z = rows_transform_case(n, np.random.default_rng(seed))
        i = data.draw(st.integers(0, n - 1), label="i")
        assert cam.pose.apply(points)[i].tobytes() == cam.pose.apply(points[i]).tobytes()
        world = cam.deproject(uv, z)
        assert world[i].tobytes() == cam.deproject(Pixel(*uv[i]), z[i]).tobytes()
        pixels = cam.project_points(world)
        assert not np.isnan(pixels).any()
        assert pixels[i].tobytes() == cam.project_points(world[i]).tobytes()
        assert cam.pixel_rays(uv)[1][i].tobytes() == cam.pixel_rays(uv[i:i + 1])[1][0].tobytes()


def lone_dlt(camera_a, camera_b, pixel_a, pixel_b) -> np.ndarray:
    """One pixel pair's DLT written out: its 4x4 system, one `svd`, and the
    last right singular vector dehomogenized."""
    rows = []
    for camera, pixel in ((camera_a, pixel_a), (camera_b, pixel_b)):
        p = camera.projection_matrix()
        rows.append(pixel.u * p[2] - p[0])
        rows.append(pixel.v * p[2] - p[1])
    hom = np.linalg.svd(np.asarray(rows))[2][-1]
    return hom[:3] / hom[3]


@st.composite
def two_view_pixels(draw):
    """The default rig, or two look-at cameras above a random point, and 1 to
    8 pixel pairs drawn anywhere in their images."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="default rig"):
        cameras = default_cameras(TorsoSpec())
    else:
        aim = rng.uniform(-0.3, 0.3, 3)
        cameras = tuple(look_at_camera(aim + rng.uniform([-1, -1, 0.3], [1, 1, 1.5]), aim)
                        for _ in range(2))
    n = draw(st.integers(1, 8), label="n")
    return cameras, [rng.uniform(0, [cam.width, cam.height], (n, 2)) for cam in cameras]


class TestTriangulation:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(21)
        cam_a, cam_b = two_view_rig(height=1.1, target_height=0.1)
        for _ in range(100):
            truth = np.array([0, 0.25, 0.1]) + rng.uniform(-0.15, 0.15, 3)
            est = triangulate(cam_a, cam_b, cam_a.project(truth), cam_b.project(truth))
            assert np.linalg.norm(est - truth) < 1e-7

    def test_point_one_meter_out(self):
        cam_a, cam_b = two_view_rig(height=1.1, target_height=0.1)
        truth = np.array([0.0, 0.25, 0.1])  # ~1 m from both cameras
        est = triangulate(cam_a, cam_b, cam_a.project(truth), cam_b.project(truth))
        assert np.linalg.norm(est - truth) < 1e-7

    def test_noisy_matches_grid_search_oracle(self):
        """Under 1 px noise the DLT lands within 2x of the brute-force optimum.

        The oracle scans a 10 cm cube around the true point at 1 mm steps and
        picks the cell minimizing the summed reprojection distance in both
        views, using the longhand projection transcription.
        """
        rng = np.random.default_rng(22)
        cam_a, cam_b = two_view_rig(height=1.1, target_height=0.1)
        truth = np.array([0.02, 0.3, 0.12])
        pix_a = cam_a.project(truth)
        pix_b = cam_b.project(truth)
        noisy_a = Pixel(*(np.array(pix_a) + rng.normal(0, 1.0, 2)))
        noisy_b = Pixel(*(np.array(pix_b) + rng.normal(0, 1.0, 2)))

        est = triangulate(cam_a, cam_b, noisy_a, noisy_b)

        steps = np.arange(-0.05, 0.05 + 1e-9, 0.001)
        gx, gy, gz = np.meshgrid(steps, steps, steps, indexing="ij")
        grid = truth + np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        total = np.zeros(len(grid))
        for cam, noisy in ((cam_a, noisy_a), (cam_b, noisy_b)):
            r, t = cam.pose.rotation, cam.pose.translation
            p_cam = (grid - t) @ r
            u = cam.fx * p_cam[:, 0] / p_cam[:, 2] + cam.cx
            v = cam.fy * p_cam[:, 1] / p_cam[:, 2] + cam.cy
            total += np.hypot(u - noisy.u, v - noisy.v)
        oracle = grid[np.argmin(total)]

        dlt_err = np.linalg.norm(est - truth)
        oracle_err = np.linalg.norm(oracle - truth)
        assert dlt_err <= 2.0 * oracle_err

    def test_coincident_cameras_rejected(self):
        cam = look_at_camera([0, 0.25, 1.1], [0, 0.25, 0.1])
        with pytest.raises(ScanlocError, match="camera centers are 0.00e\\+00 m apart"):
            triangulate(cam, cam, Pixel(320, 240), Pixel(321, 240))

    def test_parallel_rays_rejected(self):
        # identical orientation, offset along the optical axis, same pixel
        cam_a, cam_b = translated_pair([0.0, 0.0, -0.5])
        with pytest.raises(ScanlocError, match="viewing rays are parallel"):
            triangulate(cam_a, cam_b, Pixel(100, 200), Pixel(100, 200))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=two_view_pixels())
    def test_a_stack_has_the_bits_of_each_pair_alone(self, case):
        """N pairs in one call give, row for row, the bits of N one-pair
        calls and of the one-pair DLT written out, as (N, 2) arrays and as
        tuples (u, v)."""
        (cam_a, cam_b), (pixels_a, pixels_b) = case
        pairs = [(Pixel(*a), Pixel(*b)) for a, b in zip(pixels_a.tolist(), pixels_b.tolist())]
        stacked = triangulate(cam_a, cam_b, pixels_a, pixels_b)
        assert stacked.shape == (len(pairs), 3)
        bits = stacked.view(np.uint64).tolist()
        alone = np.array([triangulate(cam_a, cam_b, *pair) for pair in pairs])
        assert bits == alone.view(np.uint64).tolist()
        assert bits == np.array([lone_dlt(cam_a, cam_b, *pair) for pair in pairs]
                                ).view(np.uint64).tolist()
        as_tuples = triangulate(cam_a, cam_b, tuple(pixels_a.T), tuple(pixels_b.T))
        assert as_tuples.view(np.uint64).tolist() == bits

    def test_a_stack_with_a_parallel_pair_is_refused(self):
        cam_a, cam_b = translated_pair([0.0, 0.0, -0.5])
        truth = np.array([0.05, 0.02, 1.0])
        seen = [cam_a.project(truth), cam_b.project(truth)]
        assert np.linalg.norm(triangulate(cam_a, cam_b, *seen) - truth) < 1e-9
        with pytest.raises(ScanlocError, match="viewing rays are parallel"):
            triangulate(cam_a, cam_b, np.array([seen[0], (100.0, 200.0)]),
                        np.array([seen[1], (100.0, 200.0)]))

    def test_the_first_failing_pair_is_the_one_reported(self):
        """Cameras 1000 km apart: pixels 1e-5 px apart meet about 6e13 m out,
        at infinity to the DLT, and one pixel in both is parallel rays."""
        cam_a, cam_b = translated_pair([1e6, 0.0, 0.0])
        far = ((300.0, 200.0), (300.00001, 200.0))
        parallel = ((100.0, 200.0), (100.0, 200.0))
        with pytest.raises(ScanlocError, match="triangulated point is at infinity"):
            triangulate(cam_a, cam_b, Pixel(*far[0]), Pixel(*far[1]))
        for first, second, message in ((far, parallel, "at infinity"),
                                       (parallel, far, "viewing rays are parallel")):
            with pytest.raises(ScanlocError, match=message):
                triangulate(cam_a, cam_b, *(np.array(view) for view in zip(first, second)))

    def test_pixels_of_unmatched_shapes_are_refused(self):
        cam_a, cam_b = two_view_rig()
        grid = (np.zeros((2, 2)), np.zeros((2, 2)))  # a tuple (u, v) of 2-D parts
        for pixels_a, pixels_b in ((np.zeros((2, 2)), np.zeros((3, 2))),
                                   (np.zeros((2, 2)), Pixel(1.0, 2.0)),
                                   (grid, grid)):
            with pytest.raises(ConfigError, match="one pixel pair or N pairs"):
                triangulate(cam_a, cam_b, pixels_a, pixels_b)
