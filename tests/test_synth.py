"""Synthetic scene generator: analytic surface, raycasting, noise, cohorts."""

import filecmp
import json
import re
import tracemalloc
import warnings
from dataclasses import astuple, fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scanloc import synth
from scanloc.cloud import DepthMap, fuse
from scanloc.errors import ConfigError, MalformedFileError, ScanlocError
from scanloc.evaluation import loocv, scene_cloud
from scanloc.geometry import PinholeCamera, RigidTransform, angle_between_degrees
from scanloc.synth import (
    DEFAULT_TORSO_RANGES,
    RIG_IMAGE_SIZE,
    NoiseSpec,
    SyntheticScene,
    TorsoSpec,
    _exact_pixels,
    default_cameras,
    default_ratios,
    generate_cohort,
    generate_scene,
    load_scene,
    raycast_depth,
    save_cohort,
    save_scene,
    scene_directories,
)
from scanloc.targets import (
    RIGHT_HIP,
    FitDataset,
    FitSample,
    Keypoints3D,
    RatioPair,
    TargetModelParams,
    _pixel_in_view,
    fit_front,
    fit_side,
    localize,
    triangulate_joints,
)

from helpers import (
    banded_raycast,
    full_image_raycast,
    full_image_roots,
    get_path,
    look_at_camera,
    observed_depth,
    pixel_ray_grid,
    small_cameras,
    spoil_a_number,
)

TORSO = TorsoSpec()
RATIOS = default_ratios()


def oracle_ray_depths(camera, torso, pixel_indices):
    """Per-pixel surface intersection via polynomial root-finding.

    Builds the quadratic by polynomial multiplication and solves it with
    np.roots (an eigenvalue method), sharing no arithmetic with the
    library's closed-form solve.
    """
    origins, dirs = pixel_ray_grid(camera)
    a, c, h = torso.half_width, torso.thickness, torso.base_height
    out = np.zeros(len(pixel_indices))
    for row, flat in enumerate(pixel_indices):
        d = dirs.reshape(-1, 3)[flat]
        px = np.array([d[0], origins[0]])
        pz = np.array([d[2], origins[2] - h])
        poly = np.polymul(px, px) / a**2 + np.polymul(pz, pz) / c**2 - np.array([0, 0, 1.0])
        best = np.inf
        for root in np.roots(poly):
            if abs(root.imag) > 1e-9:
                continue
            t = root.real
            z = origins[2] + t * d[2]
            y = origins[1] + t * d[1]
            if t > 1e-9 and z >= h - 1e-12 and 0 <= y <= torso.length:
                best = min(best, t)
        out[row] = 0.0 if np.isinf(best) else best
    return out


class TestTorsoSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TorsoSpec(half_width=-0.1)
        with pytest.raises(ConfigError):
            TorsoSpec(shoulder_span=0.4, half_width=0.17)  # wider than the torso
        with pytest.raises(ConfigError):
            TorsoSpec(shoulder_offset=0.5, hip_offset=0.4)
        with pytest.raises(ConfigError):
            TorsoSpec(hip_offset=0.7, length=0.55)

    @pytest.mark.parametrize("name, value", [
        ("half_width", float("nan")), ("base_height", float("inf")),
        ("half_width", True), ("thickness", "0.1"), ("length", None),
    ])
    def test_every_field_must_be_a_finite_number(self, name, value):
        with pytest.raises(ConfigError, match=f"torso {name} must be a finite number"):
            TorsoSpec(**{name: value})

    def test_surface_height_profile(self):
        t = TORSO
        assert t.surface_height(0.0, 0.2) == pytest.approx(t.base_height + t.thickness)
        assert t.surface_height(t.half_width, 0.2) == pytest.approx(t.base_height)
        assert np.isnan(t.surface_height(t.half_width + 0.01, 0.2))
        assert np.isnan(t.surface_height(0.0, -0.01))
        assert np.isnan(t.surface_height(0.0, t.length + 0.01))

    def test_surface_normals_match_finite_differences(self):
        rng = np.random.default_rng(18)
        xs = rng.uniform(-0.9 * TORSO.half_width, 0.9 * TORSO.half_width, 50)
        ys = rng.uniform(0.05, TORSO.length - 0.05, 50)
        h = 1e-6
        for x, y in zip(xs, ys):
            n = TORSO.surface_normal(x, y)
            slope = (TORSO.surface_height(x + h, y) - TORSO.surface_height(x - h, y)) / (2 * h)
            tangent = np.array([1.0, 0.0, slope])
            assert abs(np.linalg.norm(n) - 1) < 1e-12
            assert n[1] == 0.0
            assert n[2] > 0
            assert abs(np.dot(n, tangent)) < 1e-6
            assert abs(np.dot(n, [0.0, 1.0, 0.0])) == 0.0


class TestRaycast:
    def test_matches_root_finding_oracle(self):
        cam = default_cameras(TORSO)[0]
        depth = banded_raycast(cam, TORSO)
        rng = np.random.default_rng(77)
        flat = rng.choice(cam.width * cam.height, size=400, replace=False)
        want = oracle_ray_depths(cam, TORSO, flat)
        got = depth.ravel()[flat]
        assert np.allclose(got, want, atol=1e-9)
        assert (want > 0).sum() > 50  # the sample covers hits
        assert (want == 0).sum() > 50  # and misses

    def test_deprojected_hits_lie_on_surface(self):
        # depth is camera-frame Z: deprojecting (pixel, depth) must land on
        # the analytic surface, inside the torso's Y extent
        from scanloc.geometry import Pixel

        cam = default_cameras(TORSO)[1]
        depth = banded_raycast(cam, TORSO)
        vidx = np.flatnonzero(depth.ravel() > 0)
        rng = np.random.default_rng(78)
        for flat in rng.choice(vidx, size=300, replace=False):
            v, u = divmod(int(flat), cam.width)
            point = cam.deproject(Pixel(float(u), float(v)), depth[v, u])
            f = (point[0] / TORSO.half_width) ** 2 + (
                (point[2] - TORSO.base_height) / TORSO.thickness
            ) ** 2
            assert abs(f - 1.0) < 1e-9
            assert -1e-9 <= point[1] <= TORSO.length + 1e-9
            assert point[2] >= TORSO.base_height - 1e-9

    def test_misses_are_zero_outside_footprint(self):
        cam = default_cameras(TORSO)[0]
        depth = raycast_depth(cam, TORSO, 0.0, None)
        assert depth.values[0, 0] == 0.0  # image corner looks past the torso
        assert depth.valid_mask.sum() > 10000


def _box_corner_depths(camera, torso):
    """Camera-frame depths of the 8 corners of the torso's bounding box."""
    a, c, h = torso.half_width, torso.thickness, torso.base_height
    box = [[x, y, z] for x in (-a, a) for y in (0.0, torso.length) for z in (h, h + c)]
    return camera.pose.inverse().apply(np.array(box))[:, 2]


def assert_same_bits(camera, torso):
    got = banded_raycast(camera, torso)
    want = full_image_raycast(camera, torso)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


class TestCulledRaycast:
    """The culled cast against the one-ray-per-pixel oracle, bit for bit."""

    @pytest.mark.parametrize("pose_kind", ["front", "side"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cohort_views(self, seed, pose_kind):
        for scene in generate_cohort(3, pose_kind=pose_kind, seed=seed):
            for camera in scene.cameras:
                assert assert_same_bits(camera, scene.torso).any()

    def test_partial_view_clips_rectangle_at_image_edge(self):
        camera = look_at_camera([0.3, 0.0, 0.6], [0.25, -0.05, 0.05])
        depth = assert_same_bits(camera, TORSO)
        assert np.all(_box_corner_depths(camera, TORSO) > 0)
        # the torso runs off the right and bottom edges and leaves misses
        assert (depth[:, -1] > 0).any() and (depth[-1] > 0).any()
        assert (depth == 0).mean() > 0.5

    def test_box_corner_behind_camera_casts_whole_image(self):
        camera = look_at_camera([0.0, 0.3, 0.12], [0.0, 0.6, 0.1])
        assert _box_corner_depths(camera, TORSO).min() < 0
        assert assert_same_bits(camera, TORSO).any()

    def test_camera_missing_the_box_renders_zeros(self):
        camera = look_at_camera([2.0, 0.3, 1.0], [2.0, 0.35, 0.0])
        assert np.all(_box_corner_depths(camera, TORSO) > 0)
        assert not assert_same_bits(camera, TORSO).any()


def solver_calls(monkeypatch):
    """The shape of the rays of each call of `synth._roots`, the one root
    solver of `raycast_depth`, in a list that grows as casts run.  The
    column path solves one (cols,) image row per cast, the band path one
    (band_rows, cols) band per band."""
    calls = []
    roots = synth._roots

    def counted(origin, dx, dz, qc, torso):
        calls.append(np.shape(dx))
        return roots(origin, dx, dz, qc, torso)

    monkeypatch.setattr(synth, "_roots", counted)
    return calls


def assert_one_solve_per_band(camera, calls, tile):
    """One cast's solver `calls` solved a Y-aligned camera's rays once, as
    one image row, and any other camera's once per band of whole image
    rows, as many bands as `raycast_depth` cuts its rectangle into for
    `tile` rays a band."""
    if y_aligned(camera):
        assert [len(shape) for shape in calls] == [1]
        return
    assert calls and all(len(shape) == 2 and shape[1] == calls[0][1] for shape in calls)
    rows, cols = sum(shape[0] for shape in calls), calls[0][1]
    assert len(calls) == max(1, min(-(-rows * cols // tile), rows))


def flipped(camera):
    """`camera` turned half a turn about its optical axis: image v runs
    along world -Y, so R[1,1] == -1."""
    pose = RigidTransform(camera.pose.rotation * [-1.0, -1.0, 1.0], camera.pose.translation)
    return replace(camera, pose=pose)


def y_aligned(camera):
    """Whether `raycast_depth` takes the column path: image v runs along world ±Y."""
    r = camera.pose.rotation
    return r[0, 1] == r[2, 1] == r[1, 0] == r[1, 2] == 0


def column_aligned(camera):
    return y_aligned(camera) and abs(camera.pose.rotation[1, 1]) == 1


def rolled(camera, angle):
    """`camera` turned by `angle` radians about its optical axis."""
    turn = np.array([[np.cos(angle), -np.sin(angle), 0.0],
                     [np.sin(angle), np.cos(angle), 0.0],
                     [0.0, 0.0, 1.0]])
    return replace(camera, pose=RigidTransform(camera.pose.rotation @ turn,
                                               camera.pose.translation))


def draw_raycast_case(data, tilted):
    """A torso from `DEFAULT_TORSO_RANGES` and a camera at a random position,
    height, focal length and image size, looking at a random target near the
    torso.  A Y-aligned camera's target is at the camera's Y, and half of
    them are flipped; a tilted camera's target is at any Y and the camera
    is rolled about its optical axis."""
    torso = TorsoSpec(**{name: data.draw(st.floats(lo, hi), label=name)
                         for name, (lo, hi) in DEFAULT_TORSO_RANGES.items()})
    y = data.draw(st.floats(-0.3, 0.9), label="camera y")
    center = [data.draw(st.floats(-0.8, 0.8), label="camera x"), y,
              data.draw(st.floats(0.0, 1.5), label="camera height")]
    target = [data.draw(st.floats(-0.2, 0.2), label="target x"), y,
              data.draw(st.floats(0.0, 0.2), label="target height")]
    if np.hypot(center[0] - target[0], center[2] - target[2]) < 1e-3:
        target[2] = center[2] - 0.1
    if tilted:
        target[1] = data.draw(st.floats(-0.3, 0.9), label="target y")
    camera = look_at_camera(center, target, fx=data.draw(st.floats(40.0, 600.0), label="fx"),
                            width=data.draw(st.integers(1, 160), label="width"),
                            height=data.draw(st.integers(1, 120), label="height"))
    if tilted:
        return torso, rolled(camera, data.draw(st.floats(0.05, 2 * np.pi - 0.05), label="roll"))
    if data.draw(st.booleans(), label="flipped"):
        camera = flipped(camera)
    return torso, camera


# a Y-aligned camera with a box corner behind it: its rectangle is the image
WHOLE_IMAGE_COLUMN_CAMERA = look_at_camera([0.1, 0.3, 0.2], [-0.1, 0.3, 0.05])

# a tilted rig: both views see the whole torso and take the band path
TILTED_CAMERAS = (look_at_camera([-0.15, 0.2, 1.0], [0.0, 0.3, 0.1]),
                  look_at_camera([0.15, 0.35, 1.0], [0.0, 0.25, 0.1]))

# views whose images mix near-root and far-root hits; default rig views take
# only the near root
MIXED_ROOT_CAMERAS = [
    look_at_camera([0.0, -0.2, 0.3], [0.0, 0.3, 0.05]),
    look_at_camera([0.4, 0.3, 0.02], [0.0, 0.3, 0.1]),
]


@pytest.fixture(scope="module")
def band_cases():
    """(camera, torso, full-image depth) for `TestCulledRaycast`'s cameras
    (the seed-0 cohort views and the three placed ones) and the mixed-root ones."""
    cases = [(camera, scene.torso) for pose_kind in ("front", "side")
             for scene in generate_cohort(3, pose_kind=pose_kind, seed=0)
             for camera in scene.cameras]
    placed = [look_at_camera([0.3, 0.0, 0.6], [0.25, -0.05, 0.05]),
              look_at_camera([0.0, 0.3, 0.12], [0.0, 0.6, 0.1]),
              look_at_camera([2.0, 0.3, 1.0], [2.0, 0.35, 0.0])]
    cases += [(camera, TORSO) for camera in placed + MIXED_ROOT_CAMERAS]
    return [(camera, torso, full_image_raycast(camera, torso)) for camera, torso in cases]


class TestBandedRaycast:
    """Bands of any size cast the bits of one ray per pixel of the whole image."""

    @pytest.mark.parametrize("tile", [1, 2, 3, 7, 640, 641])
    def test_any_band_size_matches_full_image(self, tile, band_cases, monkeypatch):
        """Under warnings as errors: the masked solve never divides by a zero
        qa or takes the square root of a negative discriminant."""
        monkeypatch.setattr(synth, "_TILE_RAYS", tile)
        calls = solver_calls(monkeypatch)
        for camera, torso, want in band_cases:
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = banded_raycast(camera, torso)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert_one_solve_per_band(camera, calls, tile)
        # the sweep bands both paths: the Y-aligned cameras and the tilted ones
        aligned = [y_aligned(camera) for camera, _, _ in band_cases]
        assert any(aligned) and not all(aligned)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_tilted_cameras_match_full_image(self, data):
        torso, camera = draw_raycast_case(data, tilted=True)
        assert not y_aligned(camera)
        assert_same_bits(camera, torso)

    @pytest.mark.parametrize("camera", MIXED_ROOT_CAMERAS)
    def test_views_mixing_near_and_far_root_hits(self, camera):
        _, ok = full_image_roots(camera, TORSO)
        near, far = ok[:, 0], ok[:, 1] & ~ok[:, 0]
        assert near.sum() > 1000 and far.sum() > 100
        assert assert_same_bits(camera, TORSO).any()

    @pytest.mark.parametrize("width, height", [(1, 1), (1, 2), (1, 5), (2, 3), (640, 480)])
    def test_no_band_casts_a_single_ray(self, width, height, monkeypatch):
        """With one ray per band asked for, each band still casts whole image
        rows, so two rays or more unless the image is one pixel wide, and
        every depth has the bits of the full-image cast.  The camera looking
        straight down takes the column path, which casts the rectangle's top
        row and left column; the tilted one takes the band path."""
        monkeypatch.setattr(synth, "_TILE_RAYS", 1)
        for target_y in (0.3, 0.35):
            camera = look_at_camera([0.0, 0.3, 1.0], [0.0, target_y, 0.1],
                                    width=width, height=height)
            want = full_image_raycast(camera, TORSO)
            sizes = []
            pixel_rays = PinholeCamera.pixel_rays

            def counting_rays(self, uv):
                sizes.append(len(uv[0]))
                return pixel_rays(self, uv)

            with monkeypatch.context() as patch:
                patch.setattr(PinholeCamera, "pixel_rays", counting_rays)
                got = banded_raycast(camera, TORSO)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)) and got.any()
            assert min(sizes) >= min(2, width)

    @pytest.mark.parametrize("pose_kind", ["front", "side"])
    def test_peak_memory_is_about_two_images(self, pose_kind):
        """One call holds at most its float32 map and 1 MiB of band
        temporaries at once, about two maps and less than one image of 8 B
        per pixel, with depth noise or without, on either path: the cohort's
        views and a Y-aligned camera whose rectangle is the whole image take
        the column path, and a tilted camera the band path."""
        assert _box_corner_depths(WHOLE_IMAGE_COLUMN_CAMERA, TORSO).min() < 0
        views = [(camera, scene.torso)
                 for scene in generate_cohort(2, pose_kind=pose_kind, seed=5)
                 for camera in scene.cameras]
        views += [(WHOLE_IMAGE_COLUMN_CAMERA, TORSO), (TILTED_CAMERAS[0], TORSO)]
        for camera, torso in views:
            pixels = camera.width * camera.height
            for sigma in (0.0, 0.005):
                rng = np.random.default_rng(5)
                tracemalloc.start()
                try:
                    raycast_depth(camera, torso, sigma, rng)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 4 * pixels + 2**20, f"peak {peak / pixels:.2f} B per pixel"
                assert peak < 8 * pixels

    def test_the_depth_map_takes_the_cast_image(self):
        """The returned `DepthMap` holds the float32 map the bands were
        rounded into, not a copy: a call peaks at the map and its band
        temporaries, well under the map and a copy of it."""
        for scene in generate_cohort(2, pose_kind="side", seed=5):
            for camera in scene.cameras:
                image = 4 * camera.width * camera.height
                tracemalloc.start()
                try:
                    depth = raycast_depth(camera, scene.torso, 0.0, None)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert depth.values.dtype == np.float32 and not depth.values.flags.writeable
                assert peak <= image + 2**19, f"peak {peak / image:.2f}x the map"


class TestObservedDepth:
    """A generated depth map has the bits of the whole-image oracle: the
    one-ray-per-pixel cast rounded to float32, its noise drawn at once over
    the image's valid pixels."""

    @pytest.fixture(scope="class")
    def casts(self):
        """The whole-image float64 cast of each view of a one-scene cohort,
        by pose kind and rig: the default rig, whose views take the column
        path, and `TILTED_CAMERAS`, whose views take the band path."""
        return {(pose_kind, rig): [full_image_raycast(camera, scene.torso)
                                   for camera in scene.cameras]
                for pose_kind in ("front", "side")
                for rig, cameras in (("rig", None), ("tilted", TILTED_CAMERAS))
                for scene in generate_cohort(1, pose_kind=pose_kind, seed=8, cameras=cameras)}

    @pytest.mark.parametrize("tile", [1, 7, synth._TILE_RAYS])
    def test_generated_depth_maps_match_the_oracle(self, tile, casts, monkeypatch):
        """Each band draws its own share of the view's noise: with one or
        seven rays a band, a view's draw is split across hundreds of bands."""
        monkeypatch.setattr(synth, "_TILE_RAYS", tile)
        for kp_sigma, depth_sigma in [(0.0, 0.0), (1.0, 0.002), (2.0, 0.005)]:
            noise = NoiseSpec(keypoint_sigma_px=kp_sigma, depth_sigma_m=depth_sigma)
            for (pose_kind, rig), views in casts.items():
                (scene,) = generate_cohort(1, pose_kind=pose_kind, seed=8, noise=noise,
                                           cameras=TILTED_CAMERAS if rig == "tilted" else None)
                assert all(y_aligned(camera) == (rig == "rig") for camera in scene.cameras)
                streams = np.random.SeedSequence(scene.noise.seed).spawn(5)[3:]
                for cast, depth, stream in zip(views, scene.depths, streams):
                    want = observed_depth(cast, depth_sigma, np.random.default_rng(stream))
                    assert depth.values.dtype == np.float32
                    assert np.array_equal(depth.values.view(np.uint32), want.view(np.uint32))
                    assert depth.valid_mask.sum() > 10000


class TestColumnRaycast:
    """Cameras whose image v axis is world +Y or -Y take the column path; it
    casts the bits of one ray per pixel of the whole image."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_y_aligned_cameras_match_full_image(self, data):
        torso, camera = draw_raycast_case(data, tilted=False)
        assert column_aligned(camera)
        assert_same_bits(camera, torso)

    @pytest.mark.parametrize("turn", [lambda camera: camera, flipped], ids=["upright", "flipped"])
    def test_placed_cameras(self, turn, monkeypatch):
        calls = solver_calls(monkeypatch)
        clipped = turn(look_at_camera([0.3, 0.5, 0.6], [0.25, 0.5, 0.05]))
        depth = assert_same_bits(clipped, TORSO)
        assert np.all(_box_corner_depths(clipped, TORSO) > 0)
        # the torso runs off a side edge and an end edge and leaves misses
        assert (depth[:, 0] > 0).any() + (depth[:, -1] > 0).any() == 1
        assert (depth[0] > 0).any() + (depth[-1] > 0).any() == 1
        assert (depth == 0).mean() > 0.5

        behind = turn(WHOLE_IMAGE_COLUMN_CAMERA)
        assert _box_corner_depths(behind, TORSO).min() < 0
        assert assert_same_bits(behind, TORSO).any()

        missing = turn(look_at_camera([2.0, 0.3, 1.0], [2.0, 0.3, 0.0]))
        assert np.all(_box_corner_depths(missing, TORSO) > 0)
        assert not assert_same_bits(missing, TORSO).any()

        mixed = turn(MIXED_ROOT_CAMERAS[1])
        _, ok = full_image_roots(mixed, TORSO)
        assert ok[:, 0].sum() > 1000 and (ok[:, 1] & ~ok[:, 0]).sum() > 100
        assert assert_same_bits(mixed, TORSO).any()
        assert [len(shape) for shape in calls] == [1] * 4

    def test_every_rig_view_takes_the_column_path(self, monkeypatch):
        calls = solver_calls(monkeypatch)
        views = 0
        for pose_kind in ("front", "side"):
            for scene in generate_cohort(4, pose_kind=pose_kind, seed=3):
                assert all(column_aligned(camera) for camera in scene.cameras)
                views += len(scene.cameras)
        assert [len(shape) for shape in calls] == [1] * views

    def test_a_tilted_camera_takes_the_band_path(self, monkeypatch):
        calls = solver_calls(monkeypatch)
        camera = look_at_camera([0.0, 0.25, 1.0], [0.0, 0.3, 0.1])
        assert not column_aligned(camera)
        assert assert_same_bits(camera, TORSO).any()
        assert len(calls) > 1
        assert_one_solve_per_band(camera, calls, synth._TILE_RAYS)


class TestGenerateScene:
    def test_true_pixels_reproject_exactly(self):
        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), "front")
        for vi, cam in enumerate(scene.cameras):
            for joint, px in scene.keypoint_pixels_true[vi].items():
                want = cam.project(getattr(scene.keypoints_true, joint))
                assert abs(px.u - want.u) < 1e-9
                assert abs(px.v - want.v) < 1e-9
            for tid, px in scene.target_pixels_true[vi].items():
                want = cam.project(scene.targets_true[tid])
                assert abs(px.u - want.u) < 1e-9
                assert abs(px.v - want.v) < 1e-9

    def test_noiseless_observation_equals_true_pixels(self):
        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), "front")
        for vi in (0, 1):
            for joint, px in scene.observation[vi].items():
                true = scene.keypoint_pixels_true[vi][joint]
                assert px == true

    def test_triangulating_true_pixels_recovers_keypoints(self):
        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), "side")
        positions = triangulate_joints(
            scene.cameras[0], scene.cameras[1], scene.observation
        )
        for joint, got in positions.items():
            want = getattr(scene.keypoints_true, joint)
            assert np.linalg.norm(got - want) < 1e-6

    def test_targets_on_surface_with_analytic_normals(self):
        for kind in ("front", "side"):
            scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), kind)
            for tid, point in scene.targets_true.items():
                z = TORSO.surface_height(point[0], point[1])
                assert abs(point[2] - z) < 1e-9
                assert abs(point[0]) < TORSO.half_width
                normal = scene.target_normals_true[tid]
                assert abs(np.linalg.norm(normal) - 1) < 1e-9
                want = TORSO.surface_normal(point[0], point[1])
                assert np.allclose(normal, want, atol=1e-12)

    def test_scene_is_pure_function_of_inputs(self):
        noise = NoiseSpec(keypoint_sigma_px=1.5, depth_sigma_m=0.004, seed=42)
        a = generate_scene(TORSO, RATIOS, None, noise, "front")
        b = generate_scene(TORSO, RATIOS, None, noise, "front")
        for va, vb in zip(a.depths, b.depths):
            assert np.array_equal(va.values, vb.values)
        assert a.observation == b.observation
        assert a.target_pixels_observed == b.target_pixels_observed

    def test_missing_generative_ratios_rejected(self):
        from scanloc.targets import TargetModelParams

        with pytest.raises(ConfigError):
            generate_scene(TORSO, TargetModelParams(front={}), None, NoiseSpec(), "front")
        with pytest.raises(ConfigError):
            generate_scene(TORSO, TargetModelParams(side=None), None, NoiseSpec(), "side")

    def test_exact_pixels_take_the_last_half_column(self):
        # the in-image rule is `contains`, as for an observed joint: u in [width - 1, width)
        cam = look_at_camera([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], fx=500)  # u = 320 - 500 x
        view, _ = _exact_pixels((cam, cam), {RIGHT_HIP: np.array([-0.639, 0.0, 0.0])}, "keypoint")
        pixel = view[RIGHT_HIP]
        assert 639 < pixel.u < 640
        assert _pixel_in_view((view, {}), RIGHT_HIP, 0, cam) == pixel

    def test_camera_missing_torso_rejected(self):
        cams = default_cameras(TORSO)
        from scanloc.geometry import PinholeCamera, RigidTransform

        off_pose = RigidTransform(
            cams[0].pose.rotation, cams[0].pose.translation + np.array([5.0, 0, 0])
        )
        bad = PinholeCamera(
            cams[0].fx, cams[0].fy, cams[0].cx, cams[0].cy,
            cams[0].width, cams[0].height, off_pose,
        )
        with pytest.raises(ScanlocError, match="camera 0 sees only .* of the torso surface"):
            generate_scene(TORSO, RATIOS, (bad, cams[1]), NoiseSpec(), "front")


class TestNoise:
    def test_keypoint_noise_perturbs_observations(self):
        noise = NoiseSpec(keypoint_sigma_px=2.0, seed=9)
        scene = generate_scene(TORSO, RATIOS, None, noise, "front")
        deltas = []
        for vi in (0, 1):
            for joint, px in scene.observation[vi].items():
                true = scene.keypoint_pixels_true[vi][joint]
                deltas.append(np.hypot(px.u - true.u, px.v - true.v))
        deltas = np.array(deltas)
        assert (deltas > 0).all()
        assert deltas.max() < 20  # a few sigma

    def test_depth_noise_only_touches_valid_pixels(self):
        clean = generate_scene(TORSO, RATIOS, None, NoiseSpec(), "front")
        noisy = generate_scene(
            TORSO, RATIOS, None, NoiseSpec(depth_sigma_m=0.005, seed=3), "front"
        )
        for dc, dn in zip(clean.depths, noisy.depths):
            mask = dc.valid_mask
            assert np.array_equal(dn.values[~mask], dc.values[~mask])
            diff = dn.values[mask] - dc.values[mask]
            assert (diff != 0).mean() > 0.99
            assert abs(np.std(diff) - 0.005) < 0.0005

    def test_hip_fault_dropped_branch(self):
        # seed 0 drives the 50/50 branch to "dropped": the hip disappears
        # from both views
        noise = NoiseSpec(fault_prob={"right_hip": 1.0}, seed=0)
        scene = generate_scene(TORSO, RATIOS, None, noise, "side")
        assert scene.faulted_joints == {"right_hip": "dropped"}
        for vi in (0, 1):
            assert "right_hip" not in scene.observation[vi]
            assert "right_shoulder" in scene.observation[vi]

    def test_hip_fault_displaced_branch(self):
        # seed 1 drives the branch to "displaced": present in both views but
        # 50 px away from the truth
        noise = NoiseSpec(fault_prob={"right_hip": 1.0}, seed=1)
        scene = generate_scene(TORSO, RATIOS, None, noise, "side")
        assert scene.faulted_joints == {"right_hip": "displaced"}
        for vi in (0, 1):
            px = scene.observation[vi]["right_hip"]
            true = scene.keypoint_pixels_true[vi]["right_hip"]
            assert abs(np.hypot(px.u - true.u, px.v - true.v) - 50.0) < 1e-9

    def test_zero_fault_probability_never_faults(self):
        for seed in range(5):
            scene = generate_scene(
                TORSO, RATIOS, None, NoiseSpec(fault_prob={"right_hip": 0.0}, seed=seed), "side"
            )
            assert scene.faulted_joints == {}

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(keypoint_sigma_px=-1)
        with pytest.raises(ConfigError):
            NoiseSpec(fault_prob={"left_elbow": 0.5})
        with pytest.raises(ConfigError):
            NoiseSpec(fault_prob={"right_hip": 1.5})
        with pytest.raises(ConfigError, match="noise seed must be >= 0, got -1"):
            NoiseSpec(seed=-1)


class TestCohort:
    def test_degenerate_intervals_give_fixed_spec(self):
        ranges = {name: (val, val) for name, val in TORSO.to_dict().items()}
        scenes = generate_cohort(1, ranges=ranges, seed=5)
        assert scenes[0].torso == TORSO

    def test_deterministic_and_index_addressable(self):
        a = generate_cohort(6, seed=21, pose_kind="side")
        b = generate_cohort(6, seed=21, pose_kind="side")
        for sa, sb in zip(a, b):
            assert sa.torso == sb.torso
            assert sa.noise == sb.noise
            assert np.array_equal(sa.depths[0].values, sb.depths[0].values)
        # scene i depends on (seed, i) alone, not on the cohort size
        short = generate_cohort(4, seed=21, pose_kind="side")[3]
        assert short.torso == a[3].torso
        assert short.noise == a[3].noise
        assert np.array_equal(short.depths[1].values, a[3].depths[1].values)

    def test_cohort_varies_anatomy_not_ratios(self):
        scenes = generate_cohort(5, seed=2, pose_kind="front")
        assert len({s.torso.half_width for s in scenes}) == 5
        assert all(s.ratios == scenes[0].ratios for s in scenes)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigError, match="cohort size must be >= 1, got 0"):
            generate_cohort(0)
        with pytest.raises(ConfigError, match="invalid interval for half_width"):
            generate_cohort(2, ranges={"half_width": (0.2, 0.1)})
        with pytest.raises(ConfigError):
            generate_cohort(2, ranges={"waist": (0.1, 0.2)})
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1"):
            generate_cohort(1, seed=-1)
        # each scene's noise seed is drawn from the cohort seed
        with pytest.raises(ConfigError, match="got noise seed 3"):
            generate_cohort(1, noise=NoiseSpec(depth_sigma_m=0.005, seed=3))

    def test_ratios_must_place_every_target_of_the_pose(self):
        """A cohort refuses what `scanloc synth` refuses: a pose kind that is
        not one, or ratios that leave one of its targets without ground truth."""
        front_only = TargetModelParams(front={1: RatioPair(0.75, 0.2)})
        with pytest.raises(ConfigError,
                           match=r"front scenes need ratios for targets 1 and 2, got \[1\]"):
            generate_cohort(2, ratios=front_only)
        with pytest.raises(ConfigError, match="^side scenes need side ratios$"):
            generate_cohort(2, ratios=front_only, pose_kind="side")
        with pytest.raises(ConfigError, match="pose_kind must be 'front' or 'side', got 'back'"):
            generate_cohort(2, pose_kind="back")

    def test_scalar_range_value_allowed(self):
        scenes = generate_cohort(2, ranges={"base_height": 0.06}, seed=1)
        assert all(s.torso.base_height == 0.06 for s in scenes)

    def test_numpy_scalar_range_values_allowed(self):
        """A bound may be any real number but a boolean, numpy scalars included."""
        ranges = {"base_height": np.float64(0.06), "half_width": (np.float32(0.1875), np.float64(0.2))}
        (scene,) = generate_cohort(1, ranges=ranges, seed=1)
        assert scene.torso.base_height == 0.06 and 0.1875 <= scene.torso.half_width <= 0.2


@pytest.fixture(scope="module")
def json_only_scene(tmp_path_factory):
    """A noisy front scene's directory holding its scene.json and no depth map,
    and that scene.json's text."""
    directory = tmp_path_factory.mktemp("json_only_scene")
    noise = NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002, fault_prob={"right_hip": 0.5},
                      seed=7)
    save_scene(generate_scene(TORSO, RATIOS, small_cameras(), noise, "front"), directory)
    for depth_file in directory.glob("*.pfm"):
        depth_file.unlink()
    return directory, (directory / "scene.json").read_text()


def json_objects(value, path=()):
    """The key paths of every JSON object in the JSON value `value`, itself included."""
    if isinstance(value, dict):
        return [path] + [p for key, item in value.items() for p in json_objects(item, (*path, key))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value) for p in json_objects(item, (*path, i))]
    return []


def same_bits(a, b) -> bool:
    """Whether `a` and `b` hold the same values bit for bit: floats of equal
    bits, arrays of equal dtype, shape and bytes, dicts with equal keys,
    sequences of equal length and dataclasses of one type, recursively."""
    if isinstance(a, float) and isinstance(b, float):
        return float(a).hex() == float(b).hex()
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if is_dataclass(a):
        return all(same_bits(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_bits(a[key], b[key]) for key in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same_bits, a, b))
    return a == b


# the keys of scene.json that may be left out, by the path of their record:
# a joint not detected, a joint not faulted, a joint of fault probability 0,
# and what a params file may leave out of the ratios
OPTIONAL_SCENE_KEYS = {("observation", 0), ("observation", 1), ("faulted_joints",),
                       ("noise", "fault_prob"), ("ratios",), ("ratios", "front")}


class TestSceneIO:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_a_key_left_out_is_refused_before_a_depth_map(self, json_only_scene, data):
        """Any key of scene.json left out, but for OPTIONAL_SCENE_KEYS, fails
        as malformed, naming scene.json, before a depth map is read."""
        directory, text = json_only_scene
        scene = json.loads(text)
        record, key = data.draw(st.sampled_from([
            (record, key) for record in json_objects(scene)
            if record not in OPTIONAL_SCENE_KEYS for key in get_path(scene, record)]), label="key")
        del get_path(scene, record)[key]
        path = directory / "scene.json"
        path.write_text(json.dumps(scene))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            load_scene(directory)

    def test_optional_keys_may_be_left_out(self, tmp_path):
        """An undetected joint, an unfaulted joint, a joint of fault
        probability 0, the ratios' reference_axes and a front scene's side
        ratios may be left out."""
        noise = NoiseSpec(fault_prob={"right_hip": 1.0}, seed=1)
        save_scene(generate_scene(TORSO, RATIOS, small_cameras(), noise, "front"), tmp_path)
        path = tmp_path / "scene.json"
        data = json.loads(path.read_text())
        for record, key in ((data["observation"][1], "left_shoulder"),
                            (data["faulted_joints"], "right_hip"),
                            (data["noise"]["fault_prob"], "right_hip"),
                            (data["ratios"], "reference_axes"),
                            (data["ratios"], "side")):
            del record[key]
        path.write_text(json.dumps(data))
        loaded = load_scene(tmp_path)
        assert loaded.faulted_joints == {} and loaded.noise.fault_prob == {}
        assert "left_shoulder" not in loaded.observation[1]
        assert loaded.ratios.side is None

    @pytest.mark.parametrize("kind, key_path, detail", [
        ("front", ("front",), "front scenes need ratios for targets 1 and 2, got []"),
        ("front", ("front", "2"), "front scenes need ratios for targets 1 and 2, got [1]"),
        ("side", ("side",), "side scenes need side ratios"),
    ], ids=["front-without-front", "front-without-target-2", "side-without-side"])
    def test_ratios_missing_a_target_of_the_pose_kind_are_refused(self, tmp_path, kind,
                                                                   key_path, detail):
        """scene.json's ratios must place every target of its pose kind, as a
        cohort's must: else the file is refused, naming it, before a depth
        map is read."""
        save_scene(generate_scene(TORSO, RATIOS, small_cameras(), NoiseSpec(), kind), tmp_path)
        for depth_file in tmp_path.glob("*.pfm"):
            depth_file.unlink()
        path = tmp_path / "scene.json"
        data = json.loads(path.read_text())
        *parents, key = key_path
        del get_path(data["ratios"], parents)[key]
        path.write_text(json.dumps(data))
        with pytest.raises(MalformedFileError, match=re.escape(f"{path}: {detail}")):
            load_scene(tmp_path)

    @pytest.mark.parametrize("kind", ["front", "side"])
    def test_round_trip_keeps_every_field_bits(self, tmp_path, kind):
        """Every field scene.json holds loads with the bits it was saved with:
        one noisy scene per pose kind, with dropped and displaced joints."""
        assert set(synth._SCENE_FIELDS) == {f.name for f in fields(SyntheticScene)} - {"depths"}
        noise = NoiseSpec(keypoint_sigma_px=1.5, depth_sigma_m=0.003,
                          fault_prob={"left_shoulder": 1.0, "right_hip": 1.0}, seed=1)
        scene = generate_scene(TORSO, RATIOS, small_cameras(), noise, kind, scene_id=17)
        assert sorted(scene.faulted_joints.values()) == ["displaced", "dropped"]
        save_scene(scene, tmp_path)
        assert json.loads((tmp_path / "scene.json").read_text()).keys() == set(synth._SCENE_FIELDS)
        loaded = load_scene(tmp_path)
        for key in synth._SCENE_FIELDS:
            assert same_bits(getattr(loaded, key), getattr(scene, key)), key

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_a_cut_or_an_unknown_key_is_refused_before_a_depth_map(self, json_only_scene, data):
        """scene.json cut at any byte before its closing brace, or with a key
        no reader knows added to any of its JSON objects, fails as malformed,
        naming scene.json, before a depth map is read."""
        directory, text = json_only_scene
        path = directory / "scene.json"
        if data.draw(st.booleans(), label="cut"):
            cut = data.draw(st.integers(0, len(text.rstrip()) - 1), label="cut at")
            path.write_bytes(text.encode()[:cut])
        else:
            scene = json.loads(text)
            target = scene
            for step in data.draw(st.sampled_from(json_objects(scene)), label="object"):
                target = target[step]
            target[data.draw(st.sampled_from(["unknown", "3", ""]), label="key")] = 0.0
            path.write_text(json.dumps(scene))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            load_scene(directory)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_any_number_made_bad_is_refused_before_a_depth_map(self, json_only_scene, data):
        """Any number in scene.json replaced by a value that is not a finite
        number fails as malformed, naming scene.json: the scene has no depth
        map on disk, so reading one would raise FileNotFoundError instead."""
        directory, text = json_only_scene
        scene = json.loads(text)
        spoil_a_number(data.draw, scene)
        path = directory / "scene.json"
        path.write_text(json.dumps(scene))
        with pytest.raises(MalformedFileError, match=re.escape(str(path))):
            load_scene(directory)

    def test_round_trip(self, tmp_path):
        noise = NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002,
                          fault_prob={"right_hip": 0.5}, seed=123)
        scene = generate_scene(TORSO, RATIOS, None, noise, "side")
        save_scene(scene, tmp_path / "s0")
        loaded = load_scene(tmp_path / "s0")
        assert loaded.scene_id == scene.scene_id
        assert loaded.pose_kind == "side"
        assert loaded.torso == scene.torso
        assert loaded.noise == scene.noise
        assert loaded.faulted_joints == scene.faulted_joints
        assert loaded.observation == scene.observation
        assert loaded.target_pixels_observed == scene.target_pixels_observed
        for vi in (0, 1):
            cam_a, cam_b = scene.cameras[vi], loaded.cameras[vi]
            assert (cam_a.fx, cam_a.cx, cam_a.width) == (cam_b.fx, cam_b.cx, cam_b.width)
            assert np.array_equal(cam_a.pose.rotation, cam_b.pose.rotation)
            # generated depth is float32 already: the files hold its bits
            assert scene.depths[vi].values.dtype == np.float32
            assert np.array_equal(loaded.depths[vi].values.view(np.uint32),
                                  scene.depths[vi].values.view(np.uint32))
        for tid, p in scene.targets_true.items():
            assert np.array_equal(loaded.targets_true[tid], p)

    def test_loaded_depths_are_the_pfm_payload(self, tmp_path):
        """A loaded depth map is the float32 array `read_pfm` gives, read-only
        and uncopied, and its valid mask is the float64 copy's."""
        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(depth_sigma_m=0.002, seed=5), "front")
        save_scene(scene, tmp_path / "s")
        for depth in load_scene(tmp_path / "s").depths:
            values = depth.values
            assert values.dtype == np.float32 and not values.flags.writeable
            assert not values.flags.owndata
            assert np.array_equal(depth.valid_mask, DepthMap(values).valid_mask)

    def test_loocv_from_files_equals_loocv_in_memory(self, tmp_path):
        """A noisy side cohort and the same cohort saved and loaded give every
        fold field bitwise, faulty folds included."""
        noise = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005,
                          fault_prob={"right_hip": 0.5})
        scenes = generate_cohort(4, noise=noise, pose_kind="side", seed=3)
        save_cohort(scenes, tmp_path)
        loaded = [load_scene(d) for d in scene_directories(tmp_path)]
        folds = {}
        for name, cohort in (("memory", scenes), ("files", loaded)):
            folds[name] = loocv(cohort, 4, clouds=[scene_cloud(s, 0.002) for s in cohort])
        assert any(f.faulty for f in folds["memory"]) and not all(f.faulty for f in folds["memory"])
        for memory, files in zip(folds["memory"], folds["files"], strict=True):
            assert repr(astuple(memory)) == repr(astuple(files))

    def test_kept_scene_holds_four_bytes_per_depth_pixel(self):
        """A generated scene keeps its two depth maps as float32 and no float64
        image: 4 B per depth pixel, with or without depth noise."""
        pixels = 2 * RIG_IMAGE_SIZE[0] * RIG_IMAGE_SIZE[1]
        for noise in (NoiseSpec(), NoiseSpec(depth_sigma_m=0.005, seed=2)):
            generate_scene(TORSO, RATIOS, None, noise, "side")  # warm lazy state
            tracemalloc.start()
            try:
                scene = generate_scene(TORSO, RATIOS, None, noise, "side")
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert all(d.values.dtype == np.float32 for d in scene.depths)
            assert 4 * pixels <= held <= 4 * pixels + 2**16, f"{held / pixels:.2f} B per pixel"

    def test_save_is_byte_deterministic(self, tmp_path):
        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(seed=4), "front")
        save_scene(scene, tmp_path / "a")
        save_scene(scene, tmp_path / "b")
        for name in ("scene.json", "depth_0.pfm", "depth_1.pfm"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    def test_unknown_scene_key_rejected(self, tmp_path):
        import json

        scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), "front")
        save_scene(scene, tmp_path / "s")
        path = tmp_path / "s" / "scene.json"
        data = json.loads(path.read_text())
        data["surprise"] = 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_scene(tmp_path / "s")

    def test_cohort_round_trip_preserves_order(self, tmp_path):
        scenes = generate_cohort(3, seed=8, pose_kind="front")
        save_cohort(scenes, tmp_path)
        loaded = [load_scene(d) for d in scene_directories(tmp_path)]
        assert [s.scene_id for s in loaded] == [0, 1, 2]
        assert loaded[2].torso == scenes[2].torso


class TestClosure:
    def test_localize_with_generative_ratios_recovers_targets(self):
        for kind in ("front", "side"):
            scene = generate_scene(TORSO, RATIOS, None, NoiseSpec(), kind)
            cloud = fuse(list(zip(scene.cameras, scene.depths)), voxel=0.002)
            poses = localize(
                scene.cameras[0], scene.cameras[1], scene.observation, cloud,
                scene.ratios, kind,
            )
            assert [p.target_id for p in poses] == sorted(scene.targets_true)
            for pose in poses:
                gt = scene.targets_true[pose.target_id]
                err = np.linalg.norm(pose.position - gt)
                assert err < 0.002, f"target {pose.target_id} off by {1000 * err:.2f} mm"
                nerr = angle_between_degrees(
                    pose.surface_normal, scene.target_normals_true[pose.target_id]
                )
                assert nerr < 1.0

    @staticmethod
    def cohort_dataset(scenes, target_id):
        samples = []
        for scene in scenes:
            positions = triangulate_joints(
                scene.cameras[0], scene.cameras[1], scene.observation
            )
            kps = Keypoints3D(
                left_shoulder=positions.get("left_shoulder"),
                right_shoulder=positions.get("right_shoulder"),
                right_hip=positions.get("right_hip"),
            )
            samples.append(
                FitSample(
                    keypoints=kps,
                    target=scene.targets_true[target_id],
                    scene_id=scene.scene_id,
                )
            )
        return FitDataset(samples)

    def test_noiseless_cohort_fit_recovers_front_ratios(self):
        scenes = generate_cohort(10, pose_kind="front", seed=31)
        for tid in (1, 2):
            result = fit_front(self.cohort_dataset(scenes, tid))
            want = RATIOS.front[tid]
            assert abs(result.ratios.segment_ratio - want.segment_ratio) < 1e-6
            assert abs(result.ratios.offset_ratio - want.offset_ratio) < 1e-6
            assert result.mean_planar_residual < 1e-6

    def test_noiseless_cohort_fit_recovers_side_ratios(self):
        scenes = generate_cohort(10, pose_kind="side", seed=31)
        result = fit_side(self.cohort_dataset(scenes, 4))
        assert abs(result.ratios.segment_ratio - RATIOS.side.segment_ratio) < 2e-3
        assert abs(result.ratios.offset_ratio - RATIOS.side.offset_ratio) < 2e-2
        assert result.mean_planar_residual < 0.002
