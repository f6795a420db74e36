"""Tests for depth fusion, planar nearest neighbor, and cloud file formats.

Oracles:

* analytic renders (flat plane, sphere) with normals known in closed form,
* a transcribed linear scan for the planar nearest-neighbor lookup,
* hand-built miniature clouds for the depth-adjustment rule,
* the eager all-points normal computation for normals estimated on demand,
* a brute-force `d2 <= r*r` ball and an SVD of the centred ball for PCA normals,
* `np.unique(axis=0)` + `np.add.at` for the packed-key voxel centroids,
* per-view `np.argwhere` pixels, `deproject` and `np.vstack` for `fuse`'s
  one point buffer,
* the written uint32 words for the PFM and `.cloud` payloads, bitwise,
* the pinhole formula and an (N, 3) matmul written out longhand for views of
  one and two valid pixels,
* the snap on the whole voxel grid of a scene's raw points for the snap on a
  key window of them, bitwise,
* the one-query snap on a cloud whose `points` were read for each query of
  one snap of several through a shared key window, bitwise,
* the key window of a voxel-0 `fuse`'s points for the key window of only the
  pixels that can see it, bitwise,
* the snap on the grid of the raw points in an XY key box around the query for
  the snap on a cloud whose whole grid is too fine to key in int64, bitwise.
"""

import functools
import itertools
import math
import mmap
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from helpers import batched_rotation, look_at_camera, render_sphere_depth, unique_rows_centroids
from scanloc.cloud import (
    MAX_DEPTH,
    NORMAL_RADIUS,
    DepthMap,
    FusedCloud,
    _View,
    _key_bounds,
    _key_window,
    _pca_normals,
    _prefilter_box,
    _scan_ball,
    _snap,
    _sorted_ranks,
    _table_ranks,
    _tree_balls,
    _view_window,
    _voxel_centroids,
    adjust_target,
    fuse,
    read_pfm,
    write_pfm,
)
from scanloc.errors import ConfigError, MalformedFileError, ScanlocError
from scanloc.evaluation import backprojection_comparison
from scanloc.geometry import MIN_DEPTH, PinholeCamera, angle_between_degrees
from scanloc.synth import (
    NoiseSpec,
    generate_cohort,
    load_scene,
    save_cohort,
    scene_directories,
)
from scanloc.targets import localize


def linear_scan_nearest(xy, target):
    """Reference planar NN: full scan, smallest index wins ties."""
    t = np.asarray(target, dtype=float)
    d2 = ((xy - t) ** 2).sum(axis=1)
    idx = np.lexsort((np.arange(len(xy)), d2))[0]
    return int(idx), float(np.sqrt(d2[idx]))


def assert_matches_scan(cloud, targets):
    """planar_nearest agrees with the linear scan in index and distance, bitwise."""
    for target in targets:
        neighbor = cloud.planar_nearest(target)
        want_idx, want_dist = linear_scan_nearest(cloud.points[:, :2], target)
        assert neighbor.index == want_idx
        assert neighbor.planar_distance == want_dist


def simple_cloud(points, normals=None):
    points = np.asarray(points, dtype=float)
    if normals is None:
        normals = np.tile([0.0, 0.0, 1.0], (len(points), 1))
    return FusedCloud(points=points, normals=np.asarray(normals, float))


def assert_malformed(read, path):
    with pytest.raises(MalformedFileError) as info:
        read(path)
    assert isinstance(info.value, ScanlocError) and isinstance(info.value, ValueError)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


class TestPfm:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        values = rng.uniform(0.1, 3.0, size=(48, 64)).astype(np.float32)
        values[10, 20] = 0.0
        path = tmp_path / "depth.pfm"
        write_pfm(path, values)
        back = read_pfm(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(52)
        values = rng.uniform(0.1, 3.0, size=(31, 17)).astype(np.float32)
        p1, p2 = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(p1, values)
        write_pfm(p2, read_pfm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(ValueError):
            read_pfm(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda good: b"",
            lambda good: b"Pf\n",
            lambda good: b"Pf\n3",
            lambda good: b"Pf\n3 2\n",
            lambda good: good.replace(b"3 2", b"abc 2", 1),
            lambda good: good.replace(b"3 2", b"0 2", 1),
            lambda good: good.replace(b"3 2", b"-3 -2", 1),
            lambda good: good.replace(b"3 2", b"99999999999 2", 1),
            lambda good: good.replace(b"-1.0", b"nan", 1),
            lambda good: good[:-4],
            lambda good: good + b"\x00" * 4,
        ],
        ids=["empty", "magic-only", "cut-in-size", "no-scale", "non-numeric",
             "zero-width", "negative", "huge", "nan-scale", "truncated", "trailing"],
    )
    def test_malformed_file_raises(self, tmp_path, corrupt):
        good = tmp_path / "good.pfm"
        write_pfm(good, np.ones((2, 3)))
        assert read_pfm(good).shape == (2, 3)
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(corrupt(good.read_bytes()))
        assert_malformed(read_pfm, bad)

    def test_little_endian_payload_is_read_without_a_copy(self, tmp_path):
        values = np.random.default_rng(53).uniform(0.1, 3.0, size=(5, 4)).astype(np.float32)
        little, big = tmp_path / "little.pfm", tmp_path / "big.pfm"
        write_pfm(little, values)
        big.write_bytes(b"Pf\n4 5\n1.0\n" + np.flipud(values).astype(">f4").tobytes())
        view = read_pfm(little)
        assert not view.flags.owndata and not view.flags.writeable
        for back in (view, read_pfm(big)):
            assert back.dtype == np.float32 and np.array_equal(back, values)


PFM_SEPARATORS = [b" ", b"\n", b"\t", b" \n"]


def random_bits(data, shape) -> np.ndarray:
    """uint32 words drawn from the test data, so their float32 view holds NaN,
    inf and subnormals."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return np.random.default_rng(seed).integers(0, 2**32, size=shape, dtype=np.uint32)


class TestPayloadReader:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_every_bit_survives(self, tmp_path_factory, data):
        """A PFM of any size, endianness and header spacing, so its payload
        starts at every offset mod 4, reads back its bits flipped, as a
        float32 array that owns no data and cannot be made writable; a
        `.cloud` file loads its finite float32 points exactly, upcast."""
        height, width = (data.draw(st.integers(1, 40), label=side) for side in ("height", "width"))
        big = data.draw(st.booleans(), label="big-endian")
        spaces = [data.draw(st.sampled_from(PFM_SEPARATORS), label="separator") for _ in range(3)]
        last = data.draw(st.sampled_from(PFM_SEPARATORS[:3]), label="last separator")
        bits = random_bits(data, (height, width))
        header = b"Pf" + spaces[0] + b"%d" % width + spaces[1] + b"%d" % height + spaces[2]
        header += (b"1.0" if big else b"-1.0") + last
        path = tmp_path_factory.mktemp("payload") / "depth.pfm"
        path.write_bytes(header + bits.astype(">u4" if big else "<u4").tobytes())
        back = read_pfm(path)
        assert back.dtype == np.float32 and back.shape == (height, width)
        assert not back.flags.writeable and not back.flags.owndata
        with pytest.raises(ValueError):
            back.flags.writeable = True
        assert np.array_equal(back.view(np.uint32), np.flipud(bits))

        words = random_bits(data, (height, 3))
        words[(words >> 23 & 0xFF) == 0xFF] ^= 1 << 30  # an all-ones exponent made finite
        toward = [0.5, -0.25, 2.0]
        path.with_suffix(".cloud").write_bytes(
            b"SCLOUD02" + struct.pack("<Q3d", height, *toward) + words.astype("<u4").tobytes())
        loaded = FusedCloud.load(path.with_suffix(".cloud"))
        assert np.array_equal(loaded.points, words.view(np.float32).astype(float))

    def test_loaded_depth_maps_hold_no_file(self, tmp_path):
        """A depth map's payload lives in memory: kept scenes open no file."""
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd to count open files")
        save_cohort(generate_cohort(4, seed=71, pose_kind="side"), tmp_path)
        before = len(os.listdir("/proc/self/fd"))
        scenes = [load_scene(d) for d in scene_directories(tmp_path)]
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(scenes) == 4

    def test_reads_the_same_bits_without_populate(self, tmp_path, monkeypatch):
        values = np.random.default_rng(72).uniform(0.1, 3.0, size=(48, 64)).astype(np.float32)
        path = tmp_path / "depth.pfm"
        write_pfm(path, values)
        populated = read_pfm(path)
        monkeypatch.delattr(mmap, "MAP_POPULATE", raising=False)
        plain = read_pfm(path)
        assert np.array_equal(plain.view(np.uint32), populated.view(np.uint32))
        assert np.array_equal(plain, values) and not plain.flags.writeable


class TestDepthMap:
    def test_owning_constructor_takes_the_array(self):
        values = np.arange(6.0).reshape(2, 3)
        depth = DepthMap._owning(values)
        assert depth.values is values and not values.flags.writeable

    def test_valid_mask_rules(self):
        values = np.array([[0.5, 0.0], [np.nan, 11.0]])
        mask = DepthMap(values).valid_mask
        assert mask.tolist() == [[True, False], [False, False]]


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_a_read_only_copy(self, dtype):
        given = np.arange(6, dtype=dtype).reshape(2, 3) / 4
        depth = DepthMap(given)
        assert depth.values.dtype == np.float64 and not depth.values.flags.writeable
        assert not np.shares_memory(depth.values, given)
        given[0, 0] = 9.0
        assert depth.values[0, 0] == 0.0 and given.flags.writeable

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_float32_mask_is_the_float64_mask(self, data):
        """A float32 map's mask, compared in float32, is bitwise the mask of its
        float64 upcast, at every float32 neighbour of both bounds too."""
        near = [np.nextafter(np.float32(bound), np.float32(direction))
                for bound in (MIN_DEPTH, MAX_DEPTH) for direction in (0, np.inf)]
        special = [0.0, -0.0, -1.0, -MIN_DEPTH, np.nan, np.inf, -np.inf,
                   np.float32(MIN_DEPTH), np.float32(MAX_DEPTH), *near]
        shape = (data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8)))
        values = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(0, 12, width=32)),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])), dtype=np.float32)
        values = values.reshape(shape)
        mask = DepthMap._owning(values).valid_mask
        upcast = values.astype(np.float64)
        assert np.array_equal(mask, (upcast > MIN_DEPTH) & (upcast <= MAX_DEPTH))

    def test_float32_mask_makes_no_float64_copy(self):
        """Masking a 480 x 640 float32 map holds the mask and one boolean
        temporary: 2 B per pixel, where a float64 copy would be 8."""
        values = np.random.default_rng(55).uniform(0.0, 12.0, (480, 640)).astype(np.float32)
        depth = DepthMap._owning(values)
        tracemalloc.start()
        try:
            depth.valid_mask
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * values.size + 4096, f"peak {peak / values.size:.2f} B per pixel"

    def test_valid_depths_are_the_ones_deproject_accepts(self):
        mask = DepthMap(np.array([[MIN_DEPTH, 2 * MIN_DEPTH, MAX_DEPTH, np.inf, -1.0]])).valid_mask
        assert mask.tolist() == [[False, True, True, False, False]]


class TestFuse:
    def test_depth_below_min_depth_is_a_missing_pixel(self):
        cam = look_at_camera([0, 0.01, 1.0], [0, 0.01, 0], fx=300, width=20, height=20)
        values = np.full((20, 20), 1.0)
        values[5, 7] = 0.0
        zeroed = fuse([(cam, DepthMap(values))], voxel=0)
        values[5, 7] = 1e-10
        tiny = fuse([(cam, DepthMap(values))], voxel=0)
        assert len(tiny) == 399
        assert np.array_equal(tiny.points, zeroed.points)

    def test_flat_plane_normals_point_up(self):
        cam = look_at_camera([0.0, 0.01, 1.0], [0.0, 0.01, 0.0], fx=300, width=120, height=90)
        depth = DepthMap(np.full((90, 120), 1.0))
        cloud = fuse([(cam, depth)], voxel=0.01)
        assert np.all(np.abs(cloud.points[:, 2]) < 1e-9)
        angles = np.degrees(np.arccos(np.clip(cloud.normals[:, 2], -1, 1)))
        assert angles.max() < 0.1

    def test_sphere_normals_match_radial_direction(self):
        center = np.array([0.0, 0.0, 0.0])
        radius = 0.2
        cams = [
            look_at_camera([-0.1, 0.0, 1.0], center, fx=600),
            look_at_camera([0.1, 0.0, 1.0], center, fx=600),
        ]
        views = [(c, DepthMap(render_sphere_depth(c, center, radius))) for c in cams]
        cloud = fuse(views, voxel=0.003)
        radial = cloud.points - center
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        cosines = np.einsum("ij,ij->i", cloud.normals, radial)
        angles = np.degrees(np.arccos(np.clip(cosines, -1, 1)))
        assert angles.max() < 2.0
        # voxel centroids sit on the sphere up to the chord sag of one voxel
        assert np.abs(np.linalg.norm(cloud.points - center, axis=1) - radius).max() < 1e-4

    def test_normals_are_unit_length(self):
        cam = look_at_camera([0.0, 0.01, 1.0], [0, 0.01, 0], fx=300, width=100, height=80)
        cloud = fuse([(cam, DepthMap(np.full((80, 100), 1.0)))], voxel=0.02)
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1).max() < 1e-9

    def test_voxel_centroid_hand_case(self):
        # 4 valid pixels deproject to a tight cluster; coarse voxel -> 1 centroid
        cam = look_at_camera([0, 0.01, 1.0], [0, 0.01, 0], fx=500, width=8, height=8)
        values = np.zeros((8, 8))
        values[3:5, 3:5] = 1.0
        cloud = fuse([(cam, DepthMap(values))], voxel=0.5)
        assert len(cloud) == 1
        raw = fuse([(cam, DepthMap(values))], voxel=0.0)
        assert np.allclose(cloud.points[0], raw.points.mean(axis=0), atol=1e-12)

    def test_coarser_voxel_never_adds_points(self):
        cam = look_at_camera([0, 0.01, 0.8], [0, 0.01, 0], fx=300, width=90, height=70)
        depth = DepthMap(np.full((70, 90), 0.8))
        fine = fuse([(cam, depth)], voxel=0.005)
        coarse = fuse([(cam, depth)], voxel=0.02)
        assert len(coarse) <= len(fine)

    def test_all_invalid_rejected(self):
        cam = look_at_camera([0, 0.01, 1.0], [0, 0.01, 0], fx=300, width=20, height=20)
        with pytest.raises(ScanlocError, match="no valid depth pixels in any view"):
            fuse([(cam, DepthMap(np.zeros((20, 20))))])

    def test_fusion_is_deterministic(self):
        center = np.array([0.0, 0.0, 0.0])
        cams = [
            look_at_camera([-0.1, 0.0, 1.0], center, fx=400, width=200, height=160),
            look_at_camera([0.1, 0.0, 1.0], center, fx=400, width=200, height=160),
        ]
        views = [(c, DepthMap(render_sphere_depth(c, center, 0.2))) for c in cams]
        a = fuse(views, voxel=0.004)
        b = fuse(views, voxel=0.004)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)


def scene_views(noise, pose_kind="side", seed=57):
    (scene,) = generate_cohort(1, noise=noise, pose_kind=pose_kind, seed=seed)
    return list(zip(scene.cameras, scene.depths))


def stacked_views_fuse(views, voxel):
    """`fuse`'s points built view by view: `np.argwhere` pixels and one
    `deproject` per view, `np.vstack`, then the unique-rows voxel centroids."""
    points = np.vstack([
        camera.deproject(np.argwhere(depth.valid_mask)[:, ::-1], depth.values[depth.valid_mask])
        for camera, depth in views
    ])
    return unique_rows_centroids(points, voxel) if voxel > 0 else points


NOISY = NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005)
MILD = NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002)
FUSION_CASES = [
    pytest.param(NOISY, "side", 0.002, id="noisy-side-2mm"),
    pytest.param(MILD, "front", 0.005, id="mild-front-5mm"),
]


class TestFusionBuffer:
    @pytest.mark.parametrize(
        "noise, pose_kind, voxel",
        FUSION_CASES + [pytest.param(MILD, "front", 0.0, id="mild-front-voxel-0")],
    )
    def test_points_equal_the_stacked_views_bitwise(self, noise, pose_kind, voxel):
        views = scene_views(noise, pose_kind, seed=63)
        points = fuse(views, voxel=voxel).points
        want = stacked_views_fuse(views, voxel)
        assert points.shape == want.shape
        assert points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("noise, pose_kind, voxel", FUSION_CASES)
    def test_peak_memory_is_a_few_point_arrays(self, noise, pose_kind, voxel):
        """One `fuse` call holds at most 4.5 times the bytes of its raw points
        (24 B per valid pixel) at once, its returned cloud included."""
        views = scene_views(noise, pose_kind, seed=63)
        pixels = sum(np.count_nonzero(depth.valid_mask) for _, depth in views)
        tracemalloc.start()
        try:
            fuse(views, voxel=voxel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 24 * pixels, f"peak {peak / (24 * pixels):.2f}x the raw points"


def longhand_points(camera, depth):
    """One view's valid pixels in the base frame with `deproject` written out:
    the pinhole formula on `np.argwhere` pixels, then one (N, 3) matmul against
    the transposed rotation (a lone pixel taken from a two-row batch) and the
    translation broadcast over rows."""
    v, u = np.argwhere(depth.valid_mask).T
    z = depth.values[depth.valid_mask]
    p_cam = np.column_stack([(u - camera.cx) * z / camera.fx, (v - camera.cy) * z / camera.fy, z])
    return batched_rotation(p_cam, camera.pose.rotation) + camera.pose.translation


def tiny_views(valid_counts, rng):
    """Tilted 40 x 30 views, each with exactly its count of valid pixels
    (neighbours, so two can share a voxel), at random depths near 1 m."""
    views = []
    for count in valid_counts:
        camera = look_at_camera(rng.uniform(-0.4, 0.4, 3) + [0, 0, 1.0],
                                rng.uniform(-0.05, 0.05, 3), fx=300, width=40, height=30)
        values = np.zeros((30, 40))
        row, col = rng.integers(0, 30), rng.integers(0, 39)
        values[row, col:col + count] = rng.uniform(0.8, 1.2, count)
        views.append((camera, DepthMap(values)))
    return views


class TestTinyViews:
    """Views of one and two valid pixels: a view's rows transform then
    rotates one or two columns, and one gets the bits of the first of two."""

    @pytest.mark.parametrize("voxel", [0.0, 0.005], ids=["voxel-0", "voxel-5mm"])
    @pytest.mark.parametrize("valid_counts", [(1,), (2,), (1, 2), (2, 1), (1, 1)],
                             ids=["1", "2", "1+2", "2+1", "1+1"])
    def test_points_equal_the_longhand_deprojection_bitwise(self, valid_counts, voxel):
        rng = np.random.default_rng(64)
        for _ in range(25):
            views = tiny_views(valid_counts, rng)
            raw = np.vstack([longhand_points(camera, depth) for camera, depth in views])
            assert len(raw) == sum(valid_counts)
            want = unique_rows_centroids(raw, voxel) if voxel > 0 else raw
            points = fuse(views, voxel=voxel).points
            assert points.shape == want.shape
            assert points.tobytes() == want.tobytes()


class TestVoxelCentroids:
    def test_packed_keys_match_unique_rows(self):
        rng = np.random.default_rng(58)
        # negative and positive keys, many points per voxel, duplicated points
        points = rng.uniform(-0.3, 0.2, size=(20_000, 3))
        points[:2000] = points[2000:4000]
        scene = fuse(scene_views(NoiseSpec(depth_sigma_m=0.005)), voxel=0.0).points
        for cloud, voxel in ((points, 0.004), (points, 0.05), (points, 1.0),
                             (scene, 0.002), (scene, 0.005)):
            assert np.array_equal(
                _voxel_centroids(cloud, voxel), unique_rows_centroids(cloud, voxel)
            )
        # each axis's minimum and maximum on its own point, keys of both signs,
        # so a bound taken per point instead of per column shows
        spread = rng.uniform(-0.05, 0.05, size=(500, 3))
        spread[:6] = [[-0.9, 0, 0], [0.7, 0, 0], [0, -0.4, 0],
                      [0, 0.6, 0], [0, 0, -0.3], [0, 0, 0.8]]
        extremes = np.concatenate([spread.argmin(axis=0), spread.argmax(axis=0)])
        assert sorted(extremes) == list(range(6))
        assert np.array_equal(
            _voxel_centroids(spread, 0.01), unique_rows_centroids(spread, 0.01)
        )
        # 1 um voxels: x keys near 9.2e6, y and z spans near 1e6, so x times
        # the y-z span crosses 2**63; only the offset by the minimum key
        # keeps the packed keys inside int64
        far = (points + 0.3) * [0.08, 2.0, 2.0] + [9.2, 0.0, 0.0]
        assert np.array_equal(
            _voxel_centroids(far, 1e-6), unique_rows_centroids(far, 1e-6)
        )

    def test_unpackable_key_span_raises(self):
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ScanlocError, match="voxel size 1e-07 m is too small to key"):
            _voxel_centroids(points, 1e-7)
        # keys themselves beyond int64
        with pytest.raises(ScanlocError, match="voxel size 1e-08 m is too small to key"):
            _voxel_centroids(points * 1e12, 1e-8)
        cam = look_at_camera([0, 0.01, 1.0], [0, 0.01, 0], fx=300, width=20, height=20)
        with pytest.raises(ScanlocError, match="voxel size 1e-12 m is too small to key"):
            fuse([(cam, DepthMap(np.full((20, 20), 1.0)))], voxel=1e-12).points


def counting_argsort(monkeypatch) -> list:
    """A list that gains one item per `np.argsort` call from here on."""
    calls, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: calls.append(1) or argsort(*args, **kw))
    return calls


def traced_peak(call) -> int:
    """The most bytes `call()` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def micron_case():
    """The 1 um case of `TestVoxelCentroids`: a key span near 4e16 for 20,000
    points, numbered only by sorting."""
    points = np.random.default_rng(58).uniform(-0.3, 0.2, size=(20_000, 3))
    points[:2000] = points[2000:4000]
    return (points + 0.3) * [0.08, 2.0, 2.0] + [9.2, 0.0, 0.0], 1e-6


def distinct_cells(spans, count, rng, voxel=0.01):
    """`count` points, one per voxel, in distinct cells of a box of `spans`
    voxel keys that holds both of its corners and is centred near key 0."""
    cells = rng.choice(np.arange(1, np.prod(spans) - 1), count - 2, replace=False)
    cells = rng.permutation(np.append(cells, [0, np.prod(spans) - 1]))
    keys = np.column_stack(np.unravel_index(cells, spans)) - np.array(spans) // 2
    return (keys + rng.uniform(0.2, 0.8, keys.shape)) * voxel, keys - keys.min(axis=0)


class TestVoxelRanks:
    """A key span of at most 3 keys per point is ranked through a table,
    a wider one by sorting; both give the unique-rows centroids bitwise."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_both_rankings_equal_unique_rows(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        count = data.draw(st.integers(1, 400), label="points")
        distinct = data.draw(st.integers(1, count), label="distinct points")
        extent = [data.draw(st.floats(0.0, 1.0), label="extent") for _ in range(3)]
        centre = data.draw(st.floats(-1.0, 1.0), label="centre")  # keys of both signs
        points = rng.uniform(-0.5, 0.5, (distinct, 3)) * extent + centre
        points = points[rng.integers(0, distinct, count)]  # duplicates
        # from under a key per point to far over 3 keys per point
        voxel = 10 ** data.draw(st.floats(-3.0, 0.0), label="log10 voxel")
        assert (_voxel_centroids(points, voxel).tobytes()
                == unique_rows_centroids(points, voxel).tobytes())

    @pytest.mark.parametrize("spans, sorts", [((40, 30, 50), 0), ((29, 2069, 1), 1)],
                             ids=["3-keys-per-point", "one-key-above"])
    def test_table_up_to_three_keys_per_point(self, spans, sorts, monkeypatch):
        points, _ = distinct_cells(spans, 20_000, np.random.default_rng(71))
        assert math.prod(_key_bounds(points.T, 0.01)[1]) == 3 * len(points) + sorts
        want = unique_rows_centroids(points, 0.01)
        calls = counting_argsort(monkeypatch)
        assert _voxel_centroids(points, 0.01).tobytes() == want.tobytes()
        assert len(calls) == sorts

    def test_table_ranks_hold_no_more_than_sorted_ranks(self):
        """At 3 keys per point, each point its own voxel (the table's worst
        case), ranking by table holds no more than ranking by sort."""
        spans = (40, 30, 50)
        _, keys = distinct_cells(spans, 20_000, np.random.default_rng(72))
        packed = np.ravel_multi_index(keys.T, spans)
        by_table = _table_ranks(packed.copy(), math.prod(spans))
        by_sort = _sorted_ranks(packed.copy(), np.empty_like(packed))
        assert by_table[1] == by_sort[1] == len(packed)
        assert np.array_equal(by_table[0], by_sort[0])
        table_peak = traced_peak(lambda: _table_ranks(packed.copy(), math.prod(spans)))
        sort_peak = traced_peak(lambda: _sorted_ranks(packed.copy(), np.empty_like(packed)))
        assert table_peak <= sort_peak, (table_peak / len(packed), sort_peak / len(packed))

    def test_a_5mm_scene_grid_is_ranked_by_table(self, monkeypatch):
        cloud = fuse(scene_views(MILD, "front", seed=63), voxel=0.005)
        calls = counting_argsort(monkeypatch)
        assert len(cloud) > 0 and len(calls) == 0

    def test_the_1um_case_is_ranked_by_sort(self, monkeypatch):
        points, voxel = micron_case()
        calls = counting_argsort(monkeypatch)
        _voxel_centroids(points, voxel)
        assert len(calls) == 1

    # tracemalloc peak of each build when every grid was ranked by sort, in
    # bytes per raw point, rounded up: ranking by table must not raise it
    @pytest.mark.parametrize("case, bound", [("noisy-side-2mm", 44.0),
                                             ("mild-front-5mm", 33.5), ("1um", 45.0)])
    def test_peak_memory_stays_within_the_sorted_builds(self, case, bound):
        if case == "1um":
            points, voxel = micron_case()
        else:
            noise, pose_kind, voxel = {param.id: param.values for param in FUSION_CASES}[case]
            points = fuse(scene_views(noise, pose_kind, seed=63), voxel=0.0).points
        peak = traced_peak(lambda: _voxel_centroids(points, voxel))
        assert peak <= bound * len(points), f"peak {peak / len(points):.2f} B per point"


def holds_no_tree(cloud):
    return not any(isinstance(value, cKDTree) for value in vars(cloud).values())


class TestLazyNormals:
    @pytest.mark.parametrize(
        "noise, voxel",
        [(NoiseSpec(seed=0), 0.005),
         (NoiseSpec(keypoint_sigma_px=2.0, depth_sigma_m=0.005), 0.005),
         (NoiseSpec(seed=0), 0.002)],
        ids=["noiseless", "noisy", "noiseless-2mm"],
    )
    def test_on_demand_normals_equal_eager(self, noise, voxel):
        views = scene_views(noise)
        eager = fuse(views, voxel=voxel).normals
        rng = np.random.default_rng(61)
        lazy = fuse(views, voxel=voxel)
        for index in rng.integers(0, len(lazy), 300):
            assert np.array_equal(lazy.normal_at(index), eager[index])
        # snapping reads the same normals
        snapper = fuse(views, voxel=voxel)
        for target in rng.uniform(-0.2, 0.2, size=(20, 2)):
            index = snapper.planar_nearest(target).index
            assert np.array_equal(adjust_target(snapper, target).normal, eager[index])
        # a partly estimated cloud completes to the eager normals
        assert np.array_equal(lazy.normals, eager)
        assert holds_no_tree(lazy) and holds_no_tree(snapper)

    def test_normal_at_keeps_nothing(self):
        cloud = fuse(scene_views(NoiseSpec(seed=0)), voxel=0.005)
        for index in (7, 0, len(cloud) - 1):
            assert not cloud.normal_at(index).flags.writeable
        assert cloud._normals is None

    def test_normals_are_computed_once(self, monkeypatch):
        cloud = fuse(scene_views(NoiseSpec(seed=0)), voxel=0.005)
        rows = []

        def counting(points, toward, index, *pairs):
            rows.append(len(index))
            return _pca_normals(points, toward, index, *pairs)

        monkeypatch.setattr("scanloc.cloud._pca_normals", counting)
        first, second = cloud.normals, cloud.normals
        assert sum(rows) == len(cloud)
        assert np.array_equal(first, second) and not second.flags.writeable
        # normal_at now reads a row of that array, bitwise, with no PCA
        for index in (7, 0, len(cloud) - 1):
            normal = cloud.normal_at(index)
            assert np.array_equal(normal, first[index]) and not normal.flags.writeable
        assert sum(rows) == len(cloud)

    def test_fewer_than_three_points_fall_back_to_camera_direction(self):
        cam = look_at_camera([0, 0.01, 1.0], [0, 0.01, 0], fx=500, width=8, height=8)
        values = np.zeros((8, 8))
        values[1, 1] = values[6, 5] = 1.0
        eager = fuse([(cam, DepthMap(values))], voxel=0.0).normals
        lazy = fuse([(cam, DepthMap(values))], voxel=0.0)
        assert len(lazy) == 2
        for index in (1, 0):
            assert np.array_equal(lazy.normal_at(index), eager[index])
        toward = cam.center - lazy.points
        assert np.allclose(eager, toward / np.linalg.norm(toward, axis=1, keepdims=True))


def bumpy_lattice():
    """A 50 x 48 lattice at 2**-7 m with heights in steps of 2**-9 m, and three
    points farther than 2**-5 m from the rest: one alone and two together.
    Every coordinate is dyadic, so every squared distance is exact."""
    i, j = (axis.reshape(-1) for axis in np.meshgrid(np.arange(50), np.arange(48), indexing="ij"))
    lattice = np.column_stack([i * 2.0**-7, j * 2.0**-7, (i * i + 3 * j) % 5 * 2.0**-9])
    apart = np.array([[1.0, 1.0, 0.0], [-1.0, 0.5, 0.0], [-1.0, 0.5 + 2.0**-7, 0.0]])
    return np.vstack([lattice, apart])


class TestBallOracle:
    """Both neighborhood paths against a brute-force ball, at a dyadic radius of
    4 lattice steps, so many neighbors lie at exactly r and must be kept."""

    R = 2.0**-5

    def test_balls_match_brute_force(self, monkeypatch):
        monkeypatch.setattr("scanloc.cloud.NORMAL_RADIUS", self.R)
        points = bumpy_lattice()
        rows, neighbors = _tree_balls(points, cKDTree(points), np.arange(len(points)))
        assert np.all(np.diff(rows) >= 0)
        on_the_sphere = 0
        for i in range(len(points)):
            d2 = ((points - points[i]) ** 2).sum(axis=1)
            want = np.flatnonzero(d2 <= self.R * self.R)
            on_the_sphere += np.count_nonzero(d2 == self.R * self.R)
            assert np.array_equal(_scan_ball(points, i)[1], want)
            assert np.array_equal(neighbors[rows == i], want)
        assert on_the_sphere > len(points) // 4  # ordered pairs at exactly r, all kept

    def test_normals_match_svd_of_the_centred_ball(self, monkeypatch):
        monkeypatch.setattr("scanloc.cloud.NORMAL_RADIUS", self.R)
        points = bumpy_lattice()
        toward = np.array([0.2, 0.2, 1.0])
        eager = FusedCloud._with_pca_normals(points, toward).normals
        lazy = FusedCloud._with_pca_normals(points, toward)
        lone = len(points) - 3
        for i in range(len(points)):
            assert np.array_equal(lazy.normal_at(i), eager[i])
            ball = points[((points - points[i]) ** 2).sum(axis=1) <= self.R * self.R]
            if i < lone:
                axis = np.linalg.svd(ball - ball.mean(axis=0))[2][-1]
                axis *= np.sign(axis @ (toward - points[i]))
            else:  # fewer than 3 points in the ball: face the cameras
                assert len(ball) < 3
                axis = (toward - points[i]) / np.linalg.norm(toward - points[i])
            assert np.abs(eager[i] - axis).max() < 1e-9


class TestPlanarNearest:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(53)
        points = np.column_stack(
            [rng.uniform(-0.5, 0.5, 10_000), rng.uniform(-0.5, 0.5, 10_000), rng.uniform(0, 0.2, 10_000)]
        )
        assert_matches_scan(simple_cloud(points), rng.uniform(-0.7, 0.7, size=(100, 2)))

    def test_far_targets_still_exact(self):
        rng = np.random.default_rng(54)
        cloud = simple_cloud(rng.uniform(-0.2, 0.2, size=(500, 3)))
        assert_matches_scan(cloud, [[100.0, 100.0], [-50.0, 3.0], [0.0, -999.0]])

    def test_exact_tie_breaks_to_smallest_index(self):
        cloud = simple_cloud([[1.0, 0.0, 0.3], [-1.0, 0.0, 0.9], [1.0, 0.0, 0.5]])
        neighbor = cloud.planar_nearest([0.0, 0.0])
        assert neighbor.index == 0 and neighbor.planar_distance == 1.0
        # duplicate XY at index 0 and 2: smallest index wins
        assert cloud.planar_nearest([1.0, 0.0]).index == 0

    def test_lattice_ties_at_cell_centres(self):
        # every lattice XY twice, in shuffled order: a cell centre is
        # equidistant from 8 points, a lattice node 0 from 2
        rng = np.random.default_rng(62)
        ij = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), axis=-1).reshape(-1, 2)
        xy = rng.permutation(np.vstack([ij, ij]))
        cloud = simple_cloud(np.column_stack([xy, rng.uniform(0, 1, len(xy))]))
        centres = (ij + 0.5)[(ij[:, 0] < 11) & (ij[:, 1] < 8)]
        assert_matches_scan(cloud, np.vstack([centres, ij, [[-0.5, -0.5], [20.5, 4.0]]]))
        for centre in centres[:10]:
            neighbor = cloud.planar_nearest(centre)
            assert neighbor.planar_distance == np.sqrt(0.5)
            tied = np.flatnonzero(np.abs(xy - centre).max(axis=1) == 0.5)
            assert len(tied) == 8 and neighbor.index == tied.min()

    @pytest.mark.parametrize("voxel", [0.002, 0.0], ids=["2mm", "unvoxelized"])
    def test_scene_clouds_match_linear_scan(self, voxel):
        cloud = fuse(scene_views(NoiseSpec(depth_sigma_m=0.005)), voxel=voxel)
        rng = np.random.default_rng(64)
        lo, hi = cloud.points[:, :2].min(axis=0), cloud.points[:, :2].max(axis=0)
        on_points = cloud.points[rng.integers(0, len(cloud), 40), :2]
        assert_matches_scan(cloud, np.vstack([rng.uniform(lo, hi, size=(80, 2)), on_points]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_target_rejected(self, bad):
        cloud = simple_cloud([[0.0, 0.0, 0.5], [1.0, 0.0, 0.9]])
        for target in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                cloud.planar_nearest(target)
            with pytest.raises(ValueError, match="finite"):
                adjust_target(cloud, target + [0.7])

    @pytest.mark.parametrize("query", [[0.5], [], [np.nan, 0.0], [0.0, -np.inf, 0.3]],
                             ids=["one-coordinate", "empty", "nan", "inf"])
    def test_short_or_non_finite_query_fails_before_any_window(self, query, monkeypatch):
        given_normals = simple_cloud([[0.0, 0.0, 0.5], [1.0, 0.0, 0.9]])
        unread = fuse(scene_views(MILD, "front", seed=63), voxel=0.005)

        def no_window(*args):
            raise AssertionError("a key window was built for a bad query")

        monkeypatch.setattr("scanloc.cloud._key_window", no_window)
        for cloud in (given_normals, unread):
            for call in (cloud.planar_nearest, lambda q: adjust_target(cloud, q),
                         lambda q: _snap(cloud, q)):
                with pytest.raises(ConfigError, match="a planar query needs finite X and Y") as info:
                    call(query)
                assert isinstance(info.value, ScanlocError) and isinstance(info.value, ValueError)
        assert unread._points is None  # nor was the grid built


class TestAdjustTarget:
    def test_snaps_depth_and_normal_from_nearest(self):
        cloud = simple_cloud(
            [[0.0, 0.0, 0.5], [1.0, 0.0, 0.9]],
            normals=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        result = adjust_target(cloud, [0.004, 0.0, 0.7])
        assert np.allclose(result.position, [0.004, 0.0, 0.5])
        assert np.allclose(result.normal, [0.0, 0.0, 1.0])
        assert not result.far_from_surface
        assert result.planar_distance == pytest.approx(0.004)

    def test_far_from_surface_flag(self):
        cloud = simple_cloud([[0.0, 0.0, 0.5]])
        result = adjust_target(cloud, [0.08, 0.0, 0.7])
        assert result.far_from_surface

    def test_adjustment_is_idempotent(self):
        rng = np.random.default_rng(55)
        cloud = simple_cloud(rng.uniform(-0.3, 0.3, size=(300, 3)))
        for _ in range(20):
            target = rng.uniform(-0.4, 0.4, 3)
            once = adjust_target(cloud, target)
            twice = adjust_target(cloud, once.position)
            assert np.array_equal(once.position, twice.position)
            assert np.array_equal(once.normal, twice.normal)

    def test_adjusted_z_stays_within_cloud_range(self):
        rng = np.random.default_rng(56)
        cloud = simple_cloud(rng.uniform(-0.3, 0.3, size=(200, 3)))
        zmin, zmax = cloud.points[:, 2].min(), cloud.points[:, 2].max()
        for _ in range(20):
            result = adjust_target(cloud, rng.uniform(-0.5, 0.5, 3))
            assert zmin <= result.position[2] <= zmax


def lattice_views():
    """Two cameras straight above the origin, at 1 m and 1.5 m, each seeing a
    plane 1 m below it: every XY of a 2**-9 m lattice twice, at z = 0 and at
    z = 0.5.  The coordinates are dyadic, so queries midway between lattice
    nodes tie exactly, and only the tie-break decides which plane's z a snap
    reads, even after voxelizing (two centroids per XY voxel)."""
    return [(look_at_camera([0.0, 0.0, height], [0.0, 0.0, 0.0], fx=512, width=64, height=48),
             DepthMap(np.full((48, 64), 1.0))) for height in (1.0, 1.5)]


SNAP_SCENES = {
    "noisy-side": lambda: scene_views(NOISY, "side", seed=63),
    "mild-front": lambda: scene_views(MILD, "front", seed=63),
    "lattice": lattice_views,
}


@functools.lru_cache(maxsize=None)
def snap_oracle(name, voxel):
    """A scene's views and the cloud of its whole voxel grid, built eagerly
    from the raw points (the points of a voxel-0 `fuse`)."""
    views = SNAP_SCENES[name]()
    raw = fuse(views, voxel=0.0).points
    toward = np.mean([camera.center for camera, _ in views], axis=0)
    grid = raw if voxel == 0 else _voxel_centroids(raw, voxel)
    return views, FusedCloud._with_pca_normals(grid, toward)


@functools.lru_cache(maxsize=None)
def built_grid(name, voxel):
    """A scene's views and its fused cloud, whose whole grid reading `points` built."""
    views = snap_oracle(name, voxel)[0]
    cloud = fuse(views, voxel=voxel)
    cloud.points
    return views, cloud


def assert_same_snap(got, want):
    assert got.position.tobytes() == want.position.tobytes()
    assert got.normal.tobytes() == want.normal.tobytes()
    assert got.planar_distance == want.planar_distance
    assert got.far_from_surface == want.far_from_surface


class TestSnapWindows:
    """A fused cloud builds its voxel grid when its points are read; a snap
    before that voxelizes only a key window of its raw points."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_window_snap_equals_the_whole_grid_snap(self, data):
        name = data.draw(st.sampled_from(sorted(SNAP_SCENES)), label="scene")
        voxel = data.draw(st.sampled_from([0.0, 0.002, 0.005]), label="voxel")
        views, oracle = snap_oracle(name, voxel)
        lo, hi = oracle.points[:, :2].min(axis=0), oracle.points[:, :2].max(axis=0)
        unit = st.floats(-0.25, 1.25)
        xy = lo + np.array([data.draw(unit), data.draw(unit)]) * (hi - lo)
        kind = data.draw(st.sampled_from(["inside", "voxel-edge", "tie", "far"]), label="kind")
        if kind == "voxel-edge":  # on a key boundary in x, y or both
            step = voxel or 0.002
            edge = np.floor(xy / step) * step
            xy = np.where(data.draw(st.sampled_from([[1, 0], [0, 1], [1, 1]])), edge, xy)
        elif kind == "tie":
            if name == "lattice":  # a lattice cell's centre: 8 raw points tie
                xy = (np.floor(xy * 512) + 0.5) / 512
            else:  # midway between a grid point and the next one
                index = data.draw(st.integers(0, len(oracle) - 2))
                xy = (oracle.points[index, :2] + oracle.points[index + 1, :2]) / 2
        elif kind == "far":
            direction = np.array(data.draw(st.sampled_from([[1, 0], [-1, 0.5], [0.2, -1]])))
            xy = xy + direction * data.draw(st.floats(0.06, 100.0))
        cloud = fuse(views, voxel=voxel)
        assert_same_snap(adjust_target(cloud, xy), adjust_target(oracle, xy))
        assert voxel == 0 or cloud._points is None  # the snap never built the whole grid

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_shared_window_snap_equals_the_whole_grid_snap(self, data):
        """One snap of 1-4 queries, spread up to several first half-widths
        apart and off the surface too: each query's Z, planar distance and
        normal are bitwise those of the built whole grid, and so is each
        result of one `adjust_target` call on them all."""
        name = data.draw(st.sampled_from(sorted(SNAP_SCENES)), label="scene")
        voxel = data.draw(st.sampled_from([0.0, 0.002, 0.005]), label="voxel")
        views, built = built_grid(name, voxel)
        lo, hi = built.points[:, :2].min(axis=0), built.points[:, :2].max(axis=0)
        unit = st.floats(-0.25, 1.25)
        first = lo + np.array([data.draw(unit), data.draw(unit)]) * (hi - lo)
        half_width = NORMAL_RADIUS + voxel  # the first window's
        spread = data.draw(st.sampled_from([0.0, 0.003, half_width, 4 * half_width]),
                           label="spread")
        offset = st.floats(-1.0, 1.0)
        queries = [first] + [
            first + spread * np.array([data.draw(offset), data.draw(offset)])
            for _ in range(data.draw(st.integers(0, 3), label="more queries"))]
        kind = data.draw(st.sampled_from(["spread", "tie", "far"]), label="last query")
        if kind == "tie":  # midway between two grid points
            index = data.draw(st.integers(0, len(built) - 2))
            queries[-1] = (built.points[index, :2] + built.points[index + 1, :2]) / 2
        elif kind == "far":  # off the surface: the window widens for it
            direction = np.array(data.draw(st.sampled_from([[1, 0], [-1, 0.5], [0.2, -1]])))
            queries[-1] = queries[-1] + direction * data.draw(st.floats(0.06, 1.0))
        cloud = fuse(views, voxel=voxel)
        surface, neighbors = _snap(cloud, *queries)
        assert len(neighbors) == len(queries)
        for xy, neighbor in zip(queries, neighbors):
            want = adjust_target(built, xy)
            assert neighbor.point[2].tobytes() == want.position[2].tobytes()
            assert neighbor.planar_distance == want.planar_distance
            assert surface.normal_at(neighbor.index).tobytes() == want.normal.tobytes()
        adjusted = adjust_target(cloud, queries)
        assert len(adjusted) == len(queries)
        for xy, got in zip(queries, adjusted):
            assert_same_snap(got, adjust_target(built, xy))
        assert voxel == 0 or cloud._points is None  # the snap never built the whole grid

    def test_a_shared_window_widens_for_any_query(self, monkeypatch):
        """A query off the surface at the queries' box corner widens the one
        window until every query's reach fits its own half-width."""
        views, built = built_grid("noisy-side", 0.005)
        windows = []

        def recording(views, voxel, low, high, rounding):
            windows.append(high - low)
            return _view_window(views, voxel, low, high, rounding)

        monkeypatch.setattr("scanloc.cloud._view_window", recording)
        on_surface = built.points[len(built) // 2, :2]
        queries = [on_surface, on_surface + [0.004, -0.003], on_surface + [-0.3, 0.0]]
        surface, neighbors = _snap(fuse(views, voxel=0.005), *queries)
        assert len(windows) > 1 and np.all(windows[-1] > windows[0])
        for xy, neighbor in zip(queries, neighbors):
            want = adjust_target(built, xy)
            assert neighbor.point[2] == want.position[2]
            assert neighbor.planar_distance == want.planar_distance
            assert surface.normal_at(neighbor.index).tobytes() == want.normal.tobytes()

    def test_key_window_keeps_whole_voxels_in_order(self):
        rows = fuse(scene_views(NOISY, "side", seed=63), voxel=0.0).points.T
        rng = np.random.default_rng(65)
        for voxel in (0.002, 0.005):
            keys = np.floor(rows[:2] / voxel)
            for _ in range(20):
                low = keys[:, rng.integers(0, rows.shape[1])] - rng.integers(0, 15, 2)
                high = low + rng.integers(0, 30, 2)
                inside = np.all((keys >= low[:, None]) & (keys <= high[:, None]), axis=0)
                window = _key_window(rows, voxel, low, high)
                assert window.shape == (3, np.count_nonzero(inside))
                assert window.tobytes() == np.ascontiguousarray(rows[:, inside]).tobytes()

    def test_lattice_cell_centres_tie_exactly(self):
        views, oracle = snap_oracle("lattice", 0.0)
        for xy in ([0.5 / 512, 0.5 / 512], [-7.5 / 512, 3.5 / 512]):
            d2 = ((oracle.points[:, :2] - xy) ** 2).sum(axis=1)
            assert np.count_nonzero(d2 == d2.min()) == 8
        # and at a 2 mm voxel, each tie is between a centroid of each plane
        views, oracle = snap_oracle("lattice", 0.002)
        d2 = ((oracle.points[:, :2] - [0.0, 0.0]) ** 2).sum(axis=1)
        assert set(oracle.points[d2 == d2.min(), 2]) == {0.0, 0.5}
        for voxel in (0.002, 0.005):
            views, oracle = snap_oracle("lattice", voxel)
            for xy in oracle.points[::97, :2]:
                assert_same_snap(adjust_target(fuse(views, voxel=voxel), xy),
                                 adjust_target(oracle, xy))

    @pytest.mark.parametrize("noise, pose_kind, voxel", FUSION_CASES + [
        pytest.param(MILD, "side", 0.005, id="mild-side-5mm"),
        pytest.param(NOISY, "front", 0.002, id="noisy-front-2mm")])
    def test_localize_voxelizes_only_windows(self, noise, pose_kind, voxel, monkeypatch):
        (scene,) = generate_cohort(1, noise=noise, pose_kind=pose_kind, seed=63)
        views = list(zip(scene.cameras, scene.depths))
        pixels = sum(np.count_nonzero(depth.valid_mask) for _, depth in views)
        cloud = fuse(views, voxel=voxel)
        sizes, snaps = [], []

        def recording(points, voxel):
            sizes.append(len(points))
            return _voxel_centroids(points, voxel)

        def counted_snap(cloud, *targets):
            snaps.append(len(targets))
            return _snap(cloud, *targets)

        monkeypatch.setattr("scanloc.cloud._voxel_centroids", recording)
        monkeypatch.setattr("scanloc.cloud._snap", counted_snap)
        poses = localize(*scene.cameras, scene.observation, cloud, scene.ratios,
                         scene.pose_kind)
        assert sorted(p.target_id for p in poses) == sorted(scene.targets_true)
        assert snaps == [len(poses)]  # one snap holds every target
        assert sizes
        assert all(size < pixels / 4 for size in sizes), sizes
        assert cloud._points is None  # the whole grid was never built

    def test_a_snapped_cloud_reads_as_a_fresh_one(self, tmp_path):
        views = scene_views(NOISY, "side", seed=63)
        snapped, fresh = fuse(views, voxel=0.002), fuse(views, voxel=0.002)
        for xy in ([0.0, 0.2], [0.05, 0.3], [3.0, -2.0]):
            adjust_target(snapped, xy)
        assert len(snapped) == len(fresh)
        assert snapped.points.tobytes() == fresh.points.tobytes()
        snapped.save(tmp_path / "snapped.cloud")
        fresh.save(tmp_path / "fresh.cloud")
        assert (tmp_path / "snapped.cloud").read_bytes() == (tmp_path / "fresh.cloud").read_bytes()

    @pytest.mark.parametrize("noise, pose_kind, voxel", FUSION_CASES)
    def test_an_unread_cloud_holds_only_its_raw_points(self, noise, pose_kind, voxel):
        """24 B per valid pixel (three float64 coordinates) and its key bounds."""
        views = scene_views(noise, pose_kind, seed=63)
        pixels = sum(np.count_nonzero(depth.valid_mask) for _, depth in views)
        tracemalloc.start()
        try:
            cloud = fuse(views, voxel=voxel)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 24 * pixels + 4096, f"{held - 24 * pixels} B beyond the raw points"
        assert cloud._points is None


def plane_views(center, target, step, fx=300.0, width=64, height=48):
    """One tilted camera's view of the plane z = 0, with only every `step`-th
    pixel of every `step`-th row valid."""
    camera = look_at_camera(center, target, fx=fx, width=width, height=height)
    pixels = np.argwhere(np.ones((height, width)))[:, ::-1].astype(float)
    origin, rays = camera.pixel_rays(pixels)
    depth = (-origin[2] / rays[:, 2]).reshape(height, width)
    sparse = np.zeros((height, width), dtype=bool)
    sparse[::step, ::step] = True
    return [(camera, DepthMap(np.where(sparse & (depth > 0), depth, 0.0)))]


def assert_same_window(views, voxel, low, high, rounding):
    """`_view_window` of the views is bitwise `_key_window` of all their points."""
    rows = fuse(views, voxel=0.0).points.T
    got = _view_window([_View(camera, depth) for camera, depth in views],
                       voxel, low, high, rounding)
    want = _key_window(rows, voxel, low, high)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


class TestViewWindows:
    """A snap deprojects only the valid pixels of each view's image rectangle
    around its window's prefilter box; the window's points are bitwise, and in
    the same order, those of the whole deprojection."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_window_rows_equal_the_whole_deprojection(self, data):
        name = data.draw(st.sampled_from(sorted(SNAP_SCENES)), label="scene")
        voxel = data.draw(st.sampled_from([0.002, 0.005]), label="voxel")
        views, raw = snap_oracle(name, 0.0)
        keys = np.floor(raw.points[:, :2] / voxel)
        centre = keys[data.draw(st.integers(0, len(keys) - 1), label="point")]
        offset = st.integers(-60, 60) if data.draw(st.booleans(), label="shifted") else st.just(0)
        low = centre + [data.draw(offset), data.draw(offset)] - [data.draw(st.integers(0, 30)),
                                                                 data.draw(st.integers(0, 30))]
        high = low + [data.draw(st.integers(0, 60)), data.draw(st.integers(0, 60))]
        rounding = data.draw(st.sampled_from([0.0, 1e-12, 1e-5]), label="rounding")
        assert_same_window(views, voxel, low, high, rounding)

    def test_windows_of_one_valid_pixel(self):
        """A rectangle that holds one valid pixel of a view of many gives its
        point the bits the whole view's transform gives it."""
        views = plane_views([0.03, -0.02, 1.0], [0.0, 0.0, 0.0], step=8)
        view, voxel = _View(*views[0]), 0.001
        rows = fuse(views, voxel=0.0).points.T
        assert view.count == rows.shape[1] > 40
        for column in range(rows.shape[1]):
            low = high = np.floor(rows[:2, column] / voxel)
            top, bottom, left, right = view.rectangle(*_prefilter_box(voxel, low, high, 0.0))
            assert np.count_nonzero(view.mask[top:bottom, left:right]) == 1
            window = assert_same_window(views, voxel, low, high, 0.0)
            assert window.shape == (3, 1)

    def test_prism_with_a_corner_behind_the_camera(self):
        """A wide camera grazing a plane: its box reaches behind it, and a
        window there falls back to every valid pixel of the view."""
        views = plane_views([0.0, 0.0, 1.0], [1.0, 1.0, 0.0], step=1, fx=20.0)
        view, voxel = _View(*views[0]), 0.005
        pixels, box = view.extent
        behind = 0
        for x, y in itertools.product(np.linspace(box[0, 0], box[0, 1], 5),
                                      np.linspace(box[1, 0], box[1, 1], 5)):
            low = np.floor(np.array([x, y]) / voxel) - 4
            high = low + 8
            lower, upper = _prefilter_box(voxel, low, high, 0.0)
            lo = np.append(np.maximum(lower, box[:2, 0]), box[2, 0])
            hi = np.append(np.minimum(upper, box[:2, 1]), box[2, 1])
            corners = (np.array(list(itertools.product(*zip(lo, hi)))) - view.camera.center)
            if np.any(corners @ view.camera.pose.rotation[:, 2] <= MIN_DEPTH):
                behind += 1
                assert view.rectangle(lower, upper) == pixels
            assert_same_window(views, voxel, low, high, 0.0)
        assert behind > 0

    def test_window_off_every_view(self):
        views, _ = snap_oracle("noisy-side", 0.0)
        for low in ([4000.0, 4000.0], [-5000.0, 10.0], [0.0, -3000.0]):
            low = np.array(low)
            for camera, depth in views:
                top, bottom, left, right = _View(camera, depth).rectangle(
                    *_prefilter_box(0.005, low, low + 10, 0.0))
                assert bottom <= top or right <= left
            assert assert_same_window(views, 0.005, low, low + 10, 0.0).shape == (3, 0)


def counting_deproject(monkeypatch):
    """Patch `PinholeCamera.deproject` to count the pixels it lifts."""
    counted = []
    deproject = PinholeCamera.deproject

    def counting(self, pixels, depth, out=None):
        counted.append(np.size(depth))
        return deproject(self, pixels, depth, out)

    monkeypatch.setattr(PinholeCamera, "deproject", counting)
    return counted


class TestUnreadClouds:
    """What a fused cloud leaves undone, and holds, until its points are read."""

    @pytest.mark.parametrize("noise, pose_kind, voxel", FUSION_CASES)
    def test_snaps_deproject_a_small_share_of_the_pixels(self, noise, pose_kind, voxel,
                                                         monkeypatch):
        """`fuse` deprojects nothing; `localize` deprojects under a quarter of
        the valid pixels in all, and the back-projection, one snap per target
        for its three points, under 12% in all."""
        (scene,) = generate_cohort(1, noise=noise, pose_kind=pose_kind, seed=63)
        views = list(zip(scene.cameras, scene.depths))
        pixels = sum(np.count_nonzero(depth.valid_mask) for _, depth in views)
        counted = counting_deproject(monkeypatch)
        cloud = fuse(views, voxel=voxel)
        assert sum(counted) == 0
        poses = localize(*scene.cameras, scene.observation, cloud, scene.ratios,
                         scene.pose_kind)
        assert sorted(p.target_id for p in poses) == sorted(scene.targets_true)
        assert 0 < sum(counted) < pixels / 4
        assert cloud._points is None

        per_snap = []

        def counted_snap(cloud, *targets):
            before = sum(counted)
            snapped = _snap(cloud, *targets)
            per_snap.append(sum(counted) - before)
            return snapped

        monkeypatch.setattr("scanloc.evaluation._snap", counted_snap)
        cloud = fuse(views, voxel=voxel)
        for target_id in scene.targets_true:
            assert backprojection_comparison(scene, cloud, target_id)
        assert len(per_snap) == len(scene.targets_true)
        assert all(count > 0 for count in per_snap), per_snap
        assert sum(per_snap) < 0.12 * pixels, (sum(per_snap), pixels)
        assert cloud._points is None

    @pytest.mark.parametrize("noise, pose_kind, voxel", FUSION_CASES)
    def test_an_unread_cloud_holds_a_byte_per_image_pixel(self, noise, pose_kind, voxel):
        """Its views' valid masks, and a few KiB beside them."""
        views = scene_views(noise, pose_kind, seed=63)
        image = sum(depth.values.size for _, depth in views)
        tracemalloc.start()
        try:
            cloud = fuse(views, voxel=voxel)
            adjust_target(cloud, [0.0, 0.25])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= image + 4096, f"{held - image} B beyond the masks"
        assert cloud._points is None

    def test_an_unread_voxel_0_cloud_holds_a_byte_per_image_pixel(self):
        """A cloud of every raw point is its views until read, too."""
        views = scene_views(MILD, "front", seed=63)
        image = sum(depth.values.size for _, depth in views)
        tracemalloc.start()
        try:
            cloud = fuse(views, voxel=0.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= image + 4096, f"{held - image} B beyond the masks"
        assert cloud._points is None

    def test_a_grid_too_fine_to_key_is_refused_only_when_read(self, tmp_path, monkeypatch):
        """At 0.1 um a generated scene's whole grid cannot be keyed in int64,
        but a snap's windows can: `fuse` returns, and each snap is bitwise the
        snap on the grid of the raw points whose keys lie in an XY box of
        +-0.08 m around it, which holds the snap's last window and still keys
        into int64.  Reading the points refuses the grid, and `save` then
        leaves no file."""
        views = scene_views(MILD, "front", seed=63)
        voxel, half = 1e-7, 0.08
        raw = fuse(views, voxel=0.0).points
        with pytest.raises(ScanlocError, match="voxel size 1e-07 m is too small to key"):
            _key_bounds(raw.T, voxel)
        cloud = fuse(views, voxel=voxel)
        toward = np.mean([camera.center for camera, _ in views], axis=0)
        windows = []

        def recording(views, voxel, low, high, rounding):
            windows.append((low, high))
            return _view_window(views, voxel, low, high, rounding)

        monkeypatch.setattr("scanloc.cloud._view_window", recording)
        rng = np.random.default_rng(66)
        for xy in raw[rng.integers(0, len(raw), 4), :2] + [1e-4, -2e-4]:
            got = adjust_target(cloud, xy)
            low, high = np.floor((xy - half) / voxel), np.floor((xy + half) / voxel)
            assert np.all(low <= windows[-1][0]) and np.all(windows[-1][1] <= high)
            crop = _key_window(raw.T, voxel, low, high).T
            oracle = FusedCloud._with_pca_normals(_voxel_centroids(crop, voxel), toward)
            assert_same_snap(got, adjust_target(oracle, xy))
        assert cloud._points is None
        path = tmp_path / "fine.cloud"
        for read in (lambda: cloud.points, lambda: len(cloud), lambda: cloud.save(path)):
            with pytest.raises(ScanlocError, match="voxel size 1e-07 m is too small to key"):
                read()
        assert not path.exists()

    def test_frustum_keys_overflow_but_the_points_fit(self):
        """Keys of 0.1 um would overflow int64 over a 20 x 20 view's whole
        frustum, 10 m deep, but not over its points on a plane 1 m away: the
        cloud snaps on their grid, and builds it when read."""
        views = plane_views([0.05, 0.02, 1.0], [0.0, 0.0, 0.0], step=1, width=20, height=20)
        voxel = 1e-7
        raw = fuse(views, voxel=0.0).points
        _key_bounds(raw.T, voxel)
        toward = views[0][0].center
        oracle = FusedCloud._with_pca_normals(_voxel_centroids(raw, voxel), toward)
        cloud = fuse(views, voxel=voxel)
        for xy in raw[::37, :2] + [1e-4, -2e-4]:
            assert_same_snap(adjust_target(cloud, xy), adjust_target(oracle, xy))
        assert cloud.points.tobytes() == oracle.points.tobytes()


class TestCloudErrors:
    def test_bad_arrays_are_config_errors_and_value_errors(self, tmp_path):
        calls = [
            lambda: DepthMap(np.zeros(3)),
            lambda: write_pfm(tmp_path / "flat.pfm", np.zeros(3)),
            lambda: FusedCloud(points=np.zeros((2, 2)), normals=np.zeros((2, 2))),
            lambda: FusedCloud(points=[[np.nan, 0.0, 0.0]], normals=[[0.0, 0.0, 1.0]]),
            lambda: FusedCloud(points=[[0.0, 0.0, 0.0]], normals=[[np.inf, 0.0, 1.0]]),
            lambda: FusedCloud(points=[[0.0, 0.0, 0.0]], normals=[[0.0, 0.0, 2.0]]),
            lambda: simple_cloud([[0.0, 0.0, 0.5]]).save(tmp_path / "given.cloud"),
            lambda: adjust_target(simple_cloud([[0.0, 0.0, 0.5]]), [0.1]),
            lambda: adjust_target(simple_cloud([[0.0, 0.0, 0.5]]), np.zeros((0, 3))),
            lambda: adjust_target(simple_cloud([[0.0, 0.0, 0.5]]), np.zeros((2, 2, 3))),
        ]
        for call in calls:
            with pytest.raises(ConfigError) as info:
                call()
            assert isinstance(info.value, ValueError)


@pytest.fixture(scope="module")
def saved_cloud(tmp_path_factory):
    """The bytes of a saved sphere cloud, and a path to write altered copies to."""
    cam = look_at_camera([0.05, 0.01, 1.0], [0, 0.01, 0], fx=400, width=80, height=60)
    directory = tmp_path_factory.mktemp("saved_cloud")
    fuse([(cam, DepthMap(render_sphere_depth(cam, [0, 0, 0], 0.25)))], voxel=0.01).save(
        directory / "good.cloud")
    return (directory / "good.cloud").read_bytes(), directory / "bad.cloud"


class TestCloudFile:
    def test_round_trip_is_byte_exact(self, tmp_path):
        cam = look_at_camera([0.05, 0.01, 1.0], [0, 0.01, 0], fx=400, width=80, height=60)
        cloud = fuse([(cam, DepthMap(render_sphere_depth(cam, [0, 0, 0], 0.25)))], voxel=0.01)
        p1, p2 = tmp_path / "a.cloud", tmp_path / "b.cloud"
        cloud.save(p1)
        loaded = FusedCloud.load(p1)
        # storage is float32: loaded coordinates equal the cast originals
        assert np.array_equal(loaded.points, cloud.points.astype(np.float32).astype(float))
        loaded.save(p2)
        assert len(p1.read_bytes()) == 40 + 12 * len(cloud)
        assert p2.read_bytes() == p1.read_bytes()

    def test_loaded_normals_agree_with_fused(self, tmp_path):
        (scene,) = generate_cohort(
            1, noise=NoiseSpec(keypoint_sigma_px=1.0, depth_sigma_m=0.002),
            pose_kind="front", seed=69)
        fused = fuse(list(zip(scene.cameras, scene.depths)), voxel=0.005)
        path = tmp_path / "front.cloud"
        fused.save(path)
        loaded = FusedCloud.load(path)
        # the same estimate over float32-rounded points, facing the same point
        for index in np.random.default_rng(70).integers(0, len(fused), 300):
            angle = angle_between_degrees(loaded.normal_at(index), fused.normal_at(index))
            assert angle < 0.01

    def test_cloud_with_given_normals_has_no_file_form(self, tmp_path):
        path = tmp_path / "given.cloud"
        with pytest.raises(ValueError, match="given normals"):
            simple_cloud([[0.0, 0.0, 0.5], [1.0, 0.0, 0.9]]).save(path)
        assert not path.exists()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.cloud"
        path.write_bytes(b"NOTCLOUD" + b"\x00" * 32)
        with pytest.raises(ValueError):
            FusedCloud.load(path)

    # the 2-point file: magic [0, 8), count [8, 16), toward [16, 40), points [40, 64)
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda good: good[:8],
            lambda good: good[:12],
            lambda good: good[:28],
            lambda good: good[:8] + struct.pack("<Q", 2**63) + good[16:],
            lambda good: good[:8] + struct.pack("<Q", 2**40) + good[16:],
            lambda good: good[:8] + struct.pack("<Q", 0) + good[16:40],
            lambda good: good[:-4],
            lambda good: good + b"\x00" * 12,
            lambda good: good[:40] + struct.pack("<f", np.nan) + good[44:],
            lambda good: good[:16] + struct.pack("<d", np.nan) + good[24:],
            # the v1 layout: count, then float32 points and unit normals
            lambda good: b"SCLOUD01" + good[8:16] + good[40:]
            + np.tile([0.0, 0.0, 1.0], 2).astype("<f4").tobytes(),
        ],
        ids=["cut-after-magic", "cut-in-count", "cut-in-toward", "count-2**63", "count-2**40",
             "count-0", "truncated", "trailing", "nan-point", "nan-toward", "v1-magic"],
    )
    def test_malformed_file_raises(self, tmp_path, corrupt):
        good = tmp_path / "good.cloud"
        points = np.array([[0.0, 0.0, 0.5], [1.0, 0.0, 0.9]])
        FusedCloud._with_pca_normals(points, np.array([0.5, 0.0, 2.0])).save(good)
        assert len(FusedCloud.load(good)) == 2 and len(good.read_bytes()) == 64
        bad = tmp_path / "bad.cloud"
        bad.write_bytes(corrupt(good.read_bytes()))
        assert_malformed(FusedCloud.load, bad)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_cut_or_non_finite_file_raises_malformed(self, saved_cloud, data):
        """A `.cloud` cut at any byte, or with one coordinate NaN or infinite,
        raises MalformedFileError naming the file, never another exception."""
        good, bad = saved_cloud
        kind = data.draw(st.sampled_from(["cut", "nan", "inf", "-inf"]), label="kind")
        if kind == "cut":
            corrupt = good[:data.draw(st.integers(0, len(good) - 1), label="cut")]
        else:
            at = 40 + 4 * data.draw(st.integers(0, (len(good) - 40) // 4 - 1), label="coordinate")
            corrupt = good[:at] + struct.pack("<f", float(kind)) + good[at + 4:]
        bad.write_bytes(corrupt)
        assert_malformed(FusedCloud.load, bad)
