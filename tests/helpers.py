"""Shared helpers for test scenes: cameras, rigs, transforms, hand-eye
samples, analytic renders, the reference voxel centroids, and JSON files
with one number made bad."""

import numpy as np
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from scanloc.geometry import MIN_DEPTH, PinholeCamera, RigidTransform
from scanloc.handeye import PosePairSample
from scanloc.synth import TorsoSpec, default_cameras


def random_transform(rng, trans_scale=1.0) -> RigidTransform:
    rot = Rotation.random(random_state=np.random.RandomState(rng.integers(2**31)))
    return RigidTransform(rot.as_matrix(), rng.uniform(-trans_scale, trans_scale, 3))


def synthesize_samples(x_true, tag_in_gripper, grippers) -> list[PosePairSample]:
    """Tag detections from the rigid-scene model, via raw 4x4 products: the
    camera X sees the tag mounted at Y on a gripper at G as X^-1 @ G @ Y."""
    x_inv = np.linalg.inv(x_true.as_matrix())
    samples = []
    for g in grippers:
        c = x_inv @ g.as_matrix() @ tag_in_gripper.as_matrix()
        samples.append(
            PosePairSample(
                gripper_in_base=g,
                tag_in_camera=RigidTransform.orthonormalized(c[:3, :3], c[:3, 3]),
            )
        )
    return samples


def synthesize_pose_pairs(rng, n) -> tuple[RigidTransform, list[PosePairSample]]:
    """A random camera pose and `n` exact samples of it, drawn in the order
    camera pose, tag mount (within 0.1 m), then each gripper pose."""
    x_true = random_transform(rng)
    tag_in_gripper = random_transform(rng, trans_scale=0.1)
    grippers = [random_transform(rng) for _ in range(n)]
    return x_true, synthesize_samples(x_true, tag_in_gripper, grippers)


def batched_rotation(points, rotation) -> np.ndarray:
    """`points @ rotation.T`, the (N, 3) batched expression every rotation of
    points equals bit for bit.  A lone point is taken from a two-row batch:
    numpy would rotate one row with gemv, which rounds differently from gemm."""
    batch = np.repeat(points, 2, axis=0) if len(points) == 1 else points
    return np.matmul(batch, rotation.T)[:len(points)]


def look_at_camera(center, target, fx=600.0, width=640, height=480) -> PinholeCamera:
    """Camera at `center` with its optical axis through `target`.

    Image "down" (+v) is aligned with world +Y as far as the viewing
    direction allows, which keeps top-down cameras consistently rolled.
    """
    center = np.asarray(center, dtype=float)
    forward = np.asarray(target, dtype=float) - center
    forward = forward / np.linalg.norm(forward)
    down_ref = np.array([0.0, 1.0, 0.0])
    y_cam = down_ref - np.dot(down_ref, forward) * forward
    norm = np.linalg.norm(y_cam)
    if norm < 1e-9:
        raise ValueError("viewing direction parallel to the +Y roll reference")
    y_cam = y_cam / norm
    x_cam = np.cross(y_cam, forward)
    pose = RigidTransform(np.column_stack([x_cam, y_cam, forward]), center)
    return PinholeCamera(fx, fx, width / 2, height / 2, width, height, pose)


def two_view_rig(height=1.2, target_height=0.2):
    """Two cameras 0.3 m apart at `height`, both aimed at the midline point
    (0, 0.25, `target_height`)."""
    target = [0.0, 0.25, target_height]
    return (look_at_camera([-0.15, 0.25, height], target),
            look_at_camera([0.15, 0.25, height], target))


def translated_pair(offset) -> tuple[PinholeCamera, PinholeCamera]:
    """Two 640x480 cameras looking along +Z, the second moved by `offset`:
    one pixel seen in both views is one viewing direction."""
    poses = (RigidTransform.identity(), RigidTransform(np.eye(3), offset))
    return tuple(PinholeCamera(600, 600, 320, 240, 640, 480, pose) for pose in poses)


def small_cameras() -> tuple[PinholeCamera, PinholeCamera]:
    """The default rig at quarter resolution, for fast tests."""
    return tuple(
        PinholeCamera(fx=300.0, fy=300.0, cx=159.5, cy=119.5, width=320, height=240,
                      pose=cam.pose)
        for cam in default_cameras(TorsoSpec())
    )


def pixel_ray_grid(camera: PinholeCamera):
    """Raw ray math for every pixel: origin plus direction with unit camera depth.

    Written out longhand (no camera-class helpers) so renders built on it
    stay independent of the library's projection code.
    """
    us, vs = np.meshgrid(np.arange(camera.width), np.arange(camera.height))
    dx = (us.ravel() - camera.cx) / camera.fx
    dy = (vs.ravel() - camera.cy) / camera.fy
    dirs_cam = np.column_stack([dx, dy, np.ones_like(dx)])
    dirs = dirs_cam @ camera.pose.rotation.T
    return camera.pose.translation, dirs


def render_sphere_depth(
    camera: PinholeCamera, center, radius, max_incidence_deg=75.0
) -> np.ndarray:
    """Analytic depth map of the camera-facing sphere cap; misses are 0.

    Pixels whose ray grazes the surface beyond max_incidence_deg are left
    invalid: a real depth camera returns garbage there, and the "faces the
    rig" normal orientation is undefined at the exact silhouette.
    """
    origin, dirs = pixel_ray_grid(camera)
    oc = origin - np.asarray(center, dtype=float)
    a = np.einsum("ij,ij->i", dirs, dirs)
    b = 2.0 * dirs @ oc
    c = oc @ oc - radius**2
    disc = b * b - 4 * a * c
    hit = disc > 0
    depth = np.zeros(len(dirs))
    t = (-b[hit] - np.sqrt(disc[hit])) / (2 * a[hit])
    points = origin + t[:, None] * dirs[hit]
    radial = (points - center) / radius
    ray_unit = dirs[hit] / np.linalg.norm(dirs[hit], axis=1, keepdims=True)
    incidence = np.degrees(np.arccos(np.clip(-np.einsum("ij,ij->i", radial, ray_unit), -1, 1)))
    t[(t <= 0) | (incidence > max_incidence_deg)] = 0.0
    depth[hit] = t
    return depth.reshape(camera.height, camera.width)


def full_image_roots(camera: PinholeCamera, torso):
    """Both roots of one ray per pixel of the whole image, (H*W, 2) near then
    far, and whether each root is a hit on the torso, (H*W, 2).

    The same closed-form intersection as `synth.raycast_depth` with no ray
    culled and both roots solved for every ray.
    """
    us, vs = np.meshgrid(np.arange(camera.width), np.arange(camera.height))
    uv = np.column_stack([us.ravel(), vs.ravel()]).astype(float)
    origin, dirs = camera.pixel_rays(uv)

    a, c, h = torso.half_width, torso.thickness, torso.base_height
    qa = (dirs[:, 0] / a) ** 2 + (dirs[:, 2] / c) ** 2
    qb = 2 * (origin[0] * dirs[:, 0] / a**2 + (origin[2] - h) * dirs[:, 2] / c**2)
    qc = (origin[0] / a) ** 2 + ((origin[2] - h) / c) ** 2 - 1.0

    disc = qb**2 - 4 * qa * qc
    hit = (disc >= 0) & (qa > 1e-18)
    sq = np.sqrt(np.where(hit, disc, 0.0))
    denom = np.where(hit, 2 * qa, 1.0)
    roots = np.stack([(-qb - sq) / denom, (-qb + sq) / denom], axis=1)
    y = origin[1] + roots * dirs[:, 1:2]
    z = origin[2] + roots * dirs[:, 2:3]
    ok = hit[:, None] & (roots > MIN_DEPTH) & (z >= h - 1e-12) & (y >= 0) & (y <= torso.length)
    return roots, ok


def full_image_raycast(camera: PinholeCamera, torso) -> np.ndarray:
    """Torso depth map from one ray per pixel of the whole image; misses are 0.

    The nearest of `full_image_roots`' hits per pixel, so the culled, banded
    cast must match it bit for bit.
    """
    roots, ok = full_image_roots(camera, torso)
    t_best = np.full(len(roots), np.inf)
    for k in (0, 1):
        t = roots[:, k]
        t_best = np.where(ok[:, k] & (t < t_best), t, t_best)

    depth = np.where(np.isfinite(t_best), t_best, 0.0)
    return depth.reshape(camera.height, camera.width)


# Independent transcriptions of the target-regression construction.  The
# perpendicular direction comes from scipy's null-space routine rather than a
# cross product, so these share no code path with the library.


def oracle_perpendicular(start, end, reference):
    from scipy.linalg import null_space

    seg = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    t1 = seg / np.linalg.norm(seg)
    rows = np.vstack([t1, [0.0, 0.0, 1.0]])
    basis = null_space(rows)
    assert basis.shape == (3, 1), "segment must not be vertical"
    t2 = basis[:, 0]
    t2 = t2 / np.linalg.norm(t2)
    if np.dot(t2, np.asarray(reference, dtype=float)) < 0:
        t2 = -t2
    return t2


def oracle_front_target(f1, f2, r1, r2, reference):
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    t1_len = np.linalg.norm(f2 - f1)
    f3 = f1 + r1 * (f2 - f1)
    t2 = oracle_perpendicular(f1, f2, reference)
    lam = r2 * t1_len
    return f3 + lam * t2


def oracle_side_target(s1, s2, r1, r2, reference):
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    s3 = s1 + r1 * (s2 - s1)
    t2 = oracle_perpendicular(s1, s2, reference)
    return s3 + r2 * np.linalg.norm(s3 - s1) * t2


def make_front_dataset(rng, n, ratios, noise_sigma=0.0, with_hip=True):
    """Shoulder-pair fit samples with targets from the oracle formulas."""
    from scanloc.targets import FitDataset, FitSample, Keypoints3D, front_reference

    samples = []
    for i in range(n):
        ls = np.array(
            [rng.uniform(-0.05, 0.05), rng.uniform(0.05, 0.15), rng.uniform(0.03, 0.08)]
        )
        phi = rng.uniform(-0.4, 0.4)
        span = rng.uniform(0.26, 0.34)
        seg = np.array([span * np.cos(phi), span * np.sin(phi), rng.uniform(-0.05, 0.05)])
        rs = ls + seg
        mid = 0.5 * (ls + rs)
        hip = mid + np.array(
            [rng.uniform(-0.05, 0.05), rng.uniform(0.30, 0.40), rng.uniform(-0.06, -0.02)]
        )
        kps = Keypoints3D(
            left_shoulder=ls, right_shoulder=rs, right_hip=hip if with_hip else None
        )
        ref = front_reference(kps)
        target = oracle_front_target(ls, rs, ratios[0], ratios[1], ref)
        target = target + noise_sigma * rng.standard_normal(3)
        samples.append(FitSample(keypoints=kps, target=target, scene_id=i))
    return FitDataset(samples)


def make_side_dataset(rng, n, ratios, noise_sigma=0.0, length_range=(0.40, 0.48)):
    """Shoulder-hip fit samples with targets from the oracle formulas."""
    from scanloc.targets import FitDataset, FitSample, Keypoints3D

    reference = np.array([1.0, 0.0, 0.0])
    samples = []
    for i in range(n):
        shoulder = np.array(
            [rng.uniform(0.10, 0.16), rng.uniform(0.06, 0.12), rng.uniform(0.03, 0.07)]
        )
        seg = np.array(
            [rng.uniform(-0.05, 0.01), rng.uniform(*length_range), rng.uniform(-0.02, 0.02)]
        )
        kps = Keypoints3D(right_shoulder=shoulder, right_hip=shoulder + seg)
        target = oracle_side_target(shoulder, shoulder + seg, ratios[0], ratios[1], reference)
        target = target + noise_sigma * rng.standard_normal(3)
        samples.append(FitSample(keypoints=kps, target=target, scene_id=i))
    return FitDataset(samples)


def planar_design(data):
    """Left shoulders, segments, |segment| * sideways unit and targets, in XY,
    the sideways unit picked by `front_reference`."""
    from scanloc.targets import front_reference

    starts, segs, offs, gts = [], [], [], []
    for sample in data.samples:
        kps = sample.keypoints
        ref = front_reference(kps)
        t2 = oracle_perpendicular(kps.left_shoulder, kps.right_shoulder, ref)
        seg = kps.right_shoulder - kps.left_shoulder
        starts.append(kps.left_shoulder[:2])
        segs.append(seg[:2])
        offs.append(np.linalg.norm(seg) * t2[:2])
        gts.append(sample.target[:2])
    return map(np.asarray, (starts, segs, offs, gts))


# JSON values that are not a finite number a float can hold
NOT_NUMBERS = [True, "1.0", None, [1.0], float("nan"), 10**400]


def numeric_leaves(value, path=()):
    """The key paths of every number in the JSON value `value`."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in numeric_leaves(item, (*path, key))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in numeric_leaves(item, (*path, i))]
    return [path] if type(value) in (int, float) else []


def get_path(value, path):
    """The item of the JSON value `value` at the key path `path`."""
    for step in path:
        value = value[step]
    return value


def spoil_a_number(draw, value) -> None:
    """Replace one number of the JSON value `value`, in place, by one of
    NOT_NUMBERS; hypothesis's `draw` picks both."""
    *parents, key = draw(st.sampled_from(numeric_leaves(value)), label="leaf")
    get_path(value, parents)[key] = draw(st.sampled_from(NOT_NUMBERS), label="value")


def unique_rows_centroids(points, voxel):
    """Reference voxel centroids: lexicographic row sort, in-order accumulation."""
    keys = np.floor(points / voxel).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inverse.reshape(-1), points)
    counts = np.bincount(inverse.reshape(-1), minlength=len(uniq))
    return sums / counts[:, None]
