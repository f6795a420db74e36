"""Synthetic torso scenes with exact ground truth.

The subject is an elliptic-cylinder dome: z(x) = h + c*sqrt(1 - (x/a)^2)
for |x| <= a, extruded along Y over [0, length], lying in the base frame
with the head toward -Y.  Everything about it (heights, normals, ray
intersections) has a closed form, so scenes double as oracles: depth maps
are ray-cast analytically, keypoints sit exactly on the surface, and scan
targets are the ratio model (`targets.regress_targets`) evaluated with
known ratio parameters on those keypoints, then dropped vertically onto
the surface.

Noise is applied last and is fully determined by the noise seed: Gaussian
pixel noise on observed keypoints and target pixels, Gaussian depth noise
on valid depth pixels, and per-joint faults that either drop a joint from
both views or displace it by 50 px (a plausible wrong detection).  A view
is cast in float64, one band of image rows at a time; each band gets its
depth noise and is rounded once into the view's float32 depth map, the
bits its PFM file holds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .cloud import DepthMap, PayloadMapping, _valid_depths, pfm_shape, read_pfm, write_pfm
from .errors import ConfigError, MalformedFileError, ScanlocError
from .geometry import MIN_DEPTH, PinholeCamera, Pixel, RigidTransform
from .jsonfile import (
    _as_lists,
    _check_keys,
    _finite,
    _finite_number,
    _two,
    _vectors,
    _whole,
    read_json,
    write_json,
)
from .targets import (
    ALL_JOINTS,
    FRONT_TARGET_IDS,
    POSE_KINDS,
    TARGET_IDS,
    Keypoints3D,
    RatioPair,
    TargetModelParams,
    params_from_dict,
    params_to_dict,
    regress_targets,
    required_joints,
)

DISPLACEMENT_PX = 50.0
# the default rig: two 640x480 cameras (fx 600 px), 0.3 m apart, 1 m above the torso base
RIG_BASELINE = 0.3
RIG_HEIGHT = 1.0
RIG_FX = 600.0
RIG_IMAGE_SIZE = (640, 480)
# fraction of torso surface samples that must project into both views
MIN_VISIBLE_FRACTION = 0.9
# rays per band of `raycast_depth`: small enough that a band's temporaries
# stay in L2 cache and below glibc's mmap threshold
_TILE_RAYS = 8192


@dataclass(frozen=True)
class TorsoSpec:
    """Parametric torso dimensions in meters."""

    half_width: float = 0.17
    thickness: float = 0.105
    length: float = 0.55
    shoulder_span: float = 0.27
    shoulder_offset: float = 0.10
    hip_offset: float = 0.45
    base_height: float = 0.05

    def __post_init__(self):
        for name, value in vars(self).items():
            if not _finite_number(value):
                raise ConfigError(f"torso {name} must be a finite number, got {value!r}")
            if value <= 0 and name in ("half_width", "thickness", "length", "shoulder_span"):
                raise ConfigError(f"torso {name} must be positive")
        if self.shoulder_span >= 2 * self.half_width:
            raise ConfigError("shoulder span must be narrower than the torso")
        if not 0 <= self.shoulder_offset < self.hip_offset <= self.length:
            raise ConfigError("need 0 <= shoulder_offset < hip_offset <= length")

    def surface_height(self, x, y):
        """Surface z over planar points; NaN where the torso is absent."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        arg = 1.0 - (x / self.half_width) ** 2
        z = self.base_height + self.thickness * np.sqrt(np.maximum(arg, 0.0))
        inside = (np.abs(x) <= self.half_width) & (y >= 0) & (y <= self.length)
        return np.where(inside, z, np.nan)

    def surface_normal(self, x, y):
        """Outward (upward) unit normal at planar points on the dome."""
        x = np.asarray(x, dtype=float)
        z = self.surface_height(x, y)
        rel = np.asarray(z, dtype=float) - self.base_height
        n = np.stack(
            [
                2 * x / self.half_width**2,
                np.zeros_like(x),
                2 * rel / self.thickness**2,
            ],
            axis=-1,
        )
        return n / np.linalg.norm(n, axis=-1, keepdims=True)

    def to_dict(self) -> dict:
        return {name: float(getattr(self, name)) for name in _TORSO_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "TorsoSpec":
        _check_keys(data, set(_TORSO_FIELDS), "torso", whole=True)
        return cls(**{k: float(_finite(v, f"torso {k}")) for k, v in data.items()})


_TORSO_FIELDS = tuple(f.name for f in fields(TorsoSpec))


@dataclass(frozen=True)
class NoiseSpec:
    """Observation-noise settings; zero everywhere by default."""

    keypoint_sigma_px: float = 0.0
    depth_sigma_m: float = 0.0
    fault_prob: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        sigmas = (self.keypoint_sigma_px, self.depth_sigma_m)
        if not all(_finite_number(s) and s >= 0 for s in sigmas):
            raise ConfigError(f"noise sigmas must be finite and nonnegative, got {sigmas}")
        if self.seed < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.seed}")
        for joint, prob in self.fault_prob.items():
            if joint not in ALL_JOINTS:
                raise ConfigError(f"unknown joint {joint!r} in fault probabilities")
            if not 0 <= prob <= 1:
                raise ConfigError(f"fault probability for {joint} must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "keypoint_sigma_px": self.keypoint_sigma_px,
            "depth_sigma_m": self.depth_sigma_m,
            "fault_prob": {j: float(p) for j, p in sorted(self.fault_prob.items())},
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict, whole: bool = False) -> "NoiseSpec":
        """`to_dict`'s inverse; a key left out takes its default, unless `whole`."""
        _check_keys(data, {f.name for f in fields(cls)}, "noise", whole)
        fault_prob = data.get("fault_prob", {})
        _check_keys(fault_prob, set(ALL_JOINTS), "noise fault_prob")
        return cls(
            **{k: float(_finite(data.get(k, 0.0), f"noise {k}"))
               for k in ("keypoint_sigma_px", "depth_sigma_m")},
            fault_prob={j: float(_finite(p, f"noise fault_prob {j}"))
                        for j, p in fault_prob.items()},
            seed=_whole(data.get("seed", 0), "noise seed"),
        )


@dataclass(frozen=True, eq=False)
class SyntheticScene:
    """One fully specified two-view capture with ground truth attached."""

    scene_id: int
    pose_kind: str
    torso: TorsoSpec
    noise: NoiseSpec
    ratios: TargetModelParams
    cameras: tuple[PinholeCamera, PinholeCamera]
    depths: tuple[DepthMap, DepthMap]
    observation: tuple[dict, dict]  # the detector's joint pixels; a joint it missed is absent
    keypoints_true: Keypoints3D
    keypoint_pixels_true: tuple[dict, dict]
    targets_true: dict[int, np.ndarray]
    target_normals_true: dict[int, np.ndarray]
    target_pixels_true: tuple[dict, dict]
    target_pixels_observed: tuple[dict, dict]
    faulted_joints: dict[str, str]


def default_cameras(torso: TorsoSpec) -> tuple[PinholeCamera, PinholeCamera]:
    """The default rig: two cameras converging on the torso from above."""
    center = np.array([0.0, torso.length / 2, torso.base_height])
    cam_z = torso.base_height + RIG_HEIGHT
    cams = []
    for side in (-1.0, 1.0):
        position = np.array([side * RIG_BASELINE / 2, torso.length / 2, cam_z])
        cams.append(_look_at_camera(position, center))
    return (cams[0], cams[1])


def _look_at_camera(position, target) -> PinholeCamera:
    forward = np.asarray(target, dtype=float) - np.asarray(position, dtype=float)
    forward = forward / np.linalg.norm(forward)
    down_ref = np.array([0.0, 1.0, 0.0])  # image "down" follows world +Y
    y_cam = down_ref - np.dot(down_ref, forward) * forward
    y_cam = y_cam / np.linalg.norm(y_cam)  # nonzero: a rig camera sits at its target's Y
    x_cam = np.cross(y_cam, forward)
    pose = RigidTransform(np.column_stack([x_cam, y_cam, forward]), np.asarray(position))
    width, height = RIG_IMAGE_SIZE
    return PinholeCamera(RIG_FX, RIG_FX, width / 2, height / 2, width, height, pose)


def raycast_depth(camera: PinholeCamera, torso: TorsoSpec, sigma: float, rng) -> DepthMap:
    """The float32 depth map `camera` observes of the torso dome; misses are 0.

    `_cast_bands` casts the view in float64, one band of image rows at a
    time.  If `sigma` > 0, each band's valid depths (`DepthMap.valid_mask`)
    get Gaussian noise of `sigma` m from `rng`, in float64, drawn band after
    band, so in the image's row-major order.  Each band is then rounded once
    into the float32 map, which starts at zero: these are the bits that
    `save_scene` writes, and no image of 8 B per pixel is ever held.
    """
    depth = np.zeros((camera.height, camera.width), dtype=np.float32)
    for rows, cols, band in _cast_bands(camera, torso):
        if sigma > 0:
            valid = _valid_depths(band)
            band[valid] += sigma * rng.standard_normal(np.count_nonzero(valid))
        depth[rows, cols] = band
    return DepthMap._owning(depth)


def _cast_bands(camera: PinholeCamera, torso: TorsoSpec):
    """The analytic float64 depth of the torso dome per pixel of `camera`,
    as (image rows, image columns, depths) for each band of its cast
    rectangle, top to bottom; misses are 0, and so is every pixel outside
    the rectangle.

    Intersects pixel rays with the elliptic cylinder
    (x/a)^2 + ((z-h)/c)^2 = 1 in closed form and keeps the nearest hit on
    the upper sheet within the torso's Y extent.  Depth is the camera-frame
    Z of the hit (the pixel-ray parameter), matching deprojection.  Rays
    that provably miss are never cast (Kay & Kajiya, SIGGRAPH 1986): only
    pixels in the image rectangle around the projected bounding box (+1 px;
    every pixel if a box corner is behind the camera) get a ray.  The
    rectangle is cut into bands of whole image rows of about `_TILE_RAYS`
    rays each, so a band's temporaries stay small.  Each band writes
    `_roots`' far root, then its near root, wherever
    y = origin_y + t * dy lies in [0, length].

    On a camera whose image v axis is world +Y or -Y
    (R[0,1] == R[2,1] == R[1,0] == R[1,2] == 0), as every `default_cameras`
    view is, the rays of one image column share dx and dz, and so both
    roots (Wald et al., "Interactive Rendering with Coherent Ray Tracing",
    EG 2001): `_roots` runs once, on the rectangle's top row, and one
    `pixel_rays` call over its left column gives each row's dy.  The
    rotation's zeros make the products they enter exact zeros, so dx and dz
    are functions of u alone and dy = R[1,1] * (v - cy) / fy of v alone,
    with the bits of a full-image cast up to the sign of a zero component,
    which no root or test reads.  On any other camera `_roots` runs on each
    band's rays.

    Every depth has the bits of a full-image cast.  `where=` only chooses
    which elements are computed, and leaves the bits of every computed one
    unchanged.  With qa > 0 and sq >= 0, -qb - sq <= -qb + sq holds after
    rounding, and so after the division by the same positive 2qa: the near
    root, written last, is the nearest hit wherever it hits.
    """
    a, c, h = torso.half_width, torso.thickness, torso.base_height
    box = [[x, y, z] for x in (-a, a) for y in (0.0, torso.length) for z in (h, h + c)]
    uv = camera.project_points(box)
    lo, hi = (0, 0), (camera.width, camera.height)
    if not np.isnan(uv).any():
        lo, hi = np.floor(uv.min(axis=0)) - 1, np.ceil(uv.max(axis=0)) + 2
    (u0, v0), (u1, v1) = np.clip([lo, hi], 0, [camera.width, camera.height]).astype(int)
    rows, cols = v1 - v0, u1 - u0
    # ceil(rays / _TILE_RAYS) bands, at most one per row
    bands = max(1, min(-(-rows * cols // _TILE_RAYS), rows))
    edges = np.arange(bands + 1) * rows // bands  # in rows of the rectangle

    origin = camera.center
    qc = (origin[0] / a) ** 2 + ((origin[2] - h) / c) ** 2 - 1.0
    us, vs = np.arange(u0, u1, dtype=float), np.arange(v0, v1, dtype=float)
    r = camera.pose.rotation
    columns = r[0, 1] == r[2, 1] == r[1, 0] == r[1, 2] == 0
    if columns:
        _, top = camera.pixel_rays((us, np.full(cols, float(v0))))
        _, left = camera.pixel_rays((np.full(rows, float(u0)), vs))
        roots = _roots(origin, top[:, 0], top[:, 2], qc, torso)
    for b0, b1 in zip(edges[:-1], edges[1:]):
        if columns:
            dy = left[b0:b1, 1:2]
        else:
            _, dirs = camera.pixel_rays((np.tile(us, b1 - b0), np.repeat(vs[b0:b1], cols)))
            dx, dy, dz = np.moveaxis(dirs.reshape(b1 - b0, cols, 3), -1, 0)
            roots = _roots(origin, dx, dz, qc, torso)
        band = np.zeros((b1 - b0, cols))
        for t in roots:
            y = origin[1] + t * dy
            np.copyto(band, t, where=(y >= 0) & (y <= torso.length))
        yield slice(v0 + b0, v0 + b1), slice(u0, u1), band


def _roots(origin, dx, dz, qc, torso: TorsoSpec) -> list[np.ndarray]:
    """The far root, then the near root, of the rays (dx, dz) from `origin`,
    any arrays that broadcast; NaN where a root is not real or fails the
    depth or upper-sheet test.  A root that misses on every ray is left out."""
    a, c, h = torso.half_width, torso.thickness, torso.base_height
    qa = (dx / a) ** 2 + (dz / c) ** 2
    qb = 2 * (origin[0] * dx / a**2 + (origin[2] - h) * dz / c**2)
    disc = qb**2 - 4 * qa * qc
    real = (disc >= 0) & (qa > 1e-18)
    sq = np.sqrt(disc, out=np.full_like(disc, np.nan), where=real)
    roots = (-qb + sq, -qb - sq)
    for t in roots:
        np.divide(t, 2 * qa, out=t, where=real)
        t[(t <= MIN_DEPTH) | (origin[2] + t * dz < h - 1e-12)] = np.nan
    return [t for t in roots if not np.isnan(t).all()]


def _check_visibility(cameras, torso: TorsoSpec) -> None:
    xs = np.linspace(-torso.half_width, torso.half_width, 21)
    ys = np.linspace(0.0, torso.length, 21)
    gx, gy = np.meshgrid(xs, ys)
    gz = torso.surface_height(gx, gy)
    samples = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    for index, camera in enumerate(cameras):
        fraction = float(np.mean(camera.contains(camera.project_points(samples))))
        if fraction < MIN_VISIBLE_FRACTION:
            raise ScanlocError(
                f"camera {index} sees only {fraction:.0%} of the torso surface"
            )


def _surface_point(torso: TorsoSpec, point: np.ndarray, label: str) -> np.ndarray:
    z = float(torso.surface_height(point[0], point[1]))
    if not np.isfinite(z):
        raise ConfigError(
            f"{label} at planar ({point[0]:.3f}, {point[1]:.3f}) falls off the torso surface"
        )
    return np.array([point[0], point[1], z])


def true_keypoints(torso: TorsoSpec) -> Keypoints3D:
    """Joints on the torso surface: shoulders astride the midline, right hip."""
    half_span = torso.shoulder_span / 2
    hip_x = 0.8 * half_span
    ls = _surface_point(torso, np.array([-half_span, torso.shoulder_offset]), "left shoulder")
    rs = _surface_point(torso, np.array([half_span, torso.shoulder_offset]), "right shoulder")
    hip = _surface_point(torso, np.array([hip_x, torso.hip_offset]), "right hip")
    return Keypoints3D(left_shoulder=ls, right_shoulder=rs, right_hip=hip)


def true_targets(torso: TorsoSpec, ratios: TargetModelParams,
                 pose_kind: str) -> tuple[dict, dict]:
    """Ground-truth targets 1, 2 and 4 and their analytic normals: the ratio
    model evaluated on the exact keypoints, dropped onto the surface."""
    targets, normals = {}, {}
    for tid, raw in regress_targets(true_keypoints(torso), ratios, pose_kind):
        targets[tid] = _surface_point(torso, raw, f"target {tid}")
        normals[tid] = np.asarray(torso.surface_normal(raw[0], raw[1]), dtype=float)
    return targets, normals


def _exact_pixels(cameras, named_points: dict, what: str) -> tuple[dict, dict]:
    views = ({}, {})
    names = list(named_points)
    points = np.array([named_points[n] for n in names])
    for vi, camera in enumerate(cameras):
        uv = camera.project_points(points)
        for name, px, ok in zip(names, uv, camera.contains(uv)):
            if not ok:
                raise ScanlocError(
                    f"{what} {name} projects outside camera {vi}"
                )
            views[vi][name] = Pixel(float(px[0]), float(px[1]))
    return views


def _jittered(views: tuple[dict, dict], sigma: float, rng) -> tuple[dict, dict]:
    """The two-view pixel map `views` with Gaussian noise of `sigma` px on each
    pixel, drawn name by name in the map's order, view 0 before view 1."""
    jittered = ({}, {})
    for name in views[0]:
        for vi in (0, 1):
            px = views[vi][name]
            du, dv = sigma * rng.standard_normal(2)
            jittered[vi][name] = Pixel(px.u + du, px.v + dv)
    return jittered


def generate_scene(torso: TorsoSpec, ratios: TargetModelParams,
                   cameras: tuple | None, noise: NoiseSpec, pose_kind: str,
                   scene_id: int = 0) -> SyntheticScene:
    """Build one scene: exact geometry first, then noise on top of it."""
    if cameras is None:
        cameras = default_cameras(torso)
    cameras = tuple(cameras)
    _check_visibility(cameras, torso)

    kps = true_keypoints(torso)
    targets, normals = true_targets(torso, ratios, pose_kind)
    kp_points = {j: getattr(kps, j) for j in ALL_JOINTS}
    kp_pixels_true = _exact_pixels(cameras, kp_points, "keypoint")
    target_pixels_true = _exact_pixels(cameras, targets, "target")

    # independent noise streams so adding one consumer never shifts another
    streams = np.random.SeedSequence(noise.seed).spawn(5)
    kp_rng, fault_rng, target_rng = (np.random.default_rng(s) for s in streams[:3])
    depth_rngs = [np.random.default_rng(s) for s in streams[3:]]

    observed = _jittered(kp_pixels_true, noise.keypoint_sigma_px, kp_rng)

    faulted = {}
    for joint in ALL_JOINTS:
        prob = noise.fault_prob.get(joint, 0.0)
        if prob > 0 and fault_rng.uniform() < prob:
            if fault_rng.uniform() < 0.5:
                faulted[joint] = "dropped"
                for vi in (0, 1):
                    del observed[vi][joint]
            else:
                faulted[joint] = "displaced"
                for vi in (0, 1):
                    angle = fault_rng.uniform(0, 2 * np.pi)
                    px = observed[vi][joint]
                    observed[vi][joint] = Pixel(
                        px.u + DISPLACEMENT_PX * np.cos(angle),
                        px.v + DISPLACEMENT_PX * np.sin(angle),
                    )

    target_observed = _jittered(target_pixels_true, noise.keypoint_sigma_px, target_rng)

    depths = tuple(raycast_depth(camera, torso, noise.depth_sigma_m, rng)
                   for camera, rng in zip(cameras, depth_rngs))

    return SyntheticScene(
        scene_id=scene_id,
        pose_kind=pose_kind,
        torso=torso,
        noise=noise,
        ratios=ratios,
        cameras=cameras,
        depths=depths,
        observation=observed,
        keypoints_true=kps,
        keypoint_pixels_true=kp_pixels_true,
        targets_true=targets,
        target_normals_true=normals,
        target_pixels_true=target_pixels_true,
        target_pixels_observed=target_observed,
        faulted_joints=faulted,
    )


DEFAULT_TORSO_RANGES = {
    "half_width": (0.165, 0.20),
    "thickness": (0.09, 0.12),
    "length": (0.50, 0.60),
    "shoulder_span": (0.24, 0.27),
    "shoulder_offset": (0.08, 0.12),
    "hip_offset": (0.42, 0.50),
    "base_height": (0.05, 0.05),
}


def default_ratios() -> TargetModelParams:
    return TargetModelParams(
        front={1: RatioPair(0.75, 0.20), 2: RatioPair(0.75, 0.50)},
        side=RatioPair(0.40, 0.15),
    )


def sample_torso(ranges: dict, rng) -> TorsoSpec:
    values = {}
    for name in _TORSO_FIELDS:  # fixed draw order keeps cohorts reproducible
        lo, hi = ranges[name]
        values[name] = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    return TorsoSpec(**values)


def _validate_ranges(ranges: dict) -> dict:
    _check_keys(ranges, set(_TORSO_FIELDS), "torso ranges")
    full = dict(DEFAULT_TORSO_RANGES)
    for name, bounds in ranges.items():
        try:
            lo, hi = np.broadcast_to(_finite(bounds, name, () if np.isscalar(bounds) else (2,)), 2)
        except ConfigError:
            lo = hi = np.nan
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ConfigError(f"invalid interval for {name}: {bounds!r}")
        full[name] = (float(lo), float(hi))
    return full


def _check_ratios(ratios: TargetModelParams, pose_kind: str) -> None:
    """ConfigError unless `ratios` place every target of the pose kind: a
    front scene's targets 1 and 2, or a side scene's target 4."""
    if pose_kind == "front" and not set(FRONT_TARGET_IDS) <= set(ratios.front):
        raise ConfigError(
            f"front scenes need ratios for targets 1 and 2, got {sorted(ratios.front)}")
    if pose_kind == "side" and ratios.side is None:
        raise ConfigError("side scenes need side ratios")


def _check_cohort(n: int, seed: int, pose_kind: str, ratios: TargetModelParams | None,
                  noise: NoiseSpec) -> TargetModelParams:
    """The ratios `generate_cohort` draws with (`default_ratios` if `ratios`
    is None); ConfigError for any argument it refuses before it draws."""
    if n < 1:
        raise ConfigError(f"cohort size must be >= 1, got {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    required_joints(pose_kind)  # a pose kind that is not one raises ConfigError
    ratios = ratios if ratios is not None else default_ratios()
    _check_ratios(ratios, pose_kind)
    if noise.seed != 0:
        raise ConfigError(
            f"a cohort draws each scene's noise seed from its seed; got noise seed {noise.seed}")
    return ratios


def generate_cohort(n: int, ranges: dict | None = None,
                    ratios: TargetModelParams | None = None,
                    noise: NoiseSpec = NoiseSpec(), pose_kind: str = "front",
                    seed: int = 0, cameras=None) -> list[SyntheticScene]:
    """n scenes with torso dimensions drawn per-field from uniform intervals.

    The generative ratios are shared across the cohort; only anatomy (and
    noise) varies.  Scene i draws from its own stream, the i-th child of
    `seed`, so it is a pure function of (seed, i) and does not depend on n.
    That stream also draws the scene's noise seed, so `noise` must leave its
    seed at 0.  The ratios must place every target of the pose kind.
    """
    ratios = _check_cohort(n, seed, pose_kind, ratios, noise)
    full_ranges = _validate_ranges(ranges or {})
    scenes = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        torso = sample_torso(full_ranges, rng)
        scene_noise = replace(noise, seed=int(rng.integers(2**63)))
        scenes.append(generate_scene(torso, ratios, cameras, scene_noise, pose_kind,
                                     scene_id=i))
    return scenes


# scene files -----------------------------------------------------------------


def _pose_kind(value, key: str) -> str:
    if value not in POSE_KINDS:
        raise MalformedFileError(f"{key} must be 'front' or 'side', got {value!r}")
    return value


def _faults(value, key: str) -> dict:
    _check_keys(value, set(ALL_JOINTS), key)
    for joint, kind in value.items():
        if kind not in ("dropped", "displaced"):
            raise MalformedFileError(
                f"{key} {joint} must be 'dropped' or 'displaced', got {kind!r}")
    return dict(value)


def _cameras(value, key: str) -> tuple[PinholeCamera, PinholeCamera]:
    """The two cameras of the JSON list `value`, an error naming its camera
    by its index in the list."""
    return tuple(PinholeCamera.from_dict(camera, f"camera {i}")
                 for i, camera in enumerate(_two(value, key)))


def _pixels(keys, whole: bool = False):
    """The reader of a two-view pixel map over `keys`: a list of two JSON
    objects of [u, v] lists, view 0 first, each view read by `_vectors` as
    `key view<i>` and holding every one of `keys` if `whole`."""
    return lambda v, k: tuple({key: Pixel(*uv.tolist()) for key, uv in
                               _vectors(view, keys, f"{k} view{vi}", 2, whole).items()}
                              for vi, view in enumerate(_two(v, k)))


def _pixels_to_json(views: tuple[dict, dict]) -> list:
    """`_pixels`' inverse: two views of named pixels as two JSON objects of [u, v] lists."""
    return [_as_lists(view) for view in views]


# scene.json holds exactly these keys, one per SyntheticScene field but
# `depths`, as (writer of the field's JSON value, reader of (value, key)).  A
# reader names the key in any error and refuses a record with a key left out,
# but for an undetected joint (observation), an unfaulted joint
# (faulted_joints), a joint of fault probability 0 (noise fault_prob) and what
# a params file may leave out (ratios) while it places the pose kind's targets.
_SCENE_FIELDS = {
    "scene_id": (int, _whole),
    "pose_kind": (str, _pose_kind),
    "torso": (TorsoSpec.to_dict, lambda v, k: TorsoSpec.from_dict(v)),
    "noise": (NoiseSpec.to_dict, lambda v, k: NoiseSpec.from_dict(v, whole=True)),
    "ratios": (params_to_dict, lambda v, k: params_from_dict(v)),
    "cameras": (lambda cameras: [camera.to_dict() for camera in cameras], _cameras),
    "observation": (_pixels_to_json, _pixels(ALL_JOINTS)),
    "keypoints_true": (lambda kps: _as_lists({j: getattr(kps, j) for j in ALL_JOINTS}),
                       lambda v, k: Keypoints3D(**_vectors(v, ALL_JOINTS, k, whole=True))),
    "keypoint_pixels_true": (_pixels_to_json, _pixels(ALL_JOINTS, whole=True)),
    "targets_true": (_as_lists, lambda v, k: _vectors(v, TARGET_IDS, k)),
    "target_normals_true": (_as_lists, lambda v, k: _vectors(v, TARGET_IDS, k)),
    "target_pixels_true": (_pixels_to_json, _pixels(TARGET_IDS)),
    "target_pixels_observed": (_pixels_to_json, _pixels(TARGET_IDS)),
    "faulted_joints": (dict, _faults),
}


# a scene directory is scene.json beside one PFM depth map per view, at fixed names
_SCENE_JSON = "scene.json"


def _depth_paths(directory) -> list[str]:
    """The paths of the depth maps in the scene directory `directory`, view 0's first."""
    return [os.path.join(directory, f"depth_{vi}.pfm") for vi in (0, 1)]


def _scene_dir(path) -> str:
    """The scene directory `path` names: the directory itself or the scene.json in it."""
    if os.path.isdir(path):
        return path
    if os.path.basename(path) == _SCENE_JSON and os.path.isfile(path):
        return os.path.dirname(path) or "."
    raise ConfigError(f"not a scene directory or scene.json: {path}")


def save_scene(scene: SyntheticScene, directory) -> None:
    """Write the scene directory `directory`: scene.json and one PFM depth map per view."""
    os.makedirs(directory, exist_ok=True)
    for depth, path in zip(scene.depths, _depth_paths(directory)):
        write_pfm(path, depth.values)
    write_json(os.path.join(directory, _SCENE_JSON),
               {key: write(getattr(scene, key)) for key, (write, _) in _SCENE_FIELDS.items()})


def _scene_from_json(data: dict) -> SyntheticScene:
    """scene.json's scene, without depth maps."""
    _check_keys(data, set(_SCENE_FIELDS), "scene", whole=True)
    scene = SyntheticScene(depths=(), **{key: read(data[key], key)
                                         for key, (_, read) in _SCENE_FIELDS.items()})
    _check_ratios(scene.ratios, scene.pose_kind)
    views = {f"{name} view{vi}": view for name in ("target_pixels_true", "target_pixels_observed")
             for vi, view in enumerate(getattr(scene, name))}
    for name, values in {"target_normals_true": scene.target_normals_true, **views}.items():
        odd = sorted(set(values) ^ set(scene.targets_true))
        if odd:
            raise MalformedFileError(f"{name} and targets_true disagree on target {odd[0]}")
    return scene


def read_scene_json(directory) -> SyntheticScene:
    """scene.json's scene in the scene directory `directory`; no depth map is
    opened.  Until a capture type separates what the rig observes from its
    ground truth, a scene whose depth maps are not read yet is this
    convention: a SyntheticScene whose `depths` are (), which `load_depths`
    fills and which nothing fuses.  Any bad value in scene.json raises
    MalformedFileError naming the file."""
    return read_json(os.path.join(directory, _SCENE_JSON), _scene_from_json)


def _check_depth_shape(camera: PinholeCamera, path, shape: tuple[int, int]) -> None:
    if shape != (camera.height, camera.width):
        raise MalformedFileError(
            f"{path}: depth map is {shape[1]}x{shape[0]} pixels, "
            f"its camera {camera.width}x{camera.height}")


def check_depth_maps(scene: SyntheticScene, directory) -> None:
    """Every check `load_depths` makes before it reads a payload: each depth
    map's PFM header and byte count (`pfm_shape`), and its size against its
    camera's.  A failed check raises MalformedFileError naming the map."""
    for camera, path in zip(scene.cameras, _depth_paths(directory)):
        _check_depth_shape(camera, path, pfm_shape(path))


def load_depths(scene: SyntheticScene, directory,
                reuse: tuple[PayloadMapping | None, ...] = (None, None)) -> SyntheticScene:
    """`scene`, from `read_scene_json`, with its depth maps read from the
    scene directory `directory`; a map whose size is not its camera's raises
    MalformedFileError naming the map.  `reuse` holds one `PayloadMapping`
    per view for `read_pfm`: a view's map read into its holder's mapping
    overwrites the map an earlier call read into it."""
    depths = []
    for camera, path, mapping in zip(scene.cameras, _depth_paths(directory), reuse):
        values = read_pfm(path, mapping)
        _check_depth_shape(camera, path, values.shape)
        depths.append(DepthMap._owning(values))
    return replace(scene, depths=tuple(depths))


def load_scene(directory) -> SyntheticScene:
    """Read a scene written by `save_scene`; any bad value in scene.json
    raises MalformedFileError naming the file, before a depth map is read, and
    so does a depth map whose size is not its camera's, naming the map."""
    return load_depths(read_scene_json(directory), directory)


def save_cohort(scenes, directory) -> None:
    for scene in scenes:
        save_scene(scene, os.path.join(directory, f"scene_{scene.scene_id:03d}"))


def _scene_names(directory) -> list[str]:
    """The scene_* subdirectories of `directory`, sorted."""
    return sorted(
        d for d in os.listdir(directory)
        if d.startswith("scene_") and os.path.isdir(os.path.join(directory, d))
    )


def scene_directories(directory) -> list[str]:
    """The paths of the cohort's scene_* directories, sorted; ConfigError if
    there is none."""
    names = _scene_names(directory)
    if not names:
        raise ConfigError(f"no scene_* directories under {directory}")
    return [os.path.join(directory, name) for name in names]
