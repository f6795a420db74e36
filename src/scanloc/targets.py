"""Scan-target regression from body keypoints, and parameter fitting.

Targets on the chest are modeled relative to two keypoints: walk a ratio
of the way along the keypoint segment, then step sideways along the
horizontal direction perpendicular to that segment.  `SEGMENT_JOINTS` is
the one table of segments per pose kind: front targets (over the second
and fourth rib gaps) hang off the shoulder-to-shoulder segment; the
lateral target (under the armpit) hangs off the right shoulder-to-right-hip
segment, with its sideways step scaled by the walked distance rather than
the whole segment.  Fitting, regression, localization and the synthetic
ground truth all read a segment through `_segment`.

Fitting recovers each target's two ratios from examples by minimizing the
mean squared planar (XY) mismatch: `_sample_arrays` builds the examples'
design rows, and `_fit_rows` is the one least-squares solve of rows into
ratios.  `fit_target` fits a dataset, and a leave-one-out fold masks its
own row out of one cohort design.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import FusedCloud, adjust_target
from .errors import ConfigError, ImplausibleKeypointsError, MalformedFileError, ScanlocError
from .geometry import (
    PinholeCamera,
    Pixel,
    _as_vec3,
    angle_axis_to_rotation,
    rotation_to_angle_axis,
    triangulate,
)
from .jsonfile import _as_lists, _check_keys, _finite, _finite_number, _vectors, read_json, write_json

log = logging.getLogger(__name__)

LEFT_SHOULDER = "left_shoulder"
RIGHT_SHOULDER = "right_shoulder"
RIGHT_HIP = "right_hip"
ALL_JOINTS = (LEFT_SHOULDER, RIGHT_SHOULDER, RIGHT_HIP)

FRONT_TARGET_IDS = (1, 2)
SIDE_TARGET_ID = 4
TARGET_IDS = (*FRONT_TARGET_IDS, SIDE_TARGET_ID)
# each pose kind's keypoint segment: (start joint, end joint)
SEGMENT_JOINTS = {
    "front": (LEFT_SHOULDER, RIGHT_SHOULDER),
    "side": (RIGHT_SHOULDER, RIGHT_HIP),
}
POSE_KINDS = tuple(SEGMENT_JOINTS)

# Keypoint segments steeper than this against the horizontal plane have no
# usable planar perpendicular.
_VERTICAL_TOL_RAD = 1e-6
_SIGN_TOL = 1e-9
# human-scale sanity bounds on keypoint separations
_MIN_KEYPOINT_DIST = 0.05
_MAX_KEYPOINT_DIST = 1.5
# a params ratio beyond this moves a target more than 1.5 m even off the shortest segment
_MAX_RATIO = _MAX_KEYPOINT_DIST / _MIN_KEYPOINT_DIST

# The sideways convention, fixed because the fitted ratios' signs depend on it:
# a front target steps toward the hips, along TOWARD_HIPS when the right hip
# was not seen, and the lateral one along LATERAL, away from the body's midline
# on the scanned side.  A params file records it as `reference_axes`.
TOWARD_HIPS = (0, 1, 0)
LATERAL = (1, 0, 0)
_REFERENCE_AXES = {"front": TOWARD_HIPS, "side": LATERAL}


def _opt_vec3(value, name):
    """None for None, else `_as_vec3(value, name)`, read-only."""
    if value is None:
        return None
    v = _as_vec3(value, name)
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Keypoints3D:
    """Triangulated joint positions in the base frame; absent joints are None."""

    left_shoulder: np.ndarray | None = None
    right_shoulder: np.ndarray | None = None
    right_hip: np.ndarray | None = None

    def __post_init__(self):
        present = []
        for name in ALL_JOINTS:
            v = _opt_vec3(getattr(self, name), name)
            object.__setattr__(self, name, v)
            if v is not None:
                present.append((name, v))
        for i, (name_a, a) in enumerate(present):
            for name_b, b in present[i + 1 :]:
                dist = np.linalg.norm(a - b)
                if not (_MIN_KEYPOINT_DIST <= dist <= _MAX_KEYPOINT_DIST):
                    raise ImplausibleKeypointsError(
                        f"{name_a}-{name_b} separation {dist:.3f} m is not human-scale"
                    )


@dataclass(frozen=True)
class RatioPair:
    """The two ratios defining one target: walk along the segment, step sideways."""

    segment_ratio: float
    offset_ratio: float

    def __post_init__(self):
        if not (_finite_number(self.segment_ratio) and _finite_number(self.offset_ratio)):
            raise ConfigError("ratios must be finite")
        if not (-1 < self.segment_ratio < 1 and -1 < self.offset_ratio < 1):
            log.warning(
                "ratio pair (%.4f, %.4f) is outside the expected (-1, 1) range",
                self.segment_ratio,
                self.offset_ratio,
            )


@dataclass(frozen=True)
class TargetModelParams:
    """Fitted ratios for every supported target; another front id is a ConfigError."""

    front: dict[int, RatioPair] = field(default_factory=dict)
    side: RatioPair | None = None

    def __post_init__(self):
        for tid in self.front:
            if tid not in FRONT_TARGET_IDS:
                raise ConfigError(f"unsupported front target id {tid!r}; expected 1 or 2")


def perpendicular_planar_direction(start, end, reference) -> np.ndarray:
    """Unit vector perpendicular to the start-end segment and parallel to XY.

    Of the two such directions, returns the one with a positive dot
    product against `reference`.
    """
    seg = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    length = np.linalg.norm(seg)
    if length < 1e-9:
        raise ScanlocError("keypoint segment has zero length")
    t1 = seg / length
    planar = np.array([t1[1], -t1[0], 0.0])  # cross(t1, z)
    norm = np.linalg.norm(planar)
    if norm < _VERTICAL_TOL_RAD:
        raise ScanlocError("keypoint segment is vertical; no planar perpendicular")
    t2 = planar / norm
    sign = float(np.dot(t2, np.asarray(reference, dtype=float)))
    if abs(sign) < _SIGN_TOL:
        raise ScanlocError(
            "reference direction is perpendicular to the candidate axis; cannot pick a side"
        )
    return t2 if sign > 0 else -t2


def front_target(start, end, segment_ratio: float, offset_ratio: float, reference) -> np.ndarray:
    """Target hanging off the shoulder segment: anchor plus sideways step.

    The sideways step is offset_ratio times the full segment length, along
    the planar perpendicular selected by `reference`.
    """
    start = np.asarray(start, dtype=float)
    seg = np.asarray(end, dtype=float) - start
    t2 = perpendicular_planar_direction(start, start + seg, reference)
    anchor = start + segment_ratio * seg
    return anchor + offset_ratio * np.linalg.norm(seg) * t2


def side_target(shoulder, hip, segment_ratio: float, offset_ratio: float, reference) -> np.ndarray:
    """Lateral target off the shoulder-hip segment.

    Unlike the front model, the sideways step scales with the walked
    distance |segment_ratio| * segment length, so the prediction is
    nonlinear in segment_ratio.
    """
    shoulder = np.asarray(shoulder, dtype=float)
    seg = np.asarray(hip, dtype=float) - shoulder
    t2 = perpendicular_planar_direction(shoulder, shoulder + seg, reference)
    anchor = shoulder + segment_ratio * seg
    walked = np.linalg.norm(anchor - shoulder)
    return anchor + offset_ratio * walked * t2


def front_reference(keypoints: Keypoints3D) -> np.ndarray:
    """Per-scene sideways disambiguator for front targets.

    The true "toward the hips" direction when the right hip was seen;
    `TOWARD_HIPS` otherwise.
    """
    if keypoints.right_hip is not None:
        mid = 0.5 * (keypoints.left_shoulder + keypoints.right_shoulder)
        return keypoints.right_hip - mid
    return np.asarray(TOWARD_HIPS, dtype=float)


def pose_kind_for_target(target_id: int) -> str:
    if target_id in FRONT_TARGET_IDS:
        return "front"
    if target_id == SIDE_TARGET_ID:
        return "side"
    raise ConfigError(f"unsupported target id {target_id}; expected 1, 2 or 4")


def required_joints(pose_kind: str) -> tuple[str, str]:
    """The pose kind's segment joints: (start, end)."""
    if pose_kind not in SEGMENT_JOINTS:
        raise ConfigError(f"pose_kind must be 'front' or 'side', got {pose_kind!r}")
    return SEGMENT_JOINTS[pose_kind]


def _segment(keypoints: Keypoints3D, pose_kind: str):
    """The pose kind's segment start and end, and its sideways reference:
    `front_reference` for front targets, `LATERAL` for the lateral one."""
    joints = required_joints(pose_kind)
    start, end = (getattr(keypoints, joint) for joint in joints)
    for joint, point in zip(joints, (start, end)):
        if point is None:
            raise ScanlocError(f"{pose_kind} targets need {joint}, not seen in both views")
    if pose_kind == "front":
        return start, end, front_reference(keypoints)
    return start, end, LATERAL


# fitting ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FitSample:
    """One training example: keypoints plus the annotated target position."""

    keypoints: Keypoints3D
    target: np.ndarray
    scene_id: int = -1

    def __post_init__(self):
        target = _as_vec3(self.target, "target")
        target.flags.writeable = False
        object.__setattr__(self, "target", target)


@dataclass(frozen=True, eq=False)
class FitDataset:
    samples: list[FitSample]

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ScanlocError("a fit dataset needs at least one sample")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True, eq=False)
class FitResult:
    ratios: RatioPair
    mean_planar_residual: float


def _lstsq_ratios(starts, segs, lengths, perps, targets) -> tuple[float, float, float]:
    """a, c and the mean planar distance to the targets of the exact least
    squares fit targets ~ starts + a * segs + c * lengths * perps, over
    `_sample_arrays`' rows (see `_fit_rows`)."""
    offsets = lengths[:, None] * perps
    rows = np.column_stack([segs.reshape(-1), offsets.reshape(-1)])
    solution, _, rank, _ = np.linalg.lstsq(rows, (targets - starts).reshape(-1), rcond=None)
    if rank < 2:
        raise ScanlocError(
            "planar design rows are collinear; samples do not pin down both ratios"
        )
    a, c = float(solution[0]), float(solution[1])
    pred = starts + a * segs + c * offsets
    return a, c, float(np.mean(np.linalg.norm(pred - targets, axis=1)))


def _sample_arrays(samples, pose_kind: str):
    """Planar design rows of every sample, in order: segment starts,
    segments, lengths, unit sideways directions and targets."""
    starts = np.empty((len(samples), 2))
    segs = np.empty((len(samples), 2))
    lengths = np.empty(len(samples))
    perps = np.empty((len(samples), 2))
    gts = np.empty((len(samples), 2))
    for i, sample in enumerate(samples):
        start, end, reference = _segment(sample.keypoints, pose_kind)
        seg = end - start
        starts[i] = start[:2]
        segs[i] = seg[:2]
        lengths[i] = np.linalg.norm(seg)
        perps[i] = perpendicular_planar_direction(start, end, reference)[:2]
        gts[i] = sample.target[:2]
    return starts, segs, lengths, perps, gts


def _fit_rows(rows, target_id: int) -> tuple[TargetModelParams, FitResult]:
    """Fit one target's ratios from `_sample_arrays` rows: params that hold
    them for that target alone, and the fit.

    Each row contributes its two planar equations
    (target - start)_xy = a * seg_xy + c * |seg| * t2_xy, linear in (a, c).
    The front model is that system itself, so b = c, and a single clean
    sample already determines both ratios exactly.  The lateral model
    shoulder + a * seg + b * |a| * |seg| * t2 is linear in (a, c = b * |a|),
    so the same solve gives its global optimum and b = c / |a|; at a = 0
    the target sits on the shoulder and b is undefined, which raises
    ScanlocError.  The reported residual is the mean planar distance
    between predictions and annotations, not the squared loss minimized.
    """
    a, c, residual = _lstsq_ratios(*rows)
    if pose_kind_for_target(target_id) == "front":
        result = FitResult(RatioPair(a, c), residual)
        return TargetModelParams(front={target_id: result.ratios}), result
    if a == 0.0:
        raise ScanlocError("fitted segment ratio is 0; the offset ratio is not identifiable")
    result = FitResult(RatioPair(a, c / abs(a)), residual)
    return TargetModelParams(side=result.ratios), result


def fit_target(data: FitDataset, target_id: int) -> tuple[TargetModelParams, FitResult]:
    """Fit one target's ratios on a dataset (`_fit_rows`): the one fit entry
    per target id."""
    return _fit_rows(_sample_arrays(data.samples, pose_kind_for_target(target_id)), target_id)


def fit_front(data: FitDataset) -> FitResult:
    """`fit_target`'s fit of the front ratios."""
    return fit_target(data, FRONT_TARGET_IDS[0])[1]


def fit_side(data: FitDataset) -> FitResult:
    """`fit_target`'s fit of the lateral ratios."""
    return fit_target(data, SIDE_TARGET_ID)[1]


# orientation and full localization ------------------------------------------


def orientation_from_normal(normal, roll_reference) -> np.ndarray:
    """Angle-axis gripper rotation pointing the tool's +Z against the normal.

    The free roll is fixed by aligning the tool's +X with the projection of
    roll_reference onto the plane perpendicular to the normal.
    """
    n = np.asarray(normal, dtype=float)
    n_len = np.linalg.norm(n)
    if n_len < 1e-12:
        raise ScanlocError("surface normal has zero length")
    n = n / n_len
    ref = np.asarray(roll_reference, dtype=float)
    ref_len = np.linalg.norm(ref)
    if ref_len < 1e-12:
        raise ScanlocError("roll reference has zero length")
    proj = ref - np.dot(ref, n) * n
    if np.linalg.norm(proj) < ref_len * _VERTICAL_TOL_RAD:
        raise ScanlocError("roll reference is parallel to the surface normal")
    x_col = proj / np.linalg.norm(proj)
    z_col = -n
    y_col = np.cross(z_col, x_col)
    return rotation_to_angle_axis(np.column_stack([x_col, y_col, z_col]))


@dataclass(frozen=True, eq=False)
class ScanTargetPose:
    """A 6D gripper goal: position in meters, orientation as angle-axis."""

    target_id: int
    x: float
    y: float
    z: float
    rx: float
    ry: float
    rz: float
    far_from_surface: bool = False

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def rotation_vector(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz])

    @property
    def surface_normal(self) -> np.ndarray:
        """The outward surface normal this pose presses against (-R @ ez)."""
        return -angle_axis_to_rotation(self.rotation_vector)[:, 2]

    def to_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "position_m": [self.x, self.y, self.z],
            "angle_axis": [self.rx, self.ry, self.rz],
            "far_from_surface": self.far_from_surface,
        }


@dataclass(frozen=True, eq=False)
class KeypointObservation:
    """Detected joint pixels per view; a joint missing from a dict was not seen."""

    views: tuple[dict, dict]

    def joint_in_view(self, joint: str, view_index: int, camera: PinholeCamera) -> Pixel | None:
        pixel = self.views[view_index].get(joint)
        if pixel is None:
            return None
        pixel = Pixel(float(pixel[0]), float(pixel[1]))
        if not camera.contains(pixel):
            return None
        return pixel

    def to_dict(self) -> dict:
        return dict(zip(("view0", "view1"), pixel_views_to_json(self.views)))

    @classmethod
    def from_dict(cls, data: dict) -> "KeypointObservation":
        _check_keys(data, {"view0", "view1"}, "observation", whole=True)
        views = (data["view0"], data["view1"])
        return cls(views=pixel_views_from_json(views, ALL_JOINTS, "observation"))


def pixel_views_to_json(views: tuple[dict, dict]) -> list:
    """Two views of named pixels as two JSON objects of [u, v] lists."""
    return [_as_lists(view) for view in views]


def pixel_views_from_json(views, keys, name: str, whole: bool = False) -> tuple[dict, dict]:
    """Two JSON objects of named pixels, each read by `_vectors` as
    `name view{i}`, as Pixels."""
    return tuple({key: Pixel(*uv.tolist()) for key, uv in
                  _vectors(view, keys, f"{name} view{vi}", 2, whole).items()}
                 for vi, view in enumerate(views))


def triangulate_joints(
    camera_a: PinholeCamera,
    camera_b: PinholeCamera,
    observation: KeypointObservation,
) -> dict[str, np.ndarray]:
    """3D positions of every joint seen (in bounds) in both views, from one
    `triangulate` call on their pixel pairs in `ALL_JOINTS` order, so the
    first joint in that order that cannot be triangulated is the one reported."""
    seen = {}
    for joint in ALL_JOINTS:
        pixels = [observation.joint_in_view(joint, vi, camera)
                  for vi, camera in enumerate((camera_a, camera_b))]
        if None not in pixels:
            seen[joint] = pixels
    if not seen:
        return {}
    pixels_a, pixels_b = (np.array(view) for view in zip(*seen.values()))
    return dict(zip(seen, triangulate(camera_a, camera_b, pixels_a, pixels_b)))


def pose_keypoints(
    camera_a: PinholeCamera,
    camera_b: PinholeCamera,
    observation: KeypointObservation,
    pose_kind: str,
) -> tuple[Keypoints3D, dict[str, str]]:
    """The triangulated joints a pose kind can trust, and why each other
    joint was dropped.

    The segment joints are kept, and ImplausibleKeypointsError refuses the
    scene if they are not human-scale.  Each other joint is kept only if it
    is human-scale from every kept joint; otherwise it is dropped, and a
    front scene falls back to `TOWARD_HIPS` as for a hip not seen.
    The caller logs the drops, naming its scene.
    """
    positions = triangulate_joints(camera_a, camera_b, observation)
    segment = required_joints(pose_kind)
    keypoints = Keypoints3D(**{j: p for j, p in positions.items() if j in segment})
    dropped = {}
    for joint, point in positions.items():
        if joint not in segment:
            try:
                keypoints = replace(keypoints, **{joint: point})
            except ImplausibleKeypointsError as exc:
                dropped[joint] = str(exc)
    return keypoints, dropped


def regress_targets(
    keypoints: Keypoints3D,
    params: TargetModelParams,
    pose_kind: str,
) -> list[tuple[int, np.ndarray]]:
    """Raw model predictions (before surface snapping), ordered by target id."""
    start, end, reference = _segment(keypoints, pose_kind)
    if pose_kind == "front":
        if not params.front:
            raise ConfigError("no front-target ratios are configured")
        return [
            (tid, front_target(start, end, pair.segment_ratio, pair.offset_ratio, reference))
            for tid, pair in sorted(params.front.items())
        ]
    if params.side is None:
        raise ConfigError("no lateral-target ratios are configured")
    point = side_target(start, end, params.side.segment_ratio, params.side.offset_ratio, reference)
    return [(SIDE_TARGET_ID, point)]


def localize(
    camera_a: PinholeCamera,
    camera_b: PinholeCamera,
    observation: KeypointObservation,
    cloud: FusedCloud,
    params: TargetModelParams,
    pose_kind: str,
) -> list[ScanTargetPose]:
    """Full pipeline: triangulate joints (`pose_keypoints`, logging each
    dropped joint), then `poses_from_keypoints`."""
    keypoints, dropped = pose_keypoints(camera_a, camera_b, observation, pose_kind)
    for joint, reason in dropped.items():
        log.warning("dropping %s: %s", joint, reason)
    return poses_from_keypoints(keypoints, cloud, params, pose_kind)


def poses_from_keypoints(
    keypoints: Keypoints3D,
    cloud: FusedCloud,
    params: TargetModelParams,
    pose_kind: str,
) -> list[ScanTargetPose]:
    """Regress the targets from `keypoints` and snap them all to the surface
    with one `adjust_target` call, then `_target_poses`."""
    regressed = regress_targets(keypoints, params, pose_kind)
    snapped = adjust_target(cloud, [point for _, point in regressed])
    return _target_poses(keypoints, pose_kind, regressed, snapped)


def _target_poses(keypoints: Keypoints3D, pose_kind: str, regressed,
                  snapped) -> list[ScanTargetPose]:
    """The poses of the `regressed` targets, each snapped to its
    AdjustedTarget in `snapped`.

    Each pose presses the tool's +Z against the local surface normal at the
    regressed target.  Targets whose planar snap distance is suspiciously
    large are flagged (and logged), not dropped.
    """
    start, end, _ = _segment(keypoints, pose_kind)
    roll_ref = end - start  # the body axis that pins the probe's free roll
    poses = []
    for (target_id, _), adjusted in zip(regressed, snapped, strict=True):
        if adjusted.far_from_surface:
            log.warning(
                "target %d regressed %.1f mm away from the scanned surface",
                target_id,
                1000 * adjusted.planar_distance,
            )
        rotvec = orientation_from_normal(adjusted.normal, roll_ref)
        poses.append(
            ScanTargetPose(
                target_id=target_id,
                x=float(adjusted.position[0]),
                y=float(adjusted.position[1]),
                z=float(adjusted.position[2]),
                rx=float(rotvec[0]),
                ry=float(rotvec[1]),
                rz=float(rotvec[2]),
                far_from_surface=adjusted.far_from_surface,
            )
        )
    return poses


# params file -----------------------------------------------------------------


def params_to_dict(params: TargetModelParams) -> dict:
    """The params file's JSON value; a ratio `params_from_dict` would refuse
    raises MalformedFileError naming its key, so no such file is written."""
    data: dict = {
        "front": {
            str(tid): _bounded({"r_f1": pair.segment_ratio, "r_f2": pair.offset_ratio},
                               f"front target {tid}")
            for tid, pair in sorted(params.front.items())
        },
        "reference_axes": _as_lists(_REFERENCE_AXES),
    }
    if params.side is not None:
        data["side"] = _bounded({"r_s1": params.side.segment_ratio,
                                 "r_s2": params.side.offset_ratio}, "side target")
    return data


def _bounded(ratios: dict, where: str) -> dict:
    """`ratios`, a params entry's ratios by key; one beyond _MAX_RATIO in
    magnitude raises MalformedFileError naming `where key`."""
    for key, ratio in ratios.items():
        if abs(ratio) > _MAX_RATIO:
            raise MalformedFileError(
                f"{where} {key} must be at most {_MAX_RATIO:g} in magnitude, got {ratio!r}")
    return ratios


def _ratio_pair(entry: dict, keys: tuple[str, str], where: str) -> RatioPair:
    _check_keys(entry, set(keys), where)
    ratios = _bounded({k: float(_finite(entry.get(k), f"{where} {k}")) for k in keys}, where)
    return RatioPair(*ratios.values())


def _check_reference_axes(data) -> None:
    """`data`, a params file's `reference_axes`, must hold the sideways
    convention: any other axis would mirror the targets the ratios were fit for."""
    axes = _vectors(data, _REFERENCE_AXES, "reference_axes")
    for key, axis in _REFERENCE_AXES.items():
        if key not in axes or axes[key].tolist() != list(axis):
            raise MalformedFileError(
                f"reference_axes {key} must be {[float(x) for x in axis]}, got "
                f"{data.get(key)!r}: the ratio model's sideways convention is fixed")


def params_from_dict(data: dict) -> TargetModelParams:
    """Parse `params_to_dict` output; a missing or non-finite number, a ratio
    beyond _MAX_RATIO in magnitude or a `reference_axes` other than the
    sideways convention raises MalformedFileError naming its key, and a front
    target id other than 1 or 2 raises ConfigError naming it."""
    _check_keys(data, {"front", "side", "reference_axes"}, "params")
    entries = data.get("front", {})
    if not isinstance(entries, dict):
        raise MalformedFileError(f"params front must be a JSON object, got {entries!r}")
    # a key is a front id only as `params_to_dict` writes it; any other
    # key stays text, which TargetModelParams refuses
    ids = {str(tid): tid for tid in FRONT_TARGET_IDS}
    front = {}
    for tid, entry in entries.items():
        if not str(tid).isdigit():
            raise MalformedFileError(f"front target id must be an integer, got {tid!r}")
        front[ids.get(tid, tid)] = _ratio_pair(entry, ("r_f1", "r_f2"), f"front target {tid}")
    side = None
    if "side" in data:
        side = _ratio_pair(data["side"], ("r_s1", "r_s2"), "side target")
    if "reference_axes" in data:
        _check_reference_axes(data["reference_axes"])
    return TargetModelParams(front=front, side=side)


def save_params(path, params: TargetModelParams) -> None:
    write_json(path, params_to_dict(params))


def load_params(path) -> TargetModelParams:
    return read_json(path, params_from_dict)
