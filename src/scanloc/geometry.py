"""Rigid transforms, pinhole cameras, and two-view triangulation.

Conventions used throughout the package:

* World/base frame: Z is up, X/Y span the horizontal plane.  All distances
  are meters, all image coordinates are pixels.
* A camera pose maps camera-frame coordinates to base-frame coordinates.
  The camera frame is the usual computer-vision one: +Z looks into the
  scene, +X right, +Y down in the image.
* Rotations are stored as 3x3 matrices.  Angle-axis 3-vectors appear only
  at the 6D pose boundary (gripper targets, serialized poses).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ScanlocError
from .jsonfile import _check_keys, _finite, _finite_number, _whole

# Constructors reject matrices farther than this from the orthonormal group.
_ROTATION_ATOL = 1e-8
# Smallest camera-frame depth considered in front of the camera.
MIN_DEPTH = 1e-9


@functools.cache
def _floor_in(dtype: np.dtype, bound: float) -> np.floating:
    """The largest value of the float `dtype` at or below `bound`.  For any
    value v of that dtype, v > it exactly when v > bound, and v <= it exactly
    when v <= bound: float32 depths compare against it as float32, with no
    float64 copy, and give bitwise the comparisons of their float64 upcast."""
    value = dtype.type(bound)
    return value if np.float64(value) <= bound else np.nextafter(value, dtype.type(-np.inf))


def _as_vec3(value, name: str) -> np.ndarray:
    items = np.ravel(value).tolist()
    if len(items) != 3:
        raise ConfigError(f"{name} must be a 3-vector, got shape {np.shape(value)}")
    if not all(map(_finite_number, items)):
        raise ConfigError(f"{name} must be finite, got {value}")
    return np.array(items, dtype=float)


def _pixel_coordinates(pixels) -> tuple:
    """The u and v of one pixel (2,), of N pixels (N, 2), or of a tuple (u, v)
    whose two parts have one shape; raises ConfigError for any other
    shape.  Neither part is copied."""
    if isinstance(pixels, tuple) and len(pixels) == 2:
        u, v = pixels
    else:
        uv = np.asarray(pixels)
        if uv.ndim not in (1, 2) or uv.shape[-1] != 2:
            raise ConfigError(f"pixels must have shape (2,) or (N, 2), got {uv.shape}")
        u, v = np.moveaxis(uv, -1, 0)
    if np.shape(u) != np.shape(v):
        raise ConfigError(f"pixel u and v differ in shape: {np.shape(u)} and {np.shape(v)}")
    return u, v


def _rotated(rotation: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """`rotation @ rows` for a column (3,) or coordinate rows (3, N), into `out`
    if given: the one place a rotation meets points.  numpy rotates a lone column
    with gemv, which rounds unlike gemm, so it is rotated as the first of two."""
    if rows.ndim == 2 and rows.shape[1] != 1:
        return np.matmul(rotation, rows, out=out)
    pair = np.matmul(rotation, rows.reshape(3, 1).repeat(2, axis=1))
    out = np.empty(rows.shape) if out is None else out
    out[...] = pair[:, 0].reshape(rows.shape)
    return out


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A rotation plus translation acting on 3D points (p' = R @ p + t)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        if rot.shape != (3, 3):
            raise ConfigError(f"rotation must be 3x3, got shape {rot.shape}")
        if not np.all(np.isfinite(rot)):
            raise ConfigError("rotation must be finite")
        if np.linalg.norm(rot.T @ rot - np.eye(3)) > _ROTATION_ATOL:
            raise ConfigError("rotation matrix is not orthonormal")
        if np.linalg.det(rot) < 0:
            raise ConfigError("rotation matrix is a reflection (det < 0)")
        trans = _as_vec3(self.translation, "translation")
        rot = rot.copy()
        rot.flags.writeable = False
        trans.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def orthonormalized(cls, rotation, translation) -> "RigidTransform":
        """Build a transform from a noisy rotation, projected onto SO(3) by SVD."""
        rot = np.asarray(rotation, dtype=float)
        u, _, vt = np.linalg.svd(rot)
        proj = u @ vt
        if np.linalg.det(proj) < 0:
            u[:, -1] = -u[:, -1]
            proj = u @ vt
        return cls(proj, translation)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or many points (N, 3) through `apply_rows`;
        many come back as a view of its coordinate rows."""
        p = np.asarray(points, dtype=float)
        if p.ndim not in (1, 2) or p.shape[-1] != 3:
            raise ConfigError(f"points must have shape (3,) or (N, 3), got {p.shape}")
        return self.apply_rows(p.T).T

    def apply_rows(self, rows, out=None) -> np.ndarray:
        """Transform a point (3,) or points held as three coordinate rows (3, N):
        `R @ rows`, then each row gains its translation, into `out` if given.
        A point has the bits of its row of `points @ R.T + t`, in any batch."""
        out = _rotated(self.rotation, rows, out)
        np.add(out.T, self.translation, out=out.T)
        return out

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform applying `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        """The inverse transform, built and validated once per transform."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def to_dict(self) -> dict:
        return {
            "rotation": [float(x) for x in self.rotation.reshape(-1)],
            "translation": [float(x) for x in self.translation],
        }

    @classmethod
    def from_dict(cls, data: dict, name: str = "pose") -> "RigidTransform":
        """A pose as `to_dict` writes it, every number finite; an error names
        the pose as `name`."""
        _check_keys(data, {"rotation", "translation"}, name, whole=True)
        return cls(_finite(data["rotation"], f"{name} rotation", (9,)).reshape(3, 3),
                   _finite(data["translation"], f"{name} translation", (3,)))


def angle_axis_to_rotation(angle_axis) -> np.ndarray:
    """Convert an angle-axis 3-vector (axis * angle in radians) to a matrix.

    The vector's quaternion (v * sin(angle/2) / angle, cos(angle/2)), with the
    sine's Taylor series at angles up to 1e-3, then its matrix: scipy's
    `Rotation.from_rotvec(v).as_matrix()` step for step, so bitwise the same."""
    v = _as_vec3(angle_axis, "angle_axis")
    x, y, z = v.tolist()
    angle = math.sqrt(x * x + y * y + z * z)
    if not _finite_number(angle):
        raise ConfigError(f"angle_axis {v} has no finite angle")
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 0.5 - angle2 / 48 + angle2 * angle2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, w = x * scale, y * scale, z * scale, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([
        [x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
        [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
        [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2],
    ])


def rotation_to_angle_axis(rotation) -> np.ndarray:
    """Convert a rotation matrix to an angle-axis 3-vector (angle in [0, pi]).

    scipy's `Rotation.from_matrix(m).as_rotvec()` step for step, so bitwise the
    same: a matrix not orthogonal within 1e-12 is first projected onto the
    nearest rotation by `RigidTransform.orthonormalized`; the quaternion comes
    from the largest of the diagonal and the trace (Shoemake, SIGGRAPH 1985),
    is normalized and made canonical, and is scaled by angle / sin(angle/2),
    or its Taylor series at angles up to 1e-3.  A non-finite matrix, or one
    whose determinant is not positive, raises ConfigError."""
    rot = np.asarray(rotation, dtype=float)
    if rot.shape != (3, 3):
        raise ConfigError(f"rotation must be 3x3, got shape {rot.shape}")
    if not np.all(np.isfinite(rot)):
        raise ConfigError("rotation must be finite")
    if not np.linalg.det(rot) > 0:
        raise ConfigError("rotation matrix must have a positive determinant")
    if not np.isclose(rot @ rot.T, np.eye(3), atol=1e-12).all():
        rot = RigidTransform.orthonormalized(rot, np.zeros(3)).rotation
    m = rot.tolist()
    trace = m[0][0] + m[1][1] + m[2][2]
    decision = [m[0][0], m[1][1], m[2][2], trace]
    i = decision.index(max(decision))
    if i == 3:
        q = [m[2][1] - m[1][2], m[0][2] - m[2][0], m[1][0] - m[0][1], 1 + trace]
    else:
        j, k = (i + 1) % 3, (i + 2) % 3
        q = [0.0] * 4
        q[i] = 1 - trace + 2 * m[i][i]
        q[j] = m[j][i] + m[i][j]
        q[k] = m[k][i] + m[i][k]
        q[3] = m[k][j] - m[j][k]
    norm = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    x, y, z, w = (c / norm for c in q)
    if w < 0 or (w == 0 and next((c for c in (x, y, z) if c != 0), 0.0) < 0):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        angle2 = angle * angle
        scale = 2 + angle2 / 12 + 7 * angle2 * angle2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return np.array([scale * x, scale * y, scale * z])


def angle_between_degrees(a, b) -> float:
    """Angle between two nonzero 3-vectors, in degrees."""
    va = _as_vec3(a, "a")
    vb = _as_vec3(b, "b")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na < 1e-12 or nb < 1e-12:
        raise ScanlocError("cannot measure an angle against a zero vector")
    cos = np.clip(np.dot(va / na, vb / nb), -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


class Pixel(NamedTuple):
    """Continuous image coordinates: u along columns, v along rows."""

    u: float
    v: float


@dataclass(frozen=True, eq=False)
class PinholeCamera:
    """Pinhole intrinsics plus the camera-to-base pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: RigidTransform

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ConfigError("focal lengths must be positive and finite")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("image size must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ConfigError("principal point must lie inside the image")

    @property
    def center(self) -> np.ndarray:
        """Camera center in the base frame."""
        return self.pose.translation

    def contains(self, pixels):
        """Whether a pixel (u, v), or each row of an (N, 2) array, lies in the image:
        0 <= u < width and 0 <= v < height.  A NaN pixel lies outside."""
        uv = np.asarray(pixels, dtype=float)
        inside = np.all((uv >= 0) & (uv < (self.width, self.height)), axis=-1)
        return inside if uv.ndim > 1 else bool(inside)

    def project_points(self, points) -> np.ndarray:
        """Pixels (N, 2) of base-frame points (N, 3), or the pixel (2,) of one
        point (3,); NaN for a point at or behind the camera plane.  A pixel may
        fall outside the image: `contains` decides that."""
        p_cam = self.pose.inverse().apply(points)
        z = np.where(p_cam[..., 2] > MIN_DEPTH, p_cam[..., 2], np.nan)[..., None]
        return [self.fx, self.fy] * p_cam[..., :2] / z + [self.cx, self.cy]

    def project(self, point) -> Pixel:
        """`project_points` of one point; raises ScanlocError when the
        point sits at or behind the camera plane."""
        uv = self.project_points(_as_vec3(point, "point"))
        if np.isnan(uv[0]):
            raise ScanlocError(f"point {point} is at or behind the camera plane")
        return Pixel(float(uv[0]), float(uv[1]))

    def deproject(self, pixels, depth, out=None) -> np.ndarray:
        """Lift pixels with known camera-frame depths back to the base frame:
        one pixel (u, v) at a scalar depth gives (3,); N pixels, as an (N, 2)
        array or as a tuple (u, v) of (N,) arrays, at (N,) depths give (N, 3),
        a view of the points' three coordinate rows from `apply_rows`.  Those
        rows are written to `out`, a (3, N) float64 array, if given.  Pixels
        whose shape does not match the depths', or any other `out`, raise
        ConfigError, and a depth at or below MIN_DEPTH raises.  Float32
        depths are not copied: they are upcast, exactly, where they are
        multiplied and stored."""
        u, v = _pixel_coordinates(pixels)
        z = np.asarray(depth)
        if np.shape(u) != z.shape:
            raise ConfigError(f"{np.shape(u)} pixels do not match {z.shape} depths")
        if out is not None and (np.shape(out) != (3,) + z.shape or out.dtype != np.float64):
            raise ConfigError(f"out must be a float64 array of shape {(3,) + z.shape}")
        if z.dtype != np.float32:
            z = z.astype(float, copy=False)
        bad = z[z <= _floor_in(z.dtype, MIN_DEPTH)]
        if bad.size:
            raise ScanlocError(f"depth must be positive, got {float(bad[0])!r}")
        rows = np.empty((3,) + z.shape)  # camera-frame rows: (u - cx) * z / fx, ...
        # `rows[0, ...]` is a view even for one pixel, where `rows[0]` is a copy
        for row, pixel, centre, focal in ((rows[0, ...], u, self.cx, self.fx),
                                          (rows[1, ...], v, self.cy, self.fy)):
            np.subtract(pixel, centre, out=row)
            row *= z
            row /= focal
        rows[2] = z
        return self.pose.apply_rows(rows, out).T

    def pixel_rays(self, uv) -> tuple[np.ndarray, np.ndarray]:
        """Base-frame rays through pixels, scaled so depth equals the ray parameter.

        Takes N pixels as an (N, 2) array or as a tuple (u, v) of (N,)
        arrays.  Returns (origin (3,), directions (N, 3)); a point
        `origin + t * dir` has camera-frame depth exactly t.  The directions
        are rotated as `apply_rows` rotates points.
        """
        u, v = _pixel_coordinates(uv)
        if np.ndim(u) != 1:
            raise ConfigError(f"pixel_rays takes N pixels, got a pixel of shape {np.shape(uv)}")
        rows = np.empty((3, len(u)))  # camera-frame direction rows
        rows[0] = (u - self.cx) / self.fx
        rows[1] = (v - self.cy) / self.fy
        rows[2] = 1.0
        return self.pose.translation.copy(), _rotated(self.pose.rotation, rows).T

    def projection_matrix(self) -> np.ndarray:
        """The 3x4 matrix `K [R | t]` mapping homogeneous base-frame points to
        pixels, built once per camera and read-only."""
        return self._projection

    @functools.cached_property
    def _projection(self) -> np.ndarray:
        k = np.array([[self.fx, 0, self.cx], [0, self.fy, self.cy], [0, 0, 1]])
        inv = self.pose.inverse()
        rt = np.hstack([inv.rotation, inv.translation[:, None]])
        p = k @ rt
        p.flags.writeable = False
        return p

    def to_dict(self) -> dict:
        return {
            "fx": float(self.fx),
            "fy": float(self.fy),
            "cx": float(self.cx),
            "cy": float(self.cy),
            "width": int(self.width),
            "height": int(self.height),
            "pose": self.pose.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict, name: str = "camera") -> "PinholeCamera":
        """A camera as `to_dict` writes it; an error in its pose, or a pose
        left out, names the camera as `name`."""
        _check_keys(
            data, {"fx", "fy", "cx", "cy", "width", "height", "pose"}, "camera"
        )
        if "pose" not in data:
            raise ConfigError(f"{name} is missing key 'pose'")
        return cls(
            *(float(_finite(data.get(k), f"camera {k}")) for k in ("fx", "fy", "cx", "cy")),
            *(_whole(data.get(k), f"camera {k}") for k in ("width", "height")),
            pose=RigidTransform.from_dict(data["pose"], f"{name} pose"),
        )


def triangulate(
    camera_a: PinholeCamera,
    camera_b: PinholeCamera,
    pixels_a,
    pixels_b,
) -> np.ndarray:
    """Recover the 3D points observed at pixels_a/pixels_b in two views: one
    pixel pair (two `Pixel`s) gives (3,), and N pairs, as (N, 2) arrays or
    tuples (u, v) of (N,) arrays, give (N, 3).

    Uses the homogeneous DLT: each view contributes the two cross-product
    constraint rows of a pair, the N 4x4 systems are stacked and solved by
    one SVD call, and each right singular vector of the smallest singular
    value is dehomogenized.  A row has the bits of its pair's solve alone:
    its system is built with the same elementwise operations, and LAPACK
    solves each matrix of a stack exactly as it solves a lone one.  The
    baseline is checked once; the first pair, in input order, whose viewing
    rays are parallel or whose point is at infinity raises ScanlocError.
    """
    baseline = np.linalg.norm(camera_a.center - camera_b.center)
    if baseline <= 1e-6:
        raise ScanlocError(
            f"camera centers are {baseline:.2e} m apart; need a real baseline"
        )
    (ua, va), (ub, vb) = _pixel_coordinates(pixels_a), _pixel_coordinates(pixels_b)
    if np.shape(ua) != np.shape(ub) or np.ndim(ua) > 1:
        raise ConfigError(f"triangulate takes one pixel pair or N pairs, got pixels of "
                          f"shape {np.shape(ua)} and {np.shape(ub)}")
    single = np.ndim(ua) == 0
    ua, va, ub, vb = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (ua, va, ub, vb))
    directions, systems = [], np.empty((len(ua), 4, 4))
    for k, (camera, u, v) in enumerate(((camera_a, ua, va), (camera_b, ub, vb))):
        rays = camera.pixel_rays((u, v))[1]
        directions.append(rays / np.linalg.norm(rays, axis=1, keepdims=True))
        p = camera.projection_matrix()
        systems[:, 2 * k] = u[:, None] * p[2] - p[0]
        systems[:, 2 * k + 1] = v[:, None] * p[2] - p[1]
    parallel = np.linalg.norm(np.cross(*directions), axis=1) < 1e-9
    _, _, vt = np.linalg.svd(systems)
    hom = vt[:, -1]
    failed = parallel | (np.abs(hom[:, 3]) < 1e-12 * np.linalg.norm(hom, axis=1))
    if failed.any():
        first = int(np.argmax(failed))
        raise ScanlocError("viewing rays are parallel" if parallel[first]
                           else "triangulated point is at infinity")
    points = hom[:, :3] / hom[:, 3:]
    return points[0] if single else points
