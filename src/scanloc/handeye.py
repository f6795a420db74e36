"""Fixed-camera ("eye-to-hand") calibration from paired robot/tag poses.

Each sample pairs the robot gripper pose in the base frame with a marker
(tag) pose in the camera frame, where the tag is rigidly mounted on the
gripper and the camera is rigidly mounted in the workspace.  Pairs of
samples produce relative-motion pairs (A, B) satisfying A @ X = X @ B for
the unknown camera-to-base transform X, which is then solved in closed
form (Park & Martin): rotation via the log-vector normal equations,
translation via stacked linear least squares.  `scanloc calibrate` pairs
every two samples; the library pairs consecutive ones by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScanlocError
from .geometry import RigidTransform, rotation_to_angle_axis
from .jsonfile import _check_keys, read_json

# Motions rotating less than this carry no usable rotation constraint.
MIN_ROTATION_RAD = 1e-3
# Two axes closer than this angle (radians) count as parallel.
PARALLEL_AXIS_RAD = 1e-3


@dataclass(frozen=True, eq=False)
class PosePairSample:
    """One calibration observation: gripper pose and tag detection."""

    gripper_in_base: RigidTransform
    tag_in_camera: RigidTransform

    @classmethod
    def from_dict(cls, data: dict, name: str = "calibration sample") -> "PosePairSample":
        """A sample with both poses; an error names the sample as `name` and
        a pose as `name` and its key."""
        keys = ("gripper_in_base", "tag_in_camera")
        _check_keys(data, set(keys), name, whole=True)
        return cls(**{key: RigidTransform.from_dict(data[key], f"{name} {key}") for key in keys})


@dataclass(frozen=True, eq=False)
class MotionPair:
    """Relative motions (A in the base frame, B in the camera frame)."""

    a: RigidTransform
    b: RigidTransform


def _samples_from_json(data) -> list[PosePairSample]:
    if not isinstance(data, list):
        raise ConfigError("calibration samples file must hold a JSON array")
    return [PosePairSample.from_dict(item, f"calibration sample {i}")
            for i, item in enumerate(data)]


def load_samples(path) -> list[PosePairSample]:
    """Read a JSON array of samples; any malformed content raises MalformedFileError."""
    return read_json(path, _samples_from_json)


def build_motion_pairs(
    samples: list[PosePairSample],
    all_pairs: bool = False,
) -> list[MotionPair]:
    """Turn pose samples into relative-motion pairs for the AX = XB solve.

    Consecutive samples (i, i+1) are paired by default; all_pairs=True uses
    every unordered sample pair instead, which squares the equation count
    and gives the smaller error on noisy recordings.  The rotation solve
    needs three motion pairs, so fewer than 4 samples paired consecutively,
    or 3 with every pair, raise ScanlocError.  Pairs whose
    gripper motion rotates less than MIN_ROTATION_RAD are dropped: they
    constrain nothing but noise.
    """
    needed = 3 if all_pairs else 4
    if len(samples) < needed:
        pairing = "every pair" if all_pairs else "consecutive pairs"
        raise ScanlocError(
            f"need at least {needed} samples to calibrate from {pairing}, got {len(samples)}"
        )
    if all_pairs:
        index_pairs = [
            (i, j) for i in range(len(samples)) for j in range(i + 1, len(samples))
        ]
    else:
        index_pairs = [(i, i + 1) for i in range(len(samples) - 1)]

    pairs = []
    axes = []
    for i, j in index_pairs:
        gi, gj = samples[i].gripper_in_base, samples[j].gripper_in_base
        ci, cj = samples[i].tag_in_camera, samples[j].tag_in_camera
        a = gj.compose(gi.inverse())
        b = cj.compose(ci.inverse())
        alpha = rotation_to_angle_axis(a.rotation)
        angle = np.linalg.norm(alpha)
        if angle < MIN_ROTATION_RAD:
            continue
        pairs.append(MotionPair(a, b))
        axes.append(alpha / angle)

    if len(pairs) < 3:
        raise ScanlocError(
            f"only {len(pairs)} motion pairs rotate enough to use; need at least 3"
        )
    if _axes_all_parallel(axes):
        raise ScanlocError(
            "all motions rotate about (anti)parallel axes; rotate about a second axis"
        )
    return pairs


def _axes_all_parallel(axes: list[np.ndarray]) -> bool:
    first = axes[0]
    for axis in axes[1:]:
        # treat axis and -axis as the same line
        if np.linalg.norm(np.cross(first, axis)) > PARALLEL_AXIS_RAD:
            return False
    return True


def solve_park_martin(pairs: list[MotionPair]) -> RigidTransform:
    """Closed-form AX = XB solve over the given motion pairs.

    Rotation: with rotation log-vectors alpha_i = log(R_Ai) and
    beta_i = log(R_Bi), form M = sum(beta_i alpha_i^T) and take
    R_X = (M^T M)^{-1/2} M^T, computed through a symmetric eigendecomposition
    and re-projected onto SO(3) by `RigidTransform.orthonormalized`.  Translation:
    stack (R_Ai - I) t_X = R_X t_Bi - t_Ai and solve by least squares.
    """
    if len(pairs) < 3:
        raise ScanlocError("need at least 3 motion pairs")

    m = np.zeros((3, 3))
    for pair in pairs:
        alpha = rotation_to_angle_axis(pair.a.rotation)
        beta = rotation_to_angle_axis(pair.b.rotation)
        m += np.outer(beta, alpha)

    mtm = m.T @ m
    eigvals, eigvecs = np.linalg.eigh(mtm)
    if eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):
        raise ScanlocError(
            "motion axes do not span 3D; the rotation normal matrix is singular"
        )
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
    # numerical hygiene: snap the closed form back onto the rotation group
    rot = RigidTransform.orthonormalized(inv_sqrt @ m.T, np.zeros(3)).rotation

    lhs = np.vstack([pair.a.rotation - np.eye(3) for pair in pairs])
    rhs = np.concatenate(
        [rot @ pair.b.translation - pair.a.translation for pair in pairs]
    )
    trans, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < 3:
        raise ScanlocError(
            "translation system is rank-deficient; motions leave an axis unconstrained"
        )
    return RigidTransform(rot, trans)


def estimate_camera_pose(
    samples: list[PosePairSample], all_pairs: bool = False
) -> RigidTransform:
    """Convenience wrapper: samples in, camera-to-base transform out."""
    return solve_park_martin(build_motion_pairs(samples, all_pairs=all_pairs))


def mean_residual(pairs: list[MotionPair], x: RigidTransform) -> float:
    """Mean Frobenius norm of A @ X - X @ B over the pairs; 0 for a perfect fit."""
    total = 0.0
    for pair in pairs:
        diff = pair.a.compose(x).as_matrix() - x.compose(pair.b).as_matrix()
        total += np.linalg.norm(diff)
    return total / len(pairs)
