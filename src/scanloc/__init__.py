"""Vision-geometry pipeline for ultrasound scan-target localization.

Two calibrated cameras observe a patient; body keypoints detected in both
views are triangulated, anatomical ratios place the scan targets relative
to the keypoint segments, and a fused depth cloud snaps each target onto
the body surface with an approach direction taken from the local normal.
"""

from .cloud import (
    DepthMap,
    FusedCloud,
    adjust_target,
    fuse,
    read_pfm,
    write_pfm,
)
from .errors import ScanlocError
from .evaluation import (
    FoldResult,
    SuccessTable,
    backprojection_comparison,
    loocv,
    scene_cloud,
    success_table,
    summarize,
)
from .geometry import (
    PinholeCamera,
    Pixel,
    RigidTransform,
    triangulate,
)
from .handeye import (
    PosePairSample,
    estimate_camera_pose,
    solve_park_martin,
)
from .synth import (
    NoiseSpec,
    SyntheticScene,
    TorsoSpec,
    generate_cohort,
    generate_scene,
)
from .targets import (
    FitDataset,
    FitSample,
    Keypoints3D,
    RatioPair,
    ScanTargetPose,
    TargetModelParams,
    fit_front,
    fit_side,
    fit_target,
    front_target,
    localize,
    side_target,
)

__version__ = "0.1.0"

__all__ = [
    "DepthMap",
    "FitDataset",
    "FitSample",
    "FoldResult",
    "FusedCloud",
    "Keypoints3D",
    "NoiseSpec",
    "PinholeCamera",
    "Pixel",
    "PosePairSample",
    "RatioPair",
    "RigidTransform",
    "ScanTargetPose",
    "ScanlocError",
    "SuccessTable",
    "SyntheticScene",
    "TargetModelParams",
    "TorsoSpec",
    "adjust_target",
    "backprojection_comparison",
    "estimate_camera_pose",
    "fit_front",
    "fit_side",
    "fit_target",
    "front_target",
    "fuse",
    "generate_cohort",
    "generate_scene",
    "localize",
    "loocv",
    "read_pfm",
    "scene_cloud",
    "side_target",
    "solve_park_martin",
    "success_table",
    "summarize",
    "triangulate",
    "write_pfm",
]
