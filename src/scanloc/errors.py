"""Exception types raised by the scanloc library.

Every anticipated failure mode gets its own class so callers (and the CLI)
can distinguish bad input data from genuine bugs.  All of them derive from
ScanlocError; the CLI maps any ScanlocError to exit code 1.
"""


class ScanlocError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ScanlocError):
    """A config or data file is malformed (unknown keys, missing fields, bad paths)."""


# geometry ------------------------------------------------------------------

class NonPositiveDepthError(ScanlocError):
    """Projection or deprojection was asked for a depth at or behind the camera."""


class DegenerateGeometryError(ScanlocError):
    """Triangulation geometry carries no information (coincident cameras, parallel rays)."""


class ZeroVectorError(ScanlocError):
    """An angle or direction was requested for a zero-length vector."""


# hand-eye calibration ------------------------------------------------------

class InsufficientSamplesError(ScanlocError):
    """Too few pose samples to build calibration motion pairs."""


class InsufficientMotionError(ScanlocError):
    """The recorded motions do not excite enough rotation axes to solve AX = XB."""


# point cloud ---------------------------------------------------------------

class EmptyCloudError(ScanlocError):
    """No valid depth pixels survived fusion, or a cloud was given no points."""


class MalformedFileError(ConfigError, ValueError):
    """An input file (PFM, `.cloud`, scene.json, params) has a bad header, size or value."""


class InvalidArrayError(ConfigError, ValueError):
    """An array or value handed to the geometry or cloud code has the wrong shape or
    a value outside its domain (non-finite coordinates, a rotation that is not
    orthonormal, intrinsics outside the image, normals not of unit length), or a
    cloud given its normals is asked for the file form that only points have."""


class InvalidQueryError(ConfigError, ValueError):
    """A planar query is not two finite XY coordinates, e.g. a target regressed
    with overflowing ratios, or a point with fewer than two coordinates."""


class VoxelKeyOverflowError(ScanlocError):
    """The voxel size is too small for the cloud's integer voxel keys to fit in int64.

    Raised where the keys are packed: when a fused cloud's points are first
    read (as `len`, `save`, `normals` and `planar_nearest` do), or by a snap
    whose key window is too wide to key; never by `fuse`."""


# target model --------------------------------------------------------------

class DegenerateAxisError(ScanlocError):
    """The keypoint segment is vertical (or zero length); no planar perpendicular exists."""


class AmbiguousSignError(ScanlocError):
    """The reference direction cannot disambiguate the perpendicular's sign."""


class RankDeficientError(ScanlocError):
    """The least-squares design rows are collinear; ratios are not identifiable."""


class MissingKeypointError(ScanlocError):
    """A joint required by the requested pose kind is invalid in at least one view."""


class ImplausibleKeypointsError(ScanlocError, ValueError):
    """Two keypoints are not a human-scale distance apart (a grossly wrong detection)."""


class DegenerateRollError(ScanlocError):
    """The roll reference is parallel to the surface normal; roll is unconstrained."""


# synthetic scenes ----------------------------------------------------------

class CameraMissesTorsoError(ScanlocError):
    """A synthetic camera placement does not keep the torso in both views."""


class InvalidRangeError(ConfigError, ValueError):
    """A sampling range or an option value is empty or outside its valid domain."""


# evaluation ----------------------------------------------------------------

class InsufficientDataError(ScanlocError):
    """Not enough scenes to run the requested evaluation."""


class NoValidFoldsError(ScanlocError):
    """Every cross-validation fold was faulty; summary statistics are undefined."""


class MissingPixelError(ScanlocError):
    """A depth lookup found no valid pixel near the requested image location."""
