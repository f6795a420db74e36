"""Depth-map fusion into an oriented point cloud, plus planar depth lookup.

A fused cloud's points are the voxel-grid centroids (at a voxel of 0, the
points) of every valid pixel of the two calibrated cameras' depth maps,
deprojected into the base frame.  `fuse` deprojects nothing: the cloud is its
views (each camera, its depth map and their valid mask) until `points` is
first read, the one place a whole cloud is deprojected, voxelized or refused.
That read deprojects every valid pixel into three coordinate rows, one (3, N)
buffer: each view's one rows transform (`RigidTransform.apply_rows`, a single
`R @ rows`) writes straight into that view's columns.  It then builds the grid
one coordinate row at a time and drops the views.  Before that, a snap
deprojects only the valid pixels in the image rectangles that can see one
window of voxel keys around its queries' XY bounding box, and voxelizes only
the points in that window: `adjust_target` snaps all the targets `localize`
regressed for a scene at once, and `scanloc evaluate` a fold's target with the
back-projection's three nearby estimates.  This gives bitwise the centroids, nearest points and normals that
the whole grid gives.
Each normal is the PCA of the point's ball (every point within NORMAL_RADIUS),
oriented toward the cameras and computed when read: a snap scans every point of
the cloud or of its window for its one ball, so `fuse` builds no index; only
`FusedCloud.normals` computes all of them, with a k-d tree built for that call.
A `.cloud` file is the points and the point their normals face.  Planar queries
scan XY linearly.

The planar lookup implements the depth-adjustment rule this pipeline is
built around: a regressed target keeps its XY coordinates, while its Z and
surface normal are copied from the cloud point closest in XY.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MalformedFileError, ScanlocError
from .geometry import MIN_DEPTH, PinholeCamera, _floor_in
from .jsonfile import _finite_number

# Depth readings beyond this are treated as invalid (sensor range limit).
MAX_DEPTH = 10.0
# Planar NN farther than this from the query marks the result suspicious.
FAR_FROM_SURFACE = 0.020
DEFAULT_VOXEL = 0.005
# radius of every normal's PCA ball, in meters (chosen by a sweep; see README)
NORMAL_RADIUS = 0.018

_CLOUD_MAGIC = b"SCLOUD02"  # then <Q count, <3d the point normals face, count x 3 <f4 points


@dataclass(frozen=True, eq=False)
class DepthMap:
    """A single camera's depth image in meters; 0 or NaN marks invalid pixels."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)  # always a copy, made once
        if v.ndim != 2:
            raise ConfigError(f"depth map must be 2D, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def _owning(cls, values: np.ndarray) -> "DepthMap":
        """A depth map that takes `values`, a 2D float64 or float32 array
        nothing else writes, as they are, marked read-only: no copy."""
        depth = cls.__new__(cls)
        values.flags.writeable = False
        object.__setattr__(depth, "values", values)
        return depth

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        """`_valid_depths` of the values."""
        return _valid_depths(self.values)


def _valid_depths(values: np.ndarray) -> np.ndarray:
    """MIN_DEPTH < depth <= MAX_DEPTH, elementwise: the depths `deproject`
    accepts, within range.  Both bounds are rounded down into the depths' own
    dtype (`_floor_in`), so a float32 map is compared without a float64 copy
    and gives bitwise the mask of its float64 upcast, at 2 B per pixel."""
    mask = values > _floor_in(values.dtype, MIN_DEPTH)
    mask &= values <= _floor_in(values.dtype, MAX_DEPTH)
    return mask


def write_pfm(path, values) -> None:
    """Write a grayscale PFM file (little-endian, rows stored bottom-up)."""
    v = np.asarray(values, dtype="<f4")
    if v.ndim != 2:
        raise ConfigError("PFM writer expects a 2D array")
    with open(path, "wb") as fh:
        fh.write(b"Pf\n")
        fh.write(f"{v.shape[1]} {v.shape[0]}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.flipud(v).tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM file into a (height, width) float32 array: a
    read-only flipped view of `_read_payload`'s array."""
    with open(path, "rb") as fh:
        shape, dtype = _pfm_header(fh, path)
        data = _read_payload(fh, path, shape, dtype)
    return np.flipud(data)


def pfm_shape(path) -> tuple[int, int]:
    """The (height, width) of the PFM file `path`, after every check `read_pfm`
    makes before it reads the payload: its header, and that its data bytes
    fill that shape exactly.  The payload itself is not read."""
    with open(path, "rb") as fh:
        shape, _ = _pfm_header(fh, path)
        _payload_bytes(fh, path, shape)
    return shape


def _pfm_header(fh, path) -> tuple[tuple[int, int], str]:
    """The (height, width) and payload dtype a grayscale PFM header declares,
    read from `fh` up to its payload; MalformedFileError if it is not one."""
    def token():
        chars = []
        ch = fh.read(1)
        while ch and ch.isspace():
            ch = fh.read(1)
        while ch and not ch.isspace():
            chars.append(ch)
            ch = fh.read(1)
        return b"".join(chars)

    try:
        magic, width, height, scale = token(), int(token()), int(token()), float(token())
    except ValueError:
        raise MalformedFileError(f"{path}: PFM header is cut short or not numeric") from None
    if magic != b"Pf" or not _finite_number(scale) or scale == 0:
        raise MalformedFileError(f"{path}: not a grayscale PFM (magic {magic!r}, scale {scale})")
    return (height, width), "<f4" if scale < 0 else ">f4"


def _payload_bytes(fh, path, shape: tuple[int, int]) -> int:
    """The bytes left in `fh`: MalformedFileError unless `shape` is positive
    and they are exactly its float32 items."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if min(shape) <= 0 or left != 4 * shape[0] * shape[1]:
        raise MalformedFileError(f"{path}: header declares shape {shape}, but {left} data bytes follow")
    return left


def _read_payload(fh, path, shape: tuple[int, int], dtype: str) -> np.ndarray:
    """The rest of `fh`, `dtype` items, as a float32 array of `shape` in native
    byte order over a read-only buffer, which no caller can make writable;
    MalformedFileError unless `_payload_bytes` accepts it.  One `readinto`
    fills a fresh anonymous mapping that one call faults in (MAP_POPULATE,
    where the platform has it): the pages of a `fh.read()` fault in one at a
    time, again on every read.  A file mapping would hold a descriptor per
    array and turn a truncated file into SIGBUS."""
    left = _payload_bytes(fh, path, shape)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    buffer = mmap.mmap(-1, left, flags=flags)
    if fh.readinto(buffer) != left:
        raise MalformedFileError(f"{path}: cut short while its data was read")
    if not np.dtype(dtype).isnative:
        np.frombuffer(buffer, dtype).byteswap(inplace=True)
    return np.frombuffer(memoryview(buffer).toreadonly(), np.float32).reshape(shape)


@dataclass(frozen=True, eq=False)
class PlanarNeighbor:
    """The cloud point that is nearest to a query in the XY plane."""

    point: np.ndarray
    planar_distance: float
    index: int


@dataclass(frozen=True, eq=False)
class AdjustedTarget:
    """A target after snapping its depth and normal to the cloud surface."""

    position: np.ndarray
    normal: np.ndarray
    planar_distance: float
    far_from_surface: bool


class FusedCloud:
    """An oriented point cloud; `planar_nearest` scans its XY coordinates.

    Normals are either given to the constructor or, for a cloud built by
    `fuse` or `load`, estimated from the points; only the latter can `save`.
    Such a cloud holds every normal or none: `normals` computes all of them
    once and keeps them, while `normal_at` on a cloud without them computes
    that one row and keeps nothing.  A cloud from `fuse` holds its views
    (`_View`: camera, depth map and valid mask), one byte per image pixel,
    until `points` is first read (as `len`, `save`, `normals`,
    `planar_nearest` and `normal_at` do).  That read deprojects every valid
    pixel, builds the voxel grid if the cloud has a voxel, and drops the
    views; it raises ScanlocError if the grid's keys do not fit in
    int64.  A snap before it on a voxel grid deprojects only the pixels that
    can see its key window (`_snap`).
    """

    def __init__(self, points, normals):
        pts = np.asarray(points, dtype=float)
        nrm = np.asarray(normals, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape != nrm.shape:
            raise ConfigError("points and normals must both have shape (N, 3)")
        self._set_points(pts.copy())  # the caller still holds `points`
        if not np.all(np.isfinite(nrm)):
            raise ConfigError("cloud coordinates must be finite")
        lengths = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-5):
            raise ConfigError("normals must be unit length")
        self._normals = nrm.copy()
        self._toward = None

    @classmethod
    def _with_pca_normals(cls, points, toward) -> "FusedCloud":
        """A cloud that takes `points` as they are, marked read-only, and whose
        normals `_pca_normals` computes on demand."""
        cloud = cls.__new__(cls)
        cloud._set_points(points)
        cloud._normals, cloud._toward = None, toward
        return cloud

    @classmethod
    def _of_views(cls, views, voxel, toward) -> "FusedCloud":
        """A cloud whose points are the valid pixels of `views` (`_View`s),
        deprojected, or with a voxel > 0 their voxel centroids: built when first read."""
        cloud = cls.__new__(cls)
        cloud._points, cloud._raw = None, (views, voxel)
        cloud._normals, cloud._toward = None, toward
        return cloud

    def _set_points(self, pts: np.ndarray) -> None:
        if len(pts) == 0:
            raise ScanlocError("a fused cloud needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ConfigError("cloud coordinates must be finite")
        pts.flags.writeable = False
        self._points, self._raw = pts, None

    @property
    def points(self) -> np.ndarray:
        """The cloud's points, (N, 3), read-only.  On a cloud from `fuse` the
        first read deprojects its views, builds the voxel grid if it has a
        voxel (raising ScanlocError if the keys do not fit in int64)
        and drops the views."""
        if self._points is None:
            views, voxel = self._raw
            points = _deproject_views(views).T
            self._set_points(_voxel_centroids(points, voxel) if voxel else points)
        return self._points

    @property
    def normals(self) -> np.ndarray:
        """Unit normals of every point, (N, 3), read-only."""
        if self._normals is None:
            self._normals = _all_normals(self.points, self._toward)
        view = self._normals.view()
        view.flags.writeable = False
        return view

    def normal_at(self, index: int) -> np.ndarray:
        """Unit normal of one point, read-only; kept only if `normals` was read."""
        if self._normals is None:
            (view,) = _pca_normals(self.points, self._toward, np.array([index]),
                                   *_scan_ball(self.points, index))
        else:
            view = self._normals[index]
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return len(self.points)

    def planar_nearest(self, target_xy) -> PlanarNeighbor:
        """The point nearest to `target_xy` in XY, ties to the smallest index
        (`argmin`'s first minimum); its normal, if needed, is `normal_at(index)`."""
        t = _query_xy(target_xy)
        d2 = (self.points[:, 0] - t[0]) ** 2 + (self.points[:, 1] - t[1]) ** 2
        idx = int(np.argmin(d2))
        return PlanarNeighbor(
            point=self.points[idx],
            planar_distance=math.sqrt(d2[idx]),
            index=idx,
        )

    def save(self, path) -> None:
        """Write the cloud as its points, little-endian float32, after the point
        its normals face; `load` estimates the normals again, so none is written.
        The points are built before the file opens: a refused grid leaves no file."""
        if self._toward is None:
            raise ConfigError(
                "a cloud with given normals has no file form: .cloud files hold no normals")
        points = self.points
        with open(path, "wb") as fh:
            fh.write(_CLOUD_MAGIC)
            fh.write(struct.pack("<Q3d", len(points), *self._toward))
            fh.write(points.astype("<f4").tobytes())

    @classmethod
    def load(cls, path) -> "FusedCloud":
        """Read a `save`d cloud; it estimates its normals on demand, as a fused one does."""
        with open(path, "rb") as fh:
            header = fh.read(40)
            if len(header) != 40 or header[:8] != _CLOUD_MAGIC:
                raise MalformedFileError(f"{path}: not a v2 cloud file or cut short ({header[:8]!r})")
            count, *toward = struct.unpack("<Q3d", header[8:])
            points = _read_payload(fh, path, (count, 3), "<f4").astype(float)
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(toward))):
            raise MalformedFileError(f"{path}: non-finite point or camera centre")
        return cls._with_pca_normals(points, np.array(toward))


def fuse(
    views: list[tuple[PinholeCamera, DepthMap]],
    voxel: float = DEFAULT_VOXEL,
) -> FusedCloud:
    """Merge the views' valid depth pixels, deprojected, into one cloud.

    `fuse` checks the voxel and masks each view's valid pixels; it deprojects
    nothing.  The cloud holds the views until `points` is first read.  That
    read fills three coordinate rows, one (3, N) buffer, view by view in
    row-major pixel order, allocated once.  A voxel of 0 keeps every point,
    and `points` is an (N, 3) view of the rows; otherwise the points are the
    per-voxel centroids.  A snap before that read deprojects and voxelizes
    only the key window around its query.  The points' PCA normals, oriented
    toward the cameras, are computed per point when read (`normal_at`, which
    `adjust_target` calls); only `normals` computes and keeps all of them.
    """
    _check_fusion_options(voxel)
    held = [view for view in (_View(camera, depth) for camera, depth in views) if view.count]
    if not held:
        raise ScanlocError("no valid depth pixels in any view")
    toward = np.mean([camera.center for camera, _ in views], axis=0)
    return FusedCloud._of_views(held, voxel, toward)


def _check_fusion_options(voxel: float) -> None:
    """Raise ConfigError unless `fuse` accepts this voxel size."""
    if not (_finite_number(voxel) and voxel >= 0):
        raise ConfigError(f"voxel must be a finite size >= 0 m, got {voxel!r}")


class _View:
    """One depth map of a fused cloud whose points are not built: its camera,
    its depths, their valid mask and its count of valid pixels."""

    def __init__(self, camera: PinholeCamera, depth: DepthMap):
        self.camera, self.depths, self.mask = camera, depth.values, depth.valid_mask
        self.count = int(np.count_nonzero(self.mask))

    @functools.cached_property
    def extent(self) -> tuple[tuple[int, int, int, int], np.ndarray]:
        """The image rectangle (top, bottom, left, right) of the valid pixels,
        half-open, and the `_frustum_box` of their pixels and depth range.
        Computed at the first snap: a cloud whose points are read needs neither."""
        rows = np.flatnonzero(self.mask.any(axis=1))
        top, bottom = int(rows[0]), int(rows[-1]) + 1
        cols = np.flatnonzero(self.mask[top:bottom].any(axis=0))
        left, right = int(cols[0]), int(cols[-1]) + 1
        depths = self.depths[top:bottom, left:right][self.mask[top:bottom, left:right]]
        box = _frustum_box(self.camera, (left, right - 1), (top, bottom - 1),
                           (depths.min(), depths.max()))
        return (top, bottom, left, right), box

    def rectangle(self, lower: np.ndarray, upper: np.ndarray) -> tuple[int, int, int, int]:
        """The image rectangle (top, bottom, left, right) of every valid pixel
        whose point can lie in x and y in [lower, upper].

        The prism [lower, upper] x (the view's z range), cut to the view's box,
        projects into the convex hull of its 8 projected corners when they are
        all in front of the camera, and a pixel lies within rounding of its
        point's projection; the rectangle around those corners, 2 px wider on
        each side, holds it.  A corner at or behind the camera plane gives
        every valid pixel (Clark, CACM 1976)."""
        pixels, box = self.extent
        lo = np.append(np.maximum(lower, box[:2, 0]), box[2, 0])
        hi = np.append(np.minimum(upper, box[:2, 1]), box[2, 1])
        if np.any(lo > hi):
            return (0, 0, 0, 0)
        uv = self.camera.project_points(list(itertools.product(*zip(lo, hi))))
        if np.isnan(uv).any():
            return pixels
        top, bottom, left, right = pixels
        (u0, v0), (u1, v1) = np.floor(uv.min(axis=0)) - 2, np.ceil(uv.max(axis=0)) + 3
        return (int(np.clip(v0, top, bottom)), int(np.clip(v1, top, bottom)),
                int(np.clip(u0, left, right)), int(np.clip(u1, left, right)))

    def rows(self, top=0, bottom=None, left=0, right=None, out=None) -> np.ndarray:
        """The valid pixels of image rows [top, bottom) and columns [left, right)
        in the base frame, in row-major order, as (3, n) coordinate rows written
        to `out` if given.  Pixel coordinates are float grids gathered by the
        valid mask.  Each point has the bits a whole-view deprojection gives it."""
        mask = self.mask[top:bottom, left:right]
        height, width = mask.shape
        u = np.broadcast_to(np.arange(left, left + width, dtype=float), mask.shape)
        v = np.broadcast_to(np.arange(top, top + height, dtype=float)[:, None], mask.shape)
        u, v, depths = u[mask], v[mask], self.depths[top:bottom, left:right][mask]
        return self.camera.deproject((u, v), depths, out=out).T


def _frustum_box(camera: PinholeCamera, us, vs, depths) -> np.ndarray:
    """Low and high corners, as the columns of a (3, 2) array, of a box that
    holds every point a pixel of the rectangle `us` x `vs` deprojects to at a
    depth in `depths` (each an inclusive (low, high) pair).

    Each coordinate is the camera centre plus the depth times a function linear
    in (u, v), so it is extreme at one of the 8 corners (u, v, depth).  The box
    is padded by a billionth of the coordinates' scale, far beyond their rounding.
    """
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    origin, rays = camera.pixel_rays((us.repeat(2), np.tile(vs, 2)))
    corners = np.concatenate([origin + depth * rays for depth in depths])
    pad = 1e-9 * (np.abs(corners).max() + np.abs(origin).max())
    return np.column_stack([corners.min(axis=0) - pad, corners.max(axis=0) + pad])


def _deproject_views(views: list[_View]) -> np.ndarray:
    """Every valid pixel of `views` in the base frame, view by view in row-major
    pixel order, as the three coordinate rows of one (3, N) array: each view's
    one `deproject` writes its own columns, and a view's gathered arrays are
    freed before the next view's."""
    rows = np.empty((3, sum(view.count for view in views)))
    start = 0
    for view in views:
        view.rows(out=rows[:, start:start + view.count])
        start += view.count
    return rows


def _key_bounds(rows: np.ndarray, voxel: float):
    """Each coordinate row's lowest voxel key (floats) and key span (ints).

    Raises ScanlocError unless the keys pack into one int64.
    """
    # floor(x / voxel) never decreases with x, so a row's key bounds are the
    # keys of its own bounds
    lo, hi = np.floor(np.array([(row.min(), row.max()) for row in rows]).T / voxel)
    in_range = np.abs([lo, hi]).max() < 2.0**63
    spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)] if in_range else None
    if spans is None or math.prod(spans) > np.iinfo(np.int64).max:
        raise ScanlocError(
            f"voxel size {voxel:g} m is too small to key this cloud's extent in int64"
        )
    return lo, spans


def _voxel_centroids(points: np.ndarray, voxel: float) -> np.ndarray:
    """Centroid of each occupied voxel, in lexicographic (x, y, z) key order.

    Each integer key is packed into one int64, offset by the minimum key with
    x as the most significant digit, so the packed keys' order is the keys'
    lexicographic order, and a voxel's number is its key's rank among the
    occupied keys.  Sums accumulate in input order.  The points are read as
    coordinate rows (`points.T`, contiguous for `fuse`'s points): each row is
    divided and floored into one reused buffer and packed into one int64
    buffer, and the centroids come back as an (N, 3) view of their rows.

    A span of at most 3 packed keys per point is ranked through a table
    indexed by key (`_table_ranks`, distribution counting: Knuth, TAOCP
    vol. 3, 5.2) in linear time; a wider span, such as a fine voxel over a
    wide cloud, is ranked by one `argsort` (`_sorted_ranks`).  The rule keeps
    the peak: ranking by sort holds 33 B per point (the keys, their order,
    the sorted keys, the run marks and the temporary that its `cumsum`
    makes), and by table the keys, a 4 B rank per key of the span and at
    most 12 B per point more (the occupied keys, 8 B per voxel, and then
    their new ranks or the ranks looked up, 4 B per voxel or per point), so
    8 + 4 * 3 + 12 = 32 B per point at most.
    """
    rows = points.T
    lo, spans = _key_bounds(rows, voxel)
    packed = np.zeros(rows.shape[1], dtype=np.int64)
    scratch = np.empty_like(packed)
    keys = np.empty(rows.shape[1])
    for row, low, span in zip(rows, lo, spans):
        np.divide(row, voxel, out=keys)
        np.floor(keys, out=keys)
        np.copyto(scratch, keys, casting="unsafe")
        scratch -= int(low)
        packed *= span
        packed += scratch
    del keys
    span = math.prod(spans)
    if span <= 3 * len(packed) < 2**31:  # and every rank fits the int32 table
        del scratch
        inverse, voxels = _table_ranks(packed, span)
    else:
        inverse, voxels = _sorted_ranks(packed, scratch)
        del scratch
    centroids = np.empty((3, voxels))
    for row, centroid in zip(rows, centroids):
        centroid[:] = np.bincount(inverse, weights=row, minlength=voxels)
    centroids /= np.bincount(inverse, minlength=voxels)
    return centroids.T


def _table_ranks(packed: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """Each packed key's rank among the distinct keys, written over `packed`,
    and their count: the occupied keys of a length-`span` mask, ascending,
    number an int32 table that each key then reads its rank from."""
    occupied = np.zeros(span, dtype=bool)
    occupied[packed] = True
    ranked = np.flatnonzero(occupied)
    del occupied
    table = np.empty(span, dtype=np.int32)
    table[ranked] = np.arange(len(ranked), dtype=np.int32)
    packed[:] = table.take(packed)  # int64, as `bincount` takes them without a cast
    return packed, len(ranked)


def _sorted_ranks(packed: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, int]:
    """Each packed key's rank among the distinct keys, written over `packed`,
    and their count: np.unique(packed, return_inverse=True) without its
    copies.  Sort once into `scratch`, number the runs of equal keys, and
    scatter each key's run number back to its row."""
    order = np.argsort(packed)
    np.take(packed, order, out=scratch)
    new_run = np.empty(len(packed), dtype=bool)
    new_run[0] = False
    np.not_equal(scratch[1:], scratch[:-1], out=new_run[1:])
    np.cumsum(new_run, out=scratch)
    packed[order] = scratch
    return packed, int(scratch[-1]) + 1


def _in_ball(offsets) -> np.ndarray:
    """x**2 + y**2 + z**2 <= NORMAL_RADIUS**2 for per-axis offsets: the one ball test."""
    x, y, z = offsets
    return x**2 + y**2 + z**2 <= NORMAL_RADIUS**2


def _scan_ball(points: np.ndarray, index: int):
    """The ball of points[index] by a linear scan: (row 0, neighbor) pairs, ascending."""
    offsets = (column - value for column, value in zip(points.T, points[index]))
    ball = np.flatnonzero(_in_ball(offsets))
    return np.zeros_like(ball), ball


def _tree_balls(points: np.ndarray, tree, index: np.ndarray):
    """The balls of points[index] as (row, neighbor) pairs, by row and then neighbor:
    the k-d tree's candidates at a slightly larger radius, kept if they pass the scan's test."""
    found = type(tree)(points[index]).sparse_distance_matrix(
        tree, NORMAL_RADIUS * (1 + 1e-9), output_type="ndarray")
    rows, neighbors = np.divmod(np.sort(found["i"] * len(points) + found["j"]), len(points))
    inside = _in_ball(_offsets(points, index[rows], neighbors))
    return rows[inside], neighbors[inside]


def _offsets(points: np.ndarray, centres: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """points[neighbors] - points[centres], one array per axis."""
    return (points.take(neighbors, 0) - points.take(centres, 0)).T


def _all_normals(points: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """`_pca_normals` of every point, from a k-d tree built here and dropped on return.
    scipy is imported here, the one place that reads it, so `import scanloc` does not."""
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    normals = np.empty_like(points)
    for start in range(0, len(points), 512):
        index = np.arange(start, min(start + 512, len(points)))
        normals[index] = _pca_normals(points, toward, index, *_tree_balls(points, tree, index))
    return normals


def _pca_normals(points: np.ndarray, toward: np.ndarray, index: np.ndarray,
                 rows: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Normals of points[index]: smallest principal axis of each point's ball, given as
    (row into `index`, neighbor) pairs (Hoppe et al., SIGGRAPH 1992), facing `toward`.

    Every ball holds its own point, and each row's moments are summed in pair
    order, so a row's normal depends on its own pairs alone: one row's pairs
    give bitwise the normal that the same pairs among many rows give.  A ball
    of fewer than 3 points has no plane, and its normal points back at the cameras.
    """
    offsets = _offsets(points, index[rows], neighbors)
    count = np.bincount(rows)
    first = np.column_stack([np.bincount(rows, o) for o in offsets])
    scatter = np.empty((len(index), 3, 3))
    for a in range(3):
        for b in range(a, 3):
            scatter[:, a, b] = scatter[:, b, a] = np.bincount(rows, offsets[a] * offsets[b])
    scatter -= first[:, :, None] * first[:, None, :] / count[:, None, None]
    direction = toward - points[index]
    normals = np.where(count[:, None] < 3, direction, np.linalg.eigh(scatter)[1][:, :, 0])
    normals *= np.where(np.einsum("ij,ij->i", normals, direction) < 0, -1.0, 1.0)[:, None]
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return np.where(lengths > 1e-12, normals / np.maximum(lengths, 1e-12), [[0.0, 0.0, 1.0]])


def _query_xy(target) -> np.ndarray:
    """The XY of a planar query; raises ConfigError unless it has two finite ones."""
    t = np.asarray(target, dtype=float).reshape(-1)[:2]
    if len(t) < 2 or not np.all(np.isfinite(t)):
        raise ConfigError(f"a planar query needs finite X and Y coordinates, got {t}")
    return t


def _prefilter_box(voxel: float, low: np.ndarray, high: np.ndarray, rounding: float):
    """The XY box (lower, upper) that holds every coordinate whose voxel key
    lies in [low, high]: a voxel and `rounding` wider on each side."""
    return (low - 1) * voxel - rounding, (high + 2) * voxel + rounding


def _view_window(views: list[_View], voxel: float, low: np.ndarray, high: np.ndarray,
                 rounding: float) -> np.ndarray:
    """`_key_window` of the points of `views` that `_deproject_views` gives,
    from only the valid pixels of each view's rectangle around the prefilter
    box: the same columns in the same order, bitwise."""
    lower, upper = _prefilter_box(voxel, low, high, rounding)
    rows = np.concatenate([view.rows(*view.rectangle(lower, upper)) for view in views], axis=1)
    return _key_window(rows, voxel, low, high)


def _key_window(rows: np.ndarray, voxel: float, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The columns of raw coordinate rows whose x and y voxel keys, floored as
    `_voxel_centroids` floors them, lie in [low, high], in their order."""
    kx, ky = np.floor(rows[0] / voxel), np.floor(rows[1] / voxel)
    inside = (kx >= low[0]) & (kx <= high[0]) & (ky >= low[1]) & (ky <= high[1])
    return rows[:, inside]


def _snap(cloud: FusedCloud, *targets) -> tuple[FusedCloud, list[PlanarNeighbor]]:
    """The point nearest each of one or more `targets` in XY, with the one
    cloud that holds them all (its `normal_at(index)` is a point's normal):
    `cloud` itself once its points exist or if it has no voxel, else the voxel
    grid of one key window of its raw points around the targets' XY bounding
    box, which `_view_window` deprojects from the pixels that can see it.  A
    snap never builds the whole grid.

    Exact, not approximate.  The window holds whole voxels, in `fuse`'s order,
    and `bincount` sums each voxel's points in input order, so its centroids
    are bitwise the grid's, in the grid's relative order.  The window is the
    box widened by `h` on each side, so a centroid outside it lies more than a
    target's own half-width, `h` plus the target's least offset from the
    box's sides, from that target in x or y, but for the rounding of its sum:
    under one ulp of the largest coordinate per point.  So once, for every
    target, the nearest centroid's planar distance, NORMAL_RADIUS and that
    rounding fit in its own half-width, the window holds every grid point as
    near as that one (so ties break alike) and its whole ball.  Otherwise `h`
    at least doubles, as it does while the window is empty.  A lone target's
    offset is 0, so its half-width is `h`.  `adjust_target` snaps a scene's
    targets (a front scene's two lie about 8 cm apart), and the
    evaluation a fold's target and its back-projection's three estimates,
    through one call each.
    """
    xy = np.array([_query_xy(target) for target in targets])
    if cloud._points is not None or cloud._raw[1] == 0:
        return cloud, [cloud.planar_nearest(t) for t in xy]
    views, voxel = cloud._raw
    count = sum(view.count for view in views)
    # the views' boxes bound every coordinate
    scale = np.abs(xy).max() + max(np.abs(view.extent[1][:2]).max() for view in views)
    box_lo, box_hi = xy.min(axis=0), xy.max(axis=0)
    offsets = np.minimum(xy - box_lo, box_hi - xy).min(axis=1)
    h = NORMAL_RADIUS + voxel
    while True:
        low, high = np.floor((box_lo - h) / voxel), np.floor((box_hi + h) / voxel)
        # a centroid's sum, the box ± h, the offsets and the distances round by at most this
        rounding = np.finfo(float).eps * (count + 8) * (scale + h)
        window = _view_window(views, voxel, low, high, rounding)
        if window.shape[1] == 0:
            h *= 2
            continue
        grid = FusedCloud._with_pca_normals(_voxel_centroids(window.T, voxel),
                                            cloud._toward)
        neighbors = [grid.planar_nearest(t) for t in xy]
        need = max(neighbor.planar_distance + NORMAL_RADIUS + rounding - offset
                   for neighbor, offset in zip(neighbors, offsets))
        if need <= h:
            return grid, neighbors
        h = max(2 * h, need)


def adjust_target(cloud: FusedCloud, targets) -> AdjustedTarget | list[AdjustedTarget]:
    """Snap regressed targets onto the observed surface: one target, a point
    (k,) with k >= 2, gives its AdjustedTarget, and N targets (N, k) give a
    list of N, in order, all from one `_snap` through one key window.

    XY stays put; Z and the normal come from the XY-nearest cloud point.
    A neighbor farther than FAR_FROM_SURFACE in the plane sets the
    far_from_surface flag: the regression landed off the scanned surface.
    """
    t = np.asarray(targets, dtype=float)
    rows = np.atleast_2d(t)
    if rows.ndim != 2 or len(rows) == 0:
        raise ConfigError(f"targets must have shape (k,) or (N, k) with N >= 1, got {t.shape}")
    adjusted = _adjusted(rows, *_snap(cloud, *rows))
    return adjusted if t.ndim == 2 else adjusted[0]


def _adjusted(targets, surface: FusedCloud, neighbors) -> list[AdjustedTarget]:
    """Each target snapped to its neighbor from `_snap`, whose `surface` gives
    the neighbor's normal: `adjust_target`'s results from a snap already made."""
    return [
        AdjustedTarget(
            position=np.array([target[0], target[1], neighbor.point[2]]),
            normal=surface.normal_at(neighbor.index).copy(),
            planar_distance=neighbor.planar_distance,
            far_from_surface=neighbor.planar_distance > FAR_FROM_SURFACE,
        )
        for target, neighbor in zip(targets, neighbors, strict=True)
    ]
