"""Exception types raised by the scanloc library.

One class per way a caller reacts, and no more.  The CLI turns any
ScanlocError into one line and exit code 1; `read_json` re-raises a
ConfigError as a MalformedFileError naming its file; `pose_keypoints` and
the evaluation catch ImplausibleKeypointsError to drop a joint or mark a
scene faulty.  A bad array, query, range or option value is a ConfigError;
every other anticipated failure (degenerate geometry, too few samples or
motions, an empty cloud, overflowing voxel keys, a missing joint or pixel,
no valid fold) is a plain ScanlocError, told apart by its message.
"""


class ScanlocError(Exception):
    """Any anticipated failure; the CLI reports it on one line with exit code 1."""


class ConfigError(ScanlocError, ValueError):
    """A bad input value: a malformed config, array, query, range or option."""


class MalformedFileError(ConfigError):
    """A bad input value whose message names the file it came from."""


class ImplausibleKeypointsError(ConfigError):
    """Two keypoints are not a human-scale distance apart (a grossly wrong detection)."""
