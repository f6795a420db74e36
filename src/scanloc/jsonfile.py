"""The one JSON boundary: `read_json` and `write_json` are the only places a
JSON file is parsed or written, so a bad file always names itself.

The helpers are the JSON-value vocabulary the parsers share; each names
the field it rejects.
"""

from __future__ import annotations

import json
import math
from numbers import Real

import numpy as np

from .errors import ConfigError, MalformedFileError


def read_json(path, parse):
    """`parse(data)` for the JSON value `data` in the UTF-8 file `path`.  Bytes
    that are not UTF-8, not JSON or nested too deeply to parse, and any
    KeyError, TypeError or ValueError (ConfigError included) from `parse`,
    become one MalformedFileError naming `path`; an OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except KeyError as exc:
            raise MalformedFileError(f"{path}: missing key {exc}") from None
        except (RecursionError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"{path}: {exc}") from None


def write_json(path, data) -> None:
    """Write `data` with sorted keys, a two-space indent and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_keys(data: dict, allowed: set, context: str, whole: bool = False) -> None:
    """Reject unknown keys so config typos fail loudly instead of silently,
    and, for a `whole` record, a missing one: the first missing key in sorted
    order is named."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    missing = sorted(allowed - set(data)) if whole else ()
    if missing:
        raise ConfigError(f"{context} is missing key {missing[0]!r}")


def _two(value, name: str) -> list:
    """`value` as a JSON list of exactly two JSON objects, else ConfigError naming `name`."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(item, dict) for item in value)):
        raise ConfigError(f"{name} must be a list of exactly two JSON objects")
    return value


def _finite_number(x) -> bool:
    """A real number, not a boolean, that a float holds finitely: JSON's int and
    float by exact type, any other `Real` (a numpy scalar) by isinstance.  An
    integer too large for a float is not finite."""
    try:
        return ((type(x) in (int, float) or isinstance(x, Real) and not isinstance(x, bool))
                and math.isfinite(x))
    except OverflowError:
        return False


def _finite(value, where: str, shape: tuple = ()) -> np.ndarray:
    """`value` as a finite float array of `shape`, () or (n,), else
    MalformedFileError naming `where`; each value must be a `_finite_number`.
    Each value is checked without numpy and the array is built once, after."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not shape:
        items = [items]
    if not (isinstance(items, (list, tuple)) and len(items) == (shape or (1,))[0]
            and all(map(_finite_number, items))):
        what = f"{shape[0]} finite numbers" if shape else "a finite number"
        raise MalformedFileError(f"{where} must be {what}, got {value!r}")
    return np.asarray(value, dtype=float)


def _as_lists(vectors: dict) -> dict:
    """Named vectors as a JSON object of number lists, each name as text."""
    return {str(key): [float(x) for x in vector] for key, vector in vectors.items()}


def _vectors(data, keys, name: str, size: int = 3, whole: bool = False) -> dict:
    """The JSON object `data` of named vectors, each named by one of `keys` as
    text (every one of them if `whole`) and each `size` finite numbers, keyed
    as in `keys`; else ConfigError naming `name` or MalformedFileError naming
    `name key`."""
    key_of = {str(key): key for key in keys}
    _check_keys(data, set(key_of), name, whole)
    return {key_of[key]: _finite(v, f"{name} {key}", (size,)) for key, v in data.items()}


def _whole(value, name: str) -> int:
    """`value` as an int; an int or float that is not a `_finite_number` or has
    a fraction is rejected."""
    if not (isinstance(value, (int, float)) and _finite_number(value)
            and float(value).is_integer()):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(value)
