"""Error types shared across modules, the seed check, and the readers for
input-file fields.

Every field of a scene, deployment, trajectory or density file is read
through the readers below. Each raises SchemaError with a message that
starts with the dotted name of the offending field, so the command line
reports it and exits 2.
"""

from __future__ import annotations

import json
import math
import reprlib
from contextlib import contextmanager

import numpy as np

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A config or data file failed schema validation."""


class TrajectoryOutOfRegionError(RuntimeError):
    """A simulated camera position left the reachable region."""


class EstimateDivergedError(RuntimeError):
    """A simulated observer estimate left the float range."""


class MissingDependencyError(ImportError):
    """An optional dependency that a command needs is not installed."""


def load_json(path, context: str):
    """The parsed JSON document at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{context}: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{context}: invalid JSON at {path} line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer beyond Python's digit limit
        raise SchemaError(f"{context}: cannot parse {path}: {exc}") from exc


def require(mapping, key: str, context: str):
    """``mapping[key]``, where ``mapping`` must be a JSON object holding it."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{context}: expected an object, got {reprlib.repr(mapping)}")
    if key not in mapping:
        raise SchemaError(f"{context}: missing required key '{key}'")
    return mapping[key]


def check_schema(doc, context: str) -> None:
    """Require a top-level object whose ``schema`` is the integer 1."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{context}: top level must be an object")
    version = integer(require(doc, "schema", context), f"{context}.schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{context}: unsupported schema version {version!r}")


def number(value, context: str, positive: bool = False, null_is_inf: bool = False) -> float:
    """A finite JSON number (positive if asked); ``null`` is inf if allowed."""
    if value is None and null_is_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context}: expected a number, got {reprlib.repr(value)}")
    try:
        out = float(value)
    except OverflowError:
        raise SchemaError(f"{context}: integer too large for a float") from None
    if not math.isfinite(out) or (positive and out <= 0):
        kind = "positive finite" if positive else "finite"
        raise SchemaError(f"{context}: expected a {kind} number, got {reprlib.repr(value)}")
    return out


def integer(value, context: str, positive: bool = False) -> int:
    """A count or seed: a JSON integer, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{context}: expected an integer, got {reprlib.repr(value)}")
    if positive and value < 1:
        raise SchemaError(f"{context}: expected a positive integer, got {reprlib.repr(value)}")
    return value


def check_seed(seed: int) -> int:
    """``seed``, which numpy's generators require to be non-negative."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def numbers(value, context: str, length: int | None = None) -> np.ndarray:
    """A JSON array of finite numbers (of ``length`` if given) as a float array."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        kind = "an array" if length is None else f"a {length}-array"
        raise SchemaError(f"{context}: expected {kind} of numbers")
    return np.array([number(v, f"{context}[{i}]") for i, v in enumerate(value)], dtype=float)


@contextmanager
def schema_errors(context: str):
    """Report a ValueError raised while building an object as a SchemaError."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{context}: {exc}") from exc
