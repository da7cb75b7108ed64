"""Exception types shared across the package, and the scenario decoder:
every scenario object, down to curve nodes, is read by :func:`decode`
against a table of its fields, so malformed input raises ScenarioError."""

import math

import numpy as np

# The largest count numpy can size an array axis by: a larger sample or grid
# count is refused before anything is allocated.
MAX_COUNT = int(np.iinfo(np.intp).max)

# The most points one scan level or one sample count may hold, far below
# MAX_COUNT: 10**7 points is over 300 times the largest level any shipped
# scenario or benchmark seed scans (a concordance refinement level of
# 31,104 points). A grid or count past it raises ScenarioError up front.
MAX_SCAN_POINTS = 10_000_000


class PreconditionError(ValueError):
    """An operation was invoked on inputs violating its stated preconditions."""


class ScenarioError(PreconditionError):
    """Malformed scenario: unknown or missing key, wrong type or shape, or
    a grid or count past ``MAX_SCAN_POINTS``."""


class DomainError(PreconditionError):
    """Evaluation outside a curve's or chart's domain, or at a degenerate point."""


class KinkSideRequired(PreconditionError):
    """Full jet requested at a marked kink without choosing a side."""


class ConditionError(PreconditionError):
    """A synthesized object failed one of its numeric condition checks.

    Carries the full condition report so callers can see which clause failed
    and by how much.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EvaluationError(RuntimeError):
    """A margin function failed inside a grid scan; carries the coordinates."""

    def __init__(self, message, coords=None):
        super().__init__(message)
        self.coords = coords


class SearchError(RuntimeError):
    """A parameter search exhausted its iteration budget or lost its bracket."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def decode(spec, fields: dict, what: str) -> dict:
    """The values of the JSON object ``spec`` by the field table ``fields``.

    A field is a converter (required), a ``(converter, default)`` pair whose
    default is used as is, or the table of a sub-object named by its key. A
    null value reads as absent. A converter's TypeError (wrong type, shape or
    value) or OverflowError (out of range) is reported with ``what`` and the key.
    """
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ScenarioError(f"{what} must be an object, got {spec!r}")
    unknown = set(spec) - set(fields)
    if unknown:
        raise ScenarioError(f"unknown {what} keys: {sorted(unknown)}")
    missing = {k for k, f in fields.items() if callable(f) and spec.get(k) is None}
    if missing:
        raise ScenarioError(f"missing {what} keys: {sorted(missing)}")
    out = {}
    for name, field in fields.items():
        value = spec.get(name)
        try:
            if isinstance(field, dict):
                out[name] = decode(value, field, name)
            elif value is None:
                out[name] = field[1]
            else:
                out[name] = (field if callable(field) else field[0])(value)
        except (TypeError, OverflowError) as exc:
            raise ScenarioError(f"{what} key {name!r}: {exc}") from None
    return out


def number(v) -> float:
    """``float(v)`` of a finite JSON number, not a string or a boolean."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    if not math.isfinite(v):
        raise TypeError(f"expected a finite number, got {v!r}")
    return float(v)


def integer(v) -> int:
    """``int(v)`` of a JSON number with an integral value."""
    if not number(v).is_integer():
        raise TypeError(f"expected an integer, got {v!r}")
    return int(v)


def positive_int(v) -> int:
    """``integer(v)`` of a count from 1 to ``MAX_SCAN_POINTS``."""
    count = integer(v)
    if count < 1:
        raise TypeError(f"expected a positive integer, got {v!r}")
    if count > MAX_COUNT:
        raise TypeError(f"expected a count up to {MAX_COUNT}, got {v!r}")
    if count > MAX_SCAN_POINTS:
        raise TypeError(f"{count} points exceed the budget of "
                        f"{MAX_SCAN_POINTS} scan points")
    return count


def text(v) -> str:
    if not isinstance(v, str):
        raise TypeError(f"expected a string, got {v!r}")
    return v


def list_of(convert):
    """Converter of a JSON list whose entries all convert by ``convert``."""
    def conv(v):
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"expected a list, got {v!r}")
        return tuple(map(convert, v))
    return conv


def tuple_of(*converts):
    """Converter of a JSON list of ``len(converts)`` entries, one each."""
    def conv(v):
        if not isinstance(v, (list, tuple)) or len(v) != len(converts):
            raise TypeError(f"expected a list of {len(converts)} entries, got {v!r}")
        return tuple(c(x) for c, x in zip(converts, v))
    return conv
