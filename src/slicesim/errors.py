"""Exception types shared across the package, and the one field check.

Every record (`TopologyCounts`, `SliceClass`, the arrival laws,
`AgentConfig`, `Scenario`) checks its own fields when built: the number
fields through `check_fields`, then its range rules. A refused field is
a `FieldError` that reads ``<Record>.<field>: <what>``. A reader that
knows where the record came from names the same field under its own
path, such as ``classes[1].arrival.amplitude``.
"""

import numbers
import sys
from dataclasses import fields


class SliceSimError(Exception):
    """Base class for all slicesim errors."""


class ConfigurationError(SliceSimError):
    """A topology profile, scenario, or agent configuration is invalid."""


class FieldError(ConfigurationError):
    """A record (an instance or its class) refused one of its fields."""

    def __init__(self, record, field: str, what: str):
        name = getattr(record, "__name__", type(record).__name__)
        super().__init__(f"{name}.{field}: {what}")
        self.field, self.what = field, what


class CapacityError(SliceSimError):
    """A resource commit would drive a residual capacity negative."""


class AccountingError(SliceSimError):
    """A release would push a residual above its maximum capacity.

    This always indicates a bookkeeping bug (mismatched ledger), never a
    legitimate runtime condition, hence a separate type from CapacityError.
    """


class ScenarioError(ConfigurationError):
    """A scenario file failed to parse or validate.

    The message names the offending field once, with a dotted path such
    as ``classes[1].arrival.amplitude: ...``.
    """


class CheckpointError(SliceSimError):
    """A checkpoint is unreadable or incompatible."""


class InvariantError(SliceSimError):
    """A structural invariant broke mid-run (e.g. non-monotone event times).

    Fatal: the simulation state can no longer be trusted.
    """


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def finite_number(value) -> bool:
    """An int or float within the float range, not a bool."""
    # NaN fails the comparison; an int is compared exactly
    return _number(value) and abs(value) <= sys.float_info.max


def whole_number(value) -> bool:
    """An int >= 0, not a bool."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 0)


_CHECKS = {"int": whole_number, "float": finite_number}


def check_fields(record) -> None:
    """FieldError unless each int field of dataclass record holds a whole
    number >= 0 and each float field a finite number."""
    for f in fields(record):
        value = getattr(record, f.name)
        check = _CHECKS.get(f.type)
        if check is None or check(value):
            continue
        if not _number(value):
            what = "must be a number"
        elif f.type == "float":
            what = "must be finite"
        elif isinstance(value, numbers.Integral):
            what = "must be a whole number >= 0"
        else:
            what = "must be a whole number"
        raise FieldError(record, f.name, f"{what}, got {value!r}")
