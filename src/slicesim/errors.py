"""Exception types shared across the package."""


class SliceSimError(Exception):
    """Base class for all slicesim errors."""


class ConfigurationError(SliceSimError):
    """A topology profile, scenario, or agent configuration is invalid."""


class CapacityError(SliceSimError):
    """A resource commit would drive a residual capacity negative."""


class AccountingError(SliceSimError):
    """A release would push a residual above its maximum capacity.

    This always indicates a bookkeeping bug (mismatched ledger), never a
    legitimate runtime condition, hence a separate type from CapacityError.
    """


class ScenarioError(ConfigurationError):
    """A scenario file failed to parse or validate.

    The message names the offending field with a dotted path such as
    ``classes[1].arrival.amplitude``.
    """


class CheckpointError(SliceSimError):
    """A checkpoint is unreadable or incompatible."""


class InvariantError(SliceSimError):
    """A structural invariant broke mid-run (e.g. non-monotone event times).

    Fatal: the simulation state can no longer be trusted.
    """
