"""Exception types raised by forcebench."""


class ForceBenchError(Exception):
    """Base class for all forcebench errors."""


class DegenerateBridgeError(ForceBenchError, ValueError):
    """Bridge denominator is (numerically) zero, i.e. nonphysical resistivity input."""


class DegenerateDataError(ForceBenchError, ValueError):
    """Input data carries no usable variance (e.g. all fracture forces equal)."""


class InsufficientDataError(ForceBenchError, ValueError):
    """Fewer samples/curves/entries than the operation needs."""


class NoFailureError(ForceBenchError, ValueError):
    """A fracture point was requested for a curve without any detected failure."""


class ProtocolLimitError(ForceBenchError, ValueError):
    """Requested protocol exceeds the rig limits (displacement, force or frequency)."""


class OverloadError(ForceBenchError, ValueError):
    """A cyclic protocol would fracture the specimen at its hold force."""


class SupplyLossError(ForceBenchError, ValueError):
    """Arm C has lost a hinge: the bridge supply leads are cut and no bridge can be read."""


class DataFormatError(ForceBenchError, ValueError):
    """A data file is malformed or violates a schema invariant."""
