"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or extents."""


class CapacityError(RuntimeError):
    """A dense object would exceed the configured size guard."""


class SingularMatrixError(RuntimeError):
    """LU factorization hit an exactly singular pivot."""


class DegenerateDataError(RuntimeError):
    """Generated labels carry no variance; normalization is undefined."""


class IdxFormatError(ValueError):
    """IDX file is malformed; the message names the failing byte offset."""


class ScanAbortedError(RuntimeError):
    """Too many replicate failures; the scan result would be meaningless."""
