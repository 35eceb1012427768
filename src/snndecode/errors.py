"""Exception types shared across the package, and :func:`refused`, the
one way a refusal comes to name its file."""

from contextlib import contextmanager


class DataError(Exception):
    """A refusal whose message names its file: a dataset, checkpoint or
    config file that is missing, malformed or inconsistent, or an output
    path that cannot be written.  A refusal of a value, wherever it came
    from, is a ``ValueError``; :func:`refused` turns one into this."""


class NumericError(Exception):
    """A computation produced non-finite values or an ill-conditioned system."""


@contextmanager
def refused(where, prefix: str = ""):
    """Re-raise a refusal inside the block as :class:`DataError` that
    starts with ``where``, the file (and the part of it) at fault: a
    missing array or metadata key, metadata of the wrong type or too large
    a number, or a ``ValueError`` whose message starts with what is at
    fault, as stored once ``prefix`` is put before it."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{where}: no array or metadata key {exc}") from exc
    except (TypeError, OverflowError) as exc:
        raise DataError(f"{where}: corrupt metadata: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{where}: {prefix}{exc}") from exc
