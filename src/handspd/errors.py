"""Exception hierarchy shared by all modules, and its one failure model.

Two types are raised: ``InvalidInput`` for an input, setting or file that is
invalid, and ``NumericalError`` for a numerical operation that failed.

Every error carries where it happened as fields, in ``where``: path, line,
array, layer, finger, range, frame, matrix and eigenvalue, every index
1-based.  A raise site passes them as keywords, a caller that knows more of
the location adds them with ``at``, and ``__str__`` alone renders them,
after the message: ``message [path p, array a]``.
"""

import os

_FIELDS = ("path", "line", "array", "layer", "finger", "range", "frame", "matrix", "eigenvalue")


class HandSpdError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, **where):
        super().__init__(message)
        self.where = {}
        self.at(**where)

    def at(self, **where):
        """Add location fields (a None value adds none; a path is stored as a
        str); returns this error, to re-raise."""
        where = {k: os.fspath(v) if k == "path" else v for k, v in where.items() if v is not None}
        merged = {**self.where, **where}
        self.where = {k: merged[k] for k in sorted(merged, key=_FIELDS.index)}
        return self

    def __str__(self):
        fields = ", ".join(f"{k} {v}" for k, v in self.where.items())
        return f"{self.args[0]} [{fields}]" if fields else self.args[0]


class InvalidInput(HandSpdError):
    """An operation's input, a setting, or a file is invalid, missing or unparseable (exit 2)."""


class NumericalError(HandSpdError):
    """A numerical operation failed (exit 1)."""
