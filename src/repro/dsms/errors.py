"""Exception hierarchy for the DSMS substrate and the ESL-EV layer.

Every error raised by this package derives from :class:`EslError`, so
applications can catch one base class.  The hierarchy mirrors the phases a
query moves through: parsing (:class:`EslSyntaxError`), semantic analysis
(:class:`EslSemanticError`), and runtime execution (:class:`EslRuntimeError`
and its children).
"""

from __future__ import annotations


class EslError(Exception):
    """Base class for all errors raised by the repro package."""


class EslSyntaxError(EslError):
    """Raised by the lexer or parser on malformed ESL-EV text.

    Carries the source position so callers can point at the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class EslSemanticError(EslError):
    """Raised during semantic analysis: unknown stream, bad column, etc."""


class EslRuntimeError(EslError):
    """Base class for errors raised while a continuous query is running."""


class SchemaError(EslRuntimeError):
    """A tuple does not conform to its stream's declared schema."""


class UnknownStreamError(EslRuntimeError):
    """A query references a stream that was never registered."""


class UnknownTableError(EslRuntimeError):
    """A query references a table that was never registered."""


class UnknownFunctionError(EslRuntimeError):
    """An expression calls a scalar function or UDF that is not registered."""


class UnknownAggregateError(EslRuntimeError):
    """A query calls an aggregate or UDA that is not registered."""


class OutOfOrderError(EslRuntimeError):
    """A tuple arrived with a timestamp earlier than the stream's clock.

    The DSMS assumes append-only, timestamp-ordered streams (paper section 1).
    Sources that cannot guarantee order must sort or buffer before pushing.

    Attributes:
        stream: name of the stream that rejected the tuple (or None).
        ts: the offending tuple's timestamp.
        last_ts: the stream's last-accepted timestamp.
    """

    def __init__(
        self,
        message: str,
        stream: str | None = None,
        ts: float | None = None,
        last_ts: float | None = None,
    ) -> None:
        self.stream = stream
        self.ts = ts
        self.last_ts = last_ts
        super().__init__(message)


class ClockError(EslRuntimeError):
    """The virtual clock was asked to move backwards."""


class WindowError(EslRuntimeError):
    """A window specification is invalid (negative range, bad anchor...)."""


class TransportError(EslRuntimeError):
    """The shard transport failed: a worker died, a pipe closed, or a
    worker reported an exception (the message carries its traceback)."""


class WorkerCrashed(TransportError):
    """A shard worker process died: the pipe reached EOF, a send hit a
    closed pipe, or the process exited without a STOP handshake."""


class WorkerHung(TransportError):
    """A shard worker stopped making progress: frames are in flight but
    no acknowledgement arrived within the hang deadline."""


class FrameCodecError(TransportError):
    """A transport frame could not be encoded or decoded: short, truncated,
    corrupt (bad magic, CRC mismatch), or referencing unknown interned
    ids."""


class EpcFormatError(EslError):
    """An EPC code or EPC pattern string is malformed."""
