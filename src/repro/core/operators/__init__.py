"""ESL-EV temporal event operators: SEQ, star sequences, EXCEPTION_SEQ,
CLEVEL_SEQ, and the cross-sub-query symmetric window.

:func:`make_sequence_operator` dispatches between the star-free
:class:`SeqOperator` and the star-capable :class:`StarSeqOperator`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ...dsms.engine import Engine
from ...dsms.tuples import Tuple
from .base import (
    Guard,
    MatchCallback,
    OperatorWindow,
    PairingMode,
    SeqArg,
    SeqMatch,
    validate_args,
)
from .exception_seq import (
    ExceptionReason,
    ExceptionSeqOperator,
    SequenceOutcome,
)
from .seq import SeqOperator
from .star import StarSeqOperator
from .subquery import SymmetricExistsOperator


def make_sequence_operator(
    engine: Engine,
    args: Sequence[SeqArg],
    mode: PairingMode = PairingMode.UNRESTRICTED,
    window: OperatorWindow | None = None,
    guard: Guard | None = None,
    partition_by: Callable[[Tuple], Any] | None = None,
    on_match: MatchCallback | None = None,
    ttl: float | None = None,
) -> SeqOperator | StarSeqOperator:
    """Build the right SEQ runtime for *args* (star-free vs. starred).

    Matches leave the operator only through ``on_match``; nothing is
    retained (pass ``on_match=got.append`` to collect them).  A star-free
    :class:`SeqOperator` emits runs; the adapter here builds one
    :class:`SeqMatch` per row of each run.
    """
    if any(arg.starred for arg in args):
        return StarSeqOperator(
            engine, args, mode=mode, window=window, guard=guard,
            partition_by=partition_by, on_match=on_match, ttl=ttl,
        )
    on_run = None
    if on_match is not None:
        match_args = tuple(args)
        first = match_args[0].alias
        rest = [arg.alias for arg in match_args[1:]]

        def on_run(
            chain: Sequence[Tuple], stage0: Sequence[Tuple], hi: int
        ) -> None:
            # Copied out now: enumeration may reuse both lists.
            prefix = list(zip(rest, chain[1:]))
            ts = chain[-1].ts
            for tup in stage0[:hi]:
                bindings = {first: tup}
                bindings.update(prefix)
                on_match(SeqMatch(match_args, bindings, ts))

    return SeqOperator(
        engine, args, mode=mode, window=window, guard=guard,
        partition_by=partition_by, on_run=on_run,
    )


__all__ = [
    "ExceptionReason",
    "ExceptionSeqOperator",
    "Guard",
    "MatchCallback",
    "OperatorWindow",
    "PairingMode",
    "SeqArg",
    "SeqMatch",
    "SeqOperator",
    "SequenceOutcome",
    "StarSeqOperator",
    "SymmetricExistsOperator",
    "make_sequence_operator",
    "validate_args",
]
