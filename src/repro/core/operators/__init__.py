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
    :class:`SeqOperator` emits chains; the adapter here builds the
    :class:`SeqMatch` from each one.
    """
    if any(arg.starred for arg in args):
        return StarSeqOperator(
            engine, args, mode=mode, window=window, guard=guard,
            partition_by=partition_by, on_match=on_match, ttl=ttl,
        )
    on_chain = None
    if on_match is not None:
        match_args = tuple(args)

        def on_chain(chain: Sequence[Tuple]) -> None:
            # The dictcomp is this match's private copy of the chain,
            # which enumeration may reuse.
            bindings = {arg.alias: tup for arg, tup in zip(match_args, chain)}
            on_match(SeqMatch(match_args, bindings, chain[-1].ts))

    return SeqOperator(
        engine, args, mode=mode, window=window, guard=guard,
        partition_by=partition_by, on_chain=on_chain,
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
