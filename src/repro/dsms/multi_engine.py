"""MultiQueryEngine: one ingestion front door for many registered queries.

The paper's deployment model is many continuous RFID queries (per-reader
alerts, per-tag tracking, shoplifting variants for every department) over
the same few streams.  :class:`MultiQueryEngine` runs them on one
:class:`~repro.dsms.engine.Engine` plus a
:class:`~repro.dsms.registry.QueryRegistry`: ingestion and schema decode
run once per tuple, routing is predicate-indexed, and identical queries
share one compiled plan.  Each subscription's answers are byte-identical
to running its query text alone on a plain ``Engine`` — the reference
``tests/test_multi_query.py`` diffs against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from .columns import ColumnBatch
from .engine import Engine
from .errors import EslSemanticError
from .registry import QueryRegistry, Subscription
from .schema import Schema
from .tuples import Tuple

__all__ = ["MultiQueryEngine"]


class MultiQueryEngine:
    """Register N continuous queries over one shared ingestion path.

    Catalog DDL (streams, tables, UDFs, UDAs) and ingestion go to the
    underlying :attr:`engine`; query text is registered via
    :meth:`register`, which returns a
    :class:`~repro.dsms.registry.Subscription`.
    """

    def __init__(self) -> None:
        self.engine = Engine()
        self.registry = QueryRegistry(self.engine)
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise EslSemanticError("MultiQueryEngine is closed")

    # -- catalog ----------------------------------------------------------

    def create_stream(
        self,
        name: str,
        schema: Schema | str | Iterable[str],
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
    ) -> Any:
        self._check_open()
        return self.engine.create_stream(
            name, schema, allow_out_of_order, reorder_slack
        )

    def create_table(self, name: str, schema: Schema | str | Iterable[str]) -> Any:
        self._check_open()
        return self.engine.create_table(name, schema)

    def register_udf(
        self, name: str, fn: Callable[..., Any], strict: bool = True
    ) -> None:
        self._check_open()
        self.engine.register_udf(name, fn, strict=strict)

    def register_uda(self, name: str, factory: Callable[[], Any]) -> None:
        self._check_open()
        self.engine.register_uda(name, factory)

    def ddl(self, text: str) -> None:
        """Run a DDL/INSERT program (no SELECT) on the engine."""
        self._check_open()
        self.engine.query(text)

    # -- registration ---------------------------------------------------

    def register(
        self,
        text: str,
        on_answer: Callable[[Tuple], None] | None = None,
    ) -> Subscription:
        """Register one SELECT; answers land on the returned subscription."""
        self._check_open()
        return self.registry.register(text, on_answer)

    def cancel(self, subscription: Subscription) -> None:
        """Cancel a subscription.  Idempotent."""
        subscription.cancel()

    # -- ingestion ------------------------------------------------------

    def push(
        self,
        stream_name: str,
        values: Mapping[str, Any] | Sequence[Any],
        ts: float,
    ) -> None:
        self._check_open()
        self.engine.push(stream_name, values, ts)

    def push_batch(
        self,
        stream_name: str,
        batch: Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        self._check_open()
        return self.engine.push_batch(stream_name, batch)

    def push_columns(self, stream_name: str, batch: ColumnBatch) -> int:
        self._check_open()
        return self.engine.push_columns(stream_name, batch)

    def run_trace(
        self,
        trace: Iterable[tuple[str, Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        self._check_open()
        return self.engine.run_trace(trace)

    def advance_time(self, ts: float) -> int:
        self._check_open()
        return self.engine.advance_time(ts)

    def flush(self) -> int:
        self._check_open()
        return self.engine.flush()

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Cancel every subscription.  Idempotent; live subs detach cleanly."""
        if self.closed:
            return
        self.registry.close()
        self.closed = True

    def __enter__(self) -> "MultiQueryEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection --------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return self.registry.subscription_count

    def state_size(self) -> int:
        return self.registry.state_size()

    def execution_tier(self) -> dict[str, Any]:
        """The underlying engine's execution path report."""
        return self.engine.execution_tier()

    def stats(self) -> dict[str, Any]:
        return self.registry.stats()

    def __repr__(self) -> str:
        return f"MultiQueryEngine(subscriptions={self.subscription_count})"
