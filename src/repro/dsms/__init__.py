"""The DSMS substrate: streams, windows, tables, UDAs/UDFs, and the engine.

This package is the ESL-like data stream management system that the paper's
ESL-EV extensions (:mod:`repro.core`) are built on.  Applications usually
only need :class:`Engine`:

    from repro.dsms import Engine

    engine = Engine()
    engine.create_stream('readings', 'reader_id str, tag_id str, read_time float')
    handle = engine.query("SELECT * FROM readings WHERE tag_id LIKE '20.%'")
"""

from .aggregates import Aggregate, AggregateRegistry, BUILTIN_AGGREGATES
from .clock import Timer, VirtualClock
from .engine import Collector, Engine, QueryHandle
from .errors import (
    ClockError,
    EpcFormatError,
    EslError,
    EslRuntimeError,
    EslSemanticError,
    EslSyntaxError,
    OutOfOrderError,
    SchemaError,
    UnknownAggregateError,
    UnknownFunctionError,
    UnknownStreamError,
    UnknownTableError,
    WindowError,
)
from .merge import merge_runs
from .multi_engine import MultiQueryEngine
from .registry import (
    QueryRegistry,
    StreamRouter,
    Subscription,
)
from .schema import Field, FieldType, Schema
from .sharding import ShardedEngine, ShardedQueryHandle, shard_of
from .snapshot import SnapshotView
from .streams import Stream, StreamRegistry
from .table import Table, TableRegistry
from .transducer import Transducer, filter_transducer, map_transducer
from .tuples import Tuple
from .uda import SqlUda, uda_from_callables
from .udf import UdfRegistry
from .windows import (
    RangeWindowBuffer,
    RowsWindowBuffer,
    WindowSpec,
    duration_seconds,
)

__all__ = [
    "Aggregate",
    "AggregateRegistry",
    "BUILTIN_AGGREGATES",
    "ClockError",
    "Collector",
    "Engine",
    "EpcFormatError",
    "EslError",
    "EslRuntimeError",
    "EslSemanticError",
    "EslSyntaxError",
    "Field",
    "FieldType",
    "MultiQueryEngine",
    "OutOfOrderError",
    "QueryHandle",
    "QueryRegistry",
    "RangeWindowBuffer",
    "RowsWindowBuffer",
    "Schema",
    "SchemaError",
    "ShardedEngine",
    "ShardedQueryHandle",
    "SnapshotView",
    "SqlUda",
    "Stream",
    "StreamRegistry",
    "StreamRouter",
    "Subscription",
    "Table",
    "TableRegistry",
    "Timer",
    "Transducer",
    "Tuple",
    "UdfRegistry",
    "UnknownAggregateError",
    "UnknownFunctionError",
    "UnknownStreamError",
    "UnknownTableError",
    "VirtualClock",
    "WindowError",
    "WindowSpec",
    "duration_seconds",
    "filter_transducer",
    "map_transducer",
    "merge_runs",
    "shard_of",
    "uda_from_callables",
]
