"""Shard-transport codec and worker tests.

The frame codec is tested in isolation — round-trip property tests over
every value shape the engine ships (ints, floats, strings with embedded
NULs, None, bools, nested dicts), plus rejection of short, truncated,
corrupt, and mis-typed frames: a damaged frame must raise
:class:`FrameCodecError`, never decode as a shorter valid frame.

Worker tests cross every multiprocessing start method the host offers
(``fork``/``spawn``/``forkserver``): the codec's interned tables are
derived independently on each side of the pipe from the pickled
:class:`ShardSpec`, so a spawn-fresh interpreter must decode frames the
fork-built router encoded.  These are marked ``transport``.
"""

import multiprocessing
import random
import struct

import pytest

from repro.dsms.columns import (
    TAG_BOOL,
    TAG_F64,
    TAG_I64,
    TAG_STR,
    pack_column,
    unpack_column,
)
from repro.dsms.errors import FrameCodecError, SchemaError, TransportError
from repro.dsms.schema import FieldType, Schema
from repro.dsms.transport import (
    FT_BATCH,
    FT_OUTPUT,
    AdaptiveBatcher,
    FrameCodec,
    decode_frame,
    dumps_oob,
    encode_frame,
    loads_oob,
)
from repro.rfid import (
    build_quality_check,
    build_quality_check_sharded,
    quality_check_workload,
)


class _Spec:
    """Minimal stand-in for ShardSpec: the codec only reads these two."""

    def __init__(self, stream_table, sinks):
        self.stream_table = stream_table
        self.sinks = sinks


def make_spec():
    return _Spec(
        stream_table=(
            ("readings", Schema.parse("reader_id str, tag_id str, temp float")),
            ("events", Schema.parse("tag_id str, kind int, ok bool")),
            ("anything", Schema.of("a", "b")),
        ),
        sinks=(("q1", "query", "q1", "all"), ("q2", "query", "q2", "all")),
    )


def random_records(rng, n=400):
    """Records covering every column path: positional and mapping values,
    schema-typed and ANY columns, None, embedded NULs, non-ASCII."""
    records = []
    for i in range(n):
        which = rng.randrange(6)
        ts = i * 0.01
        if which == 0:
            records.append(
                (i, "readings", (f"r{i % 7}", f"tag{i}", rng.random() * 40), ts)
            )
        elif which == 1:
            records.append(
                (
                    i,
                    "events",
                    {"tag_id": f"t{i}", "kind": rng.randrange(5),
                     "ok": bool(i % 2)},
                    ts,
                )
            )
        elif which == 2:
            records.append(
                (i, "anything", ({"nested": [1, 2, {"x": None}]}, None), ts)
            )
        elif which == 3:
            records.append((i, "readings", ("nul\x00str", None, i), ts))
        elif which == 4:
            records.append((i, "events", ("κλειδί", None, None), ts))
        else:
            records.append(
                (i, "readings", {"reader_id": None, "temp": float(i)}, ts)
            )
    return records


def normalized(spec, records):
    """What the shard engine must see: mappings resolved positionally."""
    schemas = dict(spec.stream_table)
    out = []
    for g, stream, values, ts in records:
        if isinstance(values, dict):
            values = tuple(values.get(n) for n in schemas[stream].names)
        else:
            values = tuple(values)
        out.append((g, stream, values, ts))
    return out


# -- frame envelope ---------------------------------------------------------


def test_frame_envelope_round_trip():
    frame = encode_frame(FT_BATCH, b"payload bytes")
    ftype, payload = decode_frame(frame)
    assert ftype == FT_BATCH
    assert bytes(payload) == b"payload bytes"


def test_short_frame_rejected():
    with pytest.raises(FrameCodecError, match="short frame"):
        decode_frame(b"\x1f")


def test_bad_magic_rejected():
    frame = bytearray(encode_frame(FT_BATCH, b"x"))
    frame[0] ^= 0xFF
    with pytest.raises(FrameCodecError, match="magic"):
        decode_frame(bytes(frame))


def test_unknown_frame_type_rejected():
    frame = bytearray(encode_frame(FT_BATCH, b"x"))
    frame[2] = 200  # ftype byte
    with pytest.raises(FrameCodecError, match="unknown frame type"):
        decode_frame(bytes(frame))


def test_truncated_frame_rejected():
    frame = encode_frame(FT_BATCH, b"some payload")
    with pytest.raises(FrameCodecError, match="truncated"):
        decode_frame(frame[:-3])


def test_corrupt_payload_rejected():
    frame = bytearray(encode_frame(FT_BATCH, b"some payload"))
    frame[-1] ^= 0x01
    with pytest.raises(FrameCodecError, match="CRC"):
        decode_frame(bytes(frame))


def test_wire_damage_raises_the_restartable_subclass():
    """CRC/magic/truncation failures raise FrameCorrupt — a FrameCodecError
    the supervisor classifies as restartable wire damage — while encoding
    errors (bad records) stay plain FrameCodecError application errors."""
    from repro.dsms.errors import FrameCorrupt

    assert issubclass(FrameCorrupt, FrameCodecError)
    frame = bytearray(encode_frame(FT_BATCH, b"some payload"))
    frame[-1] ^= 0x01
    with pytest.raises(FrameCorrupt):
        decode_frame(bytes(frame))
    with pytest.raises(FrameCorrupt):
        decode_frame(b"\x1f")
    with pytest.raises(FrameCorrupt):
        decode_frame(encode_frame(FT_BATCH, b"some payload")[:-3])


def test_oob_pickle_round_trip():
    obj = {"k": [1, 2.5, None], "blob": b"\x00" * 64, "s": "κ"}
    encoded = dumps_oob(obj)
    decoded, offset = loads_oob(encoded)
    assert decoded == obj
    assert offset == len(encoded)
    with pytest.raises(FrameCodecError, match="pickle"):
        loads_oob(encoded[: len(encoded) // 2])


# -- batch codec ------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 99, 1234])
def test_batch_round_trip_property(seed):
    spec = make_spec()
    codec = FrameCodec(spec)
    records = random_records(random.Random(seed))
    frame = codec.encode_batch(42, records, (len(records), 123.5))
    ftype, payload = decode_frame(frame)
    assert ftype == FT_BATCH
    seq, decoded, advance = codec.decode_batch(payload)
    assert seq == 42
    assert advance == (len(records), 123.5)
    got = [(g, s, tuple(v), ts) for g, s, v, ts in normalized(spec, decoded)]
    assert got == normalized(spec, records)


def test_batch_without_advance():
    spec = make_spec()
    codec = FrameCodec(spec)
    records = [(0, "readings", ("r", "t", 1.5), 1.0)]
    _, payload = decode_frame(codec.encode_batch(3, records, None))
    seq, decoded, advance = codec.decode_batch(payload)
    assert seq == 3 and advance is None
    assert [tuple(r[2]) for r in decoded] == [("r", "t", 1.5)]


def test_batch_unknown_stream_raises():
    codec = FrameCodec(make_spec())
    with pytest.raises(FrameCodecError, match="interned"):
        codec.encode_batch(0, [(0, "nope", ("x",), 0.0)], None)


def test_batch_arity_and_field_errors_match_ingester():
    """Parent-side normalization raises the same SchemaError shapes the
    shard-side ingester would — the framed codec moves the check across
    the pipe without changing its semantics."""
    codec = FrameCodec(make_spec())
    with pytest.raises(SchemaError, match="3-column schema"):
        codec.encode_batch(0, [(0, "readings", ("only", "two"), 0.0)], None)
    with pytest.raises(SchemaError, match=r"unknown fields \['bogus'\]"):
        codec.encode_batch(
            0, [(0, "readings", {"bogus": 1, "tag_id": "t"}, 0.0)], None
        )


def test_batch_truncated_payload_rejected():
    spec = make_spec()
    codec = FrameCodec(spec)
    records = random_records(random.Random(5), n=50)
    frame = codec.encode_batch(1, records, None)
    _, payload = decode_frame(frame)
    with pytest.raises(FrameCodecError):
        codec.decode_batch(payload[: len(payload) // 3])


def test_wire_format_hints():
    assert FieldType.INT.wire_format == "q"
    assert FieldType.FLOAT.wire_format == "d"
    assert FieldType.TIMESTAMP.wire_format == "d"
    assert FieldType.BOOL.wire_format == "B"
    assert FieldType.STR.wire_format == "U"
    assert FieldType.ANY.wire_format is None


# -- output codec -----------------------------------------------------------


def test_outputs_round_trip():
    codec = FrameCodec(make_spec())
    outputs = {
        "q1": [
            (i * 0.5, i, 3, i, (f"tag{i}", float(i), i % 3))
            for i in range(200)
        ],
        "q2": [  # ragged widths force the pickle fallback block
            (1.0, 1, 3, 0, (None, "x\x00y")),
            (2.0, 2, 3, 1, ({"deep": 1},)),
        ],
    }
    frame = codec.encode_outputs(7, outputs, 0.25, 0.5)
    ftype, payload = decode_frame(frame)
    assert ftype == FT_OUTPUT
    ack, decoded, decode_s, encode_s = codec.decode_outputs(payload, 3)
    assert (ack, decode_s, encode_s) == (7, 0.25, 0.5)
    assert decoded == outputs


def test_outputs_empty_run_round_trip():
    codec = FrameCodec(make_spec())
    _, payload = decode_frame(codec.encode_outputs(9, {"q1": []}, 0.0, 0.0))
    assert codec.decode_outputs(payload, 0)[1] == {"q1": []}


def test_outputs_unknown_sink_raises():
    codec = FrameCodec(make_spec())
    with pytest.raises(FrameCodecError, match="unknown sink"):
        codec.encode_outputs(0, {"nope": []}, 0.0, 0.0)


# -- damaged payloads -------------------------------------------------------


def _mutations(rng, payload, count):
    """*count* copies of *payload*, each with one to three random bytes
    overwritten, or cut short at a random length."""
    for _ in range(count):
        damaged = bytearray(payload)
        if rng.random() < 0.2:
            del damaged[rng.randrange(len(damaged)):]
        else:
            for _ in range(rng.randint(1, 3)):
                damaged[rng.randrange(len(damaged))] = rng.randrange(256)
        yield memoryview(bytes(damaged))


def _only_codec_errors(decode, payload, seed, count=3000):
    """*decode* either returns or raises FrameCodecError on every mutation:
    the worker treats only that as wire damage (restart and replay)."""
    rng = random.Random(seed)
    for damaged in _mutations(rng, payload, count):
        try:
            decode(damaged)
        except FrameCodecError:
            pass


def test_damaged_batch_payloads_raise_only_codec_errors():
    codec = FrameCodec(make_spec())
    records = random_records(random.Random(3), n=40)
    _, payload = decode_frame(codec.encode_batch(5, records, (40, 1.0)))
    _only_codec_errors(codec.decode_batch, bytes(payload), seed=1)


@pytest.mark.parametrize("block", ["uniform", "ragged"])
def test_damaged_output_payloads_raise_only_codec_errors(block):
    codec = FrameCodec(make_spec())
    if block == "uniform":
        rows = [
            (i * 0.5, i, 1, i, (f"tág{i}", None if i % 3 else float(i), i % 2 == 0))
            for i in range(12)
        ]
    else:  # ragged widths force the pickle block
        rows = [
            (1.0, 1, 1, 0, (None, "x\x00y")),
            (2.0, 2, 1, 1, ({"deep": [1, 2.5]},)),
            (3.0, 3, 1, 2, ("κ", 7, None)),
        ]
    _, payload = decode_frame(codec.encode_outputs(4, {"q1": rows}, 0.0, 0.0))
    _only_codec_errors(
        lambda view: codec.decode_outputs(view, 1), bytes(payload), seed=2
    )


def test_batch_with_a_wrong_column_count_is_damage():
    """A group whose column count disagrees with its stream's schema is a
    damaged frame, not rows of the wrong width for the shard to reject."""
    codec = FrameCodec(make_spec())
    _, payload = decode_frame(
        codec.encode_batch(0, [(0, "readings", ("r", "t", 1.5), 1.0)], None)
    )
    damaged = bytearray(payload)
    # seq, no advance, n, one g, one ts, n_groups, stream_id, n_rows
    n_cols_at = 8 + 1 + 4 + 8 + 8 + 2 + 2 + 4
    assert damaged[n_cols_at] == 3
    damaged[n_cols_at] = 2
    with pytest.raises(FrameCodecError, match="columns"):
        codec.decode_batch(memoryview(bytes(damaged)))


def test_ragged_output_block_with_missing_rows_is_damage():
    """A pickled output block shorter than its run's row count would
    otherwise decode as a shorter valid run."""
    codec = FrameCodec(make_spec())
    n = 3
    payload = b"".join([
        struct.pack("<Qdd", 1, 0.0, 0.0), struct.pack("<H", 1),
        struct.pack("<HI", 0, n), struct.pack(f"<{n}d", 1.0, 2.0, 3.0),
        struct.pack(f"<{n}q", 1, 2, 3), struct.pack(f"<{n}Q", 0, 1, 2),
        struct.pack("<B", 0), dumps_oob([(1,), (2, 3)]),
    ])
    with pytest.raises(FrameCodecError, match="row count"):
        codec.decode_outputs(memoryview(payload), 0)


@pytest.mark.parametrize("values,hint", [
    (["dock", None, "ガ", "x\x00y"] * 3, TAG_STR),
    (["dock", "yard", "ガ"] * 4, TAG_STR),
    ([1, None, -(2**63)] * 4, TAG_I64),
    ([0.5, None, 2.0] * 4, TAG_F64),
    ([True, None, False] * 4, TAG_BOOL),
    ([{"a": 1}, None, (2, 3)] * 4, None),
], ids=["str-nulls", "str-joined", "i64", "f64", "bool", "pickle"])
def test_damaged_columns_raise_only_codec_errors(values, hint):
    parts = []
    pack_column(values, hint, parts)
    _only_codec_errors(
        lambda view: unpack_column(view, 0, len(values)), b"".join(parts),
        seed=len(values) + (hint or 0),
    )


# -- adaptive batcher -------------------------------------------------------


def test_adaptive_batcher_grows_on_fast_full_frames():
    batcher = AdaptiveBatcher(128, min_size=64, max_size=1024)
    batcher.observe(rtt_s=0.001, n_records=128)
    assert batcher.size == 256 and batcher.growths == 1
    batcher.observe(rtt_s=0.001, n_records=100)  # partial frame: no growth
    assert batcher.size == 256
    for _ in range(10):
        batcher.observe(rtt_s=0.001, n_records=batcher.size)
    assert batcher.size == 1024  # clamped at max


def test_adaptive_batcher_shrinks_on_slow_acks():
    batcher = AdaptiveBatcher(512, min_size=64, max_size=1024)
    batcher.observe(rtt_s=0.2, n_records=512)
    assert batcher.size == 256 and batcher.shrinks == 1
    for _ in range(10):
        batcher.observe(rtt_s=0.2, n_records=batcher.size)
    assert batcher.size == 64  # clamped at min


def test_adaptive_batcher_initial_clamped():
    assert AdaptiveBatcher(1, min_size=64).size == 64
    assert AdaptiveBatcher(10**6, max_size=8192).size == 8192


def test_adaptive_batcher_ignores_clock_anomalies():
    """Zero, negative, NaN, or infinite RTT samples (clock steps, resumed
    wedged workers) must not move the batch size in either direction."""
    batcher = AdaptiveBatcher(256, min_size=64, max_size=1024)
    for rtt in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
        batcher.observe(rtt_s=rtt, n_records=256)
    assert batcher.size == 256
    assert batcher.growths == 0 and batcher.shrinks == 0
    batcher.observe(rtt_s=0.001, n_records=256)  # sane sample still works
    assert batcher.size == 512


# -- persistent workers across start methods --------------------------------


def _start_methods():
    return multiprocessing.get_all_start_methods()


@pytest.mark.transport
@pytest.mark.parametrize("start_method", _start_methods())
def test_pipe_workers_match_single_across_start_methods(start_method):
    """A spawn-fresh worker interpreter must decode what the router
    encoded: both sides derive interned stream ids and column packers
    independently from the pickled ShardSpec."""
    workload = quality_check_workload(n_products=20, seed=77)
    expected = build_quality_check(workload).feed().rows()
    scenario = build_quality_check_sharded(
        workload,
        n_shards=2,
        executor="parallel",
        batch_size=32,
        start_method=start_method,
    )
    with scenario.engine as engine:
        assert scenario.feed().rows() == expected
        stats = engine.transport_stats()
        assert stats["codec"] == "framed"
        assert stats["totals"]["records_sent"] == len(workload.trace)
        assert stats["totals"]["bytes_sent"] > 0
        assert stats["totals"]["round_trips"] > 0


@pytest.mark.transport
def test_worker_error_surfaces_and_tears_down():
    """A worker-side failure comes back as TransportError carrying the
    worker traceback, and the executor tears every worker down."""
    from repro.dsms import ShardedEngine

    engine = ShardedEngine(n_shards=2, executor="parallel", batch_size=4)
    engine.create_stream("x", "a str, b float")
    engine.create_stream("y", "a str, b float")
    engine.query(
        "SELECT x2.a FROM x AS x1, y AS x2 WHERE SEQ(x1, x2) "
        "AND x1.a=x2.a",
        name="q",
    )
    try:
        with pytest.raises(TransportError, match="worker traceback"):
            # The router does not order-check; a timestamp running
            # backwards is rejected by the shard's clock, in the worker.
            for i in range(32):
                engine.push("x", ("k", 1.0), ts=float(32 - i))
            engine.flush()
        assert engine.alive_workers() == 0
    finally:
        engine.close()


@pytest.mark.transport
def test_framed_codec_rejects_bad_records_before_the_wire():
    """A wrong-arity record never reaches a worker: the router-side encoder
    rejects it with the ingester's error shape, and teardown still happens."""
    from repro.dsms import ShardedEngine

    engine = ShardedEngine(n_shards=2, executor="parallel", batch_size=4)
    engine.create_stream("x", "a str, b float")
    engine.create_stream("y", "a str, b float")
    engine.query(
        "SELECT x2.a FROM x AS x1, y AS x2 WHERE SEQ(x1, x2) "
        "AND x1.a=x2.a",
        name="q",
    )
    try:
        with pytest.raises(SchemaError, match="2-column schema"):
            for i in range(32):
                engine.push("x", ("only-one-value",), ts=float(i))
            engine.flush()
        assert engine.alive_workers() == 0
    finally:
        engine.close()
