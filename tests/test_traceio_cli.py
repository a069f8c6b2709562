"""Unit tests for trace CSV I/O and the command-line interface."""

import csv
import io
import random

import pytest

from repro.cli import _print_rows, main
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError, SchemaError, UnknownStreamError
from repro.rfid import (
    iter_stream,
    lab_workflow_workload,
    load_trace,
    packing_workload,
    replay,
    save_trace,
)
from repro.rfid.scenarios import WORKFLOW_QUERY

from .oracle import generate


@pytest.fixture
def trace_file(tmp_path):
    workload = packing_workload(n_cases=3, seed=4)
    path = tmp_path / "packing.csv"
    save_trace(workload.trace, path)
    return path, workload


class TestTraceIO:
    def test_roundtrip_preserves_records(self, trace_file):
        path, workload = trace_file
        loaded = load_trace(path)
        assert len(loaded) == len(workload.trace)
        assert [ts for __, __, ts in loaded] == [
            ts for __, __, ts in workload.trace
        ]

    def test_schema_coercion_with_engine(self, trace_file):
        path, workload = trace_file
        engine = Engine()
        engine.create_stream("r1", "readerid str, tagid str, tagtime float")
        engine.create_stream("r2", "readerid str, tagid str, tagtime float")
        loaded = load_trace(path, engine)
        readerid, tagid, tagtime = loaded[0][1]
        assert isinstance(tagtime, float)
        assert isinstance(tagid, str)

    def test_missing_fields_become_null(self, tmp_path):
        path = tmp_path / "mixed.csv"
        save_trace(
            [("s", {"a": 1}, 0.0), ("s", {"b": 2}, 1.0)], path
        )
        loaded = load_trace(path)
        assert loaded[0][1]["b"] is None
        assert loaded[1][1]["a"] is None

    def test_reserved_column_names_rejected(self, tmp_path):
        with pytest.raises(EslSemanticError):
            save_trace([("s", {"stream": "x"}, 0.0)], tmp_path / "bad.csv")

    def test_positional_rows_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("stream,ts,a\ns,0.0,x\n")
        loaded = load_trace(path, catalog({"s": "a str"}))
        with pytest.raises(EslSemanticError, match="field-dict rows, got tuple"):
            save_trace(loaded, tmp_path / "out.csv")

    def test_non_trace_file_rejected(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(EslSemanticError):
            load_trace(path)

    def test_loaded_trace_sorted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        # Hand-build an out-of-order file.
        path.write_text("stream,ts,a\ns,5.0,x\ns,1.0,y\n")
        loaded = load_trace(path)
        assert [ts for __, __, ts in loaded] == [1.0, 5.0]

    def test_replay_feeds_engine(self, trace_file):
        path, workload = trace_file
        engine = Engine()
        engine.create_stream("r1", "readerid str, tagid str, tagtime float")
        engine.create_stream("r2", "readerid str, tagid str, tagtime float")
        got = engine.collect("r1")
        count = replay(engine, load_trace(path, engine))
        assert count == len(workload.trace)
        assert len(got) == sum(1 for s, __, __ in workload.trace if s == "r1")

    def test_replay_time_scale(self):
        engine = Engine()
        engine.create_stream("s", "a str")
        got = engine.collect("s")
        replay(engine, [("s", {"a": "x"}, 10.0)], time_scale=0.1, offset=5.0)
        assert got.results[0].ts == 6.0

    def test_replay_bad_scale(self):
        engine = Engine()
        with pytest.raises(EslSemanticError):
            replay(engine, [], time_scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_replay_scale_must_be_finite_and_positive(self, scale):
        engine = Engine()
        engine.create_stream("s", "a str")
        with pytest.raises(EslSemanticError, match="finite and positive"):
            replay(engine, [("s", {"a": "x"}, 1.0)], time_scale=scale)
        assert not engine.clock.started

    def test_iter_stream_filters(self, trace_file):
        __, workload = trace_file
        only_cases = list(iter_stream(workload.trace, "R2"))
        assert only_cases
        assert all(s == "r2" for s, __, __ in only_cases)


def reference_load(path, engine=None):
    """The decoder ``load_trace`` replaced: a ``DictReader`` dict per line,
    then a schema lookup and ``FieldType.coerce`` per cell."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        names = [n for n in reader.fieldnames if n not in ("stream", "ts")]
        for line in reader:
            row = {}
            schema = engine and engine.streams.get(line["stream"]).schema
            for name in names:
                raw = line.get(name) or None
                if schema is None:
                    row[name] = raw
                elif name in schema:
                    position = schema.position(name)
                    row[name] = schema.fields[position].type.coerce(raw)
            records.append((line["stream"], row, float(line["ts"])))
    records.sort(key=lambda record: record[2])
    return records


def in_schema_order(records, engine):
    """Reference records with each dict row laid out as ``load_trace``
    lays out a row with an engine: a tuple in schema order."""
    return [
        (stream, tuple(map(row.get, engine.streams.get(stream).schema.names)), ts)
        for stream, row, ts in records
    ]


def shape(records):
    """Records with each row's container, key order and value types made
    comparable."""
    out = []
    for stream, row, ts in records:
        keys = list(row) if type(row) is dict else None
        values = list(row.values()) if type(row) is dict else list(row)
        out.append((stream, type(row), keys, values,
                    [type(v) for v in values], ts))
    return out


def assert_decodes_like_reference(path, engine):
    assert shape(load_trace(path, engine)) == shape(
        in_schema_order(reference_load(path, engine), engine)
    )
    assert shape(load_trace(path)) == shape(reference_load(path))


def catalog(schemas):
    engine = Engine()
    for name, spec in schemas.items():
        engine.create_stream(name, spec)
    return engine


class TestDecoder:
    """``load_trace`` against the ``DictReader`` decoder it replaced."""

    SCHEMAS = {
        "s1": "k int, v float, tag str, at timestamp",
        "s2": "k int, tag str",
        "s3": "tag str, v float",
    }

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_generated_traces(self, tmp_path, seed, dense):
        rng = random.Random(seed)
        trace = generate.trace(
            rng, self.SCHEMAS, n=120, time_field="at", dense=dense
        )
        path = tmp_path / "gen.csv"
        save_trace(trace, path)
        engine = catalog(self.SCHEMAS)
        assert_decodes_like_reference(path, engine)
        # The round trip returns what was saved (CSV has no empty string).
        expected = [
            (stream, {name: None if value == "" else value
                      for name, value in row.items()}, ts)
            for stream, row, ts in trace
        ]
        assert load_trace(path, engine) == in_schema_order(expected, engine)

    def test_hand_built_values(self, tmp_path):
        schemas = {
            "s": "n int, x float, t str, b bool, a any",
            "u": "t str, n int",
        }
        engine = catalog(schemas)
        trace = [
            ("s", {"n": 2**63 - 1, "x": -0.0, "t": 'say "hi", then\nbye',
                   "b": True, "a": "raw"}, 3.0),
            ("s", {"n": -(2**63), "x": 1e300, "t": "ガ-dock, été",
                   "b": False, "a": 7}, 1.0),
            ("u", {"t": "", "n": None}, 1.0),
            ("s", {"n": None, "x": None, "t": None, "b": None, "a": None}, 1.0),
            ("u", {"t": "\r\n,\"", "n": 0}, 0.0),
            ("s", {"n": 1, "x": 2.5, "t": "a", "b": "yes", "a": ""}, 3.0),
        ]
        path = tmp_path / "hand.csv"
        save_trace(trace, path)
        assert_decodes_like_reference(path, engine)
        loaded = load_trace(path, engine)
        # Stable sort on ts: ties keep file order.
        assert [(s, t) for s, __, t in loaded] == [
            ("u", 0.0), ("s", 1.0), ("u", 1.0), ("s", 1.0), ("s", 3.0),
            ("s", 3.0),
        ]
        assert loaded[1][1] == (-(2**63), 1e300, "ガ-dock, été", False, "7")
        assert loaded[4][1][2] == 'say "hi", then\nbye'
        assert loaded[5][1][3] is True
        # Each stream keeps only its own fields, in schema order.
        assert loaded[0][1] == ("\r\n,\"", 0)

    def test_empty_str_loads_as_null(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace([("s", {"t": ""}, 0.0)], path)
        assert load_trace(path, catalog({"s": "t str"})) == [
            ("s", (None,), 0.0)
        ]
        assert load_trace(path) == [("s", {"t": None}, 0.0)]

    def test_short_rows_blank_lines_and_extra_cells(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "stream,ts,a,b,c\n"
            "\n"
            "s,2.0,1\n"
            "s,1.0,1,2,3,4,5\n"
            "\n"
            "t,1.5,,x\n"
            "s,1.0,,,\n"
        )
        engine = catalog({"s": "a int, b str, c float", "t": "b str, a int"})
        assert_decodes_like_reference(path, engine)
        assert load_trace(path, engine) == [
            ("s", (1, "2", 3.0), 1.0),
            ("s", (None, None, None), 1.0),
            ("t", ("x", None), 1.5),
            ("s", (1, None, None), 2.0),
        ]
        assert load_trace(path)[2] == ("t", {"a": None, "b": "x", "c": None}, 1.5)

    def test_header_order_and_repeated_columns(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("c,ts,a,stream,a\n3,0.5,1,s,2\n")
        engine = catalog({"s": "a int, c int"})
        assert_decodes_like_reference(path, engine)
        assert load_trace(path, engine) == [("s", (2, 3), 0.5)]
        assert load_trace(path) == [("s", {"c": "3", "a": "2"}, 0.5)]

    @pytest.mark.parametrize(
        ("spec", "cell", "message"),
        [
            ("a int", "x", "cannot coerce 'x' to int"),
            ("a int", "1.5", "cannot coerce '1.5' to int"),
            ("a float", "y", "cannot coerce 'y' to float"),
            ("a timestamp", "z", "cannot coerce 'z' to timestamp"),
            ("a bool", "maybe", "cannot coerce 'maybe' to bool"),
        ],
    )
    def test_uncoercible_cell_raises_schema_error(
        self, tmp_path, spec, cell, message
    ):
        path = tmp_path / "bad.csv"
        path.write_text(f"stream,ts,a\ns,0.0,1\ns,1.0,{cell}\n")
        engine = catalog({"s": spec})
        with pytest.raises(SchemaError) as expected:
            reference_load(path, engine)
        with pytest.raises(SchemaError) as got:
            load_trace(path, engine)
        assert str(got.value) == str(expected.value) == message

    def test_unknown_stream_raises(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("stream,ts,a\ns,0.0,1\nghost,1.0,2\n")
        with pytest.raises(UnknownStreamError):
            load_trace(path, catalog({"s": "a int"}))
        assert load_trace(path)[1] == ("ghost", {"a": "2"}, 1.0)


class TestSharedCells:
    """Repeated cells share one object where that is exactly safe: the
    stream name, a text cell equal to the same field in the stream's
    previous row, and a float cell spelled like the row's ``ts``."""

    def test_repeated_text_is_one_object_within_a_stream(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text(
            "stream,ts,tag,reader\n"
            "dock,0.0,tag-1,gate-a\n"
            "dock,1.0,tag-1,gate-a\n"
            "belt,1.5,tag-1,gate-a\n"
            "dock,2.0,tag-1,gate-b\n"
            "belt,2.5,tag-1,gate-a\n"
            "dock,3.0,tag-2,gate-b\n"
        )
        engine = catalog({"dock": "reader str, tag str",
                          "belt": "tag str, reader any"})
        assert_decodes_like_reference(path, engine)
        d0, d1, b0, d2, b1, d3 = (row for __, row, __ in load_trace(path, engine))
        assert d0[1] is d1[1] is d2[1]
        assert d0[0] is d1[0] and d2[0] is d3[0] and d1[0] != d2[0]
        assert d3[1] == "tag-2" and d3[1] is not d2[1]
        # Interleaved streams share only within their own stream.
        assert b0[0] is b1[0] and b0[1] is b1[1]
        assert b0[0] is not d1[1] and b0[1] is not d1[0]
        assert b0[0] == d1[1] and b0[1] == d1[0]

    def test_stream_name_is_one_object(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_text("stream,ts,a\ndock,0.0,x\nbelt,0.5,x\ndock,1.0,y\n")
        engine = catalog({"dock": "a str", "belt": "a str"})
        for loaded in (load_trace(path, engine), load_trace(path)):
            assert loaded[0][0] is loaded[2][0] == "dock"

    def test_float_spelled_like_ts_is_the_ts_object(self, tmp_path):
        path = tmp_path / "time.csv"
        path.write_text(
            "stream,ts,at,v\n"
            "s,1.25,1.25,2.5\n"
            "s,2.5,2.50,2.5\n"
        )
        engine = catalog({"s": "at timestamp, v float"})
        assert_decodes_like_reference(path, engine)
        (__, (at0, v0), ts0), (__, (at1, v1), ts1) = load_trace(path, engine)
        assert at0 is ts0 and v1 is ts1
        # Equal value, other spelling: parsed on its own.
        assert at1 == ts1 and at1 is not ts1
        # A float equal to the previous row's is never shared.
        assert v0 == v1 and v0 is not v1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_floats_are_never_shared(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"stream,ts,v,at\ns,1.0,{cell},{cell}\ns,2.0,{cell},{cell}\n")
        engine = catalog({"s": "v float, at timestamp"})
        loaded = load_trace(path, engine)
        cells = [value for __, row, __ in loaded for value in row]
        assert len({id(value) for value in cells}) == 4
        assert all(value is not ts for value in cells for __, __, ts in loaded)
        assert [repr(value) for value in cells] == [repr(float(cell))] * 4

    def test_field_absent_from_header_loads_as_null(self, tmp_path):
        path = tmp_path / "absent.csv"
        path.write_text("stream,ts,b\ns,0.0,x\ns,1.0,x\n")
        engine = catalog({"s": "a int, b str, c float"})
        assert_decodes_like_reference(path, engine)
        assert load_trace(path, engine) == [
            ("s", (None, "x", None), 0.0), ("s", (None, "x", None), 1.0),
        ]

    def test_without_engine_rows_are_string_dicts_in_header_order(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("stream,ts,z,a\ns,0.0,1,x\ns,1.0,1,\n")
        loaded = load_trace(path)
        assert loaded == [("s", {"z": "1", "a": "x"}, 0.0),
                          ("s", {"z": "1", "a": None}, 1.0)]
        assert [list(row) for __, row, __ in loaded] == [["z", "a"]] * 2

    def test_bad_cells_after_shared_rows_raise_as_before(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text(
            "stream,ts,tag,n\ns,0.0,tag-1,1\ns,1.0,tag-1,2\ns,2.0,tag-1,x\n"
        )
        engine = catalog({"s": "tag str, n int"})
        with pytest.raises(SchemaError) as expected:
            reference_load(path, engine)
        with pytest.raises(SchemaError) as got:
            load_trace(path, engine)
        assert str(got.value) == str(expected.value) == "cannot coerce 'x' to int"
        path.write_text(
            "stream,ts,tag,n\ns,0.0,tag-1,1\ns,1.0,tag-1,2\ns,nan,tag-1,3\n"
        )
        with pytest.raises(EslSemanticError, match=r"late\.csv, line 4: .*finite"):
            load_trace(path, engine)


class TestBadTimestamps:
    """A trace's ``ts`` column must be present, numeric and finite; each
    violation names the file and line."""

    def test_non_finite_ts_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("stream,ts,a\ns,1.0,x\ns,nan,y\ns,0.5,z\ns,inf,w\n")
        with pytest.raises(EslSemanticError, match=r"nan\.csv, line 3: .*finite"):
            load_trace(path)

    @pytest.mark.parametrize("ts", ["inf", "-inf", "-Infinity", "NaN"])
    def test_each_non_finite_spelling(self, tmp_path, ts):
        path = tmp_path / "inf.csv"
        path.write_text(f"stream,ts,a\ns,{ts},x\n")
        with pytest.raises(EslSemanticError, match="line 2: .*not finite"):
            load_trace(path)

    @pytest.mark.parametrize("ts", ["abc", "", "1.0.0"])
    def test_unparsable_ts_rejected(self, tmp_path, ts):
        path = tmp_path / "abc.csv"
        path.write_text(f"stream,ts,a\ns,0.0,x\n\ns,{ts},y\n")
        with pytest.raises(EslSemanticError, match="line 4: .*not a number"):
            load_trace(path, catalog({"s": "a str"}))

    def test_short_row_without_ts_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,stream,ts\nx,s\n")
        with pytest.raises(EslSemanticError, match="line 2"):
            load_trace(path)

    @pytest.mark.parametrize("text", ["stream,a\ns,x\n", "stream,a\n"])
    def test_missing_ts_column_rejected(self, tmp_path, text):
        path = tmp_path / "nots.csv"
        path.write_text(text)
        with pytest.raises(EslSemanticError, match="no ts column"):
            load_trace(path)


class TestCli:
    def write_script(self, tmp_path):
        script = tmp_path / "q.sql"
        script.write_text("""
            CREATE STREAM r1(readerid str, tagid str, tagtime float);
            CREATE STREAM r2(readerid str, tagid str, tagtime float);
            SELECT COUNT(R1*) AS items, R2.tagid AS case_tag
            FROM R1, R2
            WHERE SEQ(R1*, R2) MODE CHRONICLE
            AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
            AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS;
        """)
        return script

    def test_script_plus_trace(self, tmp_path, trace_file, capsys):
        path, workload = trace_file
        script = self.write_script(tmp_path)
        code = main(["--script", str(script), "--trace", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "items,case_tag" in out
        assert out.count("case.") == len(workload.truth)

    def test_replay_keeps_timer_driven_rows(self, tmp_path, capsys):
        """EXCEPTION_SEQ violations fire from timers between readings; the
        CLI's replay must print the rows one ``push`` per record gives."""
        workload = lab_workflow_workload(n_runs=30, seed=3)
        trace = tmp_path / "lab.csv"
        save_trace(workload.trace, trace)
        script = tmp_path / "lab.sql"
        script.write_text(
            "".join(
                f"CREATE STREAM {name}(tagid str, tagtime float);\n"
                for name in ("a1", "a2", "a3")
            )
            + WORKFLOW_QUERY + ";"
        )
        engine = Engine()
        handle = engine.query(script.read_text())
        for stream, values, ts in load_trace(trace, engine):
            engine.push(stream, values, ts=ts * 0.5)
        # A timeout (A, B, then silence) is a timer firing mid-trace.
        assert any(
            row["tagid_2"] is not None and row["tagid_3"] is None
            for row in handle.rows()
        )
        engine.flush()
        expected = io.StringIO()
        _print_rows(handle.rows(), expected)
        code = main([
            "--script", str(script), "--trace", str(trace),
            "--time-scale", "0.5", "--flush",
        ])
        assert code == 0
        assert capsys.readouterr().out == expected.getvalue()

    def test_explain(self, tmp_path, capsys):
        script = self.write_script(tmp_path)
        code = main(["--script", str(script), "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "StarSeqOperator" in out

    def test_demo(self, capsys):
        code = main(["--demo", "workflow", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "scenario: example5-workflow" in captured.err

    def test_insert_query_requires_follow(self, tmp_path, capsys):
        script = tmp_path / "ins.sql"
        script.write_text("""
            CREATE STREAM src(a int);
            INSERT INTO dst SELECT a FROM src;
        """)
        code = main(["--script", str(script)])
        assert code == 1
        assert "--follow" in capsys.readouterr().err

    def test_follow_stream(self, tmp_path, capsys):
        script = tmp_path / "ins.sql"
        script.write_text("""
            CREATE STREAM src(a int);
            INSERT INTO dst SELECT a FROM src;
        """)
        trace = tmp_path / "t.csv"
        save_trace([("src", {"a": 1}, 0.0), ("src", {"a": 2}, 1.0)], trace)
        code = main([
            "--script", str(script), "--trace", str(trace), "--follow", "dst",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["a", "1", "2"]

    def test_missing_args(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliDemos:
    """Every packaged demo runs end to end through the CLI."""

    @pytest.mark.parametrize("name", [
        "dedup", "location", "epc", "containment", "workflow", "quality",
        "door",
    ])
    def test_demo_runs(self, name, capsys):
        code = main(["--demo", name])
        captured = capsys.readouterr()
        assert code == 0
        assert "scenario:" in captured.err
        assert "output rows:" in captured.err


class TestBenchSubcommand:
    def test_bench_writes_report(self, tmp_path, capsys):
        code = main([
            "bench", "sharded_scaling",
            "--out", str(tmp_path), "--reps", "1", "--size", "10",
            "--executor", "serial",
        ])
        assert code == 0
        report_path = tmp_path / "BENCH_sharded_scaling.json"
        assert report_path.exists()
        import json

        payload = json.loads(report_path.read_text())
        assert payload["name"] == "sharded_scaling"
        assert "cpu_count" in payload["meta"]
        assert payload["meta"]["scaling_mode"] == "weak"
        labels = [entry["label"] for entry in payload["experiments"]]
        assert "single-1x" in labels
        sharded = [
            entry for entry in payload["experiments"]
            if "weak_efficiency" in entry
        ]
        assert [entry["shards"] for entry in sharded] == [1, 2, 4, 8]
        # The workload grows with the shard count (weak scaling) and every
        # sharded arm records whether it was starved of cores.
        assert sharded[-1]["n_tuples"] > sharded[0]["n_tuples"] * 4
        assert all("cpu_limited" in entry for entry in sharded)
        assert all("speedup_vs_single" in entry for entry in sharded)

    def test_bench_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["bench", "no_such_benchmark"])
