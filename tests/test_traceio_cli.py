"""Unit tests for trace CSV I/O and the command-line interface."""

import csv
import io
import random

import pytest

from repro.cli import main
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError, SchemaError, UnknownStreamError
from repro.rfid import (
    iter_stream,
    load_trace,
    packing_workload,
    replay,
    save_trace,
)

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
        first = loaded[0][1]
        assert isinstance(first["tagtime"], float)
        assert isinstance(first["tagid"], str)

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


def shape(records):
    """Records with each row's key order and value types made comparable."""
    return [
        (stream, list(row.items()), [type(v) for v in row.values()], ts)
        for stream, row, ts in records
    ]


def assert_decodes_like_reference(path, engine):
    for catalog in (engine, None):
        assert shape(load_trace(path, catalog)) == shape(
            reference_load(path, catalog)
        )


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
        assert load_trace(path, engine) == expected

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
        assert loaded[1][1] == {"a": "7", "b": False, "n": -(2**63),
                                "t": "ガ-dock, été", "x": 1e300}
        assert loaded[4][1]["t"] == 'say "hi", then\nbye'
        assert loaded[5][1]["b"] is True
        # Each stream keeps only its own fields, in header order.
        assert list(loaded[0][1]) == ["n", "t"]
        assert loaded[0][1] == {"n": 0, "t": "\r\n,\""}

    def test_empty_str_loads_as_null(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace([("s", {"t": ""}, 0.0)], path)
        assert load_trace(path, catalog({"s": "t str"})) == [
            ("s", {"t": None}, 0.0)
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
            ("s", {"a": 1, "b": "2", "c": 3.0}, 1.0),
            ("s", {"a": None, "b": None, "c": None}, 1.0),
            ("t", {"a": None, "b": "x"}, 1.5),
            ("s", {"a": 1, "b": None, "c": None}, 2.0),
        ]
        assert load_trace(path)[2] == ("t", {"a": None, "b": "x", "c": None}, 1.5)

    def test_header_order_and_repeated_columns(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("c,ts,a,stream,a\n3,0.5,1,s,2\n")
        engine = catalog({"s": "a int, c int"})
        assert_decodes_like_reference(path, engine)
        assert load_trace(path, engine) == [("s", {"c": 3, "a": 2}, 0.5)]

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
