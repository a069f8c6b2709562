"""Unit tests for trace CSV I/O and the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError
from repro.rfid import (
    iter_stream,
    load_trace,
    packing_workload,
    replay,
    save_trace,
)


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

    def test_iter_stream_filters(self, trace_file):
        __, workload = trace_file
        only_cases = list(iter_stream(workload.trace, "R2"))
        assert only_cases
        assert all(s == "r2" for s, __, __ in only_cases)


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
