"""Unit tests for the benchmark harness (tables, metrics, the arm-runner)."""

import gc

import pytest

from repro.bench import (
    BENCH_RUNNERS,
    Accuracy,
    BenchReport,
    ResultTable,
    containment_accuracy,
    run_arms,
    throughput,
)


class TestResultTable:
    def test_render_aligns_columns(self):
        table = ResultTable("demo", ["name", "value"])
        table.add("short", 1)
        table.add("a-much-longer-name", 22222)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        header, rule, *rows = lines[1:]
        assert len(set(len(line) for line in [header, rule])) == 1
        assert rows[0].startswith("short")

    def test_arity_checked(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_float_formatting(self):
        table = ResultTable("t", ["v"])
        table.add(0.0)
        table.add(0.1234567)
        table.add(3.14159)
        table.add(123456.0)
        cells = [row[0] for row in table.rows]
        assert cells == ["0", "0.1235", "3.14", "123,456"]

    def test_bool_formatting(self):
        table = ResultTable("t", ["ok"])
        table.add(True)
        table.add(False)
        assert [row[0] for row in table.rows] == ["yes", "no"]

    def test_print(self, capsys):
        table = ResultTable("t", ["a"])
        table.add(1)
        table.print()
        assert "== t ==" in capsys.readouterr().out


class TestMetrics:
    def test_throughput(self):
        assert throughput(100, 2.0) == 50.0
        assert throughput(100, 0.0) == 0.0

    def test_accuracy_from_sets(self):
        accuracy = Accuracy.from_sets({"a", "b", "x"}, {"a", "b", "c"})
        assert accuracy.tp == 2 and accuracy.fp == 1 and accuracy.fn == 1
        assert accuracy.precision == pytest.approx(2 / 3)
        assert accuracy.recall == pytest.approx(2 / 3)
        assert not accuracy.exact

    def test_accuracy_empty_sets(self):
        accuracy = Accuracy.from_sets(set(), set())
        assert accuracy.precision == 1.0
        assert accuracy.recall == 1.0
        assert accuracy.f1 == 2.0 * 1 * 1 / 2
        assert accuracy.exact

    def test_f1_zero_when_nothing_right(self):
        accuracy = Accuracy.from_sets({"x"}, {"y"})
        assert accuracy.f1 == 0.0

    def test_containment_accuracy_requires_full_sets(self):
        detected = [("case1", ["p1", "p2"]), ("case2", ["p3"])]
        truth = {"case1": ["p1", "p2"], "case2": ["p3", "p4"]}
        accuracy = containment_accuracy(detected, truth)
        assert accuracy.tp == 1  # case2's item set differs
        assert accuracy.fp == 1 and accuracy.fn == 1


class TestBenchReport:
    def test_writes_named_json(self, tmp_path):
        import json
        report = BenchReport("demo", meta={"reps": 3})
        report.add_experiment(
            "arm-a", n_tuples=1000, seconds=0.5, shards=2,
            params={"mode": "fast"}, rows=12,
        )
        report.add_experiment("arm-b", n_tuples=10, seconds=0.0)
        path = report.write(str(tmp_path))
        assert path.endswith("BENCH_demo.json")
        payload = json.loads(open(path).read())
        assert payload["schema_version"] == 1
        assert payload["name"] == "demo"
        assert payload["meta"] == {"reps": 3}
        first, second = payload["experiments"]
        assert first == {
            "label": "arm-a", "n_tuples": 1000, "seconds": 0.5,
            "throughput_tuples_per_s": 2000.0, "shards": 2,
            "params": {"mode": "fast"}, "rows": 12,
        }
        assert second["throughput_tuples_per_s"] == 0.0
        assert "params" not in second and "shards" not in second


class TestRunArms:
    def _start(self, log, rows_by_label):
        def start(label, spec):
            log.append(("build", label, spec))

            def feed():
                assert not gc.isenabled()
                log.append(("feed", label))

            return feed, lambda: rows_by_label[label]

        return start

    def test_interleaves_arms_and_keeps_best_seconds_and_rows(self):
        log = []
        rows = {"ref": [1, 2], "fast": [1, 2]}
        out = run_arms(
            {"ref": "r", "fast": "f"}, self._start(log, rows),
            reps=2, reference="ref",
        )
        assert [e[1] for e in log if e[0] == "feed"] == [
            "ref", "fast", "ref", "fast",
        ]
        assert ("build", "fast", "f") in log
        assert gc.isenabled()
        assert list(out) == ["ref", "fast"]
        for seconds, got in out.values():
            assert 0.0 <= seconds < 1.0 and got == [1, 2]

    def test_raises_when_an_arm_diverges_from_the_reference(self):
        rows = {"ref": [1, 2], "wrong": [1]}
        with pytest.raises(AssertionError, match="wrong output diverged from ref"):
            run_arms(
                {"ref": None, "wrong": None}, self._start([], rows),
                reps=1, reference="ref",
            )

    def test_gc_restored_when_feed_raises(self):
        def start(label, spec):
            def feed():
                raise RuntimeError("boom")

            return feed, list

        with pytest.raises(RuntimeError):
            run_arms({"a": None}, start, reps=1, reference="a")
        assert gc.isenabled()


#: Each remaining runner at its smallest useful size, with the arm labels
#: its report must carry.
RUNNER_SMOKE = {
    "sharded_scaling": (
        {"n_products": 10, "shard_counts": (1, 2), "executor": "serial"},
        ["single-1x", "sharded-1", "single-2x", "sharded-2"],
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_RUNNERS))
def test_runner_smoke(name):
    """Every runner goes through run_arms (which raises on any arm whose
    rows differ from its reference) and reports its arm table."""
    kwargs, labels = RUNNER_SMOKE[name]
    report = BENCH_RUNNERS[name](reps=1, **kwargs)
    assert report.name == name
    assert [entry["label"] for entry in report.experiments] == labels
    assert all(entry["seconds"] > 0.0 for entry in report.experiments)
