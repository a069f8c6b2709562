"""Unit and equivalence tests for the two baselines."""

import pytest

from repro.baselines import (
    JoinSequenceBaseline,
    RcedaEngine,
    StarContainmentDetector,
)
from repro.core.operators import PairingMode, SeqArg, make_sequence_operator
from repro.dsms import Engine
from repro.dsms.errors import EslSemanticError
from repro.rfid import packing_workload, uniform_sequence_workload


def feed(engine, trace):
    for stream, ts in trace:
        engine.push(stream, {"tagid": "x", "tagtime": ts}, ts=ts)


class TestJoinBaseline:
    def make(self, engine, streams=("a", "b", "c"), **kw):
        for name in streams:
            if name not in engine.streams:
                engine.create_stream(name, "tagid str, tagtime float")
        return JoinSequenceBaseline(engine, list(streams), **kw)

    def test_basic_sequence(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"))
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert baseline.matches_emitted == 1

    def test_all_combinations(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"))
        feed(engine, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
        assert baseline.matches_emitted == 2

    def test_needs_two_streams(self):
        engine = Engine()
        engine.create_stream("a", "x")
        with pytest.raises(EslSemanticError):
            JoinSequenceBaseline(engine, ["a"])

    def test_predicate_applied(self):
        engine = Engine()
        baseline = self.make(
            engine, ("a", "b"),
            predicate=lambda b: b["a"]["tagtime"] >= 1.5,
        )
        feed(engine, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
        assert baseline.matches_emitted == 1

    def test_retention_bounds_state(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"), retention=5.0)
        for i in range(100):
            feed(engine, [("a", float(i))])
        assert baseline.state_size <= 7

    def test_unbounded_retention_grows(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"))
        for i in range(100):
            feed(engine, [("a", float(i))])
        assert baseline.state_size == 100

    def test_join_probes_counted(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"))
        feed(engine, [("a", 1.0), ("a", 2.0), ("a", 3.0), ("b", 4.0)])
        assert baseline.join_probes == 3

    def test_matches_unrestricted_seq_exactly(self):
        """Paper footnote 3: the join formulation == UNRESTRICTED SEQ."""
        workload = uniform_sequence_workload(
            n_streams=3, n_tuples=400, n_tags=4, seed=9
        )
        streams = ["s0", "s1", "s2"]

        engine = Engine()
        for name in streams:
            engine.create_stream(name, "tagid str, tagtime float")
        seq_matches = []
        make_sequence_operator(
            engine, [SeqArg(s) for s in streams],
            mode=PairingMode.UNRESTRICTED,
            on_match=seq_matches.append,
        )
        baseline = JoinSequenceBaseline(engine, streams)
        engine.run_trace(workload.trace)

        seq_keys = sorted(
            tuple((t.ts, t.seq) for t in m.all_tuples()) for m in seq_matches
        )
        join_keys = sorted(
            tuple(
                (binding[s].ts, binding[s].seq) for s in streams
            )
            for binding in baseline.matches
        )
        assert seq_keys == join_keys

    def test_stop(self):
        engine = Engine()
        baseline = self.make(engine, ("a", "b"))
        baseline.stop()
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert baseline.matches_emitted == 0


class TestRcedaGraph:
    def make(self):
        engine = Engine()
        engine.create_stream("a", "tagid str, tagtime float")
        engine.create_stream("b", "tagid str, tagtime float")
        graph = RcedaEngine(engine)
        return engine, graph

    def test_primitive_node_collects(self):
        engine, graph = self.make()
        node = graph.primitive("a")
        feed(engine, [("a", 1.0), ("a", 2.0)])
        assert node.state_size == 2

    def test_seq_node_unrestricted_pairing(self):
        engine, graph = self.make()
        seq = graph.seq(graph.primitive("a"), graph.primitive("b"))
        feed(engine, [("a", 1.0), ("a", 2.0), ("b", 3.0)])
        assert len(seq.instances) == 2

    def test_seq_within(self):
        engine, graph = self.make()
        seq = graph.seq(graph.primitive("a"), graph.primitive("b"), within=1.0)
        feed(engine, [("a", 0.0), ("b", 5.0), ("a", 6.0), ("b", 6.5)])
        assert len(seq.instances) == 1

    def test_and_node(self):
        engine, graph = self.make()
        both = graph.and_(graph.primitive("a"), graph.primitive("b"))
        feed(engine, [("b", 1.0), ("a", 2.0)])  # any order
        assert len(both.instances) == 1

    def test_or_node(self):
        engine, graph = self.make()
        either = graph.or_(graph.primitive("a"), graph.primitive("b"))
        feed(engine, [("a", 1.0), ("b", 2.0)])
        assert len(either.instances) == 2

    def test_not_node_lazy_evaluation(self):
        engine, graph = self.make()
        negated = graph.not_(
            graph.primitive("a"), graph.primitive("b"), before=1.0, after=1.0
        )
        feed(engine, [("a", 0.0), ("b", 0.5),   # vetoed
                      ("a", 10.0)])               # clean
        assert negated.state_size == 2  # both positives pending
        negated.evaluate(now=20.0)
        assert len(negated.instances) == 1
        assert negated.instances[0].start == 10.0
        assert negated.state_size == 1

    def test_state_grows_without_sweep(self):
        """The paper's critique: no automatic purging."""
        engine, graph = self.make()
        graph.seq(graph.primitive("a"), graph.primitive("b"), within=1.0)
        for i in range(200):
            feed(engine, [("a", float(i * 10))])
        assert graph.state_size >= 200
        dropped = graph.sweep(horizon=1500.0)
        assert dropped > 0
        assert graph.state_size < 200

    def test_star_node_runs(self):
        engine, graph = self.make()
        star = graph.star(graph.primitive("a"), max_gap=1.0)
        feed(engine, [("a", 0.0), ("a", 0.5), ("a", 5.0)])
        runs = star.runs_before(6.0, within=None)
        assert [len(r.tuples) for r in runs] == [2, 1]


class TestRcedaContainment:
    def test_matches_ground_truth(self):
        workload = packing_workload(n_cases=15)
        engine = Engine()
        engine.create_stream("r1", "readerid str, tagid str, tagtime float")
        engine.create_stream("r2", "readerid str, tagid str, tagtime float")
        detector = StarContainmentDetector(
            engine, "r1", "r2", intra_gap=1.0, case_delay=5.0
        )
        engine.run_trace(workload.trace)
        detected = {case: tuple(items) for case, items in detector.results}
        expected = {case: tuple(items) for case, items in workload.truth.items()}
        assert detected == expected

    def test_stop_detaches_from_streams(self):
        engine = Engine()
        engine.create_stream("r1", "readerid str, tagid str, tagtime float")
        engine.create_stream("r2", "readerid str, tagid str, tagtime float")
        detector = StarContainmentDetector(engine, "r1", "r2")
        detector.stop()
        engine.run_trace(packing_workload(n_cases=3).trace)
        assert detector.results == [] and detector.state_size == 0
        assert detector.graph.tuples_seen == 0

    def test_holds_more_state_than_eslev(self):
        workload = packing_workload(n_cases=30)
        # ESL-EV operator
        from repro.rfid import build_containment

        scenario = build_containment(workload).feed()
        eslev_state = scenario.handle.operator.state_size
        # RCEDA graph
        engine = Engine()
        engine.create_stream("r1", "readerid str, tagid str, tagtime float")
        engine.create_stream("r2", "readerid str, tagid str, tagtime float")
        detector = StarContainmentDetector(engine, "r1", "r2")
        engine.run_trace(workload.trace)
        assert detector.state_size > eslev_state
