"""Generated programs over every construct of the paper's queries, held
against the oracle.

Each test draws one program and one trace from :mod:`.generate` and
requires every configuration we ship to emit the oracle's rows:
``Engine``, ``MultiQueryEngine`` and ``ShardedEngine(2)`` on the
serial executor (plus one parallel case).  Shapes: star-free SEQ in the
four pairing modes with and without PRECEDING / FOLLOWING windows, star
sequences, EXCEPTION_SEQ / CLEVEL_SEQ with expiry, the windowed, table and
symmetric ``NOT EXISTS`` forms, running aggregates and grouped one-shot
SELECTs over tables.
"""

import random

import pytest

from . import generate
from .engines import check, run_restored
from .relational import run_program

SEQ_MODES = (None, "UNRESTRICTED", "RECENT", "CHRONICLE", "CONSECUTIVE")
EXCEPTION_MODES = (None, "RECENT", "CONSECUTIVE")


def _mode_id(mode):
    return mode or "default"


@pytest.mark.parametrize("mode", SEQ_MODES, ids=_mode_id)
@pytest.mark.parametrize("seed", range(24))
def test_seq_matches_oracle(seed, mode):
    check(generate.seq_case(random.Random(seed), mode))


@pytest.mark.parametrize("mode", SEQ_MODES, ids=_mode_id)
@pytest.mark.parametrize("seed", range(8))
def test_dense_seq_matches_oracle(seed, mode):
    """Two keys and re-read bursts: per-key stage histories run to dozens
    of rows, so the pairing loop walks long candidate slices."""
    check(generate.seq_case(random.Random(seed), mode, dense=True))


@pytest.mark.parametrize("mode", SEQ_MODES, ids=_mode_id)
@pytest.mark.parametrize("seed", range(12))
def test_star_matches_oracle(seed, mode):
    check(generate.star_case(random.Random(seed), mode))


@pytest.mark.parametrize("mode", EXCEPTION_MODES, ids=_mode_id)
@pytest.mark.parametrize("seed", range(20))
def test_exception_seq_matches_oracle(seed, mode):
    check(generate.exception_case(random.Random(seed), mode))


@pytest.mark.parametrize("shape", [
    "window-exists", "table-exists", "symmetric",
    "running-aggregate", "grouped-table",
])
@pytest.mark.parametrize("seed", range(24))
def test_relational_shape_matches_oracle(shape, seed):
    check(generate.SHAPES[shape](random.Random(seed)))


@pytest.mark.parametrize("seed", range(20))
def test_seq_restored_from_a_checkpoint_matches_oracle(seed):
    """An ``Engine`` checkpointed at a random cut and restored into a fresh
    one finishes the trace with the oracle's rows."""
    rng = random.Random(seed)
    case = generate.seq_case(rng, rng.choice(SEQ_MODES))
    cut = rng.randrange(len(case.trace) + 1)
    expected = run_program(case.text, case.streams, {}, case.trace)
    got = run_restored(case.statements, case.streams, case.trace, cut)
    assert got == expected, f"restored at {cut}: {case.statements}"


@pytest.mark.transport
def test_parallel_shards_match_oracle():
    rng = random.Random(11)
    assert check(generate.seq_case(rng, "CHRONICLE"), ("serial", "parallel"))


def _case(streams, statements, trace, tables=None, until=None):
    return generate.Case(streams, statements, trace, tables or {}, until)


class TestPinnedReadings:
    """Divergences the oracle found, each pinned with the reading we take
    (see docs/LANGUAGE.md)."""

    KTS = "k int, t float"

    def test_clevel_seq_partitions_on_an_equality_chain(self):
        # Like EXCEPTION_SEQ, CLEVEL_SEQ keeps one attempt per key: f(k=2)
        # neither breaks k=1's attempt nor is broken by g(k=1); only
        # g(k=3), a wrong start, is reported.
        got = check(_case(
            {"e0": self.KTS, "e1": self.KTS},
            ["SELECT f.k, g.k FROM e0 AS f, e1 AS g "
             "WHERE (CLEVEL_SEQ(f, g)) < 2 AND f.k = g.k"],
            [("e0", {"k": 1, "t": 0.0}, 0.0), ("e0", {"k": 2, "t": 1.0}, 1.0),
             ("e1", {"k": 1, "t": 2.0}, 2.0), ("e1", {"k": 3, "t": 3.0}, 3.0)],
        ))
        assert got == [[((None, None), 3.0)]]

    def test_null_and_int_partitions_expire_at_one_deadline(self):
        # Two partitions, keys NULL and 1, expire at the same instant.
        got = check(_case(
            {"s0": self.KTS, "s1": self.KTS},
            ["SELECT x.k, y.t FROM s0 AS x, s1 AS y "
             "WHERE SEQ(x, y) OVER [1 SECONDS PRECEDING y] AND x.k = y.k"],
            [("s0", {"k": 1, "t": 0.0}, 0.0), ("s0", {"k": None, "t": 0.0}, 0.0),
             ("s1", {"k": None, "t": 0.5}, 0.5), ("s1", {"k": 1, "t": 5.0}, 5.0)],
        ))
        assert got == [[((None, 0.5), 0.5)]]

    def test_window_slices_every_argument_before_the_mode_chooses(self):
        # x at 0 is older than T - 2 = 9, so CHRONICLE never sees it and
        # takes x at 10; the match lies in [10, 12].
        got = check(_case(
            {"s0": self.KTS, "s1": self.KTS, "s2": self.KTS},
            ["SELECT x.t, y.t, z.t FROM s0 AS x, s1 AS y, s2 AS z "
             "WHERE SEQ(x, y, z) OVER [2 SECONDS FOLLOWING y] MODE CHRONICLE"],
            [("s0", {"k": 0, "t": 0.0}, 0.0), ("s0", {"k": 0, "t": 10.0}, 10.0),
             ("s1", {"k": 0, "t": 10.0}, 10.0), ("s2", {"k": 0, "t": 11.0}, 11.0)],
        ))
        assert got == [[((10.0, 10.0, 11.0), 11.0)]]

    def test_expirations_due_together_come_out_in_arming_order(self):
        # Keys 1 and 2 land on different shards; both attempts expire at
        # t = 1, and the sharded merge must keep the single engine's order.
        got = check(_case(
            {"e0": self.KTS, "e1": self.KTS},
            ["SELECT f.k, f.t FROM e0 AS f, e1 AS g "
             "WHERE EXCEPTION_SEQ(f, g) OVER [1 SECONDS FOLLOWING f] "
             "AND f.k = g.k"],
            [("e0", {"k": k, "t": 0.0}, 0.0) for k in (2, 1, 4, 3)],
            until=5.0,
        ))
        assert got == [[((k, 0.0), 1.0) for k in (2, 1, 4, 3)]]

    @pytest.mark.transport
    def test_table_only_select_answers_before_any_push(self):
        # Sharded engines held these rows until their first step (the
        # parallel workers until their first frame), and a registered
        # subscription never saw them (registering one is now rejected).
        got = check(_case(
            {},
            ["INSERT INTO t VALUES ('a', 1.0), ('a', 2.0), (NULL, NULL)",
             "SELECT g, sum(v), count(*) FROM t GROUP BY g"],
            [],
            tables={"t": "g str, v float"},
        ), ("serial", "parallel"))
        assert got == [[(("a", 3.0, 2), 0.0), ((None, None, 1), 0.0)]]
