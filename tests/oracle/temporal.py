"""Oracle for the temporal operators (paper section 3.1).

SEQ under the four Tuple Pairing Modes, star sequences ``SEQ(A*, B)``,
and EXCEPTION_SEQ / CLEVEL_SEQ, each read off the statement and the
complete trace: a list of :class:`Event` in arrival order.  Star-free
SEQ is filter / window-slice / cross-product / selection: at each
trigger the candidate chains are the product of the earlier arrivals,
filtered by the WHERE terms and sliced by the window, and the pairing
mode selects among them.  The star and EXCEPTION_SEQ readings are folds
over the trace, because the paper defines both as automata (runs and
completion levels).

Where the paper leaves a point open, these are the readings taken
(docs/LANGUAGE.md states each):

* **Order.**  Tuples order by (timestamp, arrival).  ``SEQ(E1..En)``
  needs ``t1 < ... < tn``.  A *trigger* is an arrival on En's stream;
  matches come out in trigger order and, within one trigger, in
  ascending order of ``(t(n-1), ..., t1)``: the chain read back from the
  trigger.
* **Qualifying.**  A WHERE term rejects a binding only when it is
  FALSE: NULL passes, and so does a term that cannot be evaluated
  (text compared with a number).  A term is decided as soon as every
  alias it names is bound, so RECENT and CHRONICLE skip a tuple whose
  terms fail against what is already bound.
* **Partition.**  An equality chain over all the operator's aliases on
  one field name is a partition key: tuples pair only within equal keys,
  and NULL is one key like any other.
* **Window.**  ``OVER [d PRECEDING|FOLLOWING Ek]`` puts every tuple of a
  match in ``[ek - d, ek]`` or ``[ek, ek + d]``, ends included.  RECENT
  and CHRONICLE select among the tuples no older than ``T - d`` (``T``
  the trigger's timestamp); the chain they select must then lie in the
  window, and there is no second choice.
* **Modes.**  UNRESTRICTED keeps every candidate.  RECENT walks back from
  the trigger taking the most recent qualifying tuple on each stream.
  CHRONICLE walks forward taking the earliest qualifying tuple not yet
  consumed, and a match consumes its tuples (the trigger excepted).
  CONSECUTIVE needs the match adjacent on the joint history of the
  operator's streams (per partition): any other arrival restarts it.
* **Select items** that cannot be evaluated (an EXCEPTION_SEQ stage that
  never bound, text compared with a number) are NULL.
"""

from __future__ import annotations

from collections import namedtuple

from repro.core.language.ast_nodes import (
    PreviousRef,
    SeqPredicate,
    StarAggregate,
    iter_and_terms,
)
from repro.dsms.expressions import BinaryOp, Column

from .filter import Scope, Unbound, compare, value

#: One trace record: its arrival position, lower-cased stream name, row
#: (field -> value) and timestamp.
Event = namedtuple("Event", "index stream row ts")

FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def events(trace):
    """``[(stream, row, ts)]`` in arrival order, as :class:`Event` s."""
    return [
        Event(index, stream.lower(), row, float(ts))
        for index, (stream, row, ts) in enumerate(trace)
    ]


def qualifies(terms, scope):
    """Every term that *scope* can decide is not FALSE."""
    for term in terms:
        try:
            if value(term, scope) is False:
                return False
        except (Unbound, TypeError):
            continue
    return True


def project(items, scope):
    out = []
    for expr in items:
        try:
            out.append(value(expr, scope))
        except (Unbound, TypeError):
            out.append(None)
    return tuple(out)


class Operator:
    """What the oracle needs to know about one temporal statement."""

    def __init__(self, statement, fields):
        self.statement = statement
        sources = {
            item.alias.lower(): item.name.lower() for item in statement.from_items
        }
        self.clevel = None  # (comparison, literal) of CLEVEL_SEQ(...) <op> k
        terms = []
        predicate = None
        for term in iter_and_terms(statement.where):
            if isinstance(term, SeqPredicate):
                predicate = term
            elif isinstance(term, BinaryOp) and isinstance(term.left, SeqPredicate):
                predicate = term.left
                self.clevel = (term.op, term.right.value)
            elif isinstance(term, BinaryOp) and isinstance(term.right, SeqPredicate):
                predicate = term.right
                self.clevel = (FLIPPED.get(term.op, term.op), term.left.value)
            else:
                terms.append(term)
        self.name = predicate.op_name
        self.aliases = [arg.name.lower() for arg in predicate.args]
        self.streams = [sources[alias] for alias in self.aliases]
        self.starred = [arg.starred for arg in predicate.args]
        default = "consecutive" if self.name != "SEQ" else "unrestricted"
        self.mode = (predicate.mode or default).lower()
        self.window = None
        if predicate.window is not None:
            window = predicate.window
            self.window = (
                window.seconds,
                window.direction,
                self.aliases.index(window.anchor.lower()),
            )
        self.gaps = {}
        self.terms = []
        for term in terms:
            previous = {
                node.alias.lower() for node in term.walk()
                if isinstance(node, PreviousRef)
            }
            if previous:
                self.gaps.setdefault(previous.pop(), []).append(term)
            else:
                self.terms.append(term)
        self.partition = self._hoist()
        self.items = self._items(fields)

    def _hoist(self):
        """The partition field, removing its equality chain from terms."""
        aliases = set(self.aliases)
        joined, names, chain = set(), set(), []
        for term in self.terms:
            if not (isinstance(term, BinaryOp) and term.op == "="):
                continue
            left, right = term.left, term.right
            if not (isinstance(left, Column) and isinstance(right, Column)):
                continue
            if left.alias is None or right.alias is None:
                continue
            if {left.alias.lower(), right.alias.lower()} <= aliases:
                joined |= {left.alias.lower(), right.alias.lower()}
                names |= {left.field.lower(), right.field.lower()}
                chain.append(term)
        if len(aliases) < 2 or len(names) != 1 or joined != aliases:
            return None
        self.terms = [term for term in self.terms if term not in chain]
        return names.pop()

    def _items(self, fields):
        if not self.statement.select_star:
            return [item.expr for item in self.statement.select_items]
        items = []
        for alias, stream, starred in zip(self.aliases, self.streams, self.starred):
            if starred:
                items.append(StarAggregate("count", alias))
            else:
                items.extend(Column(field, alias) for field in fields[stream])
        return items

    def key(self, event):
        return None if self.partition is None else event.row.get(self.partition)

    def bindings(self, chain):
        return Scope({
            alias: event.row for alias, event in zip(self.aliases, chain)
        })

    def inside(self, chain):
        """Whether *chain* (one event per argument) lies in the window."""
        if self.window is None:
            return True
        seconds, direction, anchor = self.window
        at = chain[anchor].ts
        lo, hi = (at - seconds, at) if direction == "preceding" else (at, at + seconds)
        return all(lo <= event.ts <= hi for event in chain)

    def fresh(self, event, trigger):
        """Not sliced off by the window at *trigger*."""
        return self.window is None or event.ts >= trigger.ts - self.window[0]

    def multi_return(self):
        """The starred alias the select list reads per tuple, if any."""
        starred = {a for a, s in zip(self.aliases, self.starred) if s}
        for expr in self.items:
            for node in expr.walk():
                if type(node) is Column and node.alias and node.alias.lower() in starred:
                    return node.alias.lower()
        return None


def run_temporal(statement, trace, fields, until=None):
    """``[(values, ts)]`` the temporal *statement* emits over *trace*.

    *fields* maps each stream name to its field names (for ``SELECT *``);
    *until* is the clock time the run ends at, which fires the
    EXCEPTION_SEQ expirations due by then.
    """
    op = Operator(statement, fields)
    evs = events(trace)
    if op.name != "SEQ":
        return exception_outcomes(op, evs, until)
    if any(op.starred):
        return star_rows(op, evs)
    return [
        (project(op.items, op.bindings(chain)), chain[-1].ts)
        for chain in seq_chains(op, evs)
    ]


# ---------------------------------------------------------------------------
# Star-free SEQ
# ---------------------------------------------------------------------------


def seq_chains(op, evs):
    """Every star-free SEQ match over the :class:`Event` s *evs*, one
    event per argument, in emission order."""
    evs = [e for e in evs if e.stream in op.streams]
    if op.mode == "consecutive":
        return _consecutive(op, evs)
    n = len(op.aliases)
    consumed = set()  # CHRONICLE: (argument position, event index)
    out = []
    for trigger in evs:
        if trigger.stream != op.streams[-1]:
            continue
        key = op.key(trigger)
        candidates = [
            [
                e for e in evs[:evs.index(trigger)]
                if e.stream == stream and op.key(e) == key
                and op.fresh(e, trigger)
            ]
            for stream in op.streams[:-1]
        ]
        if op.mode == "unrestricted":
            out.extend(
                chain for chain in _products(candidates, trigger)
                if qualifies(op.terms, op.bindings(chain)) and op.inside(chain)
            )
            continue
        if op.mode == "recent":
            chain = _recent(op, candidates, trigger)
        else:
            candidates = [
                [e for e in stage if (j, e.index) not in consumed]
                for j, stage in enumerate(candidates)
            ]
            chain = _chronicle(op, candidates, trigger)
        if chain is not None and op.inside(chain):
            out.append(chain)
            if op.mode == "chronicle":
                consumed.update((j, e.index) for j, e in enumerate(chain[:n - 1]))
    return out


def _products(candidates, trigger):
    """The time-ordered cross product, ascending from the trigger back."""

    def extend(j, upper, tail):
        if j < 0:
            yield tail
            return
        for e in candidates[j]:
            if e.index < upper.index:
                yield from extend(j - 1, e, [e] + tail)

    return extend(len(candidates) - 1, trigger, [trigger])


def _recent(op, candidates, trigger):
    chain = [trigger]
    if not qualifies(op.terms, _partial(op, chain)):
        return None
    for stage in reversed(candidates):
        upper = chain[0]
        chosen = next((
            e for e in reversed(stage)
            if e.index < upper.index
            and qualifies(op.terms, _partial(op, [e] + chain))
        ), None)
        if chosen is None:
            return None
        chain.insert(0, chosen)
    return chain


def _chronicle(op, candidates, trigger):
    chain = []
    if not qualifies(op.terms, _partial(op, [trigger])):
        return None
    for stage in candidates:
        lower = chain[-1].index if chain else -1
        chosen = next((
            e for e in stage
            if lower < e.index < trigger.index
            and qualifies(op.terms, _partial(op, chain + [e, trigger]))
        ), None)
        if chosen is None:
            return None
        chain.append(chosen)
    return chain + [trigger]


def _partial(op, chain):
    """Bindings for the arguments *chain* fills: the trigger is the last
    argument, and the rest fill from the first (CHRONICLE) or end just
    before the trigger (RECENT)."""
    n = len(op.aliases)
    *head, trigger = chain
    positions = (
        range(len(head)) if op.mode == "chronicle" else range(n - 1 - len(head), n - 1)
    )
    bound = {op.aliases[p]: e.row for p, e in zip(positions, head)}
    bound[op.aliases[-1]] = trigger.row
    return Scope(bound)


def _consecutive(op, evs):
    n = len(op.aliases)
    runs = {}
    out = []
    for e in evs:
        key = op.key(e)
        run = runs.get(key, [])
        j = len(run)
        if j < n and e.stream == op.streams[j] and qualifies(
            op.terms, op.bindings(run + [e])
        ):
            run = run + [e]
            if len(run) == n:
                if op.inside(run):
                    out.append(run)
                run = []
        elif e.stream == op.streams[0] and qualifies(op.terms, op.bindings([e])):
            run = [e]
        else:
            run = []
        runs[key] = run
    return out


# ---------------------------------------------------------------------------
# Star sequences SEQ(A*, B)
# ---------------------------------------------------------------------------


def star_rows(op, evs):
    """Rows of ``SEQ(A*, B)``: longest runs of A, one match per B that
    pairs with one.

    Runs segment by the ``previous`` terms: an A tuple extends a run when
    every one of them is TRUE on (the run's last tuple, it); other WHERE
    terms are decided with A bound to the whole run.  Per mode:

    * CHRONICLE: an A extends the newest run that takes it, else starts
      one; a B pairs with the oldest qualifying run, which it consumes.
    * RECENT: as CHRONICLE, but B pairs with the newest qualifying run
      and discards every run started no later than it.
    * UNRESTRICTED: an A extends every run that takes it, and starts one
      only when none does; a B pairs with every qualifying run, oldest
      first, and the runs stay open.
    * CONSECUTIVE: one run of adjacent A tuples, completed by the B that
      immediately follows it.

    A select list that names A's columns directly yields one row per run
    tuple (paper footnote 4).
    """
    (a, b), (a_stream, _b_stream) = op.aliases, op.streams
    gaps = op.gaps.get(a, [])
    per_tuple = op.multi_return()
    runs_by_key = {}
    out = []

    def takes(run, e):
        gap = Scope({a: e.row, f"{a}.previous": run[-1].row})
        return all(value(term, gap) is True for term in gaps) and qualifies(
            op.terms, Scope({a: [x.row for x in run + [e]]})
        )

    def starts(e):
        return qualifies(op.terms, Scope({a: [e.row]}))

    def pairs(run, e):
        return qualifies(op.terms, Scope({a: [x.row for x in run], b: e.row}))

    def emit(run, e):
        scope = Scope({a: [x.row for x in run], b: e.row})
        if per_tuple is None:
            out.append((project(op.items, scope), e.ts))
        else:
            out.extend(
                (project(op.items, Scope({a: x.row}, scope)), e.ts) for x in run
            )

    for e in evs:
        if e.stream not in op.streams:
            continue
        runs = runs_by_key.setdefault(op.key(e), [])
        if op.mode == "consecutive":
            run = runs[0] if runs else []
            if e.stream == a_stream:
                runs[:] = [run + [e]] if run and takes(run, e) else (
                    [[e]] if starts(e) else []
                )
            else:
                if run and pairs(run, e):
                    emit(run, e)
                runs.clear()
        elif e.stream == a_stream:
            if op.mode == "unrestricted":
                extended = [run for run in runs if takes(run, e)]
                for run in extended:
                    run.append(e)
            else:
                extended = next((r for r in reversed(runs) if takes(r, e)), None)
                if extended is not None:
                    extended.append(e)
            if not extended and starts(e):
                runs.append([e])
        elif op.mode == "unrestricted":
            for run in runs:
                if pairs(run, e):
                    emit(run, e)
        else:
            order = runs if op.mode == "chronicle" else list(reversed(runs))
            run = next((r for r in order if pairs(r, e)), None)
            if run is not None:
                emit(run, e)
                if op.mode == "chronicle":
                    runs.remove(run)
                else:
                    runs[:] = [r for r in runs if r[0].ts > run[0].ts]
    return out


# ---------------------------------------------------------------------------
# EXCEPTION_SEQ / CLEVEL_SEQ
# ---------------------------------------------------------------------------


class _Attempt:
    """One partition's attempt at the prescribed sequence."""

    def __init__(self):
        self.bound = []  # one event per bound stage
        self.generation = 0
        self.timer = None  # the armed (deadline, order) expiration


def exception_outcomes(op, evs, until):
    """Rows of EXCEPTION_SEQ / CLEVEL_SEQ: every attempt at the sequence
    ends with a completion level, the number of stages it bound.

    An arrival that starts or extends the attempt binds the next stage
    when its stream is that stage's and the WHERE terms qualify.  An
    arrival that does neither ends the attempt with a *wrong extension*
    at its level (or, with nothing bound, a *wrong start* at level 0).
    RECENT then lets an arrival repeating an earlier stage replace that
    stage's binding (dropping the later ones) and otherwise keeps the
    attempt; CONSECUTIVE starts afresh, the arrival itself binding the
    first stage when it can.  A FOLLOWING window arms an expiration when
    its anchor stage binds; it fires at its deadline, before any arrival
    stamped at or after it, and ends an unfinished attempt (*window
    expiration*).  A completed attempt has level n; EXCEPTION_SEQ keeps
    the outcomes below n and CLEVEL_SEQ those its comparison accepts.
    Stages that never bound project as NULL.
    """
    n = len(op.aliases)
    window = op.window
    following = window is not None and window[1] == "following"
    attempts = {}
    timers = []  # (deadline, order, key, generation)
    out = []
    order = iter(range(1 << 62))

    def accept(level):
        if op.clevel is not None:
            return compare(op.clevel[0], level, op.clevel[1]) is True
        return level < n

    def report(bound, level, ts):
        if accept(level):
            scope = Scope({op.aliases[j]: e.row for j, e in enumerate(bound)})
            out.append((project(op.items, scope), ts))

    def arm(key, attempt):
        if following and window[2] == len(attempt.bound) - 1:
            deadline = attempt.bound[-1].ts + window[0]
            attempt.timer = (deadline, next(order))
            timers.append((*attempt.timer, key, attempt.generation))

    def reset(attempt):
        attempt.bound = []
        attempt.timer = None
        attempt.generation += 1

    def bind(key, attempt, e):
        attempt.bound.append(e)
        arm(key, attempt)
        if len(attempt.bound) == n:
            if op.inside(attempt.bound):
                report(attempt.bound, n, e.ts)
            else:
                report(attempt.bound[:-1], n - 1, e.ts)
            reset(attempt)

    def qualifies_at(attempt, stage, e):
        bound = attempt.bound[:stage] + [e]
        return qualifies(op.terms, Scope({
            op.aliases[j]: x.row for j, x in enumerate(bound)
        }))

    def fire(upto):
        due = sorted(t for t in timers if t[0] <= upto)
        for deadline, seq, key, generation in due:
            timers.remove((deadline, seq, key, generation))
            attempt = attempts[key]
            if attempt.timer != (deadline, seq) or attempt.generation != generation:
                continue
            attempt.timer = None
            if attempt.bound and len(attempt.bound) < n:
                report(attempt.bound, len(attempt.bound), deadline)
                reset(attempt)

    for e in evs:
        fire(e.ts)
        if e.stream not in op.streams:
            continue
        key = op.key(e)
        attempt = attempts.setdefault(key, _Attempt())
        level = len(attempt.bound)
        if level < n and e.stream == op.streams[level] and qualifies_at(
            attempt, level, e
        ):
            bind(key, attempt, e)
            continue
        report(attempt.bound, level, e.ts)
        if not level:
            continue
        if op.mode == "recent":
            stage = next((
                j for j in range(level)
                if op.streams[j] == e.stream and qualifies_at(attempt, j, e)
            ), None)
            if stage is not None:
                attempt.bound = attempt.bound[:stage] + [e]
                if stage == 0:
                    attempt.timer = None
                    attempt.generation += 1
                    arm(key, attempt)
            continue
        reset(attempt)
        if e.stream == op.streams[0] and qualifies_at(attempt, 0, e):
            bind(key, attempt, e)
    if until is not None:
        fire(until)
    return out


def seq_statement_text(aliases, streams, mode=None, window=None, terms=()):
    """SQL for a hand-built operator: ``SELECT *`` over SEQ(aliases)."""
    froms = ", ".join(f"{s} AS {a}" for a, s in zip(aliases, streams))
    over = ""
    if window is not None:
        seconds, direction, anchor = window
        over = f" OVER [{seconds!r} SECONDS {direction.upper()} {aliases[anchor]}]"
    clause = f"SEQ({', '.join(aliases)}){over}"
    if mode is not None:
        clause += f" MODE {mode.upper()}"
    return f"SELECT * FROM {froms} WHERE " + " AND ".join([clause, *terms])
