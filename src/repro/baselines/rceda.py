"""RCEDA-style graph-based composite event engine (paper reference [23]).

The paper's first comparison point is the declarative rule-based RFID event
system of Wang et al., whose engine (RCEDA) detects composite events with a
*graph-based processing model*: each event constructor is a node in a DAG;
primitive event instances enter at the leaves and propagate upward, each
node combining child instances into composite instances.  The paper's
critiques, which the ablation benchmark quantifies:

* "takes a simple graph-based processing model and lacks optimization
  techniques" — nodes retain full instance histories (no pairing-mode
  purging);
* "windows are not natural constructs" — time limits are per-constructor
  interval parameters checked during composition, not windows that bound
  state; expired instances are only discarded when a *sweep* is explicitly
  requested.

Constructors implemented (the core set from [23]):

* :class:`PrimitiveNode` — one per observed stream;
* :class:`SeqNode` — binary sequence ``SEQ(E1, E2)`` with an optional
  ``within`` interval between the two ends;
* :class:`StarSeqNode` — ``E+`` runs segmented by a maximum inter-arrival
  gap (the TSEQ+-style constructor [23] uses for aggregation patterns);
* :class:`AndNode` / :class:`OrNode` — conjunction / disjunction;
* :class:`NotNode` — negation of an event within an interval around
  another event, evaluated at sweep time.

The engine is deliberately faithful to the critique, not improved.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..dsms.engine import Engine
from ..dsms.tuples import Tuple


class EventInstance:
    """A (composite) event instance: constituent tuples plus interval."""

    __slots__ = ("tuples", "start", "end")

    def __init__(self, tuples: Sequence[Tuple]) -> None:
        self.tuples = tuple(tuples)
        self.start = self.tuples[0].ts
        self.end = self.tuples[-1].ts

    def __repr__(self) -> str:
        return f"EventInstance([{self.start:g},{self.end:g}], {len(self.tuples)} tuples)"


class Node:
    """Base constructor node: stores every instance it ever produced."""

    def __init__(self) -> None:
        self.instances: list[EventInstance] = []
        self.parents: list["Node"] = []
        self.callbacks: list[Callable[[EventInstance], None]] = []

    def add_parent(self, parent: "Node") -> None:
        self.parents.append(parent)

    def on_instance(self, callback: Callable[[EventInstance], None]) -> None:
        self.callbacks.append(callback)

    def publish(self, instance: EventInstance) -> None:
        self.instances.append(instance)
        for callback in self.callbacks:
            callback(instance)
        for parent in self.parents:
            parent.child_produced(self, instance)

    def child_produced(self, child: "Node", instance: EventInstance) -> None:
        raise NotImplementedError

    @property
    def state_size(self) -> int:
        return len(self.instances)

    def sweep(self, horizon: float) -> int:
        """Discard instances ending before *horizon*; returns drop count.

        RCEDA has no automatic window purging — the application must call
        this explicitly, which is exactly the paper's complaint.
        """
        before = len(self.instances)
        self.instances = [i for i in self.instances if i.end >= horizon]
        return before - len(self.instances)


class PrimitiveNode(Node):
    """Leaf node fed by one stream."""

    def __init__(self, stream: str) -> None:
        super().__init__()
        self.stream = stream

    def ingest(self, tup: Tuple) -> None:
        self.publish(EventInstance([tup]))


class SeqNode(Node):
    """Binary sequence: an E2 instance following an E1 instance.

    Unrestricted pairing: every retained E1 instance that ends before the
    new E2 instance starts yields a composite (subject to ``within``).
    """

    def __init__(self, left: Node, right: Node, within: float | None = None) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.within = within
        left.add_parent(self)
        right.add_parent(self)

    def child_produced(self, child: Node, instance: EventInstance) -> None:
        if child is self.right:
            for earlier in self.left.instances:
                if earlier.end >= instance.start:
                    continue
                if self.within is not None and (
                    instance.start - earlier.end > self.within
                ):
                    continue
                self.publish(EventInstance([*earlier.tuples, *instance.tuples]))
        # Left-child instances are just retained (self.left.instances).


class StarSeqNode(Node):
    """``E+`` runs: consecutive child instances separated by <= max_gap.

    Publishes the *run so far is closed* instance when a gap violation or an
    explicit close occurs; the currently-open run is matched by parent
    SeqNodes through :meth:`open_run`.
    """

    def __init__(self, child: Node, max_gap: float | None = None) -> None:
        super().__init__()
        self.child = child
        self.max_gap = max_gap
        self._open: list[EventInstance] = []
        self.closed_runs: list[EventInstance] = []
        child.add_parent(self)

    def child_produced(self, child: Node, instance: EventInstance) -> None:
        if self._open and self.max_gap is not None:
            gap = instance.start - self._open[-1].end
            if gap > self.max_gap:
                self._close()
        self._open.append(instance)

    def _close(self) -> None:
        if not self._open:
            return
        tuples = [t for inst in self._open for t in inst.tuples]
        run = EventInstance(tuples)
        self.closed_runs.append(run)
        self.publish(run)
        self._open = []

    def runs_before(self, ts: float, within: float | None) -> list[EventInstance]:
        """Closed and open runs ending before *ts* (within the interval)."""
        candidates = list(self.closed_runs)
        if self._open and self._open[-1].end < ts:
            tuples = [t for inst in self._open for t in inst.tuples]
            candidates.append(EventInstance(tuples))
        out = []
        for run in candidates:
            if run.end >= ts:
                continue
            if within is not None and ts - run.end > within:
                continue
            out.append(run)
        return out

    def consume_run(self, run: EventInstance) -> None:
        """Chronicle-style consumption used by StarContainmentDetector."""
        self.closed_runs = [r for r in self.closed_runs if r is not run]
        if self._open and run.tuples and self._open[0].tuples:
            if run.tuples[0] is self._open[0].tuples[0]:
                self._open = []

    @property
    def state_size(self) -> int:
        return (
            len(self.instances)
            + len(self._open)
            + sum(len(r.tuples) for r in self.closed_runs)
        )


class AndNode(Node):
    """Both children have occurred (any order)."""

    def __init__(self, left: Node, right: Node) -> None:
        super().__init__()
        self.left = left
        self.right = right
        left.add_parent(self)
        right.add_parent(self)

    def child_produced(self, child: Node, instance: EventInstance) -> None:
        other = self.right if child is self.left else self.left
        for counterpart in other.instances:
            tuples = sorted(
                [*instance.tuples, *counterpart.tuples], key=lambda t: (t.ts, t.seq)
            )
            self.publish(EventInstance(tuples))


class OrNode(Node):
    """Either child occurred."""

    def __init__(self, left: Node, right: Node) -> None:
        super().__init__()
        left.add_parent(self)
        right.add_parent(self)

    def child_produced(self, child: Node, instance: EventInstance) -> None:
        self.publish(instance)


class NotNode(Node):
    """E1 occurred with no E2 instance inside [start - before, end + after].

    Decidable only once time has advanced past ``end + after``; evaluated
    lazily by :meth:`evaluate` (RCEDA-style periodic evaluation rather than
    the DSMS's active timers).
    """

    def __init__(self, positive: Node, negative: Node,
                 before: float, after: float) -> None:
        super().__init__()
        self.positive = positive
        self.negative = negative
        self.before = before
        self.after = after
        self._pending: list[EventInstance] = []
        positive.add_parent(self)
        negative.add_parent(self)

    def child_produced(self, child: Node, instance: EventInstance) -> None:
        if child is self.positive:
            self._pending.append(instance)

    def evaluate(self, now: float) -> None:
        """Resolve pending positives whose decision point has passed."""
        still: list[EventInstance] = []
        for instance in self._pending:
            deadline = instance.end + self.after
            if now < deadline:
                still.append(instance)
                continue
            lo = instance.start - self.before
            hi = instance.end + self.after
            vetoed = any(
                lo <= neg.start and neg.end <= hi
                for neg in self.negative.instances
            )
            if not vetoed:
                self.publish(instance)
        self._pending = still

    @property
    def state_size(self) -> int:
        return len(self.instances) + len(self._pending)


class RcedaEngine:
    """The graph engine: routes stream tuples into primitive nodes."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.primitives: dict[str, PrimitiveNode] = {}
        self.nodes: list[Node] = []
        self._unsubscribes: list[Callable[[], None]] = []
        self.tuples_seen = 0

    def primitive(self, stream: str) -> PrimitiveNode:
        key = stream.lower()
        node = self.primitives.get(key)
        if node is None:
            node = PrimitiveNode(stream)
            self.primitives[key] = node
            self.nodes.append(node)
            source = self.engine.streams.get(stream)

            def ingest(tup: Tuple, node: PrimitiveNode = node) -> None:
                self.tuples_seen += 1
                node.ingest(tup)

            self._unsubscribes.append(source.subscribe(ingest))
        return node

    def register(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def seq(self, left: Node, right: Node, within: float | None = None) -> SeqNode:
        return self.register(SeqNode(left, right, within))  # type: ignore[return-value]

    def star(self, child: Node, max_gap: float | None = None) -> StarSeqNode:
        return self.register(StarSeqNode(child, max_gap))  # type: ignore[return-value]

    def and_(self, left: Node, right: Node) -> AndNode:
        return self.register(AndNode(left, right))  # type: ignore[return-value]

    def or_(self, left: Node, right: Node) -> OrNode:
        return self.register(OrNode(left, right))  # type: ignore[return-value]

    def not_(self, positive: Node, negative: Node,
             before: float, after: float) -> NotNode:
        return self.register(NotNode(positive, negative, before, after))  # type: ignore[return-value]

    def stop(self) -> None:
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    @property
    def state_size(self) -> int:
        return sum(node.state_size for node in self.nodes)

    def sweep(self, horizon: float) -> int:
        return sum(node.sweep(horizon) for node in self.nodes)

    def __repr__(self) -> str:
        return f"RcedaEngine({len(self.nodes)} nodes, state={self.state_size})"


class StarContainmentDetector:
    """The Figure 1 containment pattern expressed in RCEDA constructors.

    ``SEQ(StarSeq(R1, gap<=t1), R2, within<=t0)`` with chronicle-style run
    consumption so each run packs into one case.  Used by the A3 benchmark
    to compare accuracy and state against the ESL-EV query.
    """

    def __init__(
        self,
        engine: Engine,
        product_stream: str,
        case_stream: str,
        intra_gap: float = 1.0,
        case_delay: float = 5.0,
    ) -> None:
        self.graph = RcedaEngine(engine)
        products = self.graph.primitive(product_stream)
        cases = self.graph.primitive(case_stream)
        self.star = self.graph.star(products, max_gap=intra_gap)
        self.case_delay = case_delay
        self.results: list[tuple[str, list[str]]] = []

        def on_case(instance: EventInstance,
                    star: StarSeqNode = self.star) -> None:
            case_tuple = instance.tuples[0]
            runs = star.runs_before(case_tuple.ts, within=self.case_delay)
            if not runs:
                return
            run = runs[0]  # earliest (chronicle)
            star.consume_run(run)
            self.results.append(
                (
                    str(case_tuple["tagid"]),
                    [str(t["tagid"]) for t in run.tuples],
                )
            )

        cases.on_instance(on_case)

    @property
    def state_size(self) -> int:
        return self.graph.state_size

    def stop(self) -> None:
        self.graph.stop()
