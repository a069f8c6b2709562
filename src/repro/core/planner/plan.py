"""EXPLAIN-style physical plan descriptions.

The compiler wires queries directly into operator runtimes; this module
reconstructs a human-readable plan tree from a compiled
:class:`~repro.dsms.engine.QueryHandle` so users can see *how* their query
executes — which temporal operator, which pairing mode, what was hoisted.
"""

from __future__ import annotations

from typing import Any, Iterator

from ...dsms.engine import QueryHandle


class PlanNode:
    """One node of a plan description tree."""

    def __init__(self, kind: str, detail: str = "",
                 children: list["PlanNode"] | None = None) -> None:
        self.kind = kind
        self.detail = detail
        self.children = children or []

    def add(self, child: "PlanNode") -> "PlanNode":
        self.children.append(child)
        return child

    def lines(self, depth: int = 0) -> Iterator[str]:
        prefix = "  " * depth
        label = f"{prefix}{self.kind}"
        if self.detail:
            label += f" [{self.detail}]"
        yield label
        for child in self.children:
            yield from child.lines(depth + 1)

    def render(self) -> str:
        return "\n".join(self.lines())

    def __repr__(self) -> str:
        return f"PlanNode({self.kind}, {len(self.children)} children)"


def describe_handle(handle: QueryHandle) -> PlanNode:
    """Build a plan description for a compiled query handle."""
    target = handle.output.name if handle.output is not None else "<collector>"
    root = PlanNode("ContinuousQuery", f"{handle.name} -> {target}")
    operator: Any = getattr(handle, "operator", None)
    if operator is None:
        root.add(PlanNode("Pipeline", "filter/aggregate/table evaluation"))
        return root
    kind = type(operator).__name__
    details: list[str] = []
    if kind == "SymmetricExistsOperator":
        word = "NOT EXISTS" if operator.negate else "EXISTS"
        details.append(
            f"{word} [{operator.preceding:g}s PRECEDING AND "
            f"{operator.following:g}s FOLLOWING]"
        )
    mode = getattr(operator, "mode", None)
    if mode is not None:
        details.append(f"mode={mode.value}")
    window = getattr(operator, "window", None)
    if window is not None:
        details.append(
            f"window={window.duration:g}s {window.direction} "
            f"anchor#{window.anchor}"
        )
    if getattr(operator, "partition_by", None) is not None:
        details.append("partitioned")
    if getattr(operator, "guard", None) is not None:
        details.append("guarded")
    node = root.add(PlanNode(kind, ", ".join(details)))
    for arg in getattr(operator, "args", ()):
        star = "*" if arg.starred else ""
        gap = ""
        if arg.max_gap is not None:
            gap = f" gap<={arg.max_gap:g}s"
        elif arg.gap_check is not None:
            gap = " gap-checked"
        node.add(PlanNode("StreamArg", f"{arg.stream}{star} AS {arg.alias}{gap}"))
    return root


def describe_registry(registry: Any) -> PlanNode:
    """Build a plan description for shared multi-query execution.

    Accepts a :class:`~repro.dsms.registry.QueryRegistry` or a
    :class:`~repro.dsms.multi_engine.MultiQueryEngine`.
    The tree shows the per-stream routers — which fields are
    predicate-indexed, how many plans route residually — and each shared
    plan's operator subtree with its subscriber fan-out count (and, for a
    plan shared across gated literals, how many literal keys it serves).
    """
    inner = getattr(registry, "registry", registry)
    root = PlanNode(
        "MultiQuery",
        f"{inner.subscription_count} subscriptions over "
        f"{inner.plan_count} shared plans",
    )
    for router in inner.routers():
        info = router.describe()
        node = root.add(PlanNode("StreamRouter", f"stream={info['stream']}"))
        for field in info["fields"]:
            node.add(PlanNode(
                "PredicateIndex",
                f"field={field['field']}, eq_keys={field['eq_keys']}, "
                f"ranges={field['range_entries']}, "
                f"range_points={field['range_points']}, "
                f"range_fallbacks={field['range_fallbacks']}",
            ))
        if info["residual"]:
            node.add(PlanNode("ResidualScan", f"{info['residual']} plans"))
    for plan in inner.plans():
        subtree = describe_handle(plan.handle)
        subtree.detail += f", fan-out x{len(plan.subscriptions())}"
        if plan.keys is not None:
            subtree.detail += f" over {len(plan.keys)} keys"
        root.add(subtree)
    return root
