"""Accuracy and cost metrics shared by the benchmark harness."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence


class Accuracy:
    """Set-based precision/recall/F1 against ground truth."""

    __slots__ = ("tp", "fp", "fn")

    def __init__(self, tp: int, fp: int, fn: int) -> None:
        self.tp = tp
        self.fp = fp
        self.fn = fn

    @classmethod
    def from_sets(
        cls, detected: Iterable[Hashable], truth: Iterable[Hashable]
    ) -> "Accuracy":
        detected_set = set(detected)
        truth_set = set(truth)
        tp = len(detected_set & truth_set)
        return cls(tp, len(detected_set) - tp, len(truth_set) - tp)

    @property
    def precision(self) -> float:
        total = self.tp + self.fp
        return self.tp / total if total else 1.0

    @property
    def recall(self) -> float:
        total = self.tp + self.fn
        return self.tp / total if total else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def exact(self) -> bool:
        return self.fp == 0 and self.fn == 0

    def __repr__(self) -> str:
        return (
            f"Accuracy(P={self.precision:.3f} R={self.recall:.3f} "
            f"F1={self.f1:.3f})"
        )


def containment_accuracy(
    detected: Sequence[tuple[str, Sequence[str]]],
    truth: dict[str, Sequence[str]],
) -> Accuracy:
    """Score case->products assignments (both the case and its full
    product set must match)."""
    detected_pairs = {
        (case, tuple(products)) for case, products in detected
    }
    truth_pairs = {
        (case, tuple(products)) for case, products in truth.items()
    }
    return Accuracy.from_sets(detected_pairs, truth_pairs)


def throughput(n_tuples: int, seconds: float) -> float:
    """Tuples per wall-clock second (0 when the clock did not move)."""
    return n_tuples / seconds if seconds > 0 else 0.0
