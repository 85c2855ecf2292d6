"""Confusion-matrix metrics for evaluation runs."""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class EvalMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    unscored: int   # samples in none of the four counts above
    precision: float | None
    recall: float | None
    f1: float | None
    accuracy: float | None

    @classmethod
    def from_counts(cls, tp: int, tn: int, fp: int, fn: int,
                    unscored: int = 0) -> "EvalMetrics":
        """Derive the four rates from the four counts of scored samples;
        unscored takes no part in them. Any division by zero is undefined
        (None), never reported as 0."""
        precision = tp / (tp + fp) if (tp + fp) > 0 else None
        recall = tp / (tp + fn) if (tp + fn) > 0 else None
        total = tp + tn + fp + fn
        accuracy = (tp + tn) / total if total > 0 else None
        if precision is None or recall is None or (precision + recall) == 0:
            f1 = None
        else:
            f1 = 2 * precision * recall / (precision + recall)
        return cls(tp=tp, tn=tn, fp=fp, fn=fn, unscored=unscored, precision=precision,
                   recall=recall, f1=f1, accuracy=accuracy)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def render_table(self) -> str:
        """One line per field: counts as integers, rates to four places."""
        def fmt(x: int | float | None) -> str:
            if x is None:
                return "n/a"
            return str(x) if isinstance(x, int) else f"{x:.4f}"

        rows = self.to_dict()
        width = max(map(len, rows))
        return "\n".join(f"{name.ljust(width)}  {fmt(value)}" for name, value in rows.items())
