"""Entity-level and relation-level precision/recall/F1.

Scoring is exact-match only: an entity prediction counts iff start, end, and
class all match a gold span; a relation prediction counts iff both resolved
spans and the label match.  Degenerate 0/0 ratios are defined as 0, and
duplicate predictions within a sentence earn at most one true positive (the
extra copies count as false positives).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import NO_RELATION, EntitySpan, RelationInstance
from .errors import ContractError

RelationTriple = tuple[tuple[int, int, str], tuple[int, int, str], str]


@dataclass
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        return f1_from_pr(self.precision, self.recall)

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass
class EvalReport:
    per_class: dict[str, ClassCounts] = field(default_factory=dict)
    micro: ClassCounts = field(default_factory=ClassCounts)
    token_accuracy: float | None = None
    invalid_transition_rate: float | None = None

    @property
    def macro_f1(self) -> float:
        """Unweighted mean of per-class F1 (micro stays the headline number)."""
        if not self.per_class:
            return 0.0
        return sum(self.per_class[cls].f1 for cls in sorted(self.per_class)) / len(self.per_class)

    def as_dict(self) -> dict:
        out = {
            "macro_f1": self.macro_f1,
            "per_class": {cls: c.as_dict() for cls, c in sorted(self.per_class.items())},
            "micro": self.micro.as_dict(),
        }
        if self.token_accuracy is not None:
            out["token_accuracy"] = self.token_accuracy
        if self.invalid_transition_rate is not None:
            out["invalid_transition_rate"] = self.invalid_transition_rate
        return out


def f1_from_pr(p: float, r: float) -> float:
    """Harmonic mean 2pr/(p+r), with 0 when p + r = 0."""
    if not (0.0 <= p <= 1.0 and 0.0 <= r <= 1.0):
        raise ContractError(f"precision/recall must be in [0, 1], got {p}, {r}")
    return 2.0 * p * r / (p + r) if p + r else 0.0


def _count_exact_match(gold_items, pred_items, key_of) -> EvalReport:
    """Per-class and micro counts over the whole split in one pass, keyed by
    (sentence, key); a key's class is its third item."""
    if len(gold_items) != len(pred_items):
        raise ContractError(f"{len(gold_items)} gold vs {len(pred_items)} predicted sentences")
    gold = {(i, key_of(g)) for i, items in enumerate(gold_items) for g in items}
    pred = Counter((i, key_of(p)) for i, items in enumerate(pred_items) for p in items)
    report = EvalReport()
    for item, copies in pred.items():
        counts = report.per_class.setdefault(item[1][2], ClassCounts())
        if item in gold:
            counts.tp += 1
            counts.fp += copies - 1  # duplicate copies are spurious
        else:
            counts.fp += copies
    for _, key in gold - pred.keys():
        report.per_class.setdefault(key[2], ClassCounts()).fn += 1
    report.micro = ClassCounts(
        tp=sum(c.tp for c in report.per_class.values()),
        fp=sum(c.fp for c in report.per_class.values()),
        fn=sum(c.fn for c in report.per_class.values()),
    )
    return report


def entity_prf(
    gold: Sequence[Sequence[EntitySpan]], pred: Sequence[Sequence[EntitySpan]]
) -> EvalReport:
    """Micro-averaged exact-match entity scores, with per-class breakdown."""
    return _count_exact_match(gold, pred, key_of=lambda s: (s.start, s.end, s.cls))


def resolve_relations(
    spans: Sequence[EntitySpan], relations: Sequence[RelationInstance]
) -> list[RelationTriple]:
    """Replace span-list indices with (start, end, cls) triples for comparison."""
    out = []
    for rel in relations:
        if rel.label == NO_RELATION:
            continue
        head, tail = spans[rel.head], spans[rel.tail]
        out.append(
            ((head.start, head.end, head.cls), (tail.start, tail.end, tail.cls), rel.label)
        )
    return out


def relation_prf(
    gold: Sequence[Sequence[RelationTriple]], pred: Sequence[Sequence[RelationTriple]]
) -> EvalReport:
    """Exact-match relation scores; per-class buckets keyed by relation label."""
    return _count_exact_match(gold, pred, key_of=lambda triple: triple)


def token_accuracy(
    gold_tags: Sequence[Sequence[int]], pred_tags: Sequence[Sequence[int]]
) -> float:
    if len(gold_tags) != len(pred_tags):
        raise ContractError(f"{len(gold_tags)} gold vs {len(pred_tags)} predicted sentences")
    total = correct = 0
    for gold, pred in zip(gold_tags, pred_tags):
        if len(gold) != len(pred):
            raise ContractError(f"tag lengths differ: {len(gold)} vs {len(pred)}")
        total += len(gold)
        correct += sum(g == p for g, p in zip(gold, pred))
    return correct / total if total else 0.0


def report_markdown(rows: Sequence[tuple[str, EvalReport]]) -> str:
    """Method/Precision/Recall/F1 table over the micro scores."""
    lines = ["| Method | Precision | Recall | F1-Score |", "| --- | --- | --- | --- |"]
    for name, report in rows:
        micro = report.micro
        lines.append(
            f"| {name} | {micro.precision:.3f} | {micro.recall:.3f} | {micro.f1:.3f} |"
        )
    return "\n".join(lines) + "\n"
