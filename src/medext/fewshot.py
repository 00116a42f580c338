"""k-shot support sampling and the few-shot learning-curve experiment.

Support sets are built by a round-based greedy pass: round r gives every
class still below r+1 crediting sentences one seeded random pick from the
unused train sentences containing it, and a picked sentence credits every
class it contains.  Because a round's behavior never looks at the final
target k, the support set for k is always a prefix-subset of the support set
for any larger k under the same seed.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus
from .errors import ContractError, ValidationError
from .pipeline import evaluate_split
from .training import Checkpoint, TrainConfig, train

logger = logging.getLogger(__name__)


@dataclass
class Episode:
    support: list[int]  # sentence indices into the source corpus (train split only)
    k: int
    seed: int
    achieved: dict[str, int] = field(default_factory=dict)  # crediting sentences per class

    def feasible(self) -> bool:
        return all(count >= self.k for count in self.achieved.values())


@dataclass(frozen=True)
class CurveConfig:
    k_values: tuple[int, ...] = (1, 5, 10, 20, 50, 100)
    seeds_per_k: int = 5
    base: TrainConfig = TrainConfig()

    def __post_init__(self):
        ks = self.k_values  # strictly ascending, so only the first can be below 1
        if not ks or ks[0] < 1 or any(a >= b for a, b in zip(ks, ks[1:])):
            raise ContractError(f"k_values must be positive and strictly ascending, got {ks}")
        if self.seeds_per_k < 1:
            raise ContractError("seeds_per_k must be >= 1")


def sample_k_shot(corpus: Corpus, k: int, seed: int) -> Episode:
    """Greedy seeded support set giving each class >= k crediting sentences.

    Infeasible classes (train split exhausted) end up below k; the achieved
    counts are recorded on the episode rather than raising.
    """
    if k < 0:
        raise ContractError(f"k must be >= 0, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    classes = corpus.scheme.classes
    credit = {cls: 0 for cls in classes}
    unused = {}  # the scheme classes of each unused train sentence that holds one, in split order
    for i in corpus.split_indices("train"):
        held = {span.cls for span in corpus.sentences[i].spans if span.cls in credit}
        if held:
            unused[i] = held
    support: list[int] = []
    for round_index in range(k):
        if not unused:  # every candidate is used, so later rounds would pick nothing
            break
        for cls in classes:
            if credit[cls] > round_index:
                continue
            candidates = [i for i, held in unused.items() if cls in held]
            if not candidates:
                continue
            pick = candidates[int(rng.integers(len(candidates)))]
            support.append(pick)
            for other in unused.pop(pick):
                credit[other] += 1
    return Episode(support, k, seed, dict(credit))


@dataclass
class CurveRow:
    k: int
    seed: int
    precision: float
    recall: float
    f1: float


@dataclass
class CurveSummary:
    k: int
    median_f1: float
    min_f1: float
    max_f1: float


@dataclass
class CurveResult:
    rows: list[CurveRow]
    summary: list[CurveSummary]

    def median_f1(self, k: int) -> float:
        for row in self.summary:
            if row.k == k:
                return row.median_f1
        raise KeyError(k)


def run_curve(
    corpus: Corpus,
    config: CurveConfig,
    init: Checkpoint | None = None,
    encoder_config=None,
) -> CurveResult:
    """Train one model per (k, seed) and score entity F1 on the test split.

    Every run fine-tunes from ``init`` (normally the shared pretrained
    encoder checkpoint) on its episode's support sentences; the test split
    of the source corpus stays fixed throughout.  Without ``init`` a shared
    random-init model is built once from the full corpus, so episodes still
    share one vocabulary and starting point.
    """
    if init is None:
        init = train(corpus, replace(config.base, steps=0), encoder_config=encoder_config)
    rows: list[CurveRow] = []
    summary: list[CurveSummary] = []
    stride = max(31, config.seeds_per_k)  # each k's run seeds, one per rep, overlap no other k's
    for k in config.k_values:
        f1s = []
        for rep in range(config.seeds_per_k):
            episode_seed = config.base.seed * 100_003 + rep
            episode = sample_k_shot(corpus, k, episode_seed)
            if not episode.support:
                raise ValidationError(f"empty support set for k={k} (no train entities?)")
            if not episode.feasible():
                short = {cls: n for cls, n in episode.achieved.items() if n < k}
                logger.warning("k=%d seed %d: fewer than k support sentences for %s", k, rep, short)
            subcorpus = corpus.select(episode.support)
            run_config = replace(config.base, seed=config.base.seed * 911 + stride * k + rep)
            checkpoint = train(subcorpus, run_config, init=init)
            micro = evaluate_split(checkpoint.model, corpus, "test").entities.micro
            rows.append(CurveRow(k, rep, micro.precision, micro.recall, micro.f1))
            f1s.append(micro.f1)
        summary.append(CurveSummary(k, statistics.median(f1s), min(f1s), max(f1s)))
    return CurveResult(rows, summary)


def curve_csv(result: CurveResult) -> str:
    lines = ["k,seed,precision,recall,f1"]
    for row in result.rows:
        lines.append(f"{row.k},{row.seed},{row.precision:.6f},{row.recall:.6f},{row.f1:.6f}")
    return "\n".join(lines) + "\n"


def summary_csv(result: CurveResult) -> str:
    lines = ["k,median_f1,min_f1,max_f1"]
    for row in result.summary:
        lines.append(f"{row.k},{row.median_f1:.6f},{row.min_f1:.6f},{row.max_f1:.6f}")
    return "\n".join(lines) + "\n"
