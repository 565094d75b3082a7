"""The in-process workloads: ``batch-citations`` and ``dedup-addresses``.

Both build several independent synthetic datasets from the run's seed,
then time rounds of one-shot queries through the library's public query
functions.  Every query gets a fresh ``VerificationContext`` and a
fresh ``CachedScorer`` so it pays its own predicate and P work, the way
a one-shot query does.  A round visits every dataset and, per dataset,
every operation kind in turn.  One sample of a kind is its mean time
over the datasets of one round, so a single outlier dataset moves every
round alike and the run's median stays put.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.baselines import full_dedup_pipeline
from repro.core import (
    VerificationContext,
    group_fingerprint,
    group_score_matrix,
    pruned_dedup,
    thresholded_rank_query,
    topk_count_query,
    topk_rank_query,
)
from repro.embedding.greedy import greedy_embedding
from repro.embedding.segmentation import auto_max_span, best_partition
from repro.experiments.harness import Pipeline, address_pipeline, citation_pipeline
from repro.observability import MetricsRegistry, Tracer
from repro.uncertainty.intervals import aggregate_worlds
from repro.uncertainty.query import topk_interval_query
from repro.uncertainty.worlds import enumerate_worlds, world_masses

from common import (
    K,
    THRESHOLD_OFFSET,
    WORLDS,
    Ledger,
    host_scale,
    another_round,
    median,
    peak_rss_mb,
    reference_seconds,
    self_seconds,
    self_time_by_name,
    timed,
    walk,
)


@dataclass(frozen=True)
class Spec:
    """One in-process workload: which data, how much, which count query."""

    build: Callable[..., Pipeline]
    n_records: int
    datasets: int
    #: True: the count query is ``topk_count_query`` with the trained P
    #: (Sections 4 and 5).  False: it is ``pruned_dedup`` (Section 4).
    scored_topk: bool


SPECS = {
    "batch-citations": Spec(citation_pipeline, 800, 24, scored_topk=True),
    "dedup-addresses": Spec(address_pipeline, 1500, 12, scored_topk=False),
}

KINDS = ("topk", "rank", "threshold", "interval")

#: Per-layer figures have no bound, so the traced run, which adds the
#: R=5 query and the stage-by-stage decomposition, visits fewer datasets.
TRACED_DATASETS = 8


@dataclass
class Dataset:
    """One generated input plus the oracle facts its checks need."""

    pipeline: Pipeline
    closure: dict[frozenset, float] = field(default_factory=dict)
    threshold: float = 0.0
    first: dict[str, object] = field(default_factory=dict)
    prints: dict[str, object] = field(default_factory=dict)


def build_datasets(
    spec: Spec, seed: int, count: int | None = None
) -> tuple[list[Dataset], list[float]]:
    """Generate *count* (default: all) datasets and train each P; time
    each build.  Returns the datasets and each build's time on the
    nominal host.
    """
    datasets: list[Dataset] = []
    setup: list[float] = []
    for index in range(spec.datasets if count is None else count):
        data_seed = seed * 64 + index
        before = reference_seconds()
        seconds, pipeline = timed(
            lambda: spec.build(
                n_records=spec.n_records, seed=data_seed, with_scorer=True
            )
        )
        setup.append(seconds * host_scale([before, reference_seconds()]))
        datasets.append(Dataset(pipeline=pipeline))
    for dataset in datasets:
        pipeline = dataset.pipeline
        outcome = full_dedup_pipeline(pipeline.store, K, pipeline.levels)
        dataset.closure = {
            frozenset(group.member_ids): group.weight
            for group in outcome.groups.groups
        }
        dataset.threshold = kth_weight(dataset.closure) - THRESHOLD_OFFSET
    return datasets, setup


def kth_weight(closure: dict[frozenset, float]) -> float:
    weights = sorted(closure.values(), reverse=True)
    return weights[min(K, len(weights)) - 1]


# -- operations ------------------------------------------------------------


def run_topk(spec: Spec, d: Dataset, context=None, workers=None, r: int = 1):
    p = d.pipeline
    context = context if context is not None else VerificationContext()
    if spec.scored_topk or r > 1:
        return topk_count_query(
            p.store, K, p.levels, p.scorer.fresh(), r=r,
            context=context, workers=workers,
        )
    return pruned_dedup(p.store, K, p.levels, context=context, workers=workers)


def run_rank(d: Dataset, context=None):
    p = d.pipeline
    return topk_rank_query(
        p.store, K, p.levels,
        context=context if context is not None else VerificationContext(),
    )


def run_threshold(d: Dataset, context=None):
    p = d.pipeline
    return thresholded_rank_query(
        p.store, d.threshold, p.levels,
        context=context if context is not None else VerificationContext(),
    )


def run_interval(d: Dataset, context=None):
    p = d.pipeline
    return topk_interval_query(
        p.store, K, p.levels, p.scorer.fresh(), r=WORLDS,
        context=context if context is not None else VerificationContext(),
    )


def fingerprint(kind: str, result) -> object:
    """A hashable identity of an answer, to prove rounds agree."""
    if kind in ("topk", "topk_r5"):
        if hasattr(result, "answers"):
            return tuple(
                tuple((e.record_ids, e.weight) for e in a.entities)
                + ((a.score, a.probability),)
                for a in result.answers
            )
        return group_fingerprint(result.groups)
    if kind in ("rank", "threshold"):
        return tuple(result.ranking), group_fingerprint(result.groups)
    return tuple(
        (e.record_ids, e.count_lo, e.count_hi, e.expected_count,
         e.membership_probability, e.slot_probabilities)
        for e in result.entities
    )


# -- answer checks (outside every timed region) ------------------------------


def check_topk(spec: Spec, d: Dataset, result, ledger: Ledger) -> None:
    store = d.pipeline.store
    bar = kth_weight(d.closure)
    if spec.scored_topk:
        ledger.check("topk", not result.degraded, "degraded answer")
        oracle = full_dedup_pipeline(
            store, K, d.pipeline.levels, d.pipeline.scorer.fresh()
        )
        clusters = [frozenset(g.member_ids) for g in oracle.groups.groups]
        home = {}
        for index, members in enumerate(clusters):
            for member in members:
                home[member] = index
        entities = [
            (frozenset(e.record_ids), e.weight) for e in result.best.entities
        ]
        pruned = result.pruning.groups
    else:
        ledger.check("topk", not result.degraded, "degraded answer")
        home = None
        pruned = result.groups
        entities = [
            (frozenset(g.member_ids), g.weight) for g in pruned.groups[:K]
        ]
    ledger.check("topk", len(entities) == K, f"{len(entities)} entities")
    seen: set[int] = set()
    for members, weight in entities:
        if home is not None:
            ledger.check(
                "topk",
                len({home[m] for m in members}) == 1,
                "entity straddles oracle P-clusters",
            )
        raw = math.fsum(store[m].weight for m in members)
        ledger.check(
            "topk", math.isclose(weight, raw, rel_tol=1e-9),
            f"entity weight {weight} != raw sum {raw}",
        )
        ledger.check("topk", not (members & seen), "entities overlap")
        seen |= members
    retained = {frozenset(g.member_ids) for g in pruned.groups}
    for members, weight in d.closure.items():
        if weight >= bar:
            ledger.check(
                "topk", members in retained,
                f"pruning lost a weight-{weight} closure group",
            )


def check_rank(d: Dataset, result, ledger: Ledger) -> None:
    ledger.check("rank", not result.degraded, "degraded answer")
    retained = {frozenset(g.member_ids): g.weight for g in result.groups.groups}
    for members in retained:
        ledger.check(
            "rank", any(members <= o for o in d.closure),
            "group outside every closure group",
        )
    by_rep = {g.representative_id: g for g in result.groups.groups}
    oracle = sorted(d.closure.values(), reverse=True)[:K]
    top = result.ranking[:K]
    ledger.check(
        "rank", [entry.weight for entry in top] == oracle,
        "ranking weights differ from the oracle's K heaviest groups",
    )
    for entry in top:
        group = by_rep.get(entry.representative_id)
        members = frozenset(group.member_ids) if group is not None else None
        ledger.check(
            "rank", d.closure.get(members) == entry.weight,
            "a ranked group is not an oracle closure group",
        )


def check_threshold(d: Dataset, result, ledger: Ledger) -> None:
    ledger.check("threshold", not result.degraded, "degraded answer")
    retained = {frozenset(g.member_ids): g.weight for g in result.groups.groups}
    for members in retained:
        ledger.check(
            "threshold", any(members <= o for o in d.closure),
            "group outside every closure group",
        )
    got = {m: w for m, w in retained.items() if w >= d.threshold}
    want = {m: w for m, w in d.closure.items() if w >= d.threshold}
    ledger.check("threshold", got == want, "answer differs from the oracle")


def check_interval(d: Dataset, result, ledger: Ledger) -> None:
    store = d.pipeline.store
    ledger.check("interval", not result.degraded, "degraded answer")
    ledger.check("interval", bool(result.entities), "no entities")
    slots = [0.0] * K
    tol = 1e-9
    for e in result.entities:
        raw = math.fsum(store[m].weight for m in e.record_ids)
        ledger.check(
            "interval",
            e.count_lo - tol * e.count_hi <= e.expected_count
            <= e.count_hi * (1 + tol),
            f"expected {e.expected_count} outside [{e.count_lo}, {e.count_hi}]",
        )
        ledger.check(
            "interval", e.count_lo >= raw * (1 - tol),
            f"count_lo {e.count_lo} below raw weight {raw}",
        )
        ledger.check(
            "interval", -tol <= e.membership_probability <= 1 + tol,
            "membership outside [0, 1]",
        )
        for slot, mass in enumerate(e.slot_probabilities):
            ledger.check("interval", -tol <= mass <= 1 + tol, "slot mass outside [0, 1]")
            slots[slot] += mass
    ledger.check(
        "interval", all(total <= 1 + 1e-9 for total in slots),
        "a slot's masses sum above 1",
    )


def check_r5(result, ledger: Ledger) -> None:
    answers = result.answers
    ledger.check("topk_r5", not result.degraded, "degraded answer")
    ledger.check("topk_r5", 1 <= len(answers) <= 5, f"{len(answers)} answers")
    keys = set()
    for answer in answers:
        members = [frozenset(e.record_ids) for e in answer.entities]
        ledger.check("topk_r5", len(members) == K, f"{len(members)} entities")
        union = frozenset().union(*members) if members else frozenset()
        ledger.check(
            "topk_r5", len(union) == sum(len(m) for m in members),
            "entities overlap",
        )
        ledger.check(
            "topk_r5", 0.0 <= answer.probability <= 1.0,
            "probability outside [0, 1]",
        )
        keys.add(frozenset(members))
    ledger.check("topk_r5", len(keys) == len(answers), "answers repeat")
    scores = [a.score for a in answers]
    ledger.check(
        "topk_r5", all(a >= b for a, b in zip(scores, scores[1:])),
        "scores increase",
    )
    ledger.check(
        "topk_r5", math.fsum(a.probability for a in answers) <= 1 + 1e-9,
        "probabilities sum above 1",
    )


CHECKS = {
    "rank": check_rank,
    "threshold": check_threshold,
    "interval": check_interval,
}


# -- the untraced run ----------------------------------------------------------


def operation(spec: Spec, kind: str, d: Dataset):
    if kind == "topk":
        return lambda: run_topk(spec, d)
    if kind == "rank":
        return lambda: run_rank(d)
    if kind == "threshold":
        return lambda: run_threshold(d)
    return lambda: run_interval(d)


def record(kind: str, d: Dataset, result, ledger: Ledger) -> None:
    """Keep the first answer for checking; later ones must match it."""
    print_ = fingerprint(kind, result)
    if kind not in d.first:
        d.first[kind] = result
        d.prints[kind] = print_
    else:
        ledger.check(kind, print_ == d.prints[kind], "answer changed between rounds")


def run_untraced(name: str, seed: int, seconds: float, ledger: Ledger):
    spec = SPECS[name]
    datasets, setup = build_datasets(spec, seed)
    # Warm-up: one query of each kind on the first dataset, discarded.
    for kind in KINDS:
        operation(spec, kind, datasets[0])()
    samples: dict[str, list[float]] = {kind: [] for kind in KINDS}
    raw: dict[str, list[float]] = {kind: [] for kind in KINDS}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_total = {kind: 0.0 for kind in KINDS}
        references = []
        for d in datasets:
            for kind in KINDS:
                references.append(reference_seconds())
                ledger.attempt(kind)
                try:
                    elapsed, result = timed(operation(spec, kind, d))
                except Exception as exc:  # counted, reported, run continues
                    ledger.fail(kind, repr(exc))
                    continue
                round_total[kind] += elapsed
                record(kind, d, result, ledger)
        scale = host_scale(references)
        for kind in KINDS:
            raw[kind].append(round_total[kind] / len(datasets))
            samples[kind].append(raw[kind][-1] * scale)
        if not another_round(start, round_start, seconds):
            break
    rss = peak_rss_mb()
    for kind in KINDS:
        print(f"measured {kind}_s = {median(raw[kind]):.6g} s before host scaling")
    for d in datasets:
        if "topk" in d.first:
            check_topk(spec, d, d.first["topk"], ledger)
        for kind, check in CHECKS.items():
            if kind in d.first:
                check(d, d.first[kind], ledger)
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "topk_s": (median(samples["topk"]), "s"),
        "rank_s": (median(samples["rank"]), "s"),
        "threshold_s": (median(samples["threshold"]), "s"),
        "interval_s": (median(samples["interval"]), "s"),
    }
    counts = {
        "setup_s": len(setup),
        **{f"{kind}_s": len(samples[kind]) for kind in KINDS},
    }
    return metrics, counts


# -- the traced run ------------------------------------------------------------


def traced_context():
    return VerificationContext(tracer=Tracer(), metrics=MetricsRegistry())


def decompose(d: Dataset, reference, ledger: Ledger) -> dict[str, float]:
    """Run the R=1 query stage by stage, timing each public call.

    pruned_dedup -> group_score_matrix -> greedy_embedding ->
    best_partition must give ``topk_count_query``'s answer exactly; the
    same scores then feed enumerate_worlds -> aggregate_worlds.
    """
    p = d.pipeline
    pruning = pruned_dedup(p.store, K, p.levels, context=VerificationContext())
    groups = pruning.groups
    scorer = p.scorer.fresh()
    score_s, scores = timed(
        lambda: group_score_matrix(groups, scorer, p.levels[-1].necessary)
    )
    greedy_s, embedding = timed(lambda: greedy_embedding(scores))
    max_span = auto_max_span(scores)
    dp_s, partition = timed(
        lambda: best_partition(scores, embedding, max_span=max_span)
    )
    weights = groups.weights()
    ranked = sorted(
        (
            (tuple(sorted(members)), sum(weights[m] for m in members))
            for members in partition
        ),
        key=lambda g: (-g[1], g[0]),
    )[:K]
    decomposed = []
    for positions, _ in ranked:
        ids: list[int] = []
        weight = 0.0
        for position in positions:
            ids.extend(groups[position].member_ids)
            weight += groups[position].weight
        decomposed.append((tuple(sorted(ids)), weight))
    expected = [(e.record_ids, e.weight) for e in reference.best.entities]
    ledger.check(
        "decomposed", decomposed == expected,
        "stage-by-stage answer differs from topk_count_query",
    )
    worlds_s, worlds = timed(
        lambda: enumerate_worlds(
            scores, embedding, weights, K, WORLDS, max_span=max_span
        )
    )
    masses, _ = world_masses(worlds)
    aggregate_s, (aggregates, _) = timed(
        lambda: aggregate_worlds(worlds, masses, weights, K)
    )
    return {
        "scoring.score_matrix_s": score_s,
        "scoring.pairs_scored": float(scorer.n_evaluations),
        "embedding.greedy_s": greedy_s,
        "embedding.segment_dp_s": dp_s,
        "embedding.max_span": float(max_span),
        "uncertainty.aggregate_s": aggregate_s,
    }


def count_query_layers(root, elapsed: float) -> dict[str, float]:
    """Per-layer figures of one traced count query's span tree."""
    selfs = self_time_by_name(root)
    delta = root.counters_delta
    hits = delta.cache_hits
    evaluations = delta.total_evaluations
    levels = [s for s in walk(root) if s.name == "level"]
    dedup = next(s for s in walk(root) if s.name == "pruned_dedup")
    glue = selfs.get("query", 0.0) + selfs.get("pruned_dedup", 0.0) + selfs.get("level", 0.0)
    return {
        "core.collapse_s": selfs.get("collapse", 0.0),
        "core.lower_bound_s": selfs.get("lower_bound", 0.0),
        "core.prune_s": selfs.get("prune", 0.0),
        "core.groups_after_collapse": float(levels[0].attributes["n_after_collapse"]),
        "core.groups_retained": float(dedup.attributes["n_groups"]),
        "predicates.evaluations": float(delta.predicate_evaluations),
        "predicates.signature_evaluations": float(delta.signature_evaluations),
        "predicates.neighbor_queries": float(delta.neighbor_queries),
        "predicates.cache_hit_ratio": hits / (hits + evaluations) if hits + evaluations else 0.0,
        "observability.span_coverage": 1.0 - glue / elapsed if elapsed > 0 else 0.0,
    }


def parallel_layers(context, root) -> dict[str, float]:
    neighbors = sum(
        self_seconds(s) for s in walk(root) if s.name == "neighbors"
    )
    shards = sum(1 for s in walk(root) if s.name == "shard")
    imbalance = context.metrics.histogram("repro_shard_imbalance_ratio").mean
    return {
        "parallel.neighbors_s": neighbors,
        "parallel.shards": float(shards),
        "parallel.shard_imbalance": imbalance,
    }


def run_traced(name: str, seed: int, seconds: float, ledger: Ledger, layer_names):
    spec = SPECS[name]
    datasets, _ = build_datasets(spec, seed, min(spec.datasets, TRACED_DATASETS))
    values: dict[str, list[float]] = {}
    plain_topk: list[float] = []
    traced_topk: list[float] = []

    def add(figures: dict[str, float]) -> None:
        for key, value in figures.items():
            values.setdefault(key, []).append(value)

    # Warm-up, discarded.
    run_topk(spec, datasets[0])
    run_interval(datasets[0])
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for d in datasets:
            ledger.attempt("topk")
            elapsed, plain = timed(lambda: run_topk(spec, d))
            plain_topk.append(elapsed)
            record("topk", d, plain, ledger)

            ledger.attempt("topk_traced")
            context = traced_context()
            elapsed, traced = timed(lambda: run_topk(spec, d, context=context))
            traced_topk.append(elapsed)
            ledger.check(
                "topk_traced",
                fingerprint("topk", traced) == d.prints["topk"],
                "traced answer differs from the untraced one",
            )
            add(count_query_layers(context.tracer.roots[0], elapsed))

            ledger.attempt("interval")
            context = traced_context()
            _, interval = timed(lambda: run_interval(d, context=context))
            record("interval", d, interval, ledger)
            add({
                "uncertainty.worlds_s": sum(
                    s.wall_seconds for s in walk(context.tracer.roots[0])
                    if s.name == "enumerate_worlds"
                ),
                "uncertainty.worlds_enumerated": float(interval.worlds_enumerated),
            })

            if spec.scored_topk:
                ledger.attempt("topk_r5")
                context = traced_context()
                elapsed, r5 = timed(lambda: run_topk(spec, d, context=context, r=5))
                record("topk_r5", d, r5, ledger)
                add({
                    "query.topk_r5_s": elapsed,
                    "embedding.segment_dp_r5_s": sum(
                        s.wall_seconds for s in walk(context.tracer.roots[0])
                        if s.name == "segment_dp"
                    ),
                })
                ledger.attempt("decomposed")
                add(decompose(d, plain, ledger))
            else:
                ledger.attempt("topk_w2")
                context = traced_context()
                elapsed, w2 = timed(lambda: run_topk(spec, d, context=context, workers=2))
                ledger.check(
                    "topk_w2",
                    group_fingerprint(w2.groups) == group_fingerprint(plain.groups)
                    and w2.groups.weights() == plain.groups.weights(),
                    "workers=2 answer differs from serial",
                )
                add({"parallel.topk_w2_s": elapsed})
                add(parallel_layers(context, context.tracer.roots[0]))
        if not another_round(start, round_start, seconds):
            break
    for d in datasets:
        check_topk(spec, d, d.first["topk"], ledger)
        check_interval(d, d.first["interval"], ledger)
        if "topk_r5" in d.first:
            check_r5(d.first["topk_r5"], ledger)
    figures = {key: median(series) for key, series in values.items()}
    figures["observability.trace_overhead_ratio"] = (
        median(traced_topk) / median(plain_topk)
    )
    return {key: figures.get(key, 0.0) for key in layer_names}
