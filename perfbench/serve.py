"""The ``serve-citations`` workload: the HTTP query service end to end.

An epoch starts ``python -m repro serve`` as a child process over a seed
CSV of citation mentions, with a state directory (default memory store,
fsync on every WAL append).  One closed-loop keep-alive client then
alternates 25 acknowledged ``/insert`` requests with one ``/query`` of
each kind: ``topk`` (sent twice on the same snapshot), ``rank``,
``threshold`` and ``interval``.  After the last chunk the server is
drained with SIGTERM and restarted once on the drained state directory.
A round runs one epoch on each of several datasets, because query cost
varies more between generated datasets than between runs on one; a run
is a whole number of rounds, so a faster host only adds samples.
"""

from __future__ import annotations

import csv
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from repro.cli import generic_levels, load_csv
from repro.core import (
    IncrementalTopK,
    pruned_dedup,
    thresholded_rank_query,
    topk_rank_query,
)
from repro.core.records import Record, RecordStore
from repro.datasets import generate_citations

from common import (
    K,
    THRESHOLD_OFFSET,
    WORLDS,
    Ledger,
    another_round,
    host_scale,
    median,
    reference_seconds,
)

FIELD = "author"
NGRAM_THRESHOLD = 0.6  # the serve verb's default
SEED_RECORDS = 1200
INSERTS = 100
CHUNK = 25
RESTARTS = 1
DATASETS = 6
START_TIMEOUT = 60.0
QUERY_KINDS = ("topk", "rank", "threshold", "interval")


class ServerProcess:
    """One ``repro serve`` child process and a keep-alive connection."""

    def __init__(self, work: str, state: str, seed_csv: str | None, metrics: bool):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--field", FIELD, "--weight-field", "weight",
            "--state-dir", state, "--port", "0",
        ]
        if seed_csv is not None:
            command += ["--input", seed_csv]
        if metrics:
            command.append("--metrics")
        self.stderr_path = os.path.join(work, "server.err")
        self._stderr = open(self.stderr_path, "w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        self.connection: http.client.HTTPConnection | None = None

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.connection = http.client.HTTPConnection(host, int(port), timeout=120)
        deadline = time.perf_counter() + START_TIMEOUT
        while True:
            try:
                status, _ = self.request("GET", "/readyz")
            except (ConnectionError, http.client.HTTPException):
                self._reconnect()
                status = 0
            if status == 200:
                return
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never became ready")
            time.sleep(0.005)

    def _reconnect(self) -> None:
        self.connection.close()
        time.sleep(0.01)

    def request(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        raw = response.read()
        if "json" in response.getheader("Content-Type", ""):
            return response.status, json.loads(raw)
        return response.status, raw.decode()

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def drain(self) -> tuple[int, str]:
        """SIGTERM, wait for the drain; return (exit code, stderr)."""
        if self.connection is not None:
            self.connection.close()
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=START_TIMEOUT)
        finally:
            self.stop()
        with open(self.stderr_path) as handle:
            return code, handle.read()

    def stop(self) -> None:
        """Kill the child if it is still running, and reap it."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


class Inputs:
    """Seed CSV rows and the insert stream, all from the run's seed."""

    def __init__(self, seed: int):
        dataset = generate_citations(n_records=SEED_RECORDS + INSERTS, seed=seed)
        mentions = [(r[FIELD], r.weight) for r in dataset.store]
        self.seed_rows = mentions[:SEED_RECORDS]
        self.inserts = mentions[SEED_RECORDS:]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([FIELD, "weight"])
            for author, weight in self.seed_rows:
                writer.writerow([author, repr(weight)])


class Epoch:
    """Client-side samples and final answers of one epoch."""

    def __init__(self) -> None:
        self.setup = 0.0
        self.samples: dict[str, list[float]] = {kind: [] for kind in QUERY_KINDS}
        self.raw: dict[str, list[float]] = {kind: [] for kind in QUERY_KINDS}
        self.insert_rates: list[float] = []
        self.restarts: list[float] = []
        self.final: dict[str, dict] = {}
        self.acked = 0
        self.rss = 0.0
        self.scrape: dict[str, float] = {}
        self.stats: dict = {}
        self.checkpoints = 0


def query_body(kind: str, threshold: float) -> dict:
    if kind == "threshold":
        return {"kind": kind, "min_weight": threshold}
    if kind == "interval":
        return {"kind": kind, "k": K, "worlds": WORLDS}
    return {"kind": kind, "k": K}


def ask(server: ServerProcess, kind: str, threshold: float, ledger: Ledger):
    """One timed query; returns (seconds, body) or (None, None) on failure."""
    ledger.attempt(kind)
    start = time.perf_counter()
    status, body = server.request("POST", "/query", query_body(kind, threshold))
    elapsed = time.perf_counter() - start
    if status != 200:
        ledger.fail(kind, f"HTTP {status}: {body}")
        return None, None
    if body.get("degraded"):
        ledger.fail(kind, f"degraded answer ({body.get('degraded_reason')})")
        return None, None
    return elapsed, body


def run_epoch(
    inputs: Inputs, work: str, threshold: float, traced: bool, ledger: Ledger
) -> Epoch:
    epoch = Epoch()
    state = os.path.join(work, "state")
    shutil.rmtree(state, ignore_errors=True)
    seed_csv = os.path.join(work, "seed.csv")
    ledger.attempt("start")
    before = reference_seconds()
    start = time.perf_counter()
    inputs.write_csv(seed_csv)
    server = ServerProcess(work, state, seed_csv, traced)
    try:
        server.wait_ready()
        epoch.setup = time.perf_counter() - start
        epoch.setup *= host_scale([before, reference_seconds()])
        for offset in range(0, len(inputs.inserts), CHUNK):
            chunk = inputs.inserts[offset:offset + CHUNK]
            ledger.attempt("insert", len(chunk))
            start = time.perf_counter()
            for author, weight in chunk:
                status, body = server.request(
                    "POST", "/insert", {"fields": {FIELD: author}, "weight": weight}
                )
                if status == 200 and not body.get("quarantined"):
                    epoch.acked += 1
                else:
                    ledger.fail("insert", f"HTTP {status}: {body}")
            epoch.insert_rates.append(len(chunk) / (time.perf_counter() - start))
            generations = []
            references = []
            measured = []
            for kind in ("topk", "topk") + QUERY_KINDS[1:]:
                references.append(reference_seconds())
                elapsed, body = ask(server, kind, threshold, ledger)
                if body is None:
                    continue
                measured.append((kind, elapsed))
                epoch.final[kind] = body
                if kind == "topk":
                    generations.append(body["generation"])
            scale = host_scale(references)
            for kind, elapsed in measured:
                epoch.raw[kind].append(elapsed)
                epoch.samples[kind].append(elapsed * scale)
            ledger.check(
                "topk", len(set(generations)) <= 1,
                "the repeated topk saw two snapshots",
            )
        epoch.rss = server.vm_hwm_mb()
        if traced:
            _, text = server.request("GET", "/metrics")
            epoch.scrape = parse_prometheus(text)
            _, epoch.stats = server.request("GET", "/stats")
        ledger.attempt("drain")
        code, stderr = server.drain()
        ledger.check("drain", code == 0 and "drained:" in stderr, f"exit {code}")
        epoch.checkpoints += '"checkpointed": true' in stderr
    finally:
        server.stop()
    for _ in range(RESTARTS):
        ledger.attempt("restart")
        before = reference_seconds()
        start = time.perf_counter()
        server = ServerProcess(work, state, None, False)
        try:
            server.wait_ready()
            elapsed = time.perf_counter() - start
            epoch.restarts.append(elapsed * host_scale([before, reference_seconds()]))
            for kind in ("topk", "rank", "threshold"):
                _, body = ask(server, kind, threshold, ledger)
                if body is None:
                    continue
                ledger.check(
                    "restart",
                    body["entries_applied"] == SEED_RECORDS + epoch.acked,
                    f"entries_applied {body['entries_applied']} after restart",
                )
                ledger.check(
                    "restart", answer_of(kind, body) == answer_of(kind, epoch.final.get(kind)),
                    f"{kind} answer changed across the restart",
                )
            code, stderr = server.drain()
            ledger.check("restart", code == 0 and "drained:" in stderr, f"exit {code}")
            epoch.checkpoints += '"checkpointed": true' in stderr
        finally:
            server.stop()
    return epoch


def answer_of(kind: str, body: dict | None):
    """The part of a response that must equal the in-process answer."""
    if body is None:
        return None
    if kind == "topk":
        return [
            (g["weight"], g["size"], g["representative_id"]) for g in body["groups"]
        ]
    if kind == "interval":
        return [
            (e["count_lo"], e["count_hi"], e["expected_count"],
             e["membership_probability"], e["representative_id"])
            for e in body["entities"]
        ]
    ranking = [
        (e["weight"], e["upper_bound"], e["resolved"], e["representative_id"])
        for e in body["ranking"]
    ]
    if kind == "threshold":
        return ranking, body["certain"]
    return ranking


# -- answer checks (outside every timed region) ------------------------------


def final_store(work: str, inputs: Inputs, acked: int) -> RecordStore:
    """The records the server holds: the seed CSV then every acked insert."""
    seed = load_csv(os.path.join(work, "seed.csv"), FIELD, "weight")
    records = list(seed)
    for author, weight in inputs.inserts[:acked]:
        records.append(Record(len(records), {FIELD: author}, weight))
    return RecordStore(records)


def reference(store: RecordStore, threshold: float):
    levels = generic_levels(FIELD, NGRAM_THRESHOLD)
    pruning = pruned_dedup(store, K, levels)
    groups = sorted(pruning.groups.groups, key=lambda g: (-g.weight, g.representative_id))
    rank = topk_rank_query(store, K, levels)
    thresh = thresholded_rank_query(store, threshold, levels)
    return pruning, {
        "topk": [(g.weight, len(g.member_ids), g.representative_id) for g in groups[:K]],
        "rank": [
            (e.weight, e.upper_bound, e.resolved, e.representative_id)
            for e in rank.ranking[:K]
        ],
        "threshold": (
            [
                (e.weight, e.upper_bound, e.resolved, e.representative_id)
                for e in thresh.ranking
            ],
            thresh.certain,
        ),
    }


def check_epoch(epoch: Epoch, expected: dict, ledger: Ledger) -> None:
    for kind, want in expected.items():
        got = answer_of(kind, epoch.final.get(kind))
        ledger.check(kind, got == want, f"{kind} differs from the in-process answer")
    interval = epoch.final.get("interval")
    if interval is None:
        return
    tol = 1e-9
    ok = bool(interval["entities"])
    for e in interval["entities"]:
        ok &= e["count_lo"] * (1 - tol) <= e["expected_count"] <= e["count_hi"] * (1 + tol)
        ok &= -tol <= e["membership_probability"] <= 1 + tol
    ledger.check("interval", ok, "interval bounds or masses out of range")


def seed_threshold(inputs: Inputs, work: str) -> float:
    """T for the threshold query: just below the K-th heaviest closure
    group of the seed records (see ``common.THRESHOLD_OFFSET``), so the
    answer is a handful of groups on every seed."""
    inputs.write_csv(os.path.join(work, "seed.csv"))
    store = load_csv(os.path.join(work, "seed.csv"), FIELD, "weight")
    pruning = topk_rank_query(store, K, generic_levels(FIELD, NGRAM_THRESHOLD))
    return pruning.ranking[K - 1].weight - THRESHOLD_OFFSET


# -- the two run modes ---------------------------------------------------------


def work_dir() -> str:
    path = os.path.join(os.getcwd(), ".perfbench_work", f"serve-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def epochs(seed: int, seconds: float, traced: bool, ledger: Ledger):
    """Run rounds of one epoch per dataset; check every epoch's answers.

    Returns the epochs grouped by dataset, plus the traced run's storage
    and reference-pipeline figures.
    """
    root = work_dir()
    try:
        datasets = []
        for index in range(DATASETS):
            work = os.path.join(root, f"data-{index}")
            os.makedirs(work)
            inputs = Inputs(seed * 64 + index)
            datasets.append((work, inputs, seed_threshold(inputs, work)))
        done: list[list[Epoch]] = [[] for _ in datasets]
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for (work, inputs, threshold), epochs_ in zip(datasets, done):
                epochs_.append(run_epoch(inputs, work, threshold, traced, ledger))
            if not another_round(start, round_start, seconds):
                break
        extra: dict[str, list[float]] = {}
        for (work, inputs, threshold), epochs_ in zip(datasets, done):
            store = final_store(work, inputs, epochs_[0].acked)
            pruning, expected = reference(store, threshold)
            for epoch in epochs_:
                ledger.check(
                    "insert", epoch.acked == len(inputs.inserts),
                    f"{epoch.acked} of {len(inputs.inserts)} inserts acked",
                )
                check_epoch(epoch, expected, ledger)
            if traced:
                figures = storage_figures(work, inputs, epochs_[-1].acked)
                figures["core.groups_after_collapse"] = float(
                    pruning.stats[0].n_groups_after_collapse
                )
                figures["core.groups_retained"] = float(len(pruning.groups))
                for key, value in figures.items():
                    extra.setdefault(key, []).append(value)
        return done, {key: median(values) for key, values in extra.items()}
    finally:
        shutil.rmtree(root, ignore_errors=True)
        parent = os.path.dirname(root)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def run_untraced(name: str, seed: int, seconds: float, ledger: Ledger):
    """Each timing is the mean over datasets of that dataset's median."""
    done, _ = epochs(seed, seconds, False, ledger)
    flat = [e for epochs_ in done for e in epochs_]
    metrics = {
        "setup_s": (median([e.setup for e in flat]), "s"),
        "peak_rss_mb": (median([e.rss for e in flat]), "MiB"),
    }
    counts = {"setup_s": len(flat)}
    for kind in QUERY_KINDS:
        measured = median([s for e in flat for s in e.raw[kind]])
        print(f"measured {kind}_s = {measured:.6g} s before host scaling")
        per_dataset = [
            median([s for e in epochs_ for s in e.samples[kind]])
            for epochs_ in done
        ]
        metrics[f"{kind}_s"] = (sum(per_dataset) / len(per_dataset), "s")
        counts[f"{kind}_s"] = sum(len(e.samples[kind]) for e in flat)
    return metrics, counts


def storage_figures(work: str, inputs: Inputs, acked: int) -> dict[str, float]:
    """Time an in-process restore of a copy of the drained state."""
    state = os.path.join(work, "state")
    copy = os.path.join(work, "restore-copy")
    shutil.copytree(state, copy)
    state_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(state) for name in names
    )
    user_bytes = os.path.getsize(os.path.join(work, "seed.csv")) + sum(
        len(json.dumps({"fields": {FIELD: a}, "weight": w}))
        for a, w in inputs.inserts[:acked]
    )
    start = time.perf_counter()
    engine = IncrementalTopK.restore(copy, generic_levels(FIELD, NGRAM_THRESHOLD))
    restore_s = time.perf_counter() - start
    replayed = engine.last_recovery.entries_replayed
    engine.close()
    return {
        "storage.restore_s": restore_s,
        "storage.replayed_entries": float(replayed),
        "storage.state_bytes_per_user_byte": state_bytes / user_bytes,
    }


def parse_prometheus(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    return values


def per_verb(scrape: dict[str, float], verb: str) -> float:
    total = scrape.get(f'repro_request_seconds_sum{{verb="{verb}"}}', 0.0)
    count = scrape.get(f'repro_request_seconds_count{{verb="{verb}"}}', 0.0)
    return total / count if count else 0.0


def run_traced(name: str, seed: int, seconds: float, ledger: Ledger, layer_names):
    done, figures = epochs(seed, seconds, True, ledger)
    done = [e for epochs_ in done for e in epochs_]
    values: dict[str, list[float]] = {}

    def add(key: str, value: float) -> None:
        values.setdefault(key, []).append(value)

    for e in done:
        scrape = e.scrape
        queries = sum(
            scrape.get(f'repro_request_seconds_count{{verb="{kind}"}}', 0.0)
            for kind in QUERY_KINDS
        )
        for verb in QUERY_KINDS + ("insert",):
            add(f"server.request_s.{verb}", per_verb(scrape, verb))
        client = sum(sum(e.raw[kind]) for kind in QUERY_KINDS)
        service = sum(
            scrape.get(f'repro_request_seconds_sum{{verb="{kind}"}}', 0.0)
            for kind in QUERY_KINDS
        )
        n_client = sum(len(e.raw[kind]) for kind in QUERY_KINDS)
        add("server.http_overhead_s", (client - service) / n_client if n_client else 0.0)
        add("server.snapshots_published", float(e.stats.get("epoch", 0)))
        add("server.insert_rps", median(e.insert_rates))
        appends = scrape.get("repro_wal_appends_total", 0.0)
        fsyncs = scrape.get("repro_wal_fsync_seconds_count", 0.0)
        add("persistence.fsync_s", scrape.get("repro_wal_fsync_seconds_sum", 0.0) / fsyncs if fsyncs else 0.0)
        add("persistence.wal_bytes_per_insert", scrape.get("repro_wal_bytes_total", 0.0) / appends if appends else 0.0)
        add("persistence.checkpoints_written", float(e.checkpoints))
        add("storage.restart_s", median(e.restarts))
        for stage in ("collapse", "lower_bound", "prune"):
            seconds_ = scrape.get(f'repro_stage_seconds_total{{stage="{stage}"}}', 0.0)
            add(f"core.{stage}_s", seconds_ / queries if queries else 0.0)
        hits = scrape.get("repro_pipeline_cache_hits_total", 0.0)
        evaluations = scrape.get("repro_pipeline_predicate_evaluations_total", 0.0)
        signatures = scrape.get("repro_pipeline_signature_evaluations_total", 0.0)
        add("predicates.evaluations", evaluations / queries if queries else 0.0)
        add("predicates.signature_evaluations", signatures / queries if queries else 0.0)
        add(
            "predicates.neighbor_queries",
            scrape.get("repro_pipeline_neighbor_queries_total", 0.0) / queries if queries else 0.0,
        )
        total = hits + evaluations + signatures
        add("predicates.cache_hit_ratio", hits / total if total else 0.0)
    result = {key: median(series) for key, series in values.items()}
    result.update(figures)
    return {key: result.get(key, 0.0) for key in layer_names}
