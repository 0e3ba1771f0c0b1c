"""One measured pass of a perfbench workload, in a fresh interpreter.

``run.py`` starts this file once per pass, so the import time, the peak
RSS and the span trace of a pass belong to that pass alone::

    python3 perfbench/worker.py setup  --kind batch|stream|serve
    python3 perfbench/worker.py batch  --corpus DIR --seconds S --budget N|none [--trace]
    python3 perfbench/worker.py stream --corpus DIR --seed N --rate EPS [--trace]
    python3 perfbench/worker.py serve  --corpus DIR --seed N --rate EPS [--trace]

``DIR`` holds ``kb1.nt``, ``kb2.nt`` and ``gold.csv`` as written by
``repro synthesize``; the program under test only ever reads those
files.  The pass prints one JSON object as its last stdout line.

With ``--trace`` the pass records a span around every call into a
layer's public function.  The spans are taken from outside the program:
the pass replaces those functions with timing wrappers in this process
only, so the untraced passes run the program untouched.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "examples", "spec_movies.json")
#: sharded tier width of the serve workload
SERVE_SHARDS = 2
#: router queries re-checked against a single-store oracle
VERIFY_QUERIES = 40


def rss_mb() -> float:
    """High-water RSS of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_hwm_mb(pid: int) -> float:
    """High-water RSS of a live child process, in MiB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


#: seconds of host calibration before and after each timed batch
#: repetition or stream/serve segment
CALIBRATION_S = 0.25
#: segments a stream or serve pass is timed in, between calibrations
TIMED_SEGMENTS = 8


def calibration_s(seconds: float = CALIBRATION_S) -> float:
    """Median seconds of one round of a fixed pure-Python kernel shaped
    like the program's work (tokenize, inverted index, co-occurrence
    counts, Jaccard ranking) that calls nothing of the program, repeated
    for about *seconds*.

    The speed of a shared host drifts by a third over minutes.  Timed
    beside each repetition, the round shows how fast the host ran then,
    and ``run.py`` scales the repetition's time by it.
    """
    rng = random.Random(7)
    vocabulary = [f"tok{i}" for i in range(3000)]
    docs = [" ".join(rng.choice(vocabulary) for _ in range(12)) for _ in range(600)]
    times: list[float] = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        tokens = [set(doc.split()) for doc in docs]
        index: dict[str, list[int]] = {}
        for i, doc_tokens in enumerate(tokens):
            for token in doc_tokens:
                index.setdefault(token, []).append(i)
        common: dict[tuple[int, int], int] = {}
        for posting in index.values():
            for a in range(len(posting)):
                for b in range(a + 1, len(posting)):
                    key = (posting[a], posting[b])
                    common[key] = common.get(key, 0) + 1
        sorted((n / len(tokens[a] | tokens[b]), a, b) for (a, b), n in common.items())
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class SegmentClock:
    """Wall time of a pass timed in segments, each between two
    calibrations, so the host speed is sampled every second or so."""

    def __init__(self) -> None:
        self.host_before = calibration_s()
        self.run_s = self.calibrated = 0.0
        self.start = time.perf_counter()

    def lap(self) -> None:
        """End a segment: time it, calibrate, start the next one."""
        segment_s = time.perf_counter() - self.start
        host_after = calibration_s()
        self.run_s += segment_s
        self.calibrated += segment_s / ((self.host_before + host_after) / 2)
        self.host_before = host_after
        self.start = time.perf_counter()

    @property
    def host_s(self) -> float:
        """The calibration the whole pass ran at: run_s / host_s sums each
        segment over its own calibration."""
        return self.run_s / self.calibrated


class Spans:
    """In-memory span recorder for calls made at layer boundaries."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """*fn* with a span named *name* around every call.

        *count* maps the call's result to the span's output cardinality.
        """

        def traced(*args, **kwargs):
            index = len(self.records)
            record = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.records.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record["end"] = time.perf_counter()
                record["rss_mb"] = rss_mb()
            if count is not None:
                record["out"] = count(result)
            return result

        return traced

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def last(self, name: str, key: str, default=0):
        for record in reversed(self.records):
            if record["name"] == name:
                return record.get(key, default)
        return default

    def top_level_s(self) -> float:
        return sum(
            r["end"] - r["start"] for r in self.records if r["parent"] is None
        )


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def load_spec():
    from repro.api import PipelineSpec

    return PipelineSpec.load(SPEC_PATH)


def load_corpus(corpus: str, spans: Spans | None):
    from repro.rdf.loader import load_collection

    load = load_collection
    if spans is not None:
        load = spans.wrap("rdf.load", load_collection, count=len)
    kb1 = load(os.path.join(corpus, "kb1.nt"))
    kb2 = load(os.path.join(corpus, "kb2.nt"))
    return kb1, kb2


def triple_count(*collections) -> int:
    return sum(
        sum(1 for _ in description.pairs())
        for collection in collections
        for description in collection
    )


# -- program objects -------------------------------------------------------


def build(kind: str, spec):
    """The program object a workload drives, configured from *spec*."""
    if kind == "batch":
        from repro.api import Pipeline

        return Pipeline(spec)
    threshold = spec.matching.matcher.params["threshold"]
    blocker = spec.blocking.blocker.build("blocker")
    if kind == "stream":
        from repro.stream import StreamResolver

        return StreamResolver(blocker=blocker, clean_clean=True, threshold=threshold)
    from repro.serving import Router

    return Router(
        SERVE_SHARDS, blocker=blocker, threshold=threshold,
        scheme=spec.weighting.name, pruner=spec.pruning.name,
    )


def cmd_setup(args) -> dict:
    """Import ``repro`` and build the workload's program object, once."""
    program = build(args.kind, load_spec())
    setup_s = time.perf_counter() - T_START
    if args.kind == "serve":
        program.close()
    return {"setup_s": setup_s, "host_s": calibration_s()}


# -- batch ----------------------------------------------------------------


def independent_quality(processed, matched, gold) -> dict:
    """PC and P/R/F1 recomputed here, independently of ``repro.evaluation``."""
    blocks_of: dict[str, set[int]] = {}
    for index, block in enumerate(processed):
        for uri in block.entities():
            blocks_of.setdefault(uri, set()).add(index)
    empty: set[int] = set()
    covered = sum(
        1 for a, b in gold.matches if blocks_of.get(a, empty) & blocks_of.get(b, empty)
    )
    tp = len(matched & gold.matches)
    precision = tp / len(matched) if matched else 0.0
    recall = tp / len(gold.matches) if gold.matches else 0.0
    return {
        "pc": covered / len(gold.matches) if gold.matches else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall) if precision + recall else 0.0,
    }


def install_batch_spans(spans: Spans, pipeline) -> None:
    """Span every layer call the batch path makes (this process only)."""
    import repro.api.runner as runner
    from repro.metablocking.graph import BlockingGraph

    pipeline.blocker.build = spans.wrap(
        "blocking.build", pipeline.blocker.build, count=len
    )
    pipeline.purging.process = spans.wrap(
        "blocking.purge", pipeline.purging.process,
        count=lambda blocks: blocks.total_assignments(),
    )
    pipeline.filtering.process = spans.wrap(
        "blocking.filter", pipeline.filtering.process, count=len
    )
    pipeline.pruner.prune = spans.wrap(
        "metablocking.prune", pipeline.pruner.prune, count=len
    )
    pipeline.build_matcher = spans.wrap("matching.index", pipeline.build_matcher)
    pipeline.match = spans.wrap(
        "core.match", pipeline.match, count=lambda r: r.comparisons_executed
    )
    BlockingGraph.materialize = spans.wrap(
        "metablocking.weigh", BlockingGraph.materialize, count=len
    )
    runner.evaluate_blocks = spans.wrap("evaluation.blocks", runner.evaluate_blocks)
    runner.evaluate_matches = spans.wrap(
        "evaluation.matches", runner.evaluate_matches
    )


def batch_layers(spans: Spans, report, kb1, kb2, run_s: float) -> dict:
    progressive = report.progressive
    comparisons = progressive.comparisons_executed
    matches = progressive.match_graph.match_count
    processed = report.processed_blocks
    raw = report.blocks
    return {
        "rdf.load_s": spans.total("rdf.load"),
        "rdf.triples": triple_count(kb1, kb2),
        "rdf.rss_mb": spans.last("rdf.load", "rss_mb"),
        "blocking.build_s": spans.total("blocking.build"),
        "blocking.purge_s": spans.total("blocking.purge"),
        "blocking.filter_s": spans.total("blocking.filter"),
        "blocking.blocks": len(processed),
        "blocking.comparisons": processed.total_comparisons(),
        "blocking.rss_mb": spans.last("blocking.filter", "rss_mb"),
        "metablocking.weigh_s": spans.total("metablocking.weigh"),
        "metablocking.prune_s": spans.total("metablocking.prune"),
        "metablocking.pairs": spans.last("metablocking.weigh", "out"),
        "metablocking.edges": spans.last("metablocking.prune", "out"),
        "metablocking.rss_mb": spans.last("metablocking.prune", "rss_mb"),
        "matching.index_s": spans.total("matching.index"),
        "matching.rss_mb": spans.last("matching.index", "rss_mb"),
        "core.progressive_s": spans.total("core.match") - spans.total("matching.index"),
        "core.comparisons": comparisons,
        "core.matches": matches,
        "core.match_yield": matches / comparisons if comparisons else 0.0,
        "core.rss_mb": spans.last("core.match", "rss_mb"),
        "evaluation.blocks_s": spans.total("evaluation.blocks"),
        "evaluation.matches_s": spans.total("evaluation.matches"),
        "evaluation.rss_mb": spans.last("evaluation.matches", "rss_mb"),
        "trace.coverage": spans.top_level_s() / run_s,
        # stage inputs, for the growth exponents run.py derives
        "input.descriptions": len(kb1) + len(kb2),
        "input.raw_blocks": len(raw),
        "input.purged_assignments": spans.last("blocking.purge", "out"),
        "input.block_comparisons": processed.total_comparisons(),
    }


def cmd_batch(args) -> dict:
    from repro.datasets.gold import load_gold_csv

    spec = load_spec()
    spec = spec.with_matching(budget=None if args.budget == "none" else int(args.budget))
    out: dict = {"reps": []}
    t_measure = time.perf_counter()
    host_before = calibration_s()
    cycle_s = 0.0
    # Repeat while another repetition as long as the last still ends
    # within --seconds (a traced pass runs once).
    while not out["reps"] or (
        not args.trace and time.perf_counter() - t_measure + cycle_s <= args.seconds
    ):
        spans = Spans() if args.trace else None
        t0 = time.perf_counter()
        kb1, kb2 = load_corpus(args.corpus, spans)
        load_s = time.perf_counter() - t0
        gold = load_gold_csv(os.path.join(args.corpus, "gold.csv"))
        pipeline = build("batch", spec)
        if spans is not None:
            install_batch_spans(spans, pipeline)
        report = pipeline.execute(kb1, kb2, gold=gold)
        run_s = time.perf_counter() - t0
        host_after = calibration_s()
        host_s, host_before = (host_before + host_after) / 2, host_after

        block_q, match_q = report.block_quality, report.match_quality
        matched = report.matched_pairs()
        result = {
            "pc": block_q.pairs_completeness,
            "pq": block_q.pairs_quality,
            "rr": block_q.reduction_ratio,
            "precision": match_q.precision,
            "recall": match_q.recall,
            "f1": match_q.f1,
            "edges": digest(
                f"{e.left}\t{e.right}\t{e.weight!r}"
                for e in sorted(report.edges, key=lambda e: (e.left, e.right))
            ),
            "matches": digest(f"{a}\t{b}" for a, b in sorted(matched)),
        }
        checks = [
            f"{key}: report {result[key]!r} != recomputed {value!r}"
            for key, value in independent_quality(
                report.processed_blocks, matched, gold
            ).items()
            if value != result[key]
        ]
        out["reps"].append(
            {"run_s": run_s, "host_s": host_s, "load_s": load_s,
             "result": result, "checks": checks}
        )
        out["descriptions"] = len(kb1) + len(kb2)
        if spans is not None:
            out["layers"] = batch_layers(spans, report, kb1, kb2, run_s)
            out["spans"] = spans.records
        del report, kb1, kb2, gold, pipeline, matched
        gc.collect()
        cycle_s = time.perf_counter() - t0
    out["peak_rss_mb"] = rss_mb()
    return out


# -- stream ---------------------------------------------------------------


def open_loop(events, rate_eps: float, send) -> list[float]:
    """Send *events* on a fixed schedule; each latency counts from the
    event's due time, so a stall also delays the events queued behind it."""
    latencies = []
    start = time.perf_counter()
    for index, event in enumerate(events):
        due = start + index / rate_eps
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        send(event)
        latencies.append(time.perf_counter() - due)
    return latencies


def stream_batch_equivalence(resolver, spec, kb1, kb2) -> list[str]:
    """stream == batch: the streamed state prunes to the batch edges."""
    pipeline = build("batch", spec)
    _, processed = pipeline.block(kb1, kb2)
    batch = pipeline.meta_block(processed)
    streamed = resolver.pruned_edges(spec.weighting.name, spec.pruning.name)
    key = lambda e: (e.left, e.right, e.weight)  # noqa: E731
    if sorted(map(key, batch)) != sorted(map(key, streamed)):
        return [f"stream pruned edges ({len(streamed)}) != batch ({len(batch)})"]
    return []


def query_line(result) -> str:
    return result.uri + "\t" + ",".join(
        f"{m.uri}:{m.similarity!r}" for m in result.matches
    )


def cmd_stream(args) -> dict:
    from repro.stream import WorkloadDriver
    from repro.stream.workload import uniform_workload

    spec = load_spec()
    scheme, pruner = spec.weighting.name, spec.pruning.name

    resolver = build("stream", spec)
    spans = Spans() if args.trace else None
    out: dict = {"checks": []}

    clock = SegmentClock()
    kb1, kb2 = load_corpus(args.corpus, spans)
    events = uniform_workload(kb1, kb2, seed=args.seed)
    if spans is not None:
        resolver.ingest = spans.wrap("stream.ingest", resolver.ingest)
        resolver.resolve = spans.wrap("stream.resolve", resolver.resolve)
    driver = WorkloadDriver(resolver)
    results, insert_s, query_s = [], [], []
    replay_s = 0.0
    size = -(-len(events) // TIMED_SEGMENTS)
    for start in range(0, len(events), size):
        stats = driver.run(
            events[start:start + size], scenario="uniform", scheme=scheme,
            pruner=pruner, on_query=results.append,
        )
        clock.lap()
        replay_s += stats.elapsed_s
        insert_s += stats.insert_latencies_s
        query_s += stats.query_latencies_s
        if stats.interrupted:
            out["checks"].append("replay interrupted")
    run_s = clock.run_s
    out.update(
        run_s=run_s,
        host_s=clock.host_s,
        events=len(events),
        throughput_eps=len(events) / replay_s,
        insert_s=insert_s,
        query_s=query_s,
        descriptions=len(kb1) + len(kb2),
        peak_rss_mb=rss_mb(),
        result={"matches": digest(map(query_line, results))},
    )
    if spans is not None:
        phase = lambda key: 1e3 * sum(r.latency.get(key, 0.0) for r in results)  # noqa: E731
        comparisons = sum(r.comparisons for r in results)
        quarter = len(insert_s) // 4
        out["layers"] = {
            "rdf.load_s": spans.total("rdf.load"),
            "rdf.triples": triple_count(kb1, kb2),
            "rdf.rss_mb": spans.last("rdf.load", "rss_mb"),
            "stream.ingest_ms": phase("ingest_s"),
            "stream.candidates_ms": phase("candidates_s"),
            "stream.weigh_ms": phase("weigh_s"),
            "stream.match_ms": phase("match_s"),
            "stream.reconcile_ms": phase("reconcile_s"),
            "stream.candidates_per_query": sum(r.candidates for r in results) / len(results),
            "stream.match_yield": sum(len(r.matches) for r in results) / comparisons
            if comparisons else 0.0,
            "stream.insert_growth": sum(insert_s[-quarter:]) / sum(insert_s[:quarter]),
            "stream.rss_mb": out["peak_rss_mb"],
            "trace.coverage": spans.top_level_s() / run_s,
        }
        out["spans"] = spans.records

    out["open_s"] = []
    if args.rate:
        # Open loop: a fresh resolver takes the first half of the same
        # events at a fixed rate, low enough that the arrivals rarely queue.
        replay = build("stream", spec)
        replayed = []

        def send(event):
            if event.kind == "insert":
                replay.ingest(event.description, event.source)
            else:
                replayed.append(replay.resolve(
                    event.description, source=event.source, scheme=scheme,
                    pruner=pruner, ingest=True,
                ))

        out["open_s"] = open_loop(events[: len(events) // 2], args.rate, send)
        if digest(map(query_line, replayed)) != digest(
            map(query_line, results[: len(replayed)])
        ):
            out["checks"].append("open-loop matches differ from the closed-loop replay")
    # Checks last: they hold memory the measured passes do not.
    out["checks"] += stream_batch_equivalence(resolver, spec, kb1, kb2)
    return out


# -- serve ----------------------------------------------------------------


def tier_rss_mb(router) -> float:
    return rss_mb() + sum(child_hwm_mb(handle.pid) for handle in router.shards)


def cmd_serve(args) -> dict:
    from repro.serving import verify_equivalence
    from repro.stream.workload import uniform_workload

    spec = load_spec()

    router = build("serve", spec)
    spans = Spans() if args.trace else None
    out: dict = {"checks": []}
    try:
        clock = SegmentClock()
        kb1, kb2 = load_corpus(args.corpus, spans)
        events = uniform_workload(kb1, kb2, seed=args.seed)
        resolve = router.resolve
        if spans is not None:
            resolve = spans.wrap("serving.resolve", router.resolve)
        insert_s, query_s, results = [], [], []
        loop_s = 0.0
        size = -(-len(events) // TIMED_SEGMENTS)
        for start in range(0, len(events), size):
            t_loop = time.perf_counter()
            for event in events[start:start + size]:
                t1 = time.perf_counter()
                result = resolve(
                    event.description, event.source, ingest=event.kind == "insert"
                )
                (insert_s if event.kind == "insert" else query_s).append(
                    time.perf_counter() - t1
                )
                results.append(result)
            loop_s += time.perf_counter() - t_loop
            clock.lap()
        run_s = clock.run_s
        stats = router.stats
        out.update(
            run_s=run_s,
            host_s=clock.host_s,
            events=len(events),
            throughput_eps=len(events) / loop_s,
            insert_s=insert_s,
            query_s=query_s,
            descriptions=len(kb1) + len(kb2),
            peak_rss_mb=tier_rss_mb(router),
            degraded_total=stats.degraded,
            retries=stats.retries,
            result={"matches": digest(map(query_line, results))},
        )
        if spans is not None:
            comparisons = sum(r.comparisons for r in results)
            phase = lambda key: 1e3 * sum(r.latency.get(key, 0.0) for r in results)  # noqa: E731
            quarter = len(insert_s) // 4
            out["layers"] = {
                "rdf.load_s": spans.total("rdf.load"),
                "rdf.triples": triple_count(kb1, kb2),
                "rdf.rss_mb": spans.last("rdf.load", "rss_mb"),
                "stream.ingest_ms": phase("ingest_s"),
                "stream.weigh_ms": phase("fanout_s"),
                "stream.match_ms": phase("match_s"),
                "stream.candidates_per_query": sum(r.candidates for r in results)
                / len(results),
                "stream.match_yield": sum(len(r.matches) for r in results) / comparisons
                if comparisons else 0.0,
                "stream.insert_growth": sum(insert_s[-quarter:]) / sum(insert_s[:quarter]),
                "serving.query_p50_ms": 1e3 * stats.query_hist.p50,
                "serving.shard_request_p50_ms": 1e3 * stats.shard_hist.p50,
                "serving.rss_mb": out["peak_rss_mb"],
                "trace.coverage": spans.top_level_s() / run_s,
            }
            out["spans"] = spans.records

        # After the peak is read: the oracle replay holds memory the tier does not.
        queries = [(e.description, e.source) for e in events if e.kind == "query"]
        verdict = verify_equivalence(router, queries[:VERIFY_QUERIES])
        if not verdict.ok:
            out["checks"] += verdict.mismatches[:5] or ["verify_equivalence failed"]
    finally:
        router.close()

    out["open_s"] = []
    if args.rate:
        out.update(serve_open_loop(spec, events[: len(events) // 2], args.rate, spans))
    return out


def serve_open_loop(spec, events, rate_eps: float, spans: Spans | None) -> dict:
    """A fresh tier takes *events* at a fixed rate, low enough that the
    arrivals rarely queue (``run_open_loop`` times each from its due time)."""
    from repro.serving import run_open_loop

    replay = build("serve", spec)
    sends = []
    try:
        if spans is not None:
            untimed = replay.resolve

            def timed_resolve(*a, **k):
                sends.append(time.monotonic())
                return untimed(*a, **k)

            replay.resolve = spans.wrap("serving.open.resolve", timed_resolve)
        report = run_open_loop(replay, events, rate_eps=rate_eps)
        degraded, retries = replay.stats.degraded, replay.stats.retries
    finally:
        replay.close()
    # Backlog at each completion: events already due minus events done.
    due = [at for _, at, _, _ in report.samples]
    backlog = [
        bisect.bisect_right(due, at + latency) - done
        for done, (_, at, latency, _) in enumerate(report.samples, 1)
    ]
    quarter = max(1, len(backlog) // 4)
    return {
        "open_s": report.latencies_s(),
        "open_degraded": degraded,
        "open_retries": retries,
        "backlog_growth": (sum(backlog[-quarter:]) - sum(backlog[:quarter])) / quarter,
        "late_s": [sent - report.start_monotonic - at for sent, at in zip(sends, due)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "batch", "stream", "serve"))
    parser.add_argument("--kind", choices=("batch", "stream", "serve"))
    parser.add_argument("--corpus")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", default="none")
    parser.add_argument("--rate", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    handler = {
        "setup": cmd_setup, "batch": cmd_batch,
        "stream": cmd_stream, "serve": cmd_serve,
    }[args.mode]
    out = handler(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
