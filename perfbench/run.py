"""perfbench: the end-to-end, per-layer benchmark of the batch, streaming
and serving paths.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``batch-2k-full``  1700+1700 descriptions, ``examples/spec_movies.json``
                     (token blocking, ARCS, CNP) with an unlimited budget;
                     its traced run also passes 8500+8500 descriptions
                     once with budget 500 (``batch-10k``), for the growth
                     exponents and the peak RSS at that size;
* ``stream-2k``      uniform arrival+query replay over 1700+1700
                     descriptions through one in-process ``StreamResolver``;
* ``serve-1k``       the same scenario over 850+850 descriptions through a
                     2-shard ``Router``.

Every run synthesizes its corpus from ``--seed`` (center profile, overlap
0.7) with ``repro synthesize`` and writes it as N-Triples; the program
only ever reads those files.  Each measured pass runs in a fresh
interpreter (``worker.py``), so import time, peak RSS and the trace of a
pass are its own.  A batch pass repeats the pipeline for ``--seconds``;
stream and serve passes follow each other while one more still ends
within ``--seconds``.  ``--trace 0`` prints the end-to-end metrics of
untraced passes; ``--trace 1`` runs one untraced pass, then one traced
pass, and prints the per-layer metrics.  Both check the outputs:
a failed check counts as a failed operation and makes ``correct`` false.

End-to-end metrics (gated by the bounds in ``BENCHMARK.json``) are the
set-up time (median of fresh-interpreter probes), the median wall time
of one repetition or pass from N-Triples on disk to the checked result,
its throughput and the peak RSS (for serving: router plus shards).

On a shared 2-CPU virtual machine the speed of pure-Python work drifts
by up to a third over minutes, and the medians of runs made minutes
apart spread by more than a gate's bound: over ten seeds, batch-2k-full's
unscaled ``run_s`` spread (quartile distance over median) 0.09 in one
set and 0.30 in the next.  Every timing is therefore taken between
calibrations, rounds of a fixed pure-Python kernel shaped like the
program's work (``worker.calibration_s``): each batch repetition, each
of the eight segments of a stream or serve pass, and each set-up probe.
The timed metrics are reported at the host speed where a round takes
``HOST_REFERENCE_S``: wall time x reference / calibration.  In one
noisy five-minute spell, windows of eight batch repetitions spread
0.40 unscaled and 0.06 scaled.  The unscaled time and the calibration
are printed beside the result and are per-layer metrics.  A run
reports medians over about 30 s (a batch run leaves out its first
repetition, which warms the interpreter up), and there are three
workloads rather than four (see ``BATCH_10K``).  Per-event latencies
(closed-loop insert and query, open-loop at a fixed rate, each as a
median and the highest percentile with ten samples beyond it) are
reported with the per-layer metrics: on a 2-CPU virtual machine their
run-to-run spread is wider than any bound a gate could hold.  The
open-loop passes therefore run only with ``--trace 1``.

Checks: batch quality (PC/PQ/RR, precision/recall/F1) and digests of the
pruned edges and matched pairs must equal ``reference.json`` for the
seed (or, for a seed without one, the run's first pass), and PC and
precision/recall/F1 are recomputed independently of ``repro.evaluation``;
stream matches must equal those of an open-loop replay of the same
events, and the streamed state must prune to the batch edges; the serving
tier must pass ``verify_equivalence``.  A new seed's reference is the
``reference:`` line a run prints.  ``selfcheck.py`` runs every workload
end to end on tiny corpora.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give the
run environment, the percentile and sample count of every tail metric,
the growth exponents and any failed check.

The benchmark exits non-zero without a result when the program's source
(``src/repro``) or the pipeline spec is missing, or when no pass could
be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_PROBES = 9
#: a run must end within this many seconds of its start
RUN_DEADLINE_S = 170.0
#: seconds a host calibration round (``worker.calibration_s``) takes on
#: the reference host; the timed metrics are reported at that host speed
HOST_REFERENCE_S = 0.020
#: a pre-matching stage whose time grows faster than its input to this
#: power between the 2k and 10k rungs is flagged as superlinear
SUPERLINEAR_EXPONENT = 1.2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    entities: int
    budget: str = "none"
    #: fixed open-loop arrival rate (events/s) for the first half of the
    #: events: well below the capacity the closed-loop pass measures on a
    #: 2-CPU machine (stream-2k ~420 ev/s, serve-1k ~170 ev/s)
    rate: float = 0.0
    #: the larger batch the traced run also passes, once, for the growth
    #: exponents of the pre-matching stages and the 10k memory proxy
    upper: "Workload | None" = None


#: 8500+8500 descriptions, budget 500: one pass of it takes ~25 s on a
#: 2-CPU machine, too long to repeat inside a run, so it is the upper rung
#: of batch-2k-full's traced run rather than a workload of its own
BATCH_10K = Workload("batch-10k", "batch", 10000, budget="500")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("batch-2k-full", "batch", 2000, upper=BATCH_10K),
        Workload("stream-2k", "stream", 2000, rate=150.0),
        Workload("serve-1k", "serve", 1000, rate=80.0),
    )
}

#: (growth metric, stage span, the stage's input cardinality)
GROWTH_STAGES = (
    ("growth.rdf.load", "rdf.load_s", "rdf.triples"),
    ("growth.blocking.build", "blocking.build_s", "input.descriptions"),
    ("growth.blocking.purge", "blocking.purge_s", "input.raw_blocks"),
    ("growth.blocking.filter", "blocking.filter_s", "input.purged_assignments"),
    ("growth.metablocking.weigh", "metablocking.weigh_s", "input.block_comparisons"),
    ("growth.metablocking.prune", "metablocking.prune_s", "metablocking.pairs"),
)


class PassFailed(Exception):
    """A worker pass crashed, timed out or printed no result."""


class Run:
    """One invocation: its deadline, scratch directory and accounting."""

    def __init__(self, workload: Workload, seed: int, trace: bool,
                 references: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = os.path.join(OUT_DIR, f"work-{workload.name}-{seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: per workload name, the outputs its passes must reproduce: the
        #: seed's stored reference, else the first pass of this run
        names = {workload.name} | ({workload.upper.name} if workload.upper else set())
        self.references = {
            name: references[name][str(seed)]
            for name in names
            if str(seed) in references.get(name, {})
        }
        self.stored = set(self.references)
        self.compared: set[str] = set()

    # -- child processes ----------------------------------------------------

    def child(self, argv: list[str]) -> str:
        """Run *argv* in its own session; returns stdout.

        The whole process group is killed on timeout and after exit, so
        no shard or helper outlives the pass.
        """
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{argv[2:4]} timed out") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            raise PassFailed(f"{argv[2:4]} exited {proc.returncode}: {tail[0]}")
        return stdout

    def worker(self, mode: str, *options: str) -> dict:
        stdout = self.child([sys.executable, WORKER, mode, *options])
        lines = stdout.strip().splitlines()
        if not lines:
            raise PassFailed(f"{mode} pass printed no result")
        return json.loads(lines[-1])

    def corpus(self, entities: int) -> str:
        path = os.path.join(self.work, f"corpus-{entities}")
        self.child([
            sys.executable, "-m", "repro", "synthesize",
            "--entities", str(entities), "--overlap", "0.7",
            "--regime", "center", "--seed", str(self.seed),
            "--out-dir", path,
        ])
        return path

    # -- passes ---------------------------------------------------------------

    def measured_pass(self, workload: Workload, corpus: str, trace: bool,
                      seconds: float = 0.0) -> dict | None:
        """One worker pass of *workload*; its operations are counted and
        checked.  A batch pass repeats the pipeline for *seconds*."""
        options = ["--corpus", corpus, "--seed", str(self.seed)]
        if workload.kind == "batch":
            options += ["--budget", workload.budget, "--seconds", str(seconds)]
        else:
            # The open loop feeds per-layer metrics only.
            options += ["--rate", str(workload.rate if self.trace else 0)]
        if trace:
            options.append("--trace")
        try:
            out = self.worker(workload.kind, *options)
        except PassFailed as exc:
            self.attempted += 1
            self.failed += 1
            self.problems.append(str(exc))
            return None
        if workload.kind == "batch":
            for rep in out["reps"]:
                self.attempted += 1
                bad = rep["checks"] + self.compare(workload.name, rep["result"])
                if bad:
                    self.failed += 1
                    self.problems += bad
        else:
            queries = len(out["query_s"])
            self.attempted += out["events"] + len(out["open_s"])
            bad = out["checks"] + self.compare(workload.name, out["result"])
            self.problems += bad
            degraded = out.get("degraded_total", 0) + out.get("open_degraded", 0)
            self.failed += degraded + (queries if bad else 0)
        return out

    def compare(self, name: str, result: dict) -> list[str]:
        """Outputs must equal the seed's reference, or the run's first pass."""
        reference = self.references.setdefault(name, result)
        self.compared.add(name)
        return [
            f"{name} {key}: {value!r} != reference {reference.get(key)!r}"
            for key, value in result.items()
            if reference.get(key) != value
        ]


# -- statistics -----------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it (the maximum when there are fewer than 11)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def timed(workload: Workload, passes: list[dict]) -> list[dict]:
    """The timed closed-loop passes; for batch, the repetitions after the
    first, which warms the interpreter up."""
    if workload.kind == "batch":
        return [rep for p in passes for rep in p["reps"][1:] or p["reps"]]
    return passes


def host_scale(measured: dict) -> float:
    """Factor from a measurement's wall time to that at the reference host speed."""
    return HOST_REFERENCE_S / measured["host_s"]


def pass_run_s(workload: Workload, passes: list[dict], scaled: bool = True) -> float:
    """Median wall time of one timed pass, at the reference host speed
    unless *scaled* is false."""
    return statistics.median(
        p["run_s"] * (host_scale(p) if scaled else 1.0)
        for p in timed(workload, passes)
    )


def end_to_end(run: Run, passes: list[dict], setup: list[dict]) -> dict:
    w = run.workload
    run_s = pass_run_s(w, passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * host_scale(p) for p in setup),
        "run_s": run_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    if w.kind == "batch":
        metrics["throughput_eps"] = passes[0]["descriptions"] / run_s
    else:
        metrics["throughput_eps"] = statistics.median(
            p["throughput_eps"] / host_scale(p) for p in passes
        )
    return metrics


def latencies(passes: list[dict]) -> tuple[dict, dict]:
    """Per-event latency medians and tails of the untraced passes, with
    the percentile and sample count of each tail."""
    metrics, notes = {}, {}
    for kind in ("insert", "query", "open"):
        values = [v for p in passes for v in p[f"{kind}_s"]]
        metrics[f"{kind}_p50_ms"] = 1e3 * statistics.median(values)
        value, percentile, n = tail(values)
        metrics[f"{kind}_tail_ms"] = 1e3 * value
        notes[f"{kind}_tail_ms"] = f"p{percentile:.2f} of {n} samples"
    return metrics, notes


def per_layer(run: Run, passes: list[dict], traced: dict, upper: dict | None) -> dict:
    w = run.workload
    layers = dict(traced["layers"])
    # A traced batch repetition is cold: it compares with the first untraced one.
    first = (lambda p: p["reps"][0]) if w.kind == "batch" else (lambda p: p)
    untraced, traced_first = first(passes[0]), first(traced)
    layers["trace.overhead"] = (traced_first["run_s"] * host_scale(traced_first)) / (
        untraced["run_s"] * host_scale(untraced)
    )
    layers["wall.run_s"] = pass_run_s(w, passes, scaled=False)
    layers["host.calibration_ms"] = 1e3 * statistics.median(
        p["host_s"] for p in timed(w, passes)
    )
    if w.kind != "batch":
        layers.update(latencies(passes)[0])
    if w.kind == "serve":
        late = traced.get("late_s") or [0.0]
        layers.update({
            "serving.degraded": traced["degraded_total"] + traced["open_degraded"],
            "serving.retries": traced["retries"] + traced["open_retries"],
            "serving.late_ms": 1e3 * statistics.mean(late),
            "serving.backlog_growth": traced["backlog_growth"],
        })
    if upper is not None:
        superlinear = 0
        small, large = layers, upper["layers"]
        for name, stage, size in GROWTH_STAGES:
            ratio_n = large[size] / small[size]
            ratio_t = large[stage] / small[stage] if small[stage] > 0 else 0.0
            exponent = math.log(ratio_t) / math.log(ratio_n) if ratio_t > 0 and ratio_n > 1 else 0.0
            layers[name] = exponent
            superlinear += exponent > SUPERLINEAR_EXPONENT
        layers["growth.superlinear_stages"] = superlinear
        prefix = w.upper.name
        layers[f"{prefix}.run_s"] = upper["reps"][0]["run_s"]
        layers[f"{prefix}.peak_rss_mb"] = upper["peak_rss_mb"]
    return layers


def write_trace(run: Run, traced: dict) -> str:
    path = os.path.join(OUT_DIR, f"trace-{run.workload.name}-seed{run.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in traced.get("spans", []):
            handle.write(json.dumps(record) + "\n")
    return os.path.relpath(path, ROOT)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict) -> tuple[list[str], dict | None]:
    """Run one workload; returns (report lines, result) or (lines, None)
    when no pass could be measured."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    run = Run(workload, seed, trace, references)
    os.makedirs(run.work, exist_ok=True)
    passes, traced, upper = [], None, None
    try:
        corpus = run.corpus(workload.entities)
        setup = [
            run.worker("setup", "--kind", workload.kind) for _ in range(SETUP_PROBES)
        ]
        # A traced run needs one untraced pass, as the base of the overhead.
        measured = 0.0 if trace else seconds
        if workload.kind == "batch":
            # One interpreter repeats the pipeline for the whole measurement.
            out = run.measured_pass(workload, corpus, trace=False, seconds=measured)
            passes += [out] if out is not None else []
        else:
            # Fresh interpreters, while another pass as long as the last
            # still ends within the measurement time.
            started = time.monotonic()
            while True:
                begun = time.monotonic()
                out = run.measured_pass(workload, corpus, trace=False)
                if out is None:
                    break
                passes.append(out)
                now = time.monotonic()
                if now - started + (now - begun) > measured:
                    break
        if trace and passes:
            traced = run.measured_pass(workload, corpus, trace=True)
            if traced is not None and workload.upper:
                upper = run.measured_pass(
                    workload.upper, run.corpus(workload.upper.entities), trace=True
                )
    except PassFailed as exc:
        run.problems.append(str(exc))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not passes or (trace and (traced is None or (workload.upper and upper is None))):
        return ["no pass could be measured: " + "; ".join(run.problems)], None

    reps = sum(len(p["reps"]) for p in passes) if workload.kind == "batch" else len(passes)
    lines = [
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"workload={workload.name} seed={seed} seconds={seconds:g} "
        f"descriptions={passes[0]['descriptions']} "
        f"open_rate_eps={workload.rate or 'n/a'} repetitions={reps} "
        f"references={','.join(sorted(run.stored & run.compared)) or 'first pass'}",
        f"unscaled: run_s {pass_run_s(workload, passes, scaled=False):.4f} s; host"
        f" calibration round {1e3 * statistics.median(p['host_s'] for p in timed(workload, passes)):.3f}"
        f" ms (reference {1e3 * HOST_REFERENCE_S:g} ms)",
    ]
    if trace:
        values = per_layer(run, passes, traced, upper)
        notes = latencies(passes)[1] if workload.kind != "batch" else {}
        table = bench["per_layer"]
        lines.append(f"trace: {write_trace(run, traced)}")
        for name, stage, size in GROWTH_STAGES if upper else ():
            flag = "  SUPERLINEAR" if values[name] > SUPERLINEAR_EXPONENT else ""
            lines.append(
                f"growth {stage[:-2]:<22} input x{upper['layers'][size] / values[size]:6.2f}"
                f"  time x{upper['layers'][stage] / values[stage]:7.2f}"
                f"  exponent {values[name]:.2f}{flag}"
            )
    else:
        values, notes = end_to_end(run, passes, setup), {}
        table = bench["end_to_end"]
    metrics = {}
    for entry in table:
        name = entry["name"]
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<32} {value:>14.4f} {entry['unit']}{note}")
    lines += [f"check failed: {problem}" for problem in run.problems]
    lines += [
        "reference: " + json.dumps({name: {str(seed): result}})
        for name, result in sorted(run.references.items())
        if name in run.compared
    ]
    return lines, {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench: end-to-end, per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for required in (os.path.join(SRC, "repro"), os.path.join(ROOT, "examples", "spec_movies.json")):
        if not os.path.exists(required):
            print(f"perfbench: missing {os.path.relpath(required, ROOT)}; "
                  "run from a checkout of the repository", file=sys.stderr)
            return 2
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        references = json.load(handle)
    lines, result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), references
    )
    if result is None:
        print("perfbench: " + "\n".join(lines), file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
