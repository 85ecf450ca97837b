#!/usr/bin/env python3
"""The repo benchmark: one command runs one workload end to end.

    python3 perfbench/run.py --workload learn-list --seed 1 --seconds 24 \
        --trace 0

It builds the repository's libraries, tools/dc_serve and the benchmark
binary (perfbench/dc_perfbench.cpp) from source into .bench_build/perfbench
on first use, runs the workload, checks every output, prints a report on
stderr and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a separate run
with telemetry on. perfbench/README.md describes workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing outside .bench_build
import stats  # noqa: E402

# Each workload learns a library with runWakeSleep, trains a recognition
# model on its frontiers, deploys both through tools/dc_serve and sends it
# solve requests: the whole path a DreamCoder user takes. The workloads
# differ in which layers carry the result (README.md says why each exists).
#   iterations/node_budget/threads/backend: the runWakeSleep settings
#   req_budget: node_budget carried by every solve request. It makes a
#     search of about 20-30 ms: with much shorter ones (500 list nodes,
#     6 ms) a busy host added a few ms of wake-up delay to every request
#     and moved the median latency by up to 1.6x.
#   rate: open-loop Poisson arrivals per second, a quarter of the slowest
#     closed-loop capacity seen (list about 60/s, logo about 80/s), so a
#     host slowdown of 1.6x still leaves the workers mostly idle and the
#     queue short. At 24 s (BENCHMARK.json) the open loop sends whole
#     permutations of the request pool (360 requests of 180 list tasks,
#     432 of 18 logo tasks), so every task is sent equally often and
#     solved_frac does not depend on the seed.
WORKLOADS = {
    "learn-list": dict(domain="list", iterations=2, node_budget=12000,
                       threads=1, backend="topdown", req_budget=2000,
                       rate=15.0),
    "sleep-logo": dict(domain="logo", iterations=2, node_budget=50000,
                       threads=2, backend="vs", req_budget=8000, rate=18.0),
}
# The host's speed drifts by tens of percent over tens of seconds and
# more. So no timed metric may sample just one stretch of a run: the run
# alternates identical learning repetitions with serving blocks, and each
# timed metric aggregates over all of them. The first learning run (which
# also writes the artifacts) comes before the server starts, then each
# block follows one more repetition.
BLOCKS = 3
# The open loop lasts --seconds in all and the closed loop this share of
# it, split evenly over the blocks. Latency is the noisier of the two, so
# the open loop gets most of the serving time.
CLOSED_SHARE = 0.15
# The learning inputs are pinned: --seed drives the request streams and
# send schedules only. A learning run is chaotic in its seed (which tasks
# a cycle solves decides what abstraction sleep sees), so seeded learning
# would measure the seed more than the code: across loop seeds 11-15,
# logo peaked at 367 MB-2.16 GB and took 10-39 s, list at 24-50 MB.
# Seed 1 is also the list corpus dc_serve serves by default.
LEARN_SEED = 1
TRACE_MIN_OPEN = 1000       # a p99 with 10 samples beyond it
RUN_DEADLINE_S = 170        # after the build; a run must end within 180 s

# Work counters that must repeat exactly between two traced runs. Counters
# measuring time (…micros) or pool scheduling are left out.
TIMED_COUNTER = re.compile(r"micros|^threadpool\.")

CHILDREN = []


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------

def build():
    """Configures once and builds; returns (dc_perfbench, dc_serve) paths."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "dc_serve.cpp").is_file():
        raise BenchError(f"{ROOT} is not a repository checkout: "
                         "src/ and tools/ are missing")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return BUILD / "dc_perfbench", BUILD / "dc_tools" / "dc_serve"


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(
        suite)
    if not result.wasSuccessful():
        raise BenchError("statistics self-tests failed")


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

class Spans:
    """The benchmark's own spans, kept in memory and written once."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.events = []

    def now_us(self):
        return 1e6 * (time.perf_counter() - self.origin)

    def add(self, name, start_us, dur_us, tid):
        self.events.append({"name": name, "ph": "X", "ts": start_us,
                            "dur": dur_us, "pid": 1, "tid": tid})

    def add_child(self, child_spans, start_us, tid):
        for s in child_spans:
            self.add(s["name"], start_us + s["start_us"], s["dur_us"], tid)

    def write(self, path):
        path.write_text(json.dumps({"traceEvents": self.events}))


def spawn(cmd, **kw):
    proc = subprocess.Popen([str(c) for c in cmd], **kw)
    CHILDREN.append(proc)
    return proc


def finish(proc):
    """Reads the child's stdout to EOF, reaps it and returns the stdout."""
    out = proc.stdout.read()
    proc.stdout.close()
    code = proc.wait()
    CHILDREN.remove(proc)
    if code != 0:
        raise BenchError(f"{proc.args[0]} {proc.args[1]} exited with {code}")
    return out


def run_units(cmds, spans, label):
    """Runs dc_perfbench subcommands side by side; returns their JSON
    results."""
    start = spans.now_us()
    procs = [spawn(c, stdout=subprocess.PIPE, text=True) for c in cmds]
    results = []
    for k, proc in enumerate(procs):
        res = json.loads(finish(proc).strip().splitlines()[-1])
        spans.add_child(res.pop("spans", []), start, tid=10 + k)
        results.append(res)
    spans.add(label, start, spans.now_us() - start, tid=1)
    return results


def start_server(serve_bin, w, ckpt, model, extra=()):
    """Spawns dc_serve; returns (proc, port, seconds from spawn to the first
    `health` ok)."""
    t0 = time.perf_counter()
    proc = spawn([serve_bin, "--domain", w["domain"], "--checkpoint", ckpt,
                  "--model", model, "--port", 0, *extra],
                 stdout=subprocess.PIPE, text=True)
    port = None
    for line in proc.stdout:
        m = re.search(r"listening on [\d.]+:(\d+)", line)
        if m:
            port = int(m.group(1))
            break
    if port is None:
        raise BenchError("dc_serve did not start")
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(b'{"id":1,"method":"health"}\n')
        reply = s.makefile().readline()
    if not json.loads(reply).get("ok"):
        raise BenchError(f"dc_serve health failed: {reply}")
    return proc, port, time.perf_counter() - t0


def stop_server(proc):
    """Reads the server's peak RSS (MB), then SIGTERM: graceful drain."""
    rss = stats.peak_rss_mb(proc.pid)
    proc.send_signal(signal.SIGTERM)
    finish(proc)
    return rss


# --------------------------------------------------------------------------
# Workload
# --------------------------------------------------------------------------

def learn_cmd(bench, w, trace, run_dir, tag, artifacts):
    cmd = [bench, "learn", "--domain", w["domain"], "--seed", LEARN_SEED,
           "--iterations", w["iterations"], "--node-budget", w["node_budget"],
           "--threads", w["threads"], "--backend", w["backend"]]
    if trace:
        cmd += ["--metrics-out", run_dir / f"metrics-{tag}.json"]
    if artifacts:
        cmd += ["--checkpoint", run_dir / "library.ckpt",
                "--model", run_dir / "recognition.model"]
    return cmd


def serve(bench, serve_bin, w, seed, seconds, run_dir, spans, trace,
          before_block):
    """Deploys the learned artifacts and drives the load in BLOCKS blocks,
    calling before_block(b) ahead of each. Returns the server's start-up
    time, the client's records, closed-loop seconds and set-up times, the
    server's stats and its peak RSS."""
    ckpt, model = run_dir / "library.ckpt", run_dir / "recognition.model"
    extra = []
    if trace:
        extra = ["--metrics-out", run_dir / "serve-metrics.json",
                 "--trace-out", run_dir / "serve-trace.json"]
    start = spans.now_us()
    proc, port, start_s = start_server(serve_bin, w, ckpt, model, extra)
    spans.add("dc_serve spawn to health", start, 1e6 * start_s, tid=2)

    n_open = int(w["rate"] * seconds)
    if trace:  # per-layer numbers need a p99, not the end-to-end length
        n_open = max(TRACE_MIN_OPEN, n_open // 2)
    schedule = run_dir / "schedule.txt"
    schedule.write_text("".join(
        f"{t!r}\n" for t in stats.poisson_schedule(seed, w["rate"], n_open)))
    records_path = run_dir / "records.jsonl"
    start = spans.now_us()
    client = spawn([bench, "client", "--port", port, "--domain", w["domain"],
                    "--seed", seed, "--schedule", schedule,
                    "--node-budget", w["req_budget"],
                    "--checkpoint", ckpt, "--model", model,
                    "--out", records_path],
                   stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    closed_ms = int(1000 * CLOSED_SHARE * seconds / BLOCKS)
    for b in range(BLOCKS):
        before_block(b)
        client.stdin.write(f"{closed_ms} {n_open * b // BLOCKS} "
                           f"{n_open * (b + 1) // BLOCKS}\n")
        client.stdin.flush()
        if json.loads(client.stdout.readline() or "{}").get("block") != b:
            raise BenchError(f"client failed in serving block {b}")
    client.stdin.close()
    summary = json.loads(finish(client).strip().splitlines()[-1])
    spans.add_child(summary.pop("spans"), start, tid=4)
    spans.add("client", start, spans.now_us() - start, tid=3)
    server_rss = stop_server(proc)
    records = [json.loads(line)
               for line in records_path.read_text().splitlines()]
    return dict(start_s=start_s, records=records, closed_s=summary["closed_s"],
                setup_s=summary["setup_s"],
                domain_build_ms=summary["domain_build_ms"],
                server_stats=summary["server_stats"], server_rss=server_rss)


def files_hash(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()[:16]


def check_expected(key, stamp, outputs, problems):
    """Outputs that do not depend on the seed must repeat exactly across
    runs of one build: the first run records them under key, later runs
    compare. A dict output is compared on the keys both runs have."""
    path = BUILD / "expect" / f"{key}.json"
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("stamp") == stamp:
            for k, v in outputs.items():
                was = old["outputs"].get(k)
                if isinstance(v, dict):
                    changed = [t for t in sorted(v.keys() & was.keys())
                               if v[t] != was[t]]
                    if changed:
                        t = changed[0]
                        problems.append(f"{k}: {len(changed)} entries changed "
                                        f"across runs of one build, e.g. "
                                        f"[{t}] {was[t]} -> {v[t]}")
                elif was != v:
                    problems.append(f"{k} changed across runs of one build: "
                                    f"{was} -> {v}")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"stamp": stamp, "outputs": outputs}))


def run(args):
    w = WORKLOADS[args.workload]
    bench, serve_bin = build()
    self_test()
    signal.alarm(RUN_DEADLINE_S)
    # Expected outputs belong to one build, one workload definition and
    # one run length.
    stamp = f"{files_hash(bench, serve_bin, __file__)}-{args.seconds}"
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spans = Spans()
    problems = []

    def learn(trace, tag, artifacts):
        return learn_cmd(bench, w, trace, run_dir, tag, artifacts)

    if args.trace:
        # Untraced and traced side by side (same host conditions) give the
        # tracing overhead; a second traced run alone gives the per-layer
        # times and must repeat the first's work counters exactly.
        plain, traced1 = run_units([learn(False, "u", False),
                                    learn(True, "t1", False)], spans,
                                   "learn: untraced | traced")
        (lrn,) = run_units([learn(True, "t2", True)], spans, "learn: traced")
        for other in (plain, traced1):
            if other["fingerprint"] != lrn["fingerprint"]:
                problems.append("learn fingerprint differs between runs "
                                "of one seed")
        c1 = json.loads((run_dir / "metrics-t1.json").read_text())
        c2 = json.loads((run_dir / "metrics-t2.json").read_text())
        for name in sorted(set(c1["counters"]) | set(c2["counters"])):
            a, b = c1["counters"].get(name), c2["counters"].get(name)
            if not TIMED_COUNTER.search(name) and a != b:
                problems.append(f"counter {name} differs across traced "
                                f"runs: {a} vs {b}")
    else:
        (lrn,) = run_units([learn(False, "", True)], spans, "learn")
    reps = [lrn]

    def before_block(b):
        # Untraced runs repeat the learning run ahead of each serving block
        # (the server is idle meanwhile); traced runs learn three times
        # already.
        if not args.trace:
            reps.extend(run_units([learn(False, "", False)], spans,
                                  f"learn repetition {b + 1}"))

    srv = serve(bench, serve_bin, w, args.seed, args.seconds, run_dir,
                spans, args.trace, before_block)
    # The repetitions run the same inputs, so they must learn the same
    # library; every frontier program of each must still solve its task.
    if any(r["fingerprint"] != lrn["fingerprint"] for r in reps):
        problems.append("learning repetitions of one run differ: "
                        f"{sorted(set(r['fingerprint'] for r in reps))}")
    checked = sum(r["checked"] for r in reps)
    failed_programs = sum(r["failed"] for r in reps)
    if failed_programs:
        problems.append(f"{failed_programs} frontier programs fail their "
                        "task")
    records = srv["records"]
    closed = [r for r in records if r["phase"] == "closed"]
    opened = [r for r in records if r["phase"] == "open"]
    for r in records:
        if r["status"] in ("bad", "lost"):
            problems.append(f"request {r['phase']} #{r['i']} ({r['task']}): "
                            f"{r['status']}")
    # Every pool task is sent several times in a run (warm-up, closed and
    # open loop); each completed send must get the same answer.
    repeated = stats.answer_mismatches(records)
    for r in repeated[:10]:
        problems.append(f"request {r['phase']} #{r['i']} ({r['task']}) "
                        "answered differently from an earlier send of its "
                        "task")
    solved_frac = sum(r["status"] == "solved" for r in opened) / len(opened)
    check_expected(args.workload, stamp, {
        "learn_fingerprint": lrn["fingerprint"],
        "solved_train": lrn["solved_train"],
        "solved_test": lrn["solved_test"],
        "library_score": lrn["library_score"],
        "answers": stats.answers_by_task(records)}, problems)

    attempted = checked + len(records)
    failed = failed_programs + stats.failure_count(records)
    if args.trace:
        metrics, report = per_layer(bench, w, args, run_dir, spans, plain,
                                    traced1, lrn, srv, closed, opened,
                                    problems)
    else:
        metrics, report = end_to_end(w, reps, srv, closed, opened,
                                     solved_frac, attempted, failed)
    report["tasks_sent_twice"] = stats.tasks_sent_twice(records)
    spans.write(run_dir / "spans.json")
    (run_dir / "report.json").write_text(json.dumps(
        {"metrics": metrics, "report": report, "problems": problems},
        indent=1))
    for name, m in metrics.items():
        log(f"  {name:24s} {m['value']:>14.6g} {m['unit']}")
    for k, v in report.items():
        log(f"  [{k}] {v}")
    for p in problems:
        log(f"  PROBLEM: {p}")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(w, reps, srv, closed, opened, solved_frac, attempted,
               failed):
    lrn = reps[0]
    lat = stats.open_loop_latencies_ms(opened)
    ok_closed = [r for r in closed if not stats.is_failure(r)]
    capacity = len(ok_closed) / srv["closed_s"]
    metrics = {
        "setup_s": metric(statistics.median(srv["setup_s"]), "s"),
        "wakesleep_s": metric(
            statistics.median(r["wakesleep_s"] for r in reps), "s"),
        "solved_train": metric(lrn["solved_train"], "count"),
        "solved_test": metric(lrn["solved_test"], "count"),
        "library_nll": metric(-lrn["library_score"], "nats"),
        "peak_rss_mb": metric(
            statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "lat_p50_ms": metric(stats.percentile(lat, 50), "ms"),
        "capacity_rps": metric(capacity, "1/s"),
        "solved_frac": metric(solved_frac, "ratio"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
    }
    report = {"wakesleep_repetitions_s": [round(r["wakesleep_s"], 3)
                                          for r in reps],
              "open_loop_samples": len(lat),
              "closed_loop_samples": len(closed),
              "offered_rps": w["rate"],
              "utilization_at_capacity": w["rate"] / capacity}
    return metrics, report


def phase_seconds(gauges, phase):
    pat = re.compile(rf"wakesleep\.cycle\.\d+\.{phase}_seconds")
    return sum(v for k, v in gauges.items() if pat.fullmatch(k))


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(bench, w, args, run_dir, spans, plain, traced1, lrn, srv,
              closed, opened, problems):
    tel = json.loads((run_dir / "metrics-t2.json").read_text())
    c, g = tel["counters"], tel["gauges"]
    cnt = lambda name: c.get(name, 0)  # noqa: E731
    wake, evaluate = phase_seconds(g, "wake"), phase_seconds(g, "evaluate")
    abstraction = phase_seconds(g, "abstraction")
    dreaming = phase_seconds(g, "dreaming")

    (rep,) = run_units([[bench, "replay", "--domain", w["domain"],
                         "--seed", args.seed,
                         "--checkpoint", run_dir / "library.ckpt",
                         "--model", run_dir / "recognition.model",
                         "--count", len(opened),
                         "--node-budget", w["req_budget"]]],
                       spans, "replay in-process")
    for r, solved in zip(opened, rep["solved"]):
        if (r["status"] == "solved") != bool(solved):
            problems.append(f"in-process solve of open #{r['i']} disagrees "
                            f"with dc_serve ({r['status']})")
            break
    overhead = [1e3 * (r["recv"] - r["sent"]) - r["solve_ms"] - r["queue_ms"]
                for r in closed if not stats.is_failure(r)]
    wait = [1e3 * (r["recv"] - r["sched"]) - r["solve_ms"]
            for r in opened if not stats.is_failure(r)]
    pct = stats.percentile
    rewrites = ("vs_cache.rewrite", "topdown.rewrite")
    rw_hits = sum(cnt(f"{p}.hits") for p in rewrites)
    rw_all = rw_hits + sum(cnt(f"{p}.misses") for p in rewrites)
    shard_hits = cnt("vs_cache.shard.hits")
    ckpt_bytes = sum((run_dir / f).stat().st_size
                     for f in ("library.ckpt", "recognition.model"))
    m = {
        "enum.wake_s": metric(wake, "s"),
        "enum.eval_s": metric(evaluate, "s"),
        "enum.nodes": metric(cnt("enum.nodes_expanded"), "count"),
        "enum.programs": metric(cnt("enum.programs_enumerated"), "count"),
        "enum.nodes_per_s": metric(
            ratio(cnt("enum.nodes_expanded"), wake + evaluate), "1/s"),
        "enum.solve_ratio": metric(
            ratio(cnt("enum.tasks_solved"), cnt("enum.tasks_searched")),
            "ratio"),
        "vs.abstraction_s": metric(abstraction, "s"),
        "vs.nodes_created": metric(cnt("vs.nodes_created"), "count"),
        "vs.candidates_ranked": metric(cnt("compress.candidates_ranked"),
                                       "count"),
        "vs.candidates_scored": metric(cnt("compress.candidates_scored"),
                                       "count"),
        "vs.scored_per_s": metric(
            ratio(cnt("compress.candidates_scored"), abstraction), "1/s"),
        "vs.shard_hit_ratio": metric(
            ratio(shard_hits, shard_hits + cnt("vs_cache.shard.misses")),
            "ratio"),
        "vs.rewrite_hit_ratio": metric(ratio(rw_hits, rw_all), "ratio"),
        "vs.topdown_states": metric(cnt("topdown.states_expanded"), "count"),
        "recog.dream_s": metric(dreaming, "s"),
        "recog.grad_steps": metric(cnt("recognition.gradient_steps"),
                                   "count"),
        "recog.steps_per_s": metric(
            ratio(cnt("recognition.gradient_steps"), dreaming), "1/s"),
        "recog.fantasy_keep_ratio": metric(
            ratio(cnt("sampling.fantasies_kept"),
                  cnt("sampling.fantasy_attempts")), "ratio"),
        "recog.predict_p50_us": metric(statistics.median(rep["predict_us"]),
                                       "us"),
        "pool.util": metric(
            lrn["cpu_s"] / (lrn["wakesleep_s"] * w["threads"]), "ratio"),
        "serve.lat_p99_ms": metric(
            pct(stats.open_loop_latencies_ms(opened), 99), "ms"),
        "serve.search_p50_ms": metric(pct(rep["search_ms"], 50), "ms"),
        "serve.search_p99_ms": metric(pct(rep["search_ms"], 99), "ms"),
        "serve.overhead_p50_ms": metric(statistics.median(overhead), "ms"),
        "serve.wait_p50_ms": metric(pct(wait, 50), "ms"),
        "serve.wait_p99_ms": metric(pct(wait, 99), "ms"),
        "serve.start_ms": metric(1e3 * srv["start_s"], "ms"),
        "serve.peak_rss_mb": metric(srv["server_rss"], "MB"),
        "serve.accepted": metric(srv["server_stats"]["accepted"], "count"),
        "serve.rejected": metric(srv["server_stats"]["rejected"], "count"),
        "gen.late_p99_ms": metric(pct(stats.lateness_ms(opened), 99), "ms"),
        "ckpt.load_ms": metric(statistics.median(rep["load_ms"]), "ms"),
        "ckpt.bytes": metric(ckpt_bytes, "bytes"),
        "domain.build_ms": metric(
            statistics.median(srv["domain_build_ms"]), "ms"),
        "obs.overhead_frac": metric(
            traced1["wakesleep_s"] / plain["wakesleep_s"] - 1, "ratio"),
    }
    phases = wake + abstraction + dreaming + evaluate
    lat = stats.open_loop_latencies_ms(opened)
    report = {
        "phase_share": {p: round(v / phases, 4) for p, v in (
            ("wake", wake), ("abstraction", abstraction),
            ("dreaming", dreaming), ("evaluate", evaluate))},
        "enumeration_share": round((wake + evaluate) / phases, 4),
        "request_search_share": round(statistics.median(
            [r["solve_ms"] / (1e3 * (r["recv"] - r["sched"]))
             for r in opened if not stats.is_failure(r)]), 4),
        "request_predict_share": round(
            statistics.median(rep["predict_us"])
            / (1e3 * statistics.median(lat)), 4),
        "open_loop_samples": len(lat),
    }
    return m, report


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    def on_alarm(*_):
        raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")

    def on_term(*_):
        raise BenchError("terminated")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.signal(signal.SIGTERM, on_term)
    try:
        result = run(args)
    except (BenchError, stats.ThinTail, subprocess.CalledProcessError,
            OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    finally:
        signal.alarm(0)
        for proc in CHILDREN:
            proc.kill()
            proc.wait()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
