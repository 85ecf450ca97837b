"""Statistics and process helpers for the repo benchmark (perfbench/run.py).

Kept apart from run.py so that perfbench/test_stats.py can check them on
their own: percentiles that refuse thin tails, the seeded Poisson send
schedule, open-loop latency and lateness, failure counting, the check that
repeated requests get one answer, and peak RSS.
"""

import math
import random

# A percentile above the median is reported only when at least this many
# samples lie beyond it; below that the tail is a handful of samples.
MIN_BEYOND = 10


class ThinTail(ValueError):
    """A percentile was asked for that the sample cannot support."""


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q < 100) of values.

    Raises ThinTail when q is above the median and fewer than MIN_BEYOND
    samples lie beyond the returned rank.
    """
    if not values:
        raise ThinTail("no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if q > 50 and beyond < MIN_BEYOND:
        raise ThinTail(
            f"p{q:g} of {len(xs)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return xs[rank - 1]


def poisson_schedule(seed, rate, count):
    """Send offsets (seconds from the start) of count Poisson arrivals at
    rate per second. The same (seed, rate, count) always gives the same
    schedule."""
    rng = random.Random(f"perfbench-open-{seed}")
    t, out = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def is_failure(record):
    """True when a request failed: an error reply (including `overloaded`
    and `timeout`), a wrong or malformed answer, no reply at all, or an
    answer the deadline cut short."""
    return (record["status"] not in ("solved", "no_solution")
            or record["deadline_expired"])


def failure_count(records):
    return sum(1 for r in records if is_failure(r))


def _answer(record):
    return (record["status"], record["nodes"], record["programs"],
            record["answer"])


def answer_mismatches(records):
    """The completed replies whose answer (status, nodes expanded, programs
    enumerated and the returned programs) differs from the first completed
    reply to the same pool task. Failed requests are left out; they count
    against attempted instead."""
    first, out = {}, []
    for r in records:
        if not is_failure(r) and \
                first.setdefault(r["pool"], _answer(r)) != _answer(r):
            out.append(r)
    return out


def answers_by_task(records):
    """The answer each pool task got, keyed by pool index as a string (so
    that it survives a JSON round trip). Failed requests are left out."""
    return {str(r["pool"]): list(_answer(r)) for r in records
            if not is_failure(r)}


def tasks_sent_twice(records):
    """Pool tasks with at least two completed replies: the tasks whose
    answers answer_mismatches compares."""
    seen = {}
    for r in records:
        if not is_failure(r):
            seen[r["pool"]] = seen.get(r["pool"], 0) + 1
    return sum(1 for n in seen.values() if n >= 2)


def open_loop_latencies_ms(records):
    """Latency of each open-loop request, from when it was due to be sent
    (not when it was sent) to its reply, so a stalled generator cannot hide
    the wait it imposed. Failed requests are left out; they count against
    attempted instead."""
    return [1e3 * (r["recv"] - r["sched"]) for r in records
            if not is_failure(r)]


def lateness_ms(records):
    """How late the generator sent each request after its scheduled time."""
    return [1e3 * (r["sent"] - r["sched"]) for r in records]


def peak_rss_mb(pid):
    """Peak resident set size of the live process pid, in MB.

    Read from /proc/<pid>/status (VmHWM), which belongs to the process's
    own address space. wait4()/getrusage() would not do: their ru_maxrss
    carries over the parent's resident set from before exec, so every
    child of a large parent would report at least the parent's size."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")
