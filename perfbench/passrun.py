"""One cold pass over a workload, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --spawned-at T [--setup-only] [--items ID,ID,...] \
        [--budget SECONDS]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to inputs ready.  Prints one JSON
object as the last line of standard output.  ``--items`` restricts the pass
to the named items (for the self-tests).

The pass runs every item once, in order (the first round: its wall time,
verdicts and layer spans are the pass's).  With ``--budget`` it also times the
light items again, in rounds spread over the pass, and an item's latency is
its fastest sample: the host's other tenants only ever add time.  It also
probes the host's speed (``SpeedProbe``).  Every run of an item, the first
included, starts with the library's carrier caches empty, as one
command-line call does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

# per-item limit on CPU time (ITIMER_PROF): an item past it is undecided and
# its latency counts as the limit.  CPU time, not wall time, so that other
# processes on the machine cannot push a legitimate item over the limit; the
# slowest decided item (frame laws of bool3) takes 18-27 s.
ITEM_LIMIT_S = 35.0
# An item is light if its first run, divided by the host slowdown seen so far
# (SpeedProbe), took under LIGHT_S: with a budget it is run again, so that it
# has several samples spread over the pass.  While the first round runs, one
# repeat round over the light items seen so far follows whenever the first
# round has done REPEAT_RATIO times that round's cost since the last one;
# after it, rounds go on until every light item has MIN_SAMPLES and, while
# the budget allows, up to MAX_SAMPLES.
LIGHT_S = 0.25
REPEAT_RATIO = 1.0
MIN_SAMPLES = 7
MAX_SAMPLES = 31

# With a budget, a fixed piece of pure-Python work that does not touch pbalg
# is timed every PROBE_EVERY_S of the first round (from a SIGALRM handler, so
# also in the middle of long items).  The host's speed drifts: its fastest
# moments get slower or faster over minutes, and other tenants slow the pass
# by a share that drifts too.  The probe sees both, and the runner states
# times at a reference speed, at which reference_work takes REFERENCE_WORK_S.
PROBE_EVERY_S = 0.2
REFERENCE_WORK_S = 0.001


def reference_work() -> int:
    """About a millisecond of dict, sort and slice work; the same every call."""
    total = 0
    for _ in range(12):
        d = {}
        for i in range(600):
            d[i * 7919 % 1009] = i
        total += sum(sorted(d.values())[::3])
    return total


class SpeedProbe:
    """Times reference_work() on a wall-clock interval while started."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self) -> float:
        """Median probe time over the fastest one (1.0 without samples)."""
        if not self.samples:
            return 1.0
        return statistics.median(self.samples) / min(self.samples)

    def scales(self) -> tuple[float, float]:
        """Factors that bring a time to the reference speed: one for a
        fastest sample, from the fastest probe, and one for a wall time, from
        the median probe (both 1.0 without samples)."""
        if not self.samples:
            return 1.0, 1.0
        return (REFERENCE_WORK_S / min(self.samples),
                REFERENCE_WORK_S / statistics.median(self.samples))


class ItemTimeout(BaseException):
    """Raised inside the item when its CPU-time limit expires.  A BaseException
    so that library handlers for ordinary errors cannot swallow it."""


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--items", default=None)
    p.add_argument("--budget", type=float, default=None)
    return p.parse_args(argv)


def cache_clearer(tracer=None):
    """A function that empties the library's carrier caches.  With a tracer,
    it hands the cache statistics to the tracer first."""
    from pbalg import core, corpus, poset

    cached = (core.maximal_cliques, poset.boolean_subalgebras,
              corpus.cabello18_algebra)

    def clear():
        if tracer is not None:
            tracer.harvest_caches()
        for fn in cached:
            fn.cache_clear()

    return clear


def timed_run(item, clear_caches):
    """Run one item under the CPU-time limit, caches empty.  Returns the
    outcome, the wall time in seconds and the raw result (None unless
    decided)."""
    armed = [True]

    def on_limit(signum, frame):
        if armed[0]:
            armed[0] = False
            raise ItemTimeout()

    signal.signal(signal.SIGPROF, on_limit)
    clear_caches()
    raw, outcome = None, "decided"
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_PROF, ITEM_LIMIT_S)
    try:
        raw = item.run()
    except ItemTimeout:
        outcome = "timeout"
    except Exception as exc:  # a raise or cutoff leaves the item undecided
        outcome = f"{type(exc).__name__}: {str(exc)[:160]}"
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_PROF, 0)
    return outcome, time.perf_counter() - start, raw


class RepeatMismatch(Exception):
    pass


def run_pass(items, clear_caches, deadline=None):
    """Every item once, in order, and with a deadline the repeat rounds of
    the light items.  Returns per-item records (latency: the fastest of the
    item's samples), the raw first-round results of decided items, the
    verdicts of the light items (None without a deadline), the first round's
    wall time, the number of repeats, the errors and the speed probe."""
    records, raws, light = [], {}, []
    verdicts = {} if deadline is not None else None
    repeats, wall_s, since_repeat, round_cost = 0, 0.0, 0.0, 0.0

    def repeat_round():
        nonlocal repeats, round_cost
        start = time.perf_counter()
        for item, rec in light:
            if len(rec["samples_s"]) >= MAX_SAMPLES:
                continue
            outcome, latency, raw = timed_run(item, clear_caches)
            repeats += 1
            if outcome != "decided" or item.summarize(raw) != verdicts[item.id]:
                raise RepeatMismatch(f"{item.id}: a repeat gave another"
                                     f" outcome ({outcome})")
            rec["samples_s"].append(latency)
        round_cost = time.perf_counter() - start

    probe = SpeedProbe()
    if deadline is not None:
        probe.start()
    try:
        for item in items:
            start = time.perf_counter()
            outcome, latency, raw = timed_run(item, clear_caches)
            spent = time.perf_counter() - start
            wall_s += spent
            decided = outcome == "decided"
            rec = {"id": item.id, "probe": item.probe, "decided": decided,
                   "latency_s": latency if decided else ITEM_LIMIT_S,
                   "samples_s": [latency] if decided else [],
                   "outcome": outcome}
            records.append(rec)
            if decided:
                raws[item.id] = raw
            if verdicts is None:
                continue
            if decided and latency / probe.slowdown() < LIGHT_S:
                verdicts[item.id] = item.summarize(raw)
                light.append((item, rec))
                round_cost += latency
            since_repeat += spent
            if light and since_repeat >= REPEAT_RATIO * round_cost:
                probe.stop()
                repeat_round()
                probe.start()
                since_repeat = 0.0
        probe.stop()
        while light and any(len(r["samples_s"]) < MAX_SAMPLES for _, r in light):
            short = any(len(r["samples_s"]) < MIN_SAMPLES for _, r in light)
            if not short and time.monotonic() + round_cost > deadline:
                break
            repeat_round()
        errors = []
    except RepeatMismatch as exc:
        errors = [str(exc)]
    finally:
        probe.stop()
    for rec in records:
        if rec["decided"]:
            rec["latency_s"] = min(rec["samples_s"])
    return records, raws, verdicts, wall_s, repeats, errors, probe


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads

    items = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.items:
        wanted = args.items.split(",")
        items = [it for it in items if it.id in wanted]
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    # bound to the cached functions before the tracer wraps their names
    clear_caches = cache_clearer(tracer)
    if tracer is not None:
        tracer.install()
    deadline = None if args.budget is None else args.spawned_at + args.budget
    records, raws, verdicts, wall_s, repeats, errors, probe = run_pass(
        items, clear_caches, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        tracer.write_spans(os.path.join(args.workdir, "spans.jsonl"))
    verdicts = verdicts or {}
    for item, rec in zip(items, records):
        if rec["decided"] and item.id not in verdicts:
            verdicts[item.id] = item.summarize(raws[item.id])

    # verdicts, checked after the timed rounds against known answers and, for
    # the default seed, against the committed expected results
    expected = {}
    if args.seed == workloads.DEFAULT_SEED:
        expected = workloads.load_expected()["verdicts"].get(args.workload, {})
    for item, rec in zip(items, records):
        if not rec["decided"]:
            continue
        rec["verdict"] = verdicts[item.id]
        err = item.check(raws[item.id])
        if err is None and item.id in expected and expected[item.id] != rec["verdict"]:
            err = f"verdict {rec['verdict']} differs from expected {expected[item.id]}"
        if err:
            errors.append(f"{item.id}: {err}")
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "slowdown": probe.slowdown(),
        "scales": probe.scales(), "probes": len(probe.samples),
        "peak_rss_mb": peak_rss_mb,
        "repeats": repeats, "items": records, "errors": errors,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
