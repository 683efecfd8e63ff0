"""pbalg certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass runs in a fresh
interpreter (``passrun.py``) with BLAS/OpenMP pools pinned to one thread, and
every item starts with the library's carrier caches empty, as one
command-line call does.  A run makes one untimed warm-up set-up (it compiles
bytecode) and several set-up-only processes, then the measured pass, alone:
every item once, then the light items again in further rounds until the pass
has run ``--seconds`` (and at least until each has its minimum of samples).
Times are reported at a reference speed that the pass measures with a fixed
probe (``passrun.SpeedProbe``), so that the host's drifting speed cancels.
With ``--trace 1`` it instead runs a traced pass (first round only) beside
an untraced twin, and reports the per-layer metrics plus the
traced-over-untraced wall-time ratio.

Informational lines go first; the last line of standard output is the JSON
result.  Exit code 0 with a result, 1 when a pass failed, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("colimit-sweep", "hom-sweep")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
TAIL_BEYOND = 10
END_TO_END = (("verdicts_per_s", "1/s"), ("verdict_p50_ms", "ms"),
              ("verdict_tail_ms", "ms"), ("decided_share", "ratio"),
              ("peak_rss_mb", "MB"))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class PassError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Pass:
    """One pass process, started at construction."""

    def __init__(self, root, workdir, args, trace=0, setup_only=False,
                 budget=None):
        self.workdir, self.args = workdir, args
        self.tmp = tempfile.mkdtemp(dir=workdir)
        cmd = [sys.executable, os.path.join(HERE, "passrun.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(trace), "--workdir", self.tmp,
               "--spawned-at", repr(time.monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        if budget is not None:
            cmd += ["--budget", repr(budget)]
        self.proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)

    def result(self, deadline: float) -> dict:
        """Wait for the process (killing it at the deadline) and return the
        JSON object it printed last."""
        try:
            out, err = self.proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise PassError("pass did not finish before the run deadline") from None
        finally:
            spans = os.path.join(self.tmp, "spans.jsonl")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(
                    self.workdir,
                    f"spans-{self.args.workload}-{self.args.seed}.jsonl"))
            shutil.rmtree(self.tmp, ignore_errors=True)
        if self.proc.returncode != 0:
            raise PassError(f"pass exited {self.proc.returncode}: {err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index into n sorted latencies of the highest one with at least
    TAIL_BEYOND items beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def pass_metrics(res: dict) -> dict[str, float]:
    """Times at the reference speed (see passrun.SpeedProbe): latencies are
    each item's fastest sample scaled by the fastest probe, and the first
    round's wall time is scaled by the median probe."""
    items = res["items"]
    decided = sum(r["decided"] for r in items)
    fastest, typical = res["scales"]
    lat = sorted(r["latency_s"] * fastest for r in items)
    return {
        "verdicts_per_s": decided / (res["wall_s"] * typical),
        "verdict_p50_ms": statistics.median(lat) * 1000.0,
        "verdict_tail_ms": lat[tail_index(len(lat))] * 1000.0,
        "decided_share": decided / len(items),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def verdicts(res: dict) -> list:
    return [(r["id"], r["decided"], r.get("verdict")) for r in res["items"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pbalg", "__init__.py")):
        print("run from the root of a pbalg checkout (no src/pbalg here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    # a terminated run still stops and reaps its pass processes (finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workdir = os.path.join(root, ".perfbench_work")
    os.makedirs(workdir, exist_ok=True)

    started: list[Pass] = []
    try:
        def run_one(**kw) -> dict:
            started.append(Pass(root, workdir, args, **kw))
            return started[-1].result(deadline)

        run_one(setup_only=True)
        setups = [run_one(setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
        if args.trace:
            # the traced pass and its untraced reference side by side, one
            # per core, so the overhead ratio compares the same moment
            pair = [Pass(root, workdir, args), Pass(root, workdir, args, trace=1)]
            started.extend(pair)
            plain = [pair[0].result(deadline)]
            traced = [pair[1].result(deadline)]
        else:
            plain, traced = [run_one(budget=args.seconds)], []
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for p in started:
            if p.proc.poll() is None:
                p.proc.kill()
            p.proc.wait()
            shutil.rmtree(p.tmp, ignore_errors=True)

    passes = plain + traced
    setups += [r["setup_s"] for r in passes]
    errors = [e for r in passes for e in r["errors"]]
    reference = verdicts(passes[0])
    for r in passes[1:]:
        if verdicts(r) != reference:
            errors.append("verdicts differ between passes of the same inputs")
            break
    attempted = sum(len(r["items"]) + r["repeats"] for r in passes)
    # an undecided item counts as failed unless it is one of the listed
    # known-defect probes, whose outcome decided_share reports
    failed = sum(not it["decided"] and not it["probe"]
                 for r in passes for it in r["items"])

    n_items = len(plain[0]["items"])
    samples = sum(len(it["samples_s"]) for it in plain[0]["items"])
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced"
          f" and {len(traced)} traced passes of {n_items} items"
          f" ({samples} timed runs in the first; first round"
          f" {plain[0]['wall_s']:.2f} s; {plain[0]['probes']} speed probes,"
          f" host slowdown {plain[0]['slowdown']:.3f}, times scaled by"
          f" {plain[0]['scales'][0]:.3f} (latencies) and"
          f" {plain[0]['scales'][1]:.3f} (wall, set-up) to the reference"
          f" speed);"
          f" verdict_tail_ms is p{100 * (tail_index(n_items) + 1) / n_items:.0f}"
          f" ({TAIL_BEYOND} items beyond it)")
    for it in passes[0]["items"]:
        if not it["decided"]:
            print(f"undecided {it['id']}{' (probe)' if it['probe'] else ''}:"
                  f" {it['outcome']}")
    for e in errors:
        print(f"wrong: {e}")

    metrics = (layer_metrics(plain, traced) if args.trace
               else end_to_end_metrics(plain, setups))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end_metrics(plain: list[dict], setups: list[float]) -> dict:
    """Median over the untraced passes of each pass's metrics, and the median
    set-up time over every process the run started, scaled to the reference
    speed like the pass's wall time (the set-ups ran just before it)."""
    per_pass = [pass_metrics(r) for r in plain]
    metrics = {name: (statistics.median(m[name] for m in per_pass), unit)
               for name, unit in END_TO_END}
    typical = statistics.median(r["scales"][1] for r in plain)
    metrics["setup_s"] = (statistics.median(setups) * typical, "s")
    return metrics


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Median over the traced passes of each layer metric, the traced over
    untraced wall time, and the share of traced wall time no span covers."""
    metrics = {name: (statistics.median(r["layers"][name] for r in traced),
                      unit_of(name)) for name in traced[0]["layers"]}
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in plain)
    metrics["tracing_overhead"] = (wall_traced / wall_plain, "ratio")
    self_sum = statistics.median(
        sum(v for k, v in r["layers"].items() if k.endswith(".self_s"))
        for r in traced)
    metrics["unattributed_share"] = (1.0 - self_sum / wall_traced, "ratio")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", ".yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
