"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They confirm the committed expected results for the default seed against the
library's independent oracles (and a brute-force morphism count), check that
layer counts repeat exactly across two traced passes, that traced and
untraced passes give the same verdicts, that repeated timings keep them too,
and that the metrics the benchmark prints are exactly the ones
BENCHMARK.json names.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import passrun
import run
import workloads

ROOT = os.path.dirname(run.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

EXPECTED = workloads.load_expected()
SEED = workloads.DEFAULT_SEED
# cheap items of each workload, in workload order: enough to touch every
# layer the workload uses
SUBSETS = {
    "colimit-sweep": ["carrier02-n4", "carrier05-n6", "carrier07-n10"],
    "hom-sweep": ["pair:bool2-mo3", "pair:mo2-bool3", "unit:mo3",
                  "square:2x2", "square:2x5", "ks:cabello18-union02",
                  "ks:peres24", "frame:mo2"],
}


def pass_json(workload, tmp_path, trace=0, items=None, budget=None):
    workdir = tmp_path / f"w{time.monotonic_ns()}"
    workdir.mkdir()
    cmd = [sys.executable, os.path.join(run.HERE, "passrun.py"),
           "--workload", workload, "--seed", str(SEED), "--trace", str(trace),
           "--workdir", str(workdir), "--spawned-at", repr(time.monotonic())]
    if items:
        cmd += ["--items", ",".join(items)]
    if budget is not None:
        cmd += ["--budget", str(budget)]
    proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(ROOT),
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- expected results against independent oracles -----------------------------

def test_colimit_members_match_subset_scan_oracle():
    from pbalg.corpus import generated_corpus
    from pbalg.poset import boolean_subalgebras_oracle

    expected = EXPECTED["verdicts"]["colimit-sweep"]
    algs = generated_corpus(50, 24)
    assert len(expected) == len(algs)
    checked = 0
    for i, A in enumerate(algs):
        verdict = expected[f"carrier{i:02d}-n{A.n}"]
        assert verdict["ok"]
        if A.n <= 12:  # the oracle scans all 2^n subsets
            assert verdict["members"] == len(boolean_subalgebras_oracle(A))
            checked += 1
    assert checked >= 30


def test_ks_state_counts_match_poset_limit_oracle(tmp_path):
    from pbalg import cli
    from pbalg.formats import parse_algebra_file
    from pbalg.stone import stone_limit_poset_oracle

    expected = {k: v for k, v in EXPECTED["verdicts"]["hom-sweep"].items()
                if k.startswith("ks:")}
    workloads.hom_sweep(SEED, str(tmp_path))  # writes the seeded ray files
    assert "ks:peres24" not in expected  # the listed probe stays undecided
    assert expected["ks:cabello18"]["ks"] and expected["ks:peres33"]["ks"]
    checked = 0
    for item_id, verdict in expected.items():
        if verdict["elements"] > 40:  # the member-poset oracle is exponential
            continue
        name = item_id.removeprefix("ks:")
        path = tmp_path / f"{name}.check.pba"
        ray_file = tmp_path / f"{name}.rays"
        assert cli.run(["ks-rays", str(ray_file), "--format", "pba",
                        "--out", str(path)]) == 0
        A = parse_algebra_file(str(path))
        assert A.n == verdict["elements"]
        assert len(stone_limit_poset_oracle(A)) == verdict["states"], item_id
        checked += 1
    assert checked >= 2


def test_frame_sizes_match_recursive_oracle():
    from pbalg.bohr import BohrFrame
    from pbalg.corpus import small_corpus

    fixed = EXPECTED["fixed"]
    assert fixed["frame:mo2"]["frame"] == 17
    for name, A in zip(workloads.SMALL_NAMES, small_corpus()):
        assert fixed[f"frame:{name}"]["frame"] == len(BohrFrame(A).elements_recursive())


def brute_force_morphisms(A, B) -> int:
    """Count maps that pass the independent clause check, choosing images for
    one element of each complement pair and deriving the other."""
    free = [a for a in range(A.n) if a not in (A.zero, A.one) and a < A.neg[a]]
    count = 0
    for images in itertools.product(range(B.n), repeat=len(free)):
        m = [0] * A.n
        m[A.zero], m[A.one] = B.zero, B.one
        for a, v in zip(free, images):
            m[a], m[A.neg[a]] = v, B.neg[v]
        count += checks.morphism_defect(A, B, m) is None
    return count


def test_morphism_counts_match_brute_force():
    from pbalg.core import boolean_algebra
    from pbalg.corpus import small_corpus

    fixed = EXPECTED["fixed"]
    named = dict(zip(workloads.SMALL_NAMES, small_corpus()))
    for (na, A), (nb, B) in itertools.product(named.items(), repeat=2):
        assert fixed[f"pair:{na}-{nb}"]["homs"] == brute_force_morphisms(A, B)
    for name, A in named.items():
        assert fixed[f"unit:{name}"]["tensor"] == A.n
    for a, b in workloads.SQUARE_LAWS:
        if (a, b) not in workloads.SQUARE_PROBES:
            assert fixed[f"square:{a}x{b}"]["tensor"] == boolean_algebra(a * b).n


# -- determinism and tracing ---------------------------------------------------

@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_counts_repeat_and_tracing_keeps_verdicts(workload, tmp_path):
    items = SUBSETS[workload]
    plain = pass_json(workload, tmp_path, items=items)
    first = pass_json(workload, tmp_path, trace=1, items=items)
    second = pass_json(workload, tmp_path, trace=1, items=items)
    assert [it["id"] for it in plain["items"]] == items
    for res in (plain, first, second):
        assert res["errors"] == []
        assert run.verdicts(res) == run.verdicts(plain)
    counts = {k: v for k, v in first["layers"].items()
              if not k.endswith("_s")}
    assert counts == {k: second["layers"][k] for k in counts}
    assert any(v for k, v in counts.items() if k.endswith(".calls"))


def test_budget_times_light_items_again_with_the_same_verdicts(tmp_path):
    items = SUBSETS["colimit-sweep"]
    once = pass_json("colimit-sweep", tmp_path, items=items)
    again = pass_json("colimit-sweep", tmp_path, items=items, budget=1)
    assert once["repeats"] == 0 and again["repeats"] > 0
    assert again["errors"] == []
    assert run.verdicts(again) == run.verdicts(once)
    for it in again["items"]:
        assert len(it["samples_s"]) >= passrun.MIN_SAMPLES, it["id"]
        assert it["latency_s"] == min(it["samples_s"])


def test_printed_metrics_are_the_declared_ones(tmp_path):
    bench = benchmark_json()
    res = pass_json("hom-sweep", tmp_path, trace=1, items=["unit:mo2"])
    layer = run.layer_metrics([res], [res])
    assert sorted(layer) == sorted(m["name"] for m in bench["per_layer"])
    for m in bench["per_layer"]:
        assert layer[m["name"]][1] == m["unit"], m["name"]
    e2e = run.end_to_end_metrics([res], [res["setup_s"]])
    assert sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"])
    for m in bench["end_to_end"]:
        assert e2e[m["name"]][1] == m["unit"], m["name"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "colimit-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
