"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 bench/steadiness.py

Each of SETS sets runs every workload of BENCHMARK.json once per seed, at
its run_seconds, one run at a time; set k uses seeds 1 + k*RUNS ...
(k+1)*RUNS, so the sets share no seed.  For every end-to-end metric it
reports, per set, the spread (interquartile distance over the median, as
statistics.quantiles(n=4) gives them) and the median, and it fails when
a spread exceeds the metric's bound in BENCHMARK.json, when the second
set's median is worse than the first's by more than the bound, when the
share of failed operations differs between runs, or when a run's output
checks fail.  Last, it makes two traced runs per workload with seed 1
and requires every per-layer count (unit "count") to repeat exactly.
Exit status 0 means steady.
"""

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for w in workloads:
                res = run_once(w, seed, seconds, 0)
                results[w][k].append(res)
                print(f"set {k} seed {seed} {w}: " + " ".join(
                    f"{n}={m['value']:.5g}"
                    for n, m in res["metrics"].items()), flush=True)

    ok = True
    summary = {}
    print(f"\n{'workload':14s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'spread' + str(k):>8s} {'median' + str(k):>10s}"
                     for k in range(SETS)) + "  verdict")
    for w in workloads:
        summary[w] = {}
        for name, spec in metrics.items():
            bound = spec["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs]
                    for runs in results[w]]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            drifts = [sign * (m - medians[0]) / medians[0]
                      for m in medians[1:]]
            bad = ([f"drift {d:+.3f}" for d in drifts if d > bound]
                   + [f"spread {s:.3f}" for s in spreads if s > bound])
            verdict = "ok" if not bad else "FAIL " + ", ".join(bad)
            ok &= not bad
            summary[w][name] = {"bound": bound, "spreads": spreads,
                                "medians": medians, "drifts": drifts}
            print(f"{w:14s} {name:12s} {bound:6.2f} " + " ".join(
                f"{s:8.4f} {m:10.5g}" for s, m in zip(spreads, medians))
                  + "  " + verdict)
        wrong = sum(not r["correct"] for runs in results[w] for r in runs)
        ok &= not wrong
        print(f"{w:14s} output checks "
              + (f"FAIL in {wrong} runs" if wrong else "pass in every run"))
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in results[w] for r in runs}
        same = len(shares) == 1
        ok &= same
        summary[w]["failed_share"] = sorted(str(s) for s in shares)
        print(f"{w:14s} failed share {sorted(str(s) for s in shares)} "
              + ("ok" if same else "FAIL: differs between runs"))

    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for w in workloads:
        a, b = (run_once(w, 1, seconds, 1)
                for _ in range(2))
        diff = [n for n in counts
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not diff
        summary[w]["trace_count_mismatch"] = diff
        print(f"{w:14s} traced counts "
              + ("repeat exactly" if not diff else f"FAIL: {diff}")
              + f"; trace.overhead "
              f"{a['metrics']['trace.overhead']['value']:.3f}, "
              f"{b['metrics']['trace.overhead']['value']:.3f}")

    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steadiness.json").write_text(
        json.dumps({"ok": ok, "summary": summary, "runs": results},
                   indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
