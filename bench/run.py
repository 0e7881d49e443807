"""Benchmark of kleinian2: context build, point evaluation, Abel inversion
and the verification suite, timed at reference speed.

    python3 bench/run.py --workload point_eval --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all    # each workload in its own process

One run sets up its workload (timed: the median of IMPORT_REPEATS imports
in fresh processes plus the median of SETUP_REPEATS repeats of input
generation and context builds), then repeats whole
rounds of the workload's fixed operation list until --seconds have passed,
checking every output.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the metrics and what each should move.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Run in a fresh interpreter with src/ and bench/ as arguments: prints the
# raw time of `import kleinian2` and the median reference-kernel time
# right after it.
IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import kleinian2
raw = time.perf_counter() - t0
import refspeed
refspeed.kernel_time()
print(raw, statistics.median(refspeed.kernel_time() for _ in range(5)))
"""
# a run keeps adding rounds until it has this many successful timed
# operations, so that the 90th percentile has at least ten beyond it
MIN_TIMED_OPS = 100
TAIL_PERCENTILE = 90
NAMES = ("context_build", "point_eval", "abel_invert", "verify_suite")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import kleinian2 from this checkout's src/, single-threaded."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kleinian2
    except ImportError as exc:
        sys.exit(f"bench: cannot import kleinian2 from {src}: {exc}")
    if Path(kleinian2.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: kleinian2 imported from {kleinian2.__file__}, "
                 f"not from {src}")
    return kleinian2


def import_time():
    """Median time of importing kleinian2 in a fresh process, at reference
    speed; the first import of a checkout, which compiles its bytecode,
    does not count."""
    import refspeed
    norm = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
             str(HERE)], capture_output=True, text=True, check=True,
            timeout=120).stdout
        raw, kernel = map(float, out.split())
        norm.append(raw * refspeed.NOMINAL_KERNEL_S / kernel)
    return statistics.median(norm)


def _median_ms(values):
    return statistics.median(values) * 1e3 if values else float("nan")


def run_workload(args):
    k2 = import_program()
    import_raw_s = perf_counter() - T_START
    import numpy as np
    import checks
    import refspeed
    import spans
    import workloads

    # the wide-root sextic warns that its branch points are far from unit
    # scale; its failures are counted, the warning adds nothing
    warnings.filterwarnings("ignore", message="branch points far outside")
    import_s = import_time()

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup = workloads.WORKLOADS[args.workload]
    seed_seq = [args.seed, NAMES.index(args.workload)]
    setup_norm, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        timer = refspeed.RefTimer(tracer=tracer)
        ops = setup(k2, np.random.default_rng(seed_seq), timer)
        timer.flush()
        setup_norm.append(sum(s.norm_s for s in timer.samples))
        setup_raw.append(sum(s.raw_s for s in timer.samples))

    timer = refspeed.RefTimer(failures=(k2.KleinianError,
                                        workloads.SuiteError),
                              tracer=tracer)
    records = []            # (op, sample, round, traced)
    problems = []
    timed_ok = 0
    t0 = perf_counter()
    rounds = 0
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if traced:
            tracer.install()
        elif tracer:
            tracer.uninstall()
        for op in ops:
            sample = timer.time(op.run)
            if sample.error is None:
                try:
                    op.check(sample.value)
                except checks.CheckFailed as exc:
                    problems.append(str(exc))
                timed_ok += not workloads.not_applicable(sample.value)
            elif not op.expect_failure:
                problems.append(f"unexpected {type(sample.error).__name__}:"
                                f" {sample.error}")
            records.append((op, sample, rounds, traced))
        rounds += 1
        if perf_counter() - t0 < args.seconds:
            continue
        if args.trace and rounds >= 2:
            break
        if not args.trace and timed_ok >= MIN_TIMED_OPS:
            break
    timer.flush()
    elapsed = perf_counter() - t0
    if tracer:
        tracer.uninstall()

    timed = [(op, s, r, t) for op, s, r, t in records
             if not workloads.not_applicable(s.value)]
    ok = [(op, s) for op, s, _, _ in timed if s.error is None]
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for _, s, _, _ in records if s.error is not None),
    }
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "elapsed_s": elapsed, "ops_per_round": len(ops),
        "timed_ok_ops": len(ok),
        "kernel_ms_median": _median_ms(timer.kernel_s),
        "raw_setup_s_median": statistics.median(setup_raw),
        "raw_import_s": import_raw_s,
        "import_s": import_s,
        "raw_op_ms_deg5": _median_ms([s.raw_s for op, s in ok
                                      if op.degree == 5]),
        "raw_op_ms_deg6": _median_ms([s.raw_s for op, s in ok
                                      if op.degree == 6]),
        "problems": sorted(set(problems))[:5],
        "errors": sorted({type(s.error).__name__ for _, s, _, _ in records
                          if s.error is not None}),
    }
    if args.trace:
        metrics = trace_metrics(tracer, timed, k2.CHECK_NAMES)
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(timed, ok, import_s, setup_norm)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    report(args, info, result)


def end_to_end_metrics(timed, ok, import_s, setup_norm):
    import numpy as np
    deg5 = [s.norm_s for op, s in ok if op.degree == 5]
    deg6 = [s.norm_s for op, s in ok if op.degree == 6]
    weighted_s = sum(op.weight * s.norm_s for op, s, _, _ in timed)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (import_s + statistics.median(setup_norm), "s"),
        "ops_per_s": (sum(op.weight for op, _ in ok) / weighted_s, "1/s"),
        "op_ms_deg5": (_median_ms(deg5), "ms"),
        "op_ms_deg6": (_median_ms(deg6), "ms"),
        "op_ms_tail": (float(np.percentile([s.norm_s for _, s in ok],
                                           TAIL_PERCENTILE)) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def trace_metrics(tracer, timed, check_names):
    import spans
    traced_ops = [s for _, s, _, t in timed if t]
    out = spans.layer_metrics(tracer.spans, traced_ops, check_names)
    per_round = {}
    for _, s, r, t in timed:
        acc = per_round.setdefault(r, [t, 0.0])
        acc[1] += s.norm_s
    on = [v for t, v in per_round.values() if t]
    off = [v for t, v in per_round.values() if not t]
    out["trace.overhead"] = (statistics.mean(on) / statistics.mean(off),
                             "ratio")
    return out


def report(args, info, result):
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:14s} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print("info " + json.dumps(info))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps({"info": info, **result}, indent=1))
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; prints every metric by name."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
