"""lightningfit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/`.  Each workload runs in a fresh interpreter with one BLAS thread,
driven by one caller in a closed loop.  The last line of stdout is the
result, {"correct", "attempted", "failed", "metrics"}; the line before it
holds the details (machine fingerprint, op counts, failures, self-tests).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  --trace 1 runs every round of ops twice, untraced and traced,
and reports the per-layer metrics, the tracing overhead and the self-test
that both passes rendered byte-identical tables.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 6
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh-interpreter import time.  When asked, the probe also runs the
# default `fit` once, the reference fit for workloads that fit nothing.
PROBE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import lightningfit
import_s = time.perf_counter() - t0
out = {"import_s": import_s}
if sys.argv[1] == "1":
    from lightningfit import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out["code"] = cli.main(["fit"])
    out["csv"] = buf.getvalue()
print(json.dumps(out))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_worker(workload, seed, seconds, trace, spans=None) -> dict:
    args = [str(Path(__file__).with_name("worker.py")), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        args += ["--spans", str(spans)]
    return run_child(args)


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "lightningfit").rglob("*.py")))


def tail(latencies: list):
    """Tail latency: a percentile with at least 10 ops beyond it.

    The percentile is the 90th whenever the run has the 100 ops that
    needs, so that a faster program, which runs more ops in the same time,
    is not measured further out in the tail than a slower one.  A shorter
    run uses the highest percentile with 10 ops beyond it; with fewer than
    21 ops that would sit below the median, so the median is reported.
    Returns (value, percentile, ops beyond).
    """
    n = len(latencies)
    if n < 21:
        value, pct = statistics.median(latencies), 50.0
    elif n < 100:
        value, pct = sorted(latencies)[n - 11], 100.0 * (n - 10) / n
    else:
        value, pct = percentile(latencies, 90), 90.0
    return value, pct, sum(lat > value for lat in latencies)


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def counts(worker: dict):
    """(attempted, failed) of one worker, its warm-up op included."""
    oks = [ok for p in worker["passes"].values() for ok in p["ok"]]
    return 1 + len(oks), (not worker["warm_ok"]) + oks.count(False)


def end_to_end(args, detail) -> tuple:
    # half the import probes before the workload and half after, so that
    # their median spans the run rather than one moment of the machine
    probes = [run_child(["-c", PROBE, "1" if k == 0 else "0"])
              for k in range(SETUP_REPEATS // 2)]
    w = run_worker(args.workload, args.seed, args.seconds, 0)
    probes += [run_child(["-c", PROBE, "0"])
               for _ in range(SETUP_REPEATS - len(probes))]
    attempted, failed = counts(w)
    run = w["passes"]["plain"]
    lat = run["latency_s"]
    digits = run["digits"]
    if not digits:  # this workload fits nothing: use the reference fit
        ref = workloads.check(workloads.Op("fit", ("fit",)), probes[0]["code"],
                              probes[0]["csv"], None)
        attempted += 1
        failed += not ref.ok
        digits = ref.digits or [math.nan]
        detail["fit_digits_source"] = "reference fit (cli fit defaults)"
    tail_s, tail_pct, beyond = tail(lat)
    detail.update(fingerprint=w["fingerprint"], ops=len(lat),
                  fit_rows=len(run["digits"]), tail_percentile=tail_pct,
                  ops_beyond_tail=beyond, failures=w["failures"][:5],
                  setup_samples_s=[p["import_s"] for p in probes])
    metrics = {
        "setup_s": statistics.median(p["import_s"] for p in probes),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "ops_per_s": run["ok"].count(True) / w["elapsed_s"],
        "peak_rss_mb": w["peak_rss_mb"],
        "fit_digits_p50": percentile(digits, 50),
        "fit_digits_p90": percentile(digits, 90),
    }
    return metrics, attempted, failed, True


def per_layer(args, detail) -> tuple:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-{args.seed}.csv"
    w = run_worker(args.workload, args.seed, args.seconds, 1, spans)
    attempted, failed = counts(w)
    plain, traced = w["passes"]["plain"], w["passes"]["traced"]
    identical = plain["digest"] == traced["digest"]
    plain_s = sum(plain["latency_s"])
    metrics = dict(w["layers"])
    metrics.update({
        "identity_defect_max": max(traced["defects"], default=0.0),
        "op_fail_frac": failed / attempted,
        "trace.ops_per_s_gap": 1.0 - plain_s / sum(traced["latency_s"]),
        "trace.accounted_frac": sum(w["op_span_s"]) / plain_s,
    })
    detail.update(fingerprint=w["fingerprint"], ops=len(traced["latency_s"]),
                  tables_identical=identical, missing_hooks=w["missing_hooks"],
                  spans_file=spans.name, failures=w["failures"][:5])
    return metrics, attempted, failed, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "lightningfit" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'lightningfit'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # self-test: the generator yields the same argument lists twice
    first, again = (list(itertools.islice(
        workloads.generate(args.workload, args.seed), 64)) for _ in range(2))
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "generator_repeatable": first == again,
              "source_lines": source_lines()}
    measure, wanted = ((per_layer, spec["per_layer"]) if args.trace
                       else (end_to_end, spec["end_to_end"]))
    try:
        values, attempted, failed, self_test_ok = measure(args, detail)
    except (subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and self_test_ok and first == again,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
