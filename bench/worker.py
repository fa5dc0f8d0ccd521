"""One workload run in a fresh interpreter, so that its memory is its own.

Runs the workload's largest op as warm-up, then a closed loop (one
caller; the next op starts when the previous one returns) in whole rounds
of ops, as many rounds as end nearest the time given, checking every op.
With --trace 1 each round runs twice, untraced and with the layer hooks
installed, alternating which pass goes first, so that both passes see the
same ops at nearly the same time.  Prints one JSON object with the raw
per-op results of each pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(np, scipy, lightningfit) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lightningfit": lightningfit.__version__,
    }


def layer_metrics(tracer: Tracer, calls, self_s, kinds: list,
                  rows: list) -> dict:
    """Per-op layer figures from the spans and counters of a traced pass."""
    n = max(len(kinds), 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
    counts = tracer.counts
    out["fitting.fit.errors"] = counts["fitting.fit.errors"] / n
    out["fitting.design_mb"] = counts["fitting.design_bytes"] / 2**20 / n
    out["fitting.validation_mb"] = counts["fitting.validation_bytes"] / 2**20 / n
    out["fitting.rank_ratio"] = (counts["fitting.rank"] / counts["fitting.columns"]
                                 if counts["fitting.columns"] else 0.0)
    out["quadrature.func_evals"] = counts["quadrature.func_evals"] / n

    # known duplicate work: contour terms per verify-bounds row, density
    # evaluations per pole of the pole ladder
    per_op = {"contour.contour_terms": [0] * len(kinds),
              "density.stahl_density": [0] * len(kinds)}
    for name, _, _, _, op in tracer.spans:
        if name in per_op and op >= 0:
            per_op[name][op] += 1

    def ratio(name, kind):
        ops = [k for k, kd in enumerate(kinds) if kd == kind]
        n_rows = sum(rows[k] for k in ops)
        return sum(per_op[name][k] for k in ops) / n_rows if n_rows else 0.0

    out["contour.contour_terms.per_row"] = ratio("contour.contour_terms",
                                                 "verify-bounds")
    out["density.stahl_density.per_pole"] = ratio("density.stahl_density",
                                                  "pole-ladder")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where to write spans")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy
    import lightningfit
    from lightningfit import cli, experiments
    from lightningfit.tables import render_table

    if not Path(lightningfit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported lightningfit from {lightningfit.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 1

    def plain(name, fn, *a, **kw):
        return fn(*a, **kw)

    failures = []

    def run_one(op, call):
        t0 = perf_counter()
        try:
            code, out = workloads.execute(op, experiments, cli, call)
        except Exception as exc:  # a raising op is a failed op, never dropped
            latency = perf_counter() - t0
            checked = workloads.Checked(False, f"raised {exc!r}", "", 0, [], [])
        else:
            latency = perf_counter() - t0
            checked = workloads.check(op, code, out, render_table)
        if not checked.ok:
            failures.append(f"{op}: {checked.reason}")
        return latency, checked

    warm_ok = run_one(workloads.largest(args.workload), plain)[1].ok

    tracer = Tracer()
    passes = ("plain", "traced") if args.trace else ("plain",)
    results = {p: {"latency_s": [], "ok": [], "digest": [], "kind": [],
                   "rows": [], "digits": [], "defects": []} for p in passes}
    stream = workloads.generate(args.workload, args.seed)
    start = perf_counter()
    deadline = start + args.seconds
    rounds = 0
    while True:
        if rounds:
            # whole rounds only, as many as end nearest the deadline
            round_s = (perf_counter() - start) / rounds
            if deadline - perf_counter() < round_s / 2:
                break
        ops = [next(stream) for _ in range(workloads.ROUND)]
        for p in (passes if rounds % 2 == 0 else passes[::-1]):
            if p == "traced":
                tracer.install()
            try:
                for k, op in enumerate(ops):
                    tracer.op = rounds * workloads.ROUND + k
                    latency, checked = run_one(
                        op, tracer.call if p == "traced" else plain)
                    res = results[p]
                    res["latency_s"].append(latency)
                    res["ok"].append(checked.ok)
                    res["digest"].append(checked.digest)
                    res["kind"].append(op.kind)
                    res["rows"].append(checked.n_rows)
                    res["digits"].extend(checked.digits)
                    res["defects"].extend(checked.defects)
            finally:
                tracer.uninstall()
        rounds += 1
    elapsed = perf_counter() - start

    out = {
        "passes": results,
        "elapsed_s": elapsed,
        "warm_ok": warm_ok,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": fingerprint(np, scipy, lightningfit),
    }
    if args.trace:
        traced = results["traced"]
        calls, self_s, per_op = tracer.self_times()
        out["layers"] = layer_metrics(tracer, calls, self_s, traced["kind"],
                                      traced["rows"])
        out["op_span_s"] = [per_op[k] for k in range(len(traced["kind"]))]
        out["missing_hooks"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
