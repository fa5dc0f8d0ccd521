"""Seeded workloads: the op generator, op execution and per-op checks.

An op is one call into the public API.  Ops come in rounds of ROUND.
Within a round, each input takes evenly spaced values at a shift plus
their mirror images in the input's range, in seeded random order.  The
shift starts at a seeded offset and moves by the golden ratio from round
to round, so that successive rounds fill the gaps the earlier ones left.
Every round covers each range evenly and symmetrically, and a run of many
rounds covers it almost exactly uniformly: runs with different seeds see
different inputs but the same mix of sizes and accuracies, which keeps
their figures, medians included, comparable.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from typing import NamedTuple

ROUND = 8
WORKLOADS = ("corner-sweep", "budget-grid", "one-off-fits", "oracles")
FIT_TARGETS = ("sqrt", "power", "powerlog")


class Op(NamedTuple):
    kind: str
    args: tuple


GOLDEN = (5 ** 0.5 - 1) / 2


class Sampler:
    """Seeded draws for one op stream, balanced within and across rounds.

    Each input (by key) gets its own seeded offset; round r shifts it by
    r times the golden ratio, a low-discrepancy sequence.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.round = 0
        self.offsets = {}

    def _offset(self, key: str) -> float:
        if key not in self.offsets:
            self.offsets[key] = self.rng.random()
        return self.offsets[key]

    def balanced(self, key: str, n: int) -> list:
        """n values in [0, 1]: n/2 evenly spaced at this round's shift,
        and their mirrors, in random order."""
        half = n // 2
        shift = (self._offset(key) + self.round * GOLDEN) % 1.0 / half
        values = [shift + k / half for k in range(half)]
        values += [1.0 - u for u in values]
        self.rng.shuffle(values)
        return values

    def cycle(self, key: str, choices: tuple, n: int) -> list:
        """n of the choices in turn, continuing from the previous round."""
        start = int(self._offset(key) * len(choices)) + self.round * n
        return [choices[(start + k) % len(choices)] for k in range(n)]


def _uniform(u: float, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * u, 6)


def _integer(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _corner_sweep(s):
    return [Op("corner-sigma", (_uniform(b, 0.4, 1.6),))
            for b in s.balanced("beta", ROUND)]


def _budget_grid(s):
    return [Op("grid", (_uniform(a, 0.1, 0.9), _integer(n1, 16, 100)))
            for a, n1 in zip(s.balanced("alpha", ROUND),
                             s.balanced("n1", ROUND))]


def _fit_argv(target, n1, alpha, beta):
    argv = ["fit", "--target", target, "--n1", str(_integer(n1, 8, 64))]
    if target != "sqrt":
        argv += ["--alpha", repr(_uniform(alpha, 0.1, 0.9))]
    if beta is not None:
        argv += ["--beta", repr(_uniform(beta, 0.2, 1.6))]
    return Op("fit", tuple(argv))


def _one_off_fits(s):
    # half the ops fit on the interval (beta = 0), half on a V-domain
    half = ROUND // 2
    interval = [_fit_argv(t, n1, a, None) for t, n1, a in zip(
        s.cycle("target", FIT_TARGETS, half), s.balanced("n1", half),
        s.balanced("alpha", half))]
    vshape = [_fit_argv(t, n1, a, b) for t, n1, a, b in zip(
        s.cycle("v-target", FIT_TARGETS, half), s.balanced("v-n1", half),
        s.balanced("v-alpha", half), s.balanced("beta", half))]
    return [op for pair in zip(interval, vshape) for op in pair]


def _oracles(s):
    half = ROUND // 2
    ladder = [Op("pole-ladder", (_integer(n, 8, 144),))
              for n in s.balanced("n", half)]
    bounds = [Op("verify-bounds", (_integer(nt, 16, 400),))
              for nt in s.balanced("nt", half)]
    return [op for pair in zip(ladder, bounds) for op in pair]


_ROUNDS = {
    "corner-sweep": _corner_sweep,
    "budget-grid": _budget_grid,
    "one-off-fits": _one_off_fits,
    "oracles": _oracles,
}


def _validate(op: Op) -> Op:
    """Reject an input outside the documented ranges: a failed op must
    always mean a program fault, never a bad draw."""
    def need(cond):
        if not cond:
            raise ValueError(f"generator drew an invalid op: {op}")

    if op.kind == "corner-sigma":
        need(0.4 <= op.args[0] <= 1.6)
    elif op.kind == "grid":
        need(0.1 <= op.args[0] <= 0.9 and 16 <= op.args[1] <= 100)
    elif op.kind == "fit":
        opts = dict(zip(op.args[1::2], op.args[2::2]))
        need(opts["--target"] in FIT_TARGETS and 8 <= int(opts["--n1"]) <= 64)
        if "--alpha" in opts:
            alpha = float(opts["--alpha"])
            need(0.1 <= alpha <= 0.9 and alpha != int(alpha))
        if "--beta" in opts:
            need(0.2 <= float(opts["--beta"]) <= 1.6)
    elif op.kind == "pole-ladder":
        need(8 <= op.args[0] <= 144)
    elif op.kind == "verify-bounds":
        need(16 <= op.args[0] <= 400)
    else:
        need(False)
    return op


def generate(workload: str, seed: int):
    """Endless op stream for a workload, ROUND ops to a round; the same
    seed gives the same ops."""
    make_round = _ROUNDS[workload]
    sampler = Sampler(random.Random(f"{workload}:{seed}"))
    while True:
        yield from (_validate(op) for op in make_round(sampler))
        sampler.round += 1


def largest(workload: str) -> Op:
    """The workload's largest op, every size at the top of its range.

    It is the warm-up op: run first, it also sets the workload's peak
    memory, which then no longer depends on the order in which the
    allocator saw ops of growing size.
    """
    return _validate({
        "corner-sweep": Op("corner-sigma", (1.6,)),
        "budget-grid": Op("grid", (0.9, 100)),
        "one-off-fits": Op("fit", ("fit", "--target", "powerlog", "--n1", "64",
                                   "--alpha", "0.9", "--beta", "1.6")),
        "oracles": Op("pole-ladder", (144,)),
    }[workload])


def expected_rows(op: Op) -> int:
    if op.kind == "pole-ladder":
        return op.args[0]  # one row per pole
    return {"corner-sigma": 41, "grid": 16, "fit": 1, "verify-bounds": 4}[op.kind]


def execute(op: Op, experiments, cli, call):
    """Run one op through the public API.

    `call(name, fn, *args, **kwargs)` invokes fn, so that a tracer can open
    the op's root span.  Returns (exit code, ResultTable or CLI stdout).
    """
    if op.kind == "fit":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = call("cli.main", cli.main, list(op.args))
        return code, out.getvalue()
    if op.kind == "corner-sigma":
        table = call("experiments", experiments.run_corner_sigma,
                     beta_list=op.args)
    elif op.kind == "grid":
        table = call("experiments", experiments.run_grid, alpha=op.args[0],
                     n1_list=(op.args[1],))
    elif op.kind == "pole-ladder":
        table = call("experiments", experiments.run_pole_ladder,
                     n_list=op.args)
    else:
        nt = op.args[0]
        table = call("experiments", experiments.run_verify_bounds,
                     nt_list=(nt,), vshape_nt_list=(max(nt, 64),))
    return 0, table


class Checked(NamedTuple):
    ok: bool
    reason: str
    digest: str
    n_rows: int
    digits: list
    defects: list


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a label, not a number


def check(op: Op, code: int, result, render_table) -> Checked:
    """Correctness of one op's output, plus the numbers the metrics need.

    The op fails when it exits non-zero, has the wrong number of rows,
    holds a non-finite cell in a row whose `status` is empty (or that has
    no status column), or has a 0 in `identity_pass` or `conj_pass`.
    """
    if isinstance(result, str):
        text = result
        digest_text = result
    else:
        text = render_table(result, "csv")
        digest_text = text + render_table(result, "json")
    digest = hashlib.sha256(digest_text.encode()).hexdigest()[:16]
    if code != 0:
        return Checked(False, f"exit code {code}", digest, 0, [], [])
    header, *rows = list(csv.reader(io.StringIO(text))) or [[]]
    if len(rows) != expected_rows(op):
        return Checked(False, f"{len(rows)} rows, expected {expected_rows(op)}",
                       digest, len(rows), [], [])
    col = {name: k for k, name in enumerate(header)}
    digits, defects = [], []
    for row in rows:
        if "status" in col and row[col["status"]] != "":
            continue
        if not all(_finite(cell) for cell in row):
            return Checked(False, f"non-finite cell in row {row}", digest,
                           len(rows), [], [])
        for flag in ("identity_pass", "conj_pass"):
            if flag in col and row[col[flag]] != "1":
                return Checked(False, f"{flag} is {row[col[flag]]}", digest,
                               len(rows), [], [])
        if "max_err" in col:
            digits.append(-math.log10(max(float(row[col["max_err"]]), 1e-300)))
        if "identity_defect" in col:
            defects.append(float(row[col["identity_defect"]]))
    return Checked(True, "", digest, len(rows), digits, defects)
