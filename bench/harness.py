"""Workloads, output checks, metrics and report of the bruhatmc benchmark.

Imported by run.py once it has pinned BLAS threads and put the checkout's
``src/`` first on ``sys.path``.  Every workload is a real user run through
``bruhatmc.cli.main`` (or the ``fkg`` library calls, which have no CLI
command), timed from outside the program.  See README.md in this directory
for why each workload exists and which layer metric should move which
end-to-end metric.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

import bruhatmc
from bruhatmc import _parallel, cli, estimators, fkg, order, perms, zprocess

from tracing import Tracer, duration, self_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 20261017

END_TO_END = {  # name -> unit; fail_frac is printed, and the result line carries it as failed/attempted
    "trials_per_s": "trials/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "perms.trial_stream_us": "us",
    "perms.sample_uniform_us": "us",
    "order.is_leq_strong_us": "us",
    "order.rows_scanned_mean": "rows",
    "order.exact_count_s": "s",
    "zprocess.z_table_ms": "ms",
    "zprocess.table_bytes": "B",
    "zprocess.max_rect_stat_s": "s",
    "zprocess.max_rect_stat_self_s": "s",
    "estimators.comparability_us_per_trial": "us",
    "estimators.sheet_us_per_trial": "us",
    "estimators.successes": "count",
    "parallel.run_blocks_s": "s",
    "parallel.blocks": "count",
    "parallel.pool_overhead_ms": "ms",
    "parallel.speedup_w2": "ratio",
    "fkg.corner_events_s": "s",
    "fkg.comparability_probability_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace_overhead_frac": "ratio",
}

# Reference values the output checks compare against.
EXACT_P = {
    1: Fraction(1),
    2: Fraction(3, 4),
    3: Fraction(19, 36),
    4: Fraction(213, 576),
    5: Fraction(3781, 14400),
    6: Fraction(98407, 518400),
}
CORNER_P = {5: Fraction(443, 1200)}
# Half-width of the Monte Carlo agreement interval in standard errors.  At
# z = 5 a correct estimator misses with probability about 6e-7 per check, so
# unchanged code essentially never fails on a fresh seed.
Z_CHECK = 5.0
C10_RATIO_MAX = 10.0  # acceptance criterion c10's bound on the normalized maxima

# Trial budgets of one round of each workload.  mc-grid weights trials toward
# large n as criterion c11 does; chainstat-rect uses two 256-trial blocks per
# window so that --workers 2 really starts a pool.
SIZES = {
    "mc-grid": {"grid": [(4, 8192), (6, 8192), (8, 8192), (16, 32768), (32, 65536), (64, 131072)]},
    "sheet-gauss": {"grid": [(16, 16384), (64, 65536), (256, 131072)]},
    "chainstat-rect": {"n": 1024, "xy": [64, 512], "trials": 512},
    "exact-oracles": {"exact_n": [1, 2, 3, 4, 5, 6], "fkg_n": 5},
}
SETUP_REPS = 9  # fresh interpreters timed per run for setup_s (median reported)
PROBE_KEYS = 2000  # (seed, trial) keys per public-path probe at n <= 64
PROBE_KEYS_LARGE = 40  # keys per probe at n = 1024
Z_PROBE_N = 1024


# ------------------------------------------------------------------ operations


@dataclasses.dataclass
class Op:
    """One CLI invocation or one library call."""

    label: str
    result: object = None
    error: str | None = None
    failed: bool = False


class Run:
    """The operations of one benchmark run: counts, checks and timing.

    An operation fails on an exception, a nonzero exit code or a missed
    output check.  A failure is counted and recorded; it never aborts the run.
    """

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.errors: dict[str, int] = {}
        self.op_seconds = 0.0
        self.work = 0
        self.output_bytes = 0

    def cli(self, argv: list[str]) -> Op:
        op = Op("bruhatmc " + argv[0])
        out = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    with self.tracer.span("cli.main", command=argv[0]):
                        code = cli.main(argv)
            if code != cli.EXIT_OK:
                op.error = f"exit code {code}"
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not a failed run
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.op_seconds += time.perf_counter() - start
        op.result = out.getvalue()
        self.output_bytes += len(op.result.encode())
        if op.error:
            self.fail(op, op.error)
        return op

    def call(self, name: str, fn: Callable, *args, describe: Callable | None = None) -> Op:
        op = Op(name)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                op.result = fn(*args)
            else:
                op.result = self.tracer.call(name, fn, args, describe)
        except Exception as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.op_seconds += time.perf_counter() - start
        if op.error:
            self.fail(op, op.error)
        return op

    def check(self, op: Op, what: str, predicate: Callable[[], bool]) -> bool:
        try:
            ok = bool(predicate())
        except Exception as exc:  # missing or malformed output is a miss
            ok = False
            what = f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self.misses.append(f"{op.label}: {what}")
            self.fail(op, f"missed check: {what}")
        return ok

    def fail(self, op: Op, why: str):
        if not op.failed:
            op.failed = True
            self.failed += 1
        key = f"{op.label}: {why}"
        self.errors[key] = self.errors.get(key, 0) + 1


def _read_rows(path: Path) -> list[dict]:
    """Data rows of a bruhatmc CSV (schema line, header, rows); none if the
    file is missing or has no header, which the row-count checks then miss."""
    try:
        lines = path.read_text().splitlines()
        header = lines[1].split(",")
    except (OSError, IndexError):
        return []
    return [dict(zip(header, line.split(","))) for line in lines[2:] if line]


def _manifest_ok(first_output: Path) -> bool:
    manifest = json.loads(first_output.with_name(first_output.name + ".manifest.json").read_text())
    digests = manifest["outputs"]
    return bool(digests) and all(
        hashlib.sha256(Path(p).read_bytes()).hexdigest() == d for p, d in digests.items()
    )


def _files_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _agrees(p_hat: float, p: Fraction, trials: int) -> bool:
    return abs(p_hat - float(p)) <= Z_CHECK * math.sqrt(float(p * (1 - p)) / trials)


def _strictly_decreasing(values: list[float]) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# ------------------------------------------------------------------- workloads


def _mc_grid(run: Run, size: dict) -> None:
    out = run.workdir / "scaling"
    shutil.rmtree(out, ignore_errors=True)
    ns = [n for n, _ in size["grid"]]
    trials = [t for _, t in size["grid"]]
    op = run.cli([
        "pipeline-scaling", "--n-grid", _join(ns), "--trials", _join(trials),
        "--seed", str(run.seed), "--workers", "2", "--out-dir", str(out),
    ])
    run.work += sum(trials)
    run.output_bytes += _files_bytes(run.workdir)
    rows = _read_rows(out / "results.csv")
    if run.check(op, "results.csv has one row per n with its trial budget",
                 lambda: [(int(r["n"]), int(r["trials"])) for r in rows] == list(zip(ns, trials))):
        p_hat = [float(r["p_hat"]) for r in rows]
        for n, t, ph in zip(ns, trials, p_hat):
            if n in EXACT_P:
                run.check(op, f"p_hat={ph} agrees with exact p={EXACT_P[n]} at n={n} (z={Z_CHECK})",
                          lambda: _agrees(ph, EXACT_P[n], t))
        run.check(op, f"p_hat strictly decreasing over n={ns}: {p_hat}", lambda: _strictly_decreasing(p_hat))
    run.check(op, "fit.json has a fit status", lambda: json.loads((out / "fit.json").read_text())["status"]
              in ("OK", "UNDERDETERMINED"))
    if op.error is None:
        run.check(op, "manifest digests match the outputs", lambda: _manifest_ok(out / "results.csv"))


def _sheet_gauss(run: Run, size: dict) -> None:
    out = run.workdir / "gauss.csv"
    out.unlink(missing_ok=True)
    ms = [m for m, _ in size["grid"]]
    trials = [t for _, t in size["grid"]]
    op = run.cli([
        "gauss", "--grid", _join(ms), "--threshold", "1", "--trials", _join(trials),
        "--seed", str(run.seed), "--workers", "1", "--out", str(out),
    ])
    run.work += sum(trials)
    run.output_bytes += _files_bytes(run.workdir)
    rows = _read_rows(out)
    if run.check(op, "gauss.csv has one row per m with its trial budget",
                 lambda: [(int(r["m"]), int(r["trials"])) for r in rows] == list(zip(ms, trials))):
        p_hat = [float(r["p_hat"]) for r in rows]
        run.check(op, f"p_hat strictly decreasing over m={ms}: {p_hat}", lambda: _strictly_decreasing(p_hat))
    if op.error is None:
        run.check(op, "manifest digests match the outputs", lambda: _manifest_ok(out))


def _chainstat_rect(run: Run, size: dict) -> None:
    out = run.workdir / "chainstat.csv"
    out.unlink(missing_ok=True)
    xy = _join(size["xy"])
    op = run.cli([
        "chainstat", "--n", str(size["n"]), "--x", xy, "--y", xy, "--stat", "rect",
        "--trials", str(size["trials"]), "--seed", str(run.seed), "--workers", "2", "--out", str(out),
    ])
    run.work += size["trials"] * len(size["xy"])
    run.output_bytes += _files_bytes(run.workdir)
    rows = _read_rows(out)
    if run.check(op, "chainstat.csv has one row per window", lambda: len(rows) == len(size["xy"])):
        ratios = [float(r["estimate"]) / float(r["normalizer"]) for r in rows]
        run.check(op, f"c10: every estimate/normalizer ratio {ratios} <= {C10_RATIO_MAX}",
                  lambda: max(ratios) <= C10_RATIO_MAX)
        run.check(op, f"c10: max/min of {ratios} <= {C10_RATIO_MAX}",
                  lambda: max(ratios) / min(ratios) <= C10_RATIO_MAX)
    if op.error is None:
        run.check(op, "manifest digests match the outputs", lambda: _manifest_ok(out))


def _exact_oracles(run: Run, size: dict) -> None:
    for n in size["exact_n"]:
        op = run.cli(["exact", "--n", str(n)])
        run.work += math.factorial(n) ** 2
        run.check(op, f"exact P at n={n} is {EXACT_P[n]}",
                  lambda: Fraction(json.loads(op.result)["probability"]) == EXACT_P[n])
    k = size["fkg_n"]
    op = run.call("fkg.corner_events_equal", fkg.corner_events_equal, k)
    run.work += math.factorial(k) ** 2
    if k in CORNER_P:
        run.check(op, f"the four corner events at n={k} are each {CORNER_P[k]}",
                  lambda: list(op.result) == [CORNER_P[k]] * 4)
    op = run.call("fkg.comparability_probability", fkg.comparability_probability, k)
    run.work += math.factorial(k) ** 2
    run.check(op, f"fkg.comparability_probability({k}) is {EXACT_P[k]}", lambda: op.result == EXACT_P[k])


@dataclasses.dataclass(frozen=True)
class Workload:
    round: Callable[[Run, dict], None]
    work: str  # what trials_per_s counts
    probe_n: tuple[int, ...]  # sizes at which the public-path probes sample pairs
    largest: Callable[[dict, int], tuple[str, Callable, tuple]]  # estimate timed at 1 and 2 workers


WORKLOADS = {
    "mc-grid": Workload(
        _mc_grid, "trials", (8, 64),
        lambda size, seed: ("estimators.estimate_comparability", estimators.estimate_comparability,
                            (*size["grid"][-1], seed)),
    ),
    "sheet-gauss": Workload(
        _sheet_gauss, "trials", (),
        lambda size, seed: ("estimators.sheet_persistence", estimators.sheet_persistence,
                            (size["grid"][-1][0], 1.0, size["grid"][-1][1], seed)),
    ),
    "chainstat-rect": Workload(
        _chainstat_rect, "trials", (1024,),
        lambda size, seed: ("zprocess.max_rect_stat", zprocess.max_rect_stat,
                            (size["n"], size["xy"][-1], size["xy"][-1], size["trials"], seed)),
    ),
    "exact-oracles": Workload(
        _exact_oracles, "enumerated pairs", (6,),
        lambda size, seed: ("estimators.estimate_comparability", estimators.estimate_comparability,
                            (8, 16384, seed)),
    ),
}
REFERENCE_PROBE_N = (64,)  # probe size for a workload that samples no permutations


def _rounds(workload: Workload, run: Run, size: dict, seconds: float) -> list[dict]:
    """Repeat the workload's round until `seconds` have passed (at least once)."""
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        run.op_seconds = run.work = run.output_bytes = 0
        first_span = len(run.tracer.spans) if run.tracer else 0
        workload.round(run, size)
        records.append({
            "wall": run.op_seconds,
            "work": run.work,
            "bytes": run.output_bytes,
            "spans": (first_span, len(run.tracer.spans) if run.tracer else 0),
        })
        if time.perf_counter() >= deadline:
            return records


# -------------------------------------------------------------- untraced run


def _setup_seconds(run: Run, reps: int) -> list[float]:
    """Wall time of fresh interpreters that import bruhatmc.cli, build its
    parser and exit (``--version``); one untimed start first fills caches."""
    cmd = [sys.executable, "-m", "bruhatmc.cli", "--version"]
    times = []
    for i in range(reps + 1):
        op = Op("setup: python -m bruhatmc.cli --version")
        run.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        except subprocess.TimeoutExpired:
            run.fail(op, "timed out after 60 s")
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            run.fail(op, f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        run.check(op, "prints the package version", lambda: proc.stdout.strip() == f"bruhatmc {bruhatmc.__version__}")
        if i:
            times.append(elapsed)
    return times


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _untraced(workload: Workload, run: Run, size: dict, seconds: float):
    """End-to-end metrics.  Round times are reported as the fastest round:
    on a shared host, interference only adds time and drifts over tens of
    seconds, so the median round of a run moves with the load while the
    fastest round tracks the program's own cost (see README.md, Limits)."""
    records = _rounds(workload, run, size, seconds)
    walls = [r["wall"] for r in records]
    rates = [r["work"] / r["wall"] for r in records]
    peak = _peak_rss_mb()  # read before the setup interpreters become children too
    setup = _setup_seconds(run, SETUP_REPS)
    return {
        "trials_per_s": (max(rates), rates, "max", f"{workload.work} per second of a round"),
        "wall_s": (min(walls), walls, "min", "wall time of one round"),
        "setup_s": (statistics.median(setup), setup, "median", "fresh interpreter: import bruhatmc.cli + parser"),
        "peak_rss_mb": (peak, [peak], "peak", "benchmark process + largest worker child"),
    }


# ---------------------------------------------------------------- traced run


def _describe_estimate(args, result):
    return {"n": result.n, "trials": result.trials, "successes": result.successes}


def _describe_blocks(args, result):
    total, block_size, _fn = args[:3]
    workers = args[3] if len(args) > 3 else 1
    return {"total": total, "block_size": block_size, "workers": workers,
            "blocks": len(_parallel.block_ranges(total, block_size))}


def _describe_exact(args, result):
    return {"n": result.n}


# Public functions wrapped where the calling module references them.
TRACE_POINTS = [
    (cli, "estimate_comparability", "estimators.estimate_comparability", _describe_estimate),
    (cli, "sheet_persistence", "estimators.sheet_persistence", _describe_estimate),
    (cli, "fit_scaling", "estimators.fit_scaling", None),
    (cli, "psi_fit", "estimators.psi_fit", None),
    (cli, "max_rect_stat", "zprocess.max_rect_stat", None),
    (cli, "exact_comparability_count", "order.exact_comparability_count", _describe_exact),
    (estimators, "run_blocks", "_parallel.run_blocks", _describe_blocks),
    (zprocess, "run_blocks", "_parallel.run_blocks", _describe_blocks),
]

# Small library calls that stand in for a layer the workload does not use, so
# that every per-layer metric is measured on every workload.  Values taken
# from them are listed as "reference" in the report.
REFERENCE_CALLS = [
    ("estimators.estimate_comparability", lambda seed: (estimators.estimate_comparability, (8, 8192, seed)),
     _describe_estimate),
    ("estimators.sheet_persistence", lambda seed: (estimators.sheet_persistence, (16, 1.0, 8192, seed)),
     _describe_estimate),
    ("zprocess.max_rect_stat", lambda seed: (zprocess.max_rect_stat, (256, 32, 32, 64, seed)), None),
    ("order.exact_comparability_count", lambda seed: (order.exact_comparability_count, (5,)), _describe_exact),
    ("fkg.corner_events_equal", lambda seed: (fkg.corner_events_equal, (4,)), None),
    ("fkg.comparability_probability", lambda seed: (fkg.comparability_probability, (4,)), None),
]


def _layer_values(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one round from its spans.  Keys with a bracketed
    suffix are detail lines (per n or m), not reported metrics."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    v: dict[str, float] = {}
    if mains := named("cli.main"):
        v["cli.self_s"] = sum(self_time(s, spans) for s in mains)
    if exact := named("order.exact_comparability_count"):
        v["order.exact_count_s"] = sum(map(duration, exact))
        for s in exact:
            v[f"order.exact_count_s[n={s['attrs']['n']}]"] = duration(s)
    for name, metric, label in (
        ("estimators.estimate_comparability", "estimators.comparability_us_per_trial", "n"),
        ("estimators.sheet_persistence", "estimators.sheet_us_per_trial", "m"),
    ):
        if found := named(name):
            for s in found:
                v[f"{metric}[{label}={s['attrs']['n']}]"] = duration(s) / s["attrs"]["trials"] * 1e6
                v[f"estimators.successes[{label}={s['attrs']['n']}]"] = s["attrs"]["successes"]
            big = max(found, key=lambda s: s["attrs"]["n"])
            v[metric] = duration(big) / big["attrs"]["trials"] * 1e6
            v["estimators.successes"] = v.get("estimators.successes", 0) + sum(
                s["attrs"]["successes"] for s in found
            )
    if rect := named("zprocess.max_rect_stat"):
        v["zprocess.max_rect_stat_s"] = sum(map(duration, rect))
        v["zprocess.max_rect_stat_self_s"] = sum(self_time(s, spans) for s in rect)
    if blocks := named("_parallel.run_blocks"):
        v["parallel.run_blocks_s"] = sum(map(duration, blocks))
        v["parallel.blocks"] = sum(s["attrs"]["blocks"] for s in blocks)
    for name, metric in (
        ("fkg.corner_events_equal", "fkg.corner_events_s"),
        ("fkg.comparability_probability", "fkg.comparability_probability_s"),
    ):
        if found := named(name):
            v[metric] = sum(map(duration, found))
    return v


def _median_values(per_round: list[dict[str, float]]) -> dict[str, float]:
    keys = {k for r in per_round for k in r}
    return {k: statistics.median(r[k] for r in per_round if k in r) for k in keys}


def _noop_block(lo: int, hi: int) -> int:
    return hi - lo


def _pool_overhead_ms(layout: list[tuple[int, int]], reps: int = 3) -> float:
    """run_blocks at 2 workers with a no-op block function over a block layout."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for total, block_size in layout:
            _parallel.run_blocks(total, block_size, _noop_block, 2)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _counts(result):
    if hasattr(result, "successes"):
        return result.successes
    return (result.mean, result.stderr, result.trials)


def _speedup_w2(workload: Workload, run: Run, size: dict) -> tuple[float, str]:
    name, fn, args = workload.largest(size, run.seed)
    walls = {}
    ops = {}
    for workers in (1, 2):
        start = time.perf_counter()
        ops[workers] = run.call(f"{name} --workers {workers}", functools.partial(fn, workers=workers), *args)
        walls[workers] = time.perf_counter() - start
    run.check(ops[2], "counts at workers 1 and 2 are equal",
              lambda: _counts(ops[1].result) == _counts(ops[2].result))
    return walls[1] / walls[2], f"{name}{args}: {walls[1]:.3f} s at 1 worker, {walls[2]:.3f} s at 2"


def _probes(seed: int, ns: tuple[int, ...]) -> dict[str, float]:
    """Public-path costs on the workload's own (seed, trial) keys."""
    v: dict[str, float] = {}
    start = time.perf_counter()
    for t in range(PROBE_KEYS):
        perms.trial_stream(seed, t)
    v["perms.trial_stream_us"] = (time.perf_counter() - start) / PROBE_KEYS * 1e6
    for n in ns:
        keys = PROBE_KEYS if n <= 64 else PROBE_KEYS_LARGE
        streams = [perms.trial_stream(seed, t) for t in range(keys)]
        start = time.perf_counter()
        pairs = [(perms.sample_uniform(n, g), perms.sample_uniform(n, g)) for g in streams]
        sample = (time.perf_counter() - start) / (2 * keys) * 1e6
        start = time.perf_counter()
        verdicts = [order.is_leq_strong(p, q) for p, q in pairs]
        leq = (time.perf_counter() - start) / keys * 1e6
        rows = statistics.fmean(w.witness[0] if w.witness else n for w in verdicts)
        for metric, value in (("perms.sample_uniform_us", sample), ("order.is_leq_strong_us", leq),
                              ("order.rows_scanned_mean", rows)):
            v[metric] = value  # the largest n, probed last, is the reported value
            v[f"{metric}[n={n}]"] = value
    streams = [perms.trial_stream(seed, t) for t in range(PROBE_KEYS_LARGE)]
    pairs = [(perms.sample_uniform(Z_PROBE_N, g), perms.sample_uniform(Z_PROBE_N, g)) for g in streams]
    start = time.perf_counter()
    tables = [zprocess.z_table(p, q) for p, q in pairs]
    v["zprocess.z_table_ms"] = (time.perf_counter() - start) / len(pairs) * 1e3
    v["zprocess.table_bytes"] = tables[0].z.nbytes
    return v


def _traced(workload: Workload, run: Run, size: dict, seconds: float):
    """Alternate untraced and traced rounds, then the layer probes.

    Alternating pairs the two kinds of round under the same machine load,
    so trace_overhead_frac is not skewed by load that drifts during a run.
    """
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced += _rounds(workload, run, size, 0)
        with tracer.patched(TRACE_POINTS):
            run.tracer = tracer
            traced += _rounds(workload, run, size, 0)
            run.tracer = None
        if time.perf_counter() >= deadline:
            break
    values = _median_values([_layer_values(tracer.spans[slice(*r["spans"])]) for r in traced])
    sources = {k: "workload" for k in values}
    with tracer.patched(TRACE_POINTS):
        run.tracer = tracer
        reference_spans: dict[str, list[dict]] = {}
        for span_name, make, describe in REFERENCE_CALLS:
            if any(s["name"] == span_name for s in tracer.spans):
                continue
            fn, args = make(run.seed)
            first = len(tracer.spans)
            run.call(span_name, fn, *args, describe=describe)
            reference_spans[span_name] = tracer.spans[first:]
            for k, val in _layer_values(reference_spans[span_name]).items():
                if k not in values:
                    values[k] = val
                    sources[k] = f"reference {span_name}{args}"
        run.tracer = None
    # the block layout of one traced round, or of the reference comparability estimate
    layout_spans = tracer.spans[slice(*traced[0]["spans"])]
    if not any(s["name"] == "_parallel.run_blocks" for s in layout_spans):
        layout_spans = reference_spans.get("estimators.estimate_comparability", [])
    layout = [(s["attrs"]["total"], s["attrs"]["block_size"]) for s in layout_spans
              if s["name"] == "_parallel.run_blocks"]
    values["parallel.pool_overhead_ms"] = _pool_overhead_ms(layout)
    sources["parallel.pool_overhead_ms"] = f"layout {layout}"
    values["parallel.speedup_w2"], sources["parallel.speedup_w2"] = _speedup_w2(workload, run, size)
    probe_n = workload.probe_n or REFERENCE_PROBE_N
    for k, val in _probes(run.seed, probe_n).items():
        values[k] = val
        sources[k] = "probe" if workload.probe_n else f"reference probe n={probe_n}"
    values["cli.output_bytes"] = statistics.median(r["bytes"] for r in traced)
    values["trace_overhead_frac"] = min(r["wall"] for r in traced) / min(r["wall"] for r in untraced) - 1.0
    trace_path = OUT / f"trace-{run.workdir.name}-seed{run.seed}.json"
    tracer.write(trace_path)
    return values, sources, len(traced), trace_path


# ------------------------------------------------------------------ reporting


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "bruhatmc": bruhatmc.__version__,
        "git_commit": _git_commit(),
        "blas_pin": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _spread(samples: list[float]) -> str:
    if len(samples) < 2:
        return ""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"; median {median:.6g}, q1 {q1:.6g}, q3 {q3:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and print its report; returns the result object."""
    workload = WORKLOADS[name]
    size = SIZES[name]
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(seed, workdir)
    print("context " + json.dumps(context(name, seed, seconds, int(trace)), sort_keys=True))
    metrics = {}
    if trace:
        values, sources, rounds, trace_path = _traced(workload, run, size, seconds)
        print(f"traced rounds: {rounds}; spans written to {trace_path.relative_to(ROOT)}")
        for key in sorted(values):
            base = key.split("[", 1)[0]
            unit = PER_LAYER[base]
            if key in PER_LAYER:
                metrics[key] = {"value": values[key], "unit": unit}
            print(f"layer  {key:<48} {values[key]:>14.6g} {unit:<6} ({sources.get(key, 'workload')})")
        if "order.is_leq_strong_us[n=64]" in values:
            parts = (values["perms.trial_stream_us"] + 2 * values["perms.sample_uniform_us[n=64]"]
                     + values["order.is_leq_strong_us[n=64]"])
            print(f"note   public-path parts at n=64 sum to {parts:.3g} us per trial, against "
                  f"{values.get('estimators.comparability_us_per_trial[n=64]', float('nan')):.3g} us per "
                  "trial of the estimate_comparability span on the workload's workers: the estimator uses "
                  "private fast paths, so the parts are not an additive split")
        print("note   worker processes are not traced; run_blocks spans cover the pool as a whole")
    else:
        for key, (value, samples, stat, what) in _untraced(workload, run, size, seconds).items():
            metrics[key] = {"value": value, "unit": END_TO_END[key]}
            print(f"metric {key:<14} {value:>14.6g} {END_TO_END[key]:<8} "
                  f"({stat} of n={len(samples)}{_spread(samples)}; {what})")
    fail_frac = run.failed / max(run.attempted, 1)
    print(f"metric {'fail_frac':<14} {fail_frac:>14.6g} {'ratio':<8} (failed {run.failed} of n={run.attempted} operations)")
    for why, count in run.errors.items():
        print(f"failure x{count}: {why}")
    result = {
        "correct": not run.misses,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, timeout=900,
        )
        status = status or proc.returncode
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0
