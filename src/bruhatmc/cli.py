"""Command line front end.

Each command checks its inputs, runs, and returns what it produced, and
writes nothing itself: either a JSON payload for stdout, or a map from
output path (None for stdout) to text together with the manifest params.
main alone writes: the payload or texts go to stdout and to the files named
by --out/--out-dir, and a run that writes files also writes a JSON manifest
next to the first, recording the exact argv, the params (led by the
command), software version and output digests; re-running a manifest's argv
reproduces the data files byte for byte (manifests themselves carry
timestamps and are not compared).  Progress and warnings go to stderr, so
pipelines compose.

main writes every file under a temporary name in the file's own directory
and renames them into place only once all are written, so a write that
fails or is interrupted leaves no data file without its manifest and no
temporary file.

main also maps the commands' exceptions to exit codes: 0 success,
2 configuration error, 3 invariant violation (the run's output is still
written first), 4 LOW-COUNT refusal, 130 interrupted (Ctrl-C: one line;
an interrupt while the command runs or writes leaves no new output file
or manifest).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import warnings
from pathlib import Path

from . import __version__
from .dists import (
    HyperGeomParams,
    bernoulli_ratio,
    hypergeom_moments,
    hypergeom_pmf_exact,
    hypergeom_sample,
    submatrix_side,
)
from .estimators import (
    EstimateResult,
    estimate_comparability,
    fit_scaling,
    li_shao_sum,
    psi_fit,
    sheet_persistence,  # unused here, but bench/harness.py patches cli.sheet_persistence to trace it
    sheet_persistence_grid,
)
from .fkg import UPSET_CAP, fkg_check, random_upset
from .order import EXACT_COUNT_CAP, exact_comparability_count, is_leq_strong, is_leq_weak
from .perms import MAX_TABLE_SIZE, MAX_WINDOW_N, Permutation, parse_permutation, trial_stream
from .zprocess import max_rect_stat, max_strip_stat, z_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_LOWCOUNT = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C

MC_SCHEMA = "mc-v5"
# schemas fit still reads: older rows are identical, only the stream layout differs
MC_READABLE = (MC_SCHEMA, "mc-v4", "mc-v3", "mc-v2", "mc-v1")
GAUSS_SCHEMA = "gauss-v3"
CHAINSTAT_SCHEMA = "chainstat-v4"
NAIVE_MC_MAX_N = 64

MC_COLUMNS = ["n", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed"]
CHAINSTAT_COLUMNS = ["n", "x", "y", "estimate", "stderr", "normalizer"]


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    """A theorem failed to hold; ``result`` is the command's result, which
    main writes before the one-line message."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class LowCountRefusal(Exception):
    pass


def _log(msg: str):
    print(msg, file=sys.stderr)


def _int_list(text: str, name: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{name}: expected at least one integer, got {text!r}")
    return values


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason})") from None


def _one_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{name}: expected an integer, got {text!r}") from None


def _one_bool(text: str, name: str) -> bool:
    if text.lower() not in ("true", "false", "yes", "no", "1", "0"):
        raise ConfigError(f"{name}: expected true/false/yes/no/1/0, got {text!r}")
    return text.lower() in ("true", "yes", "1")


def _check_min(name: str, low: int, *values: int):
    if min(values) < low:
        raise ConfigError(f"{name} must be >= {low}, got {min(values)}")


def _check_seed(name: str, seed: int):
    # trial_stream keys Philox with the seed as one uint64 word
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"{name} must lie in [0, 2^64), got {seed}")


def _check_distinct(name: str, values: list[int]):
    # a repeated size would re-run the same trial streams as a second point
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"{name}: size {repeated[0]} appears more than once")


def _broadcast(values: list[int], count: int, name: str) -> list[int]:
    if len(values) == 1:
        return values * count
    if len(values) != count:
        expected = "1 value" if count == 1 else f"1 or {count} values"
        raise ConfigError(f"{name}: expected {expected}, got {len(values)}")
    return values


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@contextlib.contextmanager
def _writing(path: Path):
    """Report an OSError raised inside the block as a config error on ``path``."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(out: str | None):
    """Fail before a long estimate, not after it, when --out cannot be
    written; a file this creates is removed again."""
    if out is None:
        return
    path = Path(out)
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        path.open("a").close()
        if not existed:
            path.unlink()


def _csv_text(schema: str, meta: dict, header: list[str], rows: list[list]) -> str:
    tags = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# schema={schema} software=bruhatmc-{__version__}" + (f" {tags}" if tags else "")]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    # strict JSON: a NaN or infinity fails here instead of in a reader
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def rerun_manifest(path: str | Path) -> int:
    """Re-execute the argv recorded in a manifest; data files come out
    byte-identical for identical software."""
    manifest = json.loads(Path(path).read_text())
    return main(manifest["argv"])


def _estimate_rows(results: list[EstimateResult]) -> list[list]:
    return [
        [r.n, r.trials, r.successes, r.p_hat, r.ci_low, r.ci_high, r.seed]
        for r in results
    ]


def _read_mc_csv(path: str) -> list[EstimateResult]:
    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith(tuple(f"# schema={v} " for v in MC_READABLE)):
        raise ConfigError(f"{path}: missing or mismatched schema header (need {MC_SCHEMA})")
    if len(lines) < 2 or lines[1].split(",") != MC_COLUMNS:
        raise ConfigError(f"{path}: column header mismatch")
    results = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(MC_COLUMNS):
            raise ConfigError(f"{path}:{lineno}: expected {len(MC_COLUMNS)} fields, got {len(fields)}")
        n, trials, successes, seed = (_one_int(fields[i], f"{path}:{lineno}") for i in (0, 1, 2, 6))
        if not 0 <= successes <= trials or trials < 1:
            raise ConfigError(f"{path}:{lineno}: bad counts {successes}/{trials}")
        if n < 1:
            raise ConfigError(f"{path}:{lineno}: n must be >= 1, got {n}")
        try:  # NaN and infinities fail the range check
            p_hat, ci_low, ci_high = (float(fields[i]) for i in (3, 4, 5))
            valid = p_hat == successes / trials and 0 <= ci_low <= p_hat <= ci_high <= 1
        except ValueError:
            valid = False
        if not valid:
            raise ConfigError(
                f"{path}:{lineno}: need 0 <= ci_low <= p_hat = {successes}/{trials} <= ci_high <= 1, "
                f"got ci_low={fields[4]!r} p_hat={fields[3]!r} ci_high={fields[5]!r}"
            )
        results.append(EstimateResult.from_counts(n, trials, successes, seed, 0.0))
    return results


# ---------------------------------------------------------------- subcommands


def _parse_pair(args) -> tuple[Permutation, Permutation]:
    try:
        p = parse_permutation(args.pi)
        t = parse_permutation(args.tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if p.n != t.n:
        raise ConfigError(f"--pi and --tau differ in size: {p.n} vs {t.n}")
    return p, t


def _cmd_check(args):
    p, t = _parse_pair(args)
    if args.order == "strong":
        verdict = is_leq_strong(p, t)
        payload = {
            "order": "strong",
            "pi": args.pi,
            "tau": args.tau,
            "leq": verdict.leq,
            "witness": list(verdict.witness) if verdict.witness else None,
        }
    else:
        payload = {
            "order": "weak",
            "pi": args.pi,
            "tau": args.tau,
            "leq": is_leq_weak(p, t),
        }
    return payload


def _cmd_exact(args):
    _check_min("--n", 1, args.n)
    if args.n > EXACT_COUNT_CAP:
        raise ConfigError(f"--n {args.n} above the exact-count cap {EXACT_COUNT_CAP}")
    count = exact_comparability_count(args.n)
    return {
        "n": count.n,
        "comparable_pairs": count.comparable_pairs,
        "total_pairs": count.total_pairs,
        "probability": str(count.probability),
        "probability_float": float(count.probability),
        "version": __version__,
    }


def _cmd_zmin(args):
    p, t = _parse_pair(args)
    if p.n > MAX_TABLE_SIZE:
        raise ConfigError(f"--pi and --tau: size {p.n} above the table cap {MAX_TABLE_SIZE}")
    value, a, b = z_table(p, t).min_entry()
    return {"min": value, "argmin": [a, b], "leq": value >= 0}


def _cmd_chainstat(args):
    xs = _int_list(args.x, "--x")
    ys = _int_list(args.y, "--y")
    if len(xs) != len(ys):
        raise ConfigError(f"--x and --y must pair up, got {len(xs)} vs {len(ys)}")
    _check_min("--n", 1, args.n)
    if args.n > MAX_WINDOW_N:
        raise ConfigError(f"--n must be <= {MAX_WINDOW_N}, the largest n the window draws take, got {args.n}")
    _check_min("--x and --y", 1, *xs, *ys)
    if max(xs + ys) > args.n:
        raise ConfigError(f"--x and --y must be <= --n {args.n}, got {max(xs + ys)}")
    _check_min("--trials", 1, args.trials)
    _check_min("workers", 1, args.workers)
    _check_seed("--seed", args.seed)
    _check_writable(args.out)
    rows = []
    for x, y in zip(xs, ys):
        if args.stat == "rect":
            summary = max_rect_stat(args.n, x, y, args.trials, args.seed, args.workers)
            normalizer = math.sqrt(x * y / args.n) + math.log(args.n)
        else:
            summary = max_strip_stat(args.n, x, y, args.trials, args.seed, args.workers)
            normalizer = math.sqrt(x * y / args.n) + 1.0
        rows.append([args.n, x, y, summary.mean, summary.stderr, normalizer])
        _log(f"chainstat {args.stat} n={args.n} x={x} y={y}: mean={summary.mean:.4f}")
    meta = {"stat": args.stat, "trials": args.trials, "seed": args.seed}
    text = _csv_text(CHAINSTAT_SCHEMA, meta, CHAINSTAT_COLUMNS, rows)
    return {args.out: text}, {"n": args.n, "x": xs, "y": ys, **meta}


def _cmd_hyper(args):
    if (args.k is not None) + args.moments + (args.sample is not None) != 1:
        raise ConfigError("hyper: pass exactly one of --k, --moments, --sample")
    if not (0 <= args.A <= args.N and 0 <= args.B <= args.N):
        raise ConfigError(f"need 0 <= --A, --B <= --N, got N={args.N} B={args.B} A={args.A}")
    _check_seed("--seed", args.seed)
    params = HyperGeomParams(args.N, args.B, args.A)
    payload: dict = {"N": args.N, "B": args.B, "A": args.A, "version": __version__}
    if args.k is not None:
        exact = hypergeom_pmf_exact(params, args.k)
        payload["k"] = args.k
        payload["pmf"] = str(exact)
        payload["pmf_float"] = float(exact)
    elif args.moments:
        _check_min("--N with --moments", 2, args.N)
        mean, var = hypergeom_moments(params)
        payload["mean"] = str(mean)
        payload["mean_float"] = float(mean)
        payload["variance"] = str(var)
        payload["variance_float"] = float(var)
    else:
        _check_min("--sample", 0, args.sample)
        stream = trial_stream(args.seed)
        try:
            draws = hypergeom_sample(params, stream, size=args.sample)
        except MemoryError:
            raise ConfigError(f"--sample {args.sample}: too many draws to hold in memory") from None
        hist = {}
        for v in draws.tolist():
            hist[v] = hist.get(v, 0) + 1
        payload["trials"] = args.sample
        payload["seed"] = args.seed
        payload["histogram"] = {str(k): hist[k] for k in sorted(hist)}
    return payload


def _cmd_bernratio(args):
    _check_min("--n", 2, args.n)
    _check_min("--k", 0, args.k)
    side = submatrix_side(args.n)
    if args.k > side:
        raise ConfigError(f"--k {args.k} above the hypergeometric support (N={side})")
    result = bernoulli_ratio(args.n, args.k)
    return {
        "n": result.n,
        "k": result.k,
        "submatrix_side": result.submatrix_side,
        "ratio": result.ratio,
        "regime_ok": result.regime_ok,
        "version": __version__,
    }


def _refuse_naive_mc(n_max: int, force: bool, hint: str):
    if n_max > NAIVE_MC_MAX_N and not force:
        raise LowCountRefusal(
            f"naive Monte Carlo refused for n = {n_max} > {NAIVE_MC_MAX_N} (successes become "
            f"vanishingly rare); {hint} to override"
        )


def _log_estimate(command: str, key: str, r: EstimateResult) -> EstimateResult:
    """Log one grid point's estimate, and LOW-COUNT, as ``{key}=size``."""
    if r.low_count:
        _log(f"LOW-COUNT: {key}={r.n} produced only {r.successes} successes")
    _log(
        f"{command} {key}={r.n}: p_hat={r.p_hat:.4g} "
        f"[{r.ci_low:.4g}, {r.ci_high:.4g}] ({r.wall_time:.1f}s)"
    )
    return r


def _mc_grid(ns: list[int], trials: list[int], seed: int, workers: int) -> list[EstimateResult]:
    """The comparability estimates of the grid, each logged as it ends."""
    return [
        _log_estimate("mc", "n", estimate_comparability(n, t, seed, workers=workers)) for n, t in zip(ns, trials)
    ]


def _grid(args, text: str, flag: str) -> tuple[list[int], list[int]]:
    """mc's and gauss's sizes from ``text`` and the trials of each, checked
    with --seed and --workers."""
    sizes = _int_list(text, flag)
    trials = _broadcast(_int_list(args.trials, "--trials"), len(sizes), "--trials")
    _check_min(flag, 1, *sizes)
    _check_distinct(flag, sizes)
    _check_min("--trials", 1, *trials)
    _check_min("workers", 1, args.workers)
    _check_seed("--seed", args.seed)
    return sizes, trials


def _cmd_mc(args):
    ns, trials = _grid(args, args.n, "--n")
    _refuse_naive_mc(max(ns), args.force, "pass --force")
    _check_writable(args.out)
    results = _mc_grid(ns, trials, args.seed, args.workers)
    meta = {"seed": args.seed}
    text = _csv_text(MC_SCHEMA, meta, MC_COLUMNS, _estimate_rows(results))
    return {args.out: text}, {"n": ns, "trials": trials, **meta}


def _fit_payload(results: list[EstimateResult], include_low_count: bool, label: str) -> dict:
    """The decay fit as a JSON payload; logs each excluded point and a
    one-line summary under ``label``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fit = fit_scaling(results, include_low_count=include_low_count)
        except ValueError as exc:
            fit, reason = None, str(exc)
    for w in caught:
        _log(f"{label}: {w.message}")
    if fit is None:
        _log(f"{label} UNDERDETERMINED: {reason}")
        return {"status": "UNDERDETERMINED", "reason": reason, "version": __version__}
    score = "undefined" if fit.comparison_score is None else f"{fit.comparison_score:.2f}"
    _log(
        f"{label}: alpha={fit.alpha:.4f} beta={fit.beta:.4f} gamma={fit.gamma:.4f} "
        f"r2={fit.r_squared:.4f} preferred={fit.preferred} (score {score})"
    )
    # json writes the tuple fields as arrays
    payload = dataclasses.asdict(fit)
    payload.update(comparison_score=fit.comparison_score, status="OK", version=__version__)
    return payload


def _cmd_fit(args):
    payload = _fit_payload(_read_mc_csv(args.input), args.include_low_count, "fit")
    flag = {"include_low_count": True} if args.include_low_count else {}
    return {args.out: _json_text(payload)}, {"input": args.input, **flag}


def _cmd_gauss(args):
    grid, trials = _grid(args, args.grid, "--grid")
    if not (math.isfinite(args.threshold) and args.threshold >= 0):
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
    if args.p is not None and args.mode != "zeta":
        raise ConfigError(f"--p applies to --mode zeta only, got --mode {args.mode}")
    if args.p is not None and not 0 < args.p <= 0.5:
        raise ConfigError(f"--p must be in (0, 1/2], got {args.p}")
    if args.mode == "zeta" and args.p is None:
        _check_min("--grid with the default p = 1/m^2", 2, *grid)
    _check_writable(args.out)
    results = sheet_persistence_grid(
        grid, args.threshold, trials, args.seed, mode=args.mode, p=args.p, workers=args.workers
    )
    for r in results:
        _log_estimate("gauss", "m", r)
    meta = {"mode": args.mode, "threshold": args.threshold, "seed": args.seed}
    if args.mode == "zeta":
        meta["p"] = "default-1/m^2" if args.p is None else args.p
    try:
        fit = psi_fit(results)
        _log(f"psi_hat={fit.psi_hat:.4f} +- {fit.stderr:.4f}")
    except ValueError as exc:
        _log(f"psi fit skipped: {exc}")
    text = _csv_text(GAUSS_SCHEMA, meta, ["m"] + MC_COLUMNS[1:], _estimate_rows(results))
    return {args.out: text}, {"grid": grid, "trials": trials, **meta}


def _cmd_lishao(args):
    _check_min("--rho", 2, args.rho)
    _check_min("--index-range", 1, args.index_range)
    result = li_shao_sum(args.rho, args.index_range)
    return {
        "rho": result.rho,
        "index_range": result.index_range,
        "closed_form": str(result.closed_form),
        "closed_form_float": result.closed_form_float,
        "supremum_over_ij": result.supremum_over_ij,
        "truncation_error": abs(result.supremum_over_ij - result.closed_form_float),
        "bound_satisfied": result.bound_satisfied,
        "version": __version__,
    }


def _cmd_fkg(args):
    _check_min("--n", 1, args.n)
    if args.n > UPSET_CAP:
        raise ConfigError(f"--n {args.n} above the up-set cap {UPSET_CAP}")
    _check_min("--pairs", 1, args.pairs)
    _check_seed("--seed", args.seed)
    stream = trial_stream(args.seed)
    lines = ["pair,p_a,p_b,p_both,product,holds"]
    worst = None
    violations = 0
    for i in range(args.pairs):
        a = random_upset(args.n, stream)
        b = random_upset(args.n, stream)
        report = fkg_check(a, b)
        gap = report.lhs - report.rhs
        if worst is None or gap < worst[0]:
            worst = (gap, i, report)
        violations += 0 if report.holds else 1
        lines.append(
            f"{i},{a.probability},{b.probability},{report.lhs},{report.rhs},{report.holds}"
        )
    gap, idx, report = worst
    lines.append(f"# extremal pair {idx}: lhs-rhs = {gap} (lhs={report.lhs} rhs={report.rhs})")
    lines.append(f"# violations: {violations}/{args.pairs}")
    result = ({None: "\n".join(lines) + "\n"}, None)
    if violations:
        raise InvariantViolation(
            f"{violations} FKG violations at n={args.n}: positive correlation of "
            "up-sets is a theorem, so this is an implementation bug",
            result,
        )
    return result


DEFAULT_CONFIG = {
    "n_grid": "4,6,8,12,16,24,32",
    "trials": "100000",
    "seed": "1",
    "workers": "1",
    "out_dir": "scaling-run",
    "force": "false",
}


def _parse_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _cmd_pipeline_scaling(args):
    config = dict(DEFAULT_CONFIG)
    if args.config:
        config.update(_parse_config_file(args.config))
    overrides = {
        "n_grid": args.n_grid,
        "trials": args.trials,
        "seed": args.seed,
        "workers": args.workers,
        "out_dir": args.out_dir,
    }
    config.update({k: str(v) for k, v in overrides.items() if v is not None})
    if args.force:
        config["force"] = "true"

    grid = _int_list(config["n_grid"], "n_grid")
    _check_min("n_grid", 1, *grid)
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
    trials = _broadcast(_int_list(config["trials"], "trials"), len(grid), "trials")
    _check_min("trials", 1, *trials)
    seed = _one_int(config["seed"], "seed")
    _check_seed("seed", seed)
    workers = _one_int(config["workers"], "workers")
    _check_min("workers", 1, workers)
    _refuse_naive_mc(max(grid), _one_bool(config["force"], "force"), "set force = true")

    out_dir = Path(config["out_dir"])
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    results = _mc_grid(grid, trials, seed, workers)
    files = {
        out_dir / "results.csv": _csv_text(MC_SCHEMA, {"seed": seed}, MC_COLUMNS, _estimate_rows(results)),
        out_dir / "fit.json": _json_text(_fit_payload(results, False, "scaling fit")),
    }
    return files, config


def _write_all(outputs: dict[Path, bytes]):
    """Write each file under a temporary name in its own directory, then
    rename them into place once all are written; whatever ends the writes
    early, no file is renamed and every temporary is removed."""
    staged = []
    try:
        for path, data in outputs.items():
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with _writing(path):
                path.parent.mkdir(parents=True, exist_ok=True)
                staged.append(tmp)
                tmp.write_bytes(data)
        for tmp, path in zip(staged, outputs):
            with _writing(path):
                os.replace(tmp, path)
    finally:
        for tmp in staged:
            tmp.unlink(missing_ok=True)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _Parser(argparse.ArgumentParser):
    """argparse with misuse reported like every other config error: one
    line and exit code 2; its subcommand parsers are of this class too."""

    def error(self, message):
        _log(f"config error: {message}")
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bruhatmc",
        description="Bruhat-order comparability of random permutations: exact laws and Monte Carlo",
    )
    parser.add_argument("--version", action="version", version=f"bruhatmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="compare two permutations")
    p.add_argument("--pi", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--order", choices=["strong", "weak"], default="strong")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("exact", help=f"exact comparability count by row transfer, n <= {EXACT_COUNT_CAP}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("zmin", help="minimum of the prefix-difference table")
    p.add_argument("--pi", required=True)
    p.add_argument("--tau", required=True)
    p.set_defaults(fn=_cmd_zmin)

    p = sub.add_parser("chainstat", help="windowed maximum statistics of centered counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stat", choices=["rect", "strip"], default="rect")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_chainstat)

    p = sub.add_parser("hyper", help="hypergeometric pmf / moments / samples")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--moments", action="store_true")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_hyper)

    p = sub.add_parser("bernratio", help="hypergeometric vs binomial pmf ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_bernratio)

    p = sub.add_parser("mc", help="Monte Carlo comparability estimates")
    p.add_argument("--n", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("fit", help="fit the decay model to mc output")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--include-low-count", action="store_true")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("gauss", help="prefix-sum sheet persistence estimates")
    p.add_argument("--grid", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["gaussian", "zeta"], default="gaussian")
    p.add_argument("--p", type=float)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gauss)

    p = sub.add_parser("lishao", help="correlation row-sum constant")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--index-range", type=int, default=200)
    p.set_defaults(fn=_cmd_lishao)

    p = sub.add_parser("fkg", help="random up-set positive-correlation sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_fkg)

    p = sub.add_parser("pipeline-scaling", help="mc grid + decay fit in one run")
    p.add_argument("--config")
    p.add_argument("--n-grid")
    p.add_argument("--trials")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_pipeline_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and write what it returns, the only writer: a
    payload goes to stdout as JSON; a (files, params) result writes each
    text to its path (stdout for None) and, if any path is a file, a
    manifest next to the first.  Exceptions become exit codes here."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv)
    started = _now()
    try:
        try:
            result, violation = args.fn(args), None
        except InvariantViolation as exc:
            result, violation = exc.result, exc
        files, params = ({None: _json_text(result)}, None) if isinstance(result, dict) else result
        outputs = {}
        for out, text in files.items():
            if out is None:
                sys.stdout.write(text)
            else:
                outputs[Path(out)] = text.encode()
        if outputs:
            manifest = {
                "schema": "manifest-v1",
                "software_version": __version__,
                "argv": argv,
                "params": {"command": args.command, **params},
                "started": started,
                "finished": _now(),
                "outputs": {str(p): hashlib.sha256(data).hexdigest() for p, data in outputs.items()},
            }
            first = next(iter(outputs))
            outputs[first.with_name(first.name + ".manifest.json")] = _json_text(manifest).encode()
        _write_all(outputs)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except LowCountRefusal as exc:
        _log(f"refused: {exc}")
        return EXIT_LOWCOUNT
    except KeyboardInterrupt:
        _log("interrupted")
        return EXIT_INTERRUPTED
    if violation:
        _log(f"invariant violation: {violation}")
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
