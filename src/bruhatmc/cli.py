"""Command line front end.

Data goes to stdout or to the files named by --out/--out-dir; progress and
warnings go to stderr, so pipelines compose.  File-producing runs also write
a JSON manifest recording the exact argv, seed, software version and output
digests; re-running a manifest's argv reproduces the data files byte for
byte (manifests themselves carry timestamps and are not compared).

Exit codes: 0 success, 2 configuration error, 3 invariant violation,
4 LOW-COUNT refusal.
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dists import (
    HyperGeomParams,
    bernoulli_ratio,
    hypergeom_moments,
    hypergeom_pmf_exact,
    hypergeom_sample,
)
from .estimators import (
    EstimateResult,
    estimate_comparability,
    fit_scaling,
    li_shao_sum,
    psi_fit,
    sheet_persistence,
)
from .fkg import fkg_check, random_upset
from .order import exact_comparability_count, is_leq_strong, is_leq_weak
from .perms import parse_permutation, trial_stream
from .zprocess import max_rect_stat, max_strip_stat, z_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_LOWCOUNT = 4

MC_SCHEMA = "mc-v2"
# schemas fit still reads: mc-v1 rows are identical, only the stream layout differs
MC_READABLE = (MC_SCHEMA, "mc-v1")
GAUSS_SCHEMA = "gauss-v1"
CHAINSTAT_SCHEMA = "chainstat-v1"
NAIVE_MC_MAX_N = 64

MC_COLUMNS = ["n", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed"]
CHAINSTAT_COLUMNS = ["n", "x", "y", "estimate", "stderr", "normalizer"]


class ConfigError(Exception):
    pass


class InvariantViolation(Exception):
    pass


class LowCountRefusal(Exception):
    pass


def _log(msg: str):
    print(msg, file=sys.stderr)


def _int_list(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated integers, got {text!r}") from None


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


def _broadcast(values: list[int], count: int, name: str) -> list[int]:
    if len(values) == 1:
        return values * count
    if len(values) != count:
        raise ConfigError(f"{name}: expected 1 or {count} values, got {len(values)}")
    return values


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _emit(text: str, out: str | None) -> list[Path]:
    if out is None:
        sys.stdout.write(text)
        return []
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return [path]


def _csv_text(schema: str, meta: dict, header: list[str], rows: list[list]) -> str:
    tags = " ".join(f"{k}={v}" for k, v in meta.items())
    lines = [f"# schema={schema} software=bruhatmc-{__version__}" + (f" {tags}" if tags else "")]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(outputs: list[Path], argv: list[str], params: dict, started: str):
    if not outputs:
        return
    manifest = {
        "schema": "manifest-v1",
        "software_version": __version__,
        "argv": argv,
        "params": params,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
        },
    }
    path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(tuple(f"# schema={v} " for v in MC_READABLE)):
        raise ConfigError(f"{path}: missing or mismatched schema header (need {MC_SCHEMA})")
    if len(lines) < 2 or lines[1].split(",") != MC_COLUMNS:
        raise ConfigError(f"{path}: column header mismatch")
    results = []
    for line in lines[2:]:
        if not line.strip():
            continue
        n, trials, successes, _, _, _, seed = line.split(",")
        results.append(
            EstimateResult.from_counts(int(n), int(trials), int(successes), int(seed), 0.0)
        )
    return results


# ---------------------------------------------------------------- subcommands


def _cmd_check(args, argv):
    try:
        p = parse_permutation(args.pi)
        t = parse_permutation(args.tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _cmd_exact(args, argv):
    count = exact_comparability_count(args.n, allow_large=args.allow_large)
    payload = {
        "n": count.n,
        "comparable_pairs": count.comparable_pairs,
        "total_pairs": count.total_pairs,
        "probability": str(count.probability),
        "probability_float": float(count.probability),
        "version": __version__,
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _cmd_zmin(args, argv):
    try:
        p = parse_permutation(args.pi)
        t = parse_permutation(args.tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    value, a, b = z_table(p, t).min_entry()
    sys.stdout.write(_json_text({"min": value, "argmin": [a, b], "leq": value >= 0}))
    return EXIT_OK


def _cmd_chainstat(args, argv):
    started = _now()
    xs = _int_list(args.x, "--x")
    ys = _int_list(args.y, "--y")
    if len(xs) != len(ys):
        raise ConfigError(f"--x and --y must pair up, got {len(xs)} vs {len(ys)}")
    _check_workers(args.workers)
    import math

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
    outputs = _emit(_csv_text(CHAINSTAT_SCHEMA, meta, CHAINSTAT_COLUMNS, rows), args.out)
    params = {
        "command": "chainstat",
        "n": args.n,
        "x": xs,
        "y": ys,
        "stat": args.stat,
        "trials": args.trials,
        "seed": args.seed,
    }
    _write_manifest(outputs, argv, params, started)
    return EXIT_OK


def _cmd_hyper(args, argv):
    params = HyperGeomParams(args.N, args.B, args.A)
    payload: dict = {"N": args.N, "B": args.B, "A": args.A, "version": __version__}
    if args.k is not None:
        exact = hypergeom_pmf_exact(params, args.k)
        payload["k"] = args.k
        payload["pmf"] = str(exact)
        payload["pmf_float"] = float(exact)
    elif args.moments:
        mean, var = hypergeom_moments(params)
        payload["mean"] = str(mean)
        payload["mean_float"] = float(mean)
        payload["variance"] = str(var)
        payload["variance_float"] = float(var)
    elif args.sample is not None:
        stream = trial_stream(args.seed)
        draws = hypergeom_sample(params, stream, size=args.sample)
        hist = {}
        for v in draws.tolist():
            hist[v] = hist.get(v, 0) + 1
        payload["trials"] = args.sample
        payload["seed"] = args.seed
        payload["histogram"] = {str(k): hist[k] for k in sorted(hist)}
    else:
        raise ConfigError("hyper: pass one of --k, --moments, --sample")
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _cmd_bernratio(args, argv):
    result = bernoulli_ratio(args.n, args.k)
    payload = {
        "n": result.n,
        "k": result.k,
        "submatrix_side": result.submatrix_side,
        "ratio": result.ratio,
        "regime_ok": result.regime_ok,
        "version": __version__,
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _cmd_mc(args, argv):
    started = _now()
    ns = _int_list(args.n, "--n")
    trials = _broadcast(_int_list(args.trials, "--trials"), len(ns), "--trials")
    _check_workers(args.workers)
    if any(n > NAIVE_MC_MAX_N for n in ns) and not args.force:
        raise LowCountRefusal(
            f"naive Monte Carlo refused for n > {NAIVE_MC_MAX_N} (successes become "
            "vanishingly rare); pass --force to override"
        )
    results = []
    for n, t in zip(ns, trials):
        r = estimate_comparability(n, t, args.seed, workers=args.workers)
        if r.low_count:
            _log(f"LOW-COUNT: n={n} produced only {r.successes} successes")
        _log(f"mc n={n}: p_hat={r.p_hat:.4g} [{r.ci_low:.4g}, {r.ci_high:.4g}] ({r.wall_time:.1f}s)")
        results.append(r)
    meta = {"seed": args.seed}
    outputs = _emit(_csv_text(MC_SCHEMA, meta, MC_COLUMNS, _estimate_rows(results)), args.out)
    _write_manifest(outputs, argv, {"command": "mc", "n": ns, "trials": trials, "seed": args.seed}, started)
    return EXIT_OK


def _fit_payload(results: list[EstimateResult], include_low_count: bool) -> dict:
    try:
        fit = fit_scaling(results, include_low_count=include_low_count)
    except ValueError as exc:
        return {"status": "UNDERDETERMINED", "reason": str(exc), "version": __version__}
    payload = dataclasses.asdict(fit)
    payload["residuals"] = list(payload["residuals"])
    payload["excluded"] = list(payload["excluded"])
    payload["comparison_score"] = fit.comparison_score
    payload["status"] = "OK"
    payload["version"] = __version__
    return payload


def _cmd_fit(args, argv):
    started = _now()
    results = _read_mc_csv(args.input)
    payload = _fit_payload(results, args.include_low_count)
    outputs = _emit(_json_text(payload), args.out)
    _write_manifest(outputs, argv, {"command": "fit", "input": args.input}, started)
    if payload["status"] == "UNDERDETERMINED":
        _log(f"fit UNDERDETERMINED: {payload['reason']}")
    else:
        _log(
            f"fit: alpha={payload['alpha']:.4f} beta={payload['beta']:.4f} "
            f"gamma={payload['gamma']:.4f} r2={payload['r_squared']:.4f} preferred={payload['preferred']}"
        )
    return EXIT_OK


def _cmd_gauss(args, argv):
    started = _now()
    grid = _int_list(args.grid, "--grid")
    trials = _broadcast(_int_list(args.trials, "--trials"), len(grid), "--trials")
    _check_workers(args.workers)
    results = []
    for m, t in zip(grid, trials):
        r = sheet_persistence(
            m, args.threshold, t, args.seed, mode=args.mode, p=args.p, workers=args.workers
        )
        if r.low_count:
            _log(f"LOW-COUNT: m={m} produced only {r.successes} successes")
        _log(f"gauss m={m}: p_hat={r.p_hat:.4g} ({r.wall_time:.1f}s)")
        results.append(r)
    meta = {"mode": args.mode, "threshold": args.threshold, "seed": args.seed}
    if args.mode == "zeta":
        meta["p"] = "default-1/m^2" if args.p is None else args.p
    header = ["m"] + MC_COLUMNS[1:]
    outputs = _emit(_csv_text(GAUSS_SCHEMA, meta, header, _estimate_rows(results)), args.out)
    _write_manifest(outputs, argv, {"command": "gauss", "grid": grid, "seed": args.seed}, started)
    try:
        fit = psi_fit(results)
        _log(f"psi_hat={fit.psi_hat:.4f} +- {fit.stderr:.4f}")
    except ValueError as exc:
        _log(f"psi fit skipped: {exc}")
    return EXIT_OK


def _cmd_lishao(args, argv):
    result = li_shao_sum(args.rho, args.index_range)
    payload = {
        "rho": result.rho,
        "index_range": result.index_range,
        "closed_form": str(result.closed_form),
        "closed_form_float": result.closed_form_float,
        "supremum_over_ij": result.supremum_over_ij,
        "truncation_error": abs(result.supremum_over_ij - result.closed_form_float),
        "bound_satisfied": result.bound_satisfied,
        "version": __version__,
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_OK


def _cmd_fkg(args, argv):
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
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
    sys.stdout.write("\n".join(lines) + "\n")
    if violations:
        raise InvariantViolation(
            f"{violations} FKG violations at n={args.n}: positive correlation of "
            "up-sets is a theorem, so this is an implementation bug"
        )
    return EXIT_OK


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
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


def _cmd_pipeline_scaling(args, argv):
    started = _now()
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
    if not grid or any(v < 1 for v in grid):
        raise ConfigError(f"n_grid must be positive integers, got {grid}")
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
    trials = _broadcast(_int_list(config["trials"], "trials"), len(grid), "trials")
    if any(t < 1 for t in trials):
        raise ConfigError(f"trials must be positive, got {trials}")
    seed = int(config["seed"])
    workers = _check_workers(int(config["workers"]))
    force = config["force"].lower() in ("true", "1", "yes")
    if max(grid) > NAIVE_MC_MAX_N and not force:
        raise LowCountRefusal(
            f"n_grid reaches {max(grid)} > {NAIVE_MC_MAX_N}; naive Monte Carlo would "
            "be dominated by LOW-COUNT points (set force = true to override)"
        )

    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for n, t in zip(grid, trials):
        r = estimate_comparability(n, t, seed, workers=workers)
        if r.low_count:
            _log(f"LOW-COUNT: n={n} produced only {r.successes} successes")
        _log(f"mc n={n}: p_hat={r.p_hat:.4g} ({r.wall_time:.1f}s)")
        results.append(r)
    csv_path = out_dir / "results.csv"
    csv_path.write_text(_csv_text(MC_SCHEMA, {"seed": seed}, MC_COLUMNS, _estimate_rows(results)))
    payload = _fit_payload(results, include_low_count=False)
    fit_path = out_dir / "fit.json"
    fit_path.write_text(_json_text(payload))
    _write_manifest([csv_path, fit_path], argv, {"command": "pipeline-scaling", **config}, started)
    if payload["status"] == "UNDERDETERMINED":
        _log(f"scaling fit UNDERDETERMINED: {payload['reason']}")
    else:
        _log(
            f"scaling fit: alpha={payload['alpha']:.4f} beta={payload['beta']:.4f} "
            f"gamma={payload['gamma']:.4f} r2={payload['r_squared']:.4f} "
            f"preferred={payload['preferred']} (score {payload['comparison_score']:.2f})"
        )
    return EXIT_OK


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    p = sub.add_parser("exact", help="exhaustive comparability count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-large", action="store_true")
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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, argv)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except LowCountRefusal as exc:
        _log(f"refused: {exc}")
        return EXIT_LOWCOUNT
    except InvariantViolation as exc:
        _log(f"invariant violation: {exc}")
        return EXIT_INVARIANT
    except ValueError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
