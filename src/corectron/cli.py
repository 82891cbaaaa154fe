"""Command-line entry point.

Subcommands:
  run      execute a sweep and emit results.csv / report.json
  certify  re-run the certificate battery on a saved trace file
  best     print per-algorithm best coefficients from an emitted CSV

``run`` and ``certify`` exit 1 when a certificate fails; every
subcommand exits 2 with one line on stderr when its arguments or its
input file (a trace, or ``results.csv``) cannot be used.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from .diagnostics import TraceSummary, standard_certificates
from .environment import MODELS, FeedbackModel
from .harness import (
    ALGORITHMS,
    aggregate_results,
    best_coefficients,
    default_config,
    emit,
    read_results_csv,
    sweep,
)
from .numkit import scipy_blas


def _parse_algos(text: str) -> tuple:
    names = []
    for raw in text.split(","):
        name = raw.strip().lower().replace("-", "_")
        if not name:
            continue
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {raw!r}; choose from {', '.join(ALGORITHMS)}"
            )
        names.append(name)
    if not names:
        raise argparse.ArgumentTypeError("empty algorithm list")
    return tuple(names)


def _parse_grid(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ValueError(f"bad coefficient grid: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="corectron")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark sweep")
    run.add_argument("--setting", choices=MODELS, default="linear")
    run.add_argument("--bandwidth", type=float, default=1.0,
                     help="RBF bandwidth (kernel setting)")
    run.add_argument("--algos", type=_parse_algos, default=None,
                     help="comma-separated list, e.g. corectron-l,ons,ogd")
    run.add_argument("--T", type=int, default=None, help="rounds per episode")
    run.add_argument("--seeds", type=int, default=None, help="number of seeds")
    run.add_argument("--coef-grid", default=None,
                     help="comma-separated finite positive coefficients")
    run.add_argument("--alpha", type=float, default=0.0,
                     help="one-swap probability (suboptimal feedback)")
    run.add_argument("--xi", type=float, default=0.0,
                     help="relative score-noise level (suboptimal feedback)")
    run.add_argument("--n", type=int, default=None, help="number of items")
    run.add_argument("--m", type=int, default=None, help="items per selection")
    run.add_argument("--p", type=int, default=None, help="context dimension")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--full-scale", action="store_true",
                     help="long horizons and 10 seeds")
    run.add_argument("--single-thread", action="store_true",
                     help="pin BLAS pools to one thread for timing runs")
    run.add_argument("--diag-cap", type=int, default=None,
                     help="max side of the stored trace Gram, min(mistakes, lift dim)")
    run.add_argument("--diag-level", choices=("full", "light"), default=None,
                     help="diagnostics level (default full: every certificate at any horizon)")
    run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    run.add_argument("--save-traces", action="store_true",
                     help="write per-cell trace JSON files next to the results")

    cert = sub.add_parser("certify", help="re-check certificates on a saved trace")
    cert.add_argument("--trace", required=True, help="trace JSON file")

    best = sub.add_parser("best", help="best coefficient per algorithm from a CSV")
    best.add_argument("--in", dest="input", required=True, help="results.csv path")
    return parser


def _feedback_from_args(args) -> FeedbackModel:
    # Any nonzero value (NaN included) selects its channel, which checks it.
    if args.alpha and args.xi:
        raise ValueError("choose either --alpha or --xi, not both")
    if args.alpha:
        return FeedbackModel.one_swap(args.alpha)
    if args.xi:
        return FeedbackModel.score_perturb(args.xi)
    return FeedbackModel.optimal()


def _single_thread_ctx(enabled: bool):
    """The context that pins BLAS pools to one thread, and the pinning
    state that ``emit`` records in the report.

    threadpoolctl limits only the libraries already loaded, so scipy's
    BLAS, which every second-order learner loads when it is built, is
    loaded first.
    """
    if not enabled:
        return contextlib.nullcontext(), "not requested"
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("threadpoolctl unavailable; thread pinning skipped", file=sys.stderr)
        return contextlib.nullcontext(), "unavailable"
    scipy_blas()
    return threadpool_limits(limits=1), "applied"


def _cmd_run(args) -> int:
    overrides = {}
    if args.algos is not None:
        overrides["algorithms"] = args.algos
    if args.T is not None:
        overrides["horizon"] = args.T
    if args.seeds is not None:
        overrides["seeds"] = tuple(range(args.seeds))
    if args.n is not None:
        overrides["items"] = args.n
    if args.m is not None:
        overrides["pick"] = args.m
    if args.p is not None:
        overrides["context_dim"] = args.p
    if args.diag_cap is not None:
        overrides["diag_cap"] = args.diag_cap
    if args.diag_level is not None:
        overrides["diag_level"] = args.diag_level
    overrides["bandwidth"] = args.bandwidth
    try:
        if args.coef_grid is not None:
            overrides["coef_grid"] = _parse_grid(args.coef_grid)
        overrides["feedback_models"] = (_feedback_from_args(args),)
        config = default_config(args.setting, full_scale=args.full_scale, **overrides)
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    except ValueError as exc:
        print(f"corectron run: {exc}", file=sys.stderr)
        return 2

    traces = {}

    def hook(result, trace):
        if trace is not None:
            key = (
                f"{result.algorithm}_c{result.coefficient:g}_s{result.seed}"
                f"_a{result.alpha:g}_x{result.xi:g}"
            )
            traces[key] = trace

    pinning, thread_pinning = _single_thread_ctx(args.single_thread)
    with pinning:
        rows = sweep(
            config,
            jobs=args.jobs,
            trace_hook=hook if args.save_traces else None,
        )
    paths = emit(rows, args.out, config=config, traces=traces if traces else None,
                 thread_pinning=thread_pinning)

    for cell in aggregate_results(rows):
        print(
            f"{cell['algorithm']:<12} c={cell['coefficient']:<8g}"
            f" alpha={cell['alpha']:g} xi={cell['xi']:g}"
            f" regret={cell['mean_regret']:.4f} (+-{cell['std_regret']:.4f})"
            f" runtime={cell['mean_runtime']:.4f}s proj={cell['mean_projections']:.1f}"
        )
    n_failed_eps = sum(1 for r in rows if r.status != "ok")
    n_failed_certs = sum(1 for r in rows for c in r.certificates if not c.holds)
    print(f"wrote {paths['csv']} and {paths['json']}")
    if n_failed_eps:
        print(f"WARNING: {n_failed_eps} episode(s) failed", file=sys.stderr)
    if n_failed_certs:
        print(f"CERTIFICATE FAILURES: {n_failed_certs}", file=sys.stderr)
        return 1
    return 0


def _cmd_certify(args) -> int:
    try:
        certs, skipped = standard_certificates(TraceSummary.load(args.trace))
    except (OSError, ValueError, TypeError) as exc:
        print(f"corectron certify: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    width = max(len(c.name) for c in certs)
    ok = True
    for c in certs:
        status = "PASS" if c.holds else "FAIL"
        print(f"{c.name:<{width}}  {status}  lhs={c.lhs:.6g} rhs={c.rhs:.6g} slack={c.slack:.3g}")
        ok = ok and c.holds
    for name in skipped:
        print(f"{name:<{width}}  SKIP  (not recorded in this trace)")
    return 0 if ok else 1


def _cmd_best(args) -> int:
    try:
        rows = read_results_csv(args.input)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"corectron best: cannot read results {args.input}: {exc}", file=sys.stderr)
        return 2
    pairs = sorted({(r.alpha, r.xi) for r in rows})
    for alpha, xi in pairs:
        best = best_coefficients(rows, alpha=alpha, xi=xi)
        for algo in sorted(best):
            coef, mean = best[algo]
            print(f"alpha={alpha:g} xi={xi:g} {algo:<12} c={coef:g} mean_regret={mean:.6g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "certify":
        return _cmd_certify(args)
    return _cmd_best(args)


if __name__ == "__main__":
    raise SystemExit(main())
