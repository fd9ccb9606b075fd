"""Command-line interface: eval, influence, width, region, sweep, verify.

Every command is deterministic given its flags (and seed); outputs are CSV
with floats at 17 significant digits so reruns are byte-identical.  Exit
codes: 0 success, 1 failed checks, operational limits or an unwritable
output, 2 malformed input.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
from pathlib import Path

import numpy as np

from .evaluate import ClosedFormEvaluator, ExactEvaluator, MonteCarloEvaluator
from .functions import (
    CapExceededError,
    FunctionFileError,
    FunctionSpec,
    build_tribes,
    indicator,
    parse_function_file,
)
from .influence import influence_profile, keller_diagnostic
from .measures import SimplexMeasure, central_measure
from .threshold import (
    derivative_lower_bound_ratio,
    line_width,
    region_measure,
    sweep_scaling,
)
from .verification import SUITE_BUILDERS, run_suites

SEED_ENV_VAR = "QTL_SEED"

# What a command writes: (path, text) pairs, where None or "-" is stdout.
Outputs = list[tuple[str | None, str]]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _write_outputs(outputs: Outputs) -> None:
    """Write every output of one command.

    Each file is written to a temporary file beside it, and the temporary
    files replace their targets only once all of them are written, so a
    command that fails leaves no output file behind.  Two outputs that
    resolve to one file are refused before any file is created.
    """
    paths = [path for path, _ in outputs if path not in (None, "-")]
    resolved = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(paths):
        if resolved[i] in resolved[:i]:
            raise ValueError(f"two outputs name the same file {path!r}")
    written: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            if path in (None, "-"):
                continue
            head, name = os.path.split(path)
            tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
            try:
                fh = open(tmp, "x", encoding="utf-8", newline="")
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
            written.append((tmp, path))
            with fh:
                fh.write(text)
        for tmp, path in written:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise
    for path, text in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


def _resolve_seed(args) -> int:
    """``--seed``, else ``QTL_SEED``, else 0; an error names the one that is bad."""
    source, value = "--seed", getattr(args, "seed", None)
    if value is None:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
    try:
        seed = int(value)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {value!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _add_function_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", type=Path, help="function file (table or family header)")
    p.add_argument("--family", choices=["tribes"], help="structured family instead of a file")
    p.add_argument("--q", type=int, help="alphabet size (family mode)")
    p.add_argument("--n", type=int, help="coordinate count (family mode)")
    p.add_argument("--p0", type=float, help="family design point in (0, 1)")
    p.add_argument("--r", type=int, help="explicit tribe size, bypassing the formula")
    p.add_argument("--level", type=int, metavar="A", help="use the indicator 1[f = A] instead of f")


def _load_function(args, parser: argparse.ArgumentParser) -> FunctionSpec:
    if (args.fn is None) == (args.family is None):
        parser.error("provide exactly one function source: --fn or --family")
    if args.fn is not None:
        try:
            f = parse_function_file(args.fn)
        except FileNotFoundError:
            parser.error(f"function file {args.fn} does not exist")
        except FunctionFileError as exc:
            print(f"{args.fn}:{exc.lineno}: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        missing = [flag for flag, v in (("--q", args.q), ("--n", args.n), ("--p0", args.p0)) if v is None]
        if missing:
            parser.error(f"--family tribes needs {', '.join(missing)}")
        f = build_tribes(args.q, args.n, args.p0, r=args.r)
    if args.level is not None:
        f = indicator(f, args.level)
    return f


def _add_evaluator_args(p: argparse.ArgumentParser, default_samples: int) -> None:
    p.add_argument("--evaluator", choices=["exact", "closed", "mc"], default="exact")
    p.add_argument("--eval-samples", type=int, default=default_samples,
                   help="--evaluator mc sample count: per probe for region, per coupled line "
                        "sample for width (raised to the DKW count of --eps)")


def _build_evaluator(args, samples: int, seed_offset: int = 0):
    """The ``--evaluator`` route; only MC draws, so only MC resolves the seed."""
    if args.evaluator == "exact":
        return ExactEvaluator()
    if args.evaluator == "closed":
        return ClosedFormEvaluator()
    return MonteCarloEvaluator(samples=samples, seed=_resolve_seed(args) + seed_offset)


def _parse_measures(args, parser: argparse.ArgumentParser, q: int) -> list[SimplexMeasure]:
    if not args.mu:
        parser.error("at least one --mu is required")
    out = []
    for text in args.mu:
        mu = SimplexMeasure.parse(text)
        if mu.q != q:
            raise ValueError(f"measure {text!r} has {mu.q} atoms, function needs {q}")
        out.append(mu)
    return out


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args, parser) -> tuple[int, Outputs]:
    f = _load_function(args, parser)
    mus = _parse_measures(args, parser, f.q)
    evaluator = _build_evaluator(args, args.samples)
    est = evaluator.batch(f, np.stack([mu.as_array() for mu in mus]), args.a)
    rows = [[f.q, f.n, mu.serialize(), args.a, est.method, float(value), float(se), est.samples]
            for mu, value, se in zip(mus, est.values, est.std_errors)]
    return 0, [(args.out, _csv(["q", "n", "mu", "a", "method", "value", "std_error", "samples"], rows))]


def cmd_influence(args, parser) -> tuple[int, Outputs]:
    f = _load_function(args, parser)
    mus = _parse_measures(args, parser, f.q)
    mu = mus[0]
    if len(mus) > 1:
        parser.error("influence takes exactly one --mu")
    if args.kind == "keller":
        diag = keller_diagnostic(f, mu)
        rows = [[f.q, f.n, diag.argmax_k, diag.max_value, diag.variance, diag.denominator,
                 diag.ratio if diag.ratio is not None else "na"]]
        return 0, [(args.out, _csv(["q", "n", "max_k", "max_value", "variance", "denominator", "ratio"], rows))]
    prof = influence_profile(f, mu, args.kind)
    rows = [[k, args.kind, v] for k, v in enumerate(prof.values)]
    return 0, [(args.out, _csv(["k", "kind", "value"], rows))]


def cmd_width(args, parser) -> tuple[int, Outputs]:
    f = _load_function(args, parser)
    base = SimplexMeasure.parse(args.mu) if args.mu else central_measure(f.q)
    if base.q != f.q:
        raise ValueError(f"base measure has {base.q} atoms, function needs {f.q}")
    evaluator = _build_evaluator(args, args.eval_samples)
    rep = line_width(f, base, args.a, args.eps, evaluator, t_tol=args.t_tol)
    rows = [[f.q, f.n, args.a, rep.eps, args.evaluator, rep.method, rep.t_lo, rep.t_hi,
             rep.width, rep.grid_points, rep.t_tol, rep.lo_absent, rep.hi_absent]]
    outputs = [(args.out, _csv(["q", "n", "a", "eps", "evaluator", "method", "t_lo", "t_hi",
                                "width", "grid_points", "t_tol", "lo_absent", "hi_absent"], rows))]
    if args.diagnostics:
        diag_rows = []
        for t in np.linspace(0.0, 0.95, args.diag_grid):
            d = derivative_lower_bound_ratio(f, base, float(t))
            diag_rows.append([d.n, d.t, d.alpha, d.derivative, d.denominator,
                              d.ratio if d.ratio is not None else "na"])
        outputs.append((args.diagnostics, _csv(["n", "t", "alpha", "derivative",
                                                "lower_bound_denominator", "ratio"], diag_rows)))
    return 0, outputs


def cmd_region(args, parser) -> tuple[int, Outputs]:
    f = _load_function(args, parser)
    seed = _resolve_seed(args)  # the simplex sample draws on every route
    evaluator = _build_evaluator(args, args.eval_samples, seed_offset=1)
    est = region_measure(f, args.a, args.eps, args.samples, seed, evaluator)
    rows = [[f.q, f.n, args.a, args.eps, est.samples, est.fraction, est.std_error, est.seed]]
    return 0, [(args.out, _csv(["q", "n", "a", "eps", "samples", "fraction", "std_error", "seed"], rows))]


def cmd_sweep(args, parser) -> tuple[int, Outputs]:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    rows = sweep_scaling(args.q, args.p0, n_list, args.eps)
    csv_rows = [[r.n, r.r, r.p_lo, r.p_hi, r.width, r.width_times_ln_n] for r in rows]
    outputs = [(args.out, _csv(["n", "r", "p_lo", "p_hi", "width", "width_times_ln_n"], csv_rows))]
    plot_path = args.plot_out
    if plot_path is None and args.out not in (None, "-"):
        plot_path = str(Path(args.out).with_suffix(".plot.dat"))
    if plot_path:
        outputs.append((plot_path, "".join(f"{r.n} {format(r.width, '.17g')}\n" for r in rows)))
    return 0, outputs


def cmd_verify(args, parser) -> tuple[int, Outputs]:
    names = args.suite if args.suite else None
    results = run_suites(names, inject_fault=args.inject_fault)
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"suite {res.name}: {status} ({res.checks} checks, {res.seconds:.2f} s)\n")
        lines.extend(f"  - {msg}\n" for msg in res.failures)
    failed = not all(res.passed for res in results)
    return (1 if failed else 0), [(None, "".join(lines))]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthresh",
        description="Influences, derivative identities, and threshold widths on [q]^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="output probability under product measures")
    _add_function_args(p_eval)
    p_eval.add_argument("--mu", action="append", help="measure as comma-separated atoms (repeatable)")
    p_eval.add_argument("--a", type=int, required=True, help="output symbol")
    p_eval.add_argument("--evaluator", choices=["exact", "closed", "mc"], default="exact")
    p_eval.add_argument("--samples", type=int, default=100000, help="Monte Carlo sample count")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", default="-")
    p_eval.set_defaults(func=cmd_eval)

    p_infl = sub.add_parser("influence", help="per-coordinate influence profile")
    _add_function_args(p_infl)
    p_infl.add_argument("--mu", action="append", help="measure as comma-separated atoms")
    p_infl.add_argument("--kind", choices=["bkkkl", "variance", "h", "keller"], default="variance")
    p_infl.add_argument("--out", default="-")
    p_infl.set_defaults(func=cmd_influence)

    p_width = sub.add_parser("width", help="threshold width along the line toward delta_0")
    _add_function_args(p_width)
    p_width.add_argument("--mu", help="base measure on the zero face (default: central)")
    p_width.add_argument("--a", type=int, required=True)
    p_width.add_argument("--eps", type=float, required=True)
    _add_evaluator_args(p_width, default_samples=10000)
    p_width.add_argument("--seed", type=int)
    p_width.add_argument("--t-tol", type=float, default=1e-9, dest="t_tol")
    p_width.add_argument("--diagnostics", help="also write derivative diagnostics CSV here")
    p_width.add_argument("--diag-grid", type=int, default=20, dest="diag_grid")
    p_width.add_argument("--out", default="-")
    p_width.set_defaults(func=cmd_width)

    p_region = sub.add_parser("region", help="simplex fraction where Pr[f=a] is in the band")
    _add_function_args(p_region)
    p_region.add_argument("--a", type=int, required=True)
    p_region.add_argument("--eps", type=float, required=True)
    p_region.add_argument("--samples", type=int, required=True, help="simplex sample count")
    _add_evaluator_args(p_region, default_samples=10000)
    p_region.add_argument("--seed", type=int)
    p_region.add_argument("--out", default="-")
    p_region.set_defaults(func=cmd_region)

    p_sweep = sub.add_parser("sweep", help="tribes width scaling across n")
    p_sweep.add_argument("--q", type=int, required=True)
    p_sweep.add_argument("--p0", type=float, required=True)
    p_sweep.add_argument("--n-list", required=True, dest="n_list",
                         help="comma-separated n values (may be empty)")
    p_sweep.add_argument("--eps", type=float, default=0.1)
    p_sweep.add_argument("--out", default="-")
    p_sweep.add_argument("--plot-out", dest="plot_out",
                         help="two-column plot data (default: derived from --out)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("--suite", action="append", choices=sorted(SUITE_BUILDERS))
    p_verify.add_argument("--inject-fault", choices=["leq"], dest="inject_fault",
                          help="corrupt the order comparator to prove the harness notices")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, outputs = args.func(args, parser)
        _write_outputs(outputs)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (``qthresh verify | head -1``).  Point
        # stdout at devnull so the flush at exit cannot raise again, and keep
        # the command's exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
