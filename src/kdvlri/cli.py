"""Command-line front end.

Subcommands:
    solve        evolve one initial field with one scheme
    converge     global convergence study against a fine-step reference
    local-error  one-step error study on smooth built-in data
    verify       run the oracle/identity verification suite
    gen-data     generate and store rough initial data

Exit codes: 0 when all requested work succeeded (for verify: every check
passed), 1 when a run diverged (main alone maps every BlowUpError to
"<command> diverged at step N: <message>") or a check failed, 2 on
configuration errors.  Step sizes accept plain floats and dyadic tokens like
2^-8; scheme lists are comma-separated.
"""

from __future__ import annotations

import os
import sys

import argparse

from .integrators import (
    BlowUpError,
    SchemeKind,
    SolverRun,
    check_scheme,
    evolve,
)
from .oracles import verification_suite
from .rough_data import RoughSpec, generate_rough
from .spectral import mean_value, read_field, sobolev_norm, write_field
from .studies import (
    StudyConfig,
    emit_report,
    json_text,
    render_report,
    run_convergence_study,
    run_local_error_study,
)

PAPER_SCALE_N = 2**14
PAPER_SCALE_T_FINAL = 1.0
PAPER_SCALE_REF_TAU = 1e-4

DEFAULT_CONVERGE_LADDER = tuple(2.0**-k for k in range(4, 11))
DEFAULT_LOCAL_LADDER = tuple(2.0**-k for k in range(6, 13))


def parse_tau_token(token: str) -> float:
    """One step size: a float literal or a dyadic token like 2^-8."""
    token = token.strip()
    if not token:
        raise ValueError("empty step-size entry")
    dyadic = token.startswith("2^")
    try:
        value = 2.0 ** int(token[2:]) if dyadic else float(token)
    except (OverflowError, ValueError):
        raise ValueError(
            f"bad step size {token!r}: expected a float or 2^K in float range"
        ) from None
    # a nonzero token that rounds to 0.0 underflowed (below 2^-1074)
    mantissa = token.lower().partition("e")[0]
    if value == 0.0 and (dyadic or any(c in "123456789" for c in mantissa)):
        raise ValueError(
            f"bad step size {token!r}: underflows to 0 (smallest is 2^-1074)"
        )
    return value


def parse_tau_ladder(text: str):
    return tuple(parse_tau_token(t) for t in text.split(","))


def parse_schemes(text: str):
    names = [t.strip().lower() for t in text.split(",") if t.strip()]
    if not names:
        raise ValueError("no scheme names given")
    kinds = {k.value: k for k in SchemeKind}
    out = tuple(kinds.get(name, name) for name in names)
    for kind in out:
        check_scheme(kind)
    return out


def _add_data_flags(p, n=StudyConfig.n_points, theta=StudyConfig.theta,
                    seed=StudyConfig.seed):
    p.add_argument("--n", type=int, default=n, help="number of grid points")
    p.add_argument(
        "--theta", type=float, default=theta, help="roughness exponent of the data"
    )
    p.add_argument("--seed", type=int, default=seed, help="random stream seed")


def _add_study_flags(p, default_schemes):
    p.add_argument(
        "--scheme",
        default=default_schemes,
        help=f"comma-separated scheme list (default {default_schemes})",
    )
    p.add_argument(
        "--tau-ladder",
        default=None,
        help="comma-separated step sizes, strictly decreasing (floats or 2^-K)",
    )
    p.add_argument(
        "--gamma", type=float, default=1.0, help="Sobolev exponent of the error norm"
    )
    p.add_argument("--output", default=None, help="report file (stdout if omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvlri",
        description="Low-regularity exponential integrators for KdV on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="evolve one initial field with one scheme")
    solve.add_argument("--scheme", required=True, help="lri1, elri1 or elri2")
    solve.add_argument("--tau", type=parse_tau_token, required=True)
    solve.add_argument("--t-final", type=float, default=1.0)
    _add_data_flags(solve)
    solve.add_argument(
        "--input",
        default=None,
        help="initial field file (a real mean is shifted out exactly); "
        "default is rough data",
    )
    solve.add_argument("--output", default=None, help="final field file")
    solve.add_argument("--format", choices=("csv", "bin"), default="csv")

    conv = sub.add_parser("converge", help="global convergence study")
    _add_study_flags(conv, "elri1,elri2")
    # None: not given, so StudyConfig (or --paper-scale) sets the value
    _add_data_flags(conv, None, None, None)
    conv.add_argument("--t-final", type=float, default=None)
    conv.add_argument(
        "--ref-tau",
        type=parse_tau_token,
        default=None,
        help="step of the elri2 reference (default min(2^-14, min(tau)/16))",
    )
    conv.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"N={PAPER_SCALE_N}, T={PAPER_SCALE_T_FINAL:g}, fine reference step",
    )

    loc = sub.add_parser("local-error", help="one-step errors on smooth data")
    _add_study_flags(loc, "lri1,elri1,elri2")
    loc.add_argument("--n", type=int, default=256, help="number of grid points")

    ver = sub.add_parser("verify", help="run the oracle/identity checks")
    ver.add_argument("--output", default=None, help="optional JSON results file")

    gen = sub.add_parser("gen-data", help="generate rough initial data")
    _add_data_flags(gen)
    gen.add_argument("--output", required=True, help="field file to write")
    gen.add_argument("--format", choices=("csv", "bin"), default="csv")

    return parser


def _initial_field(args):
    if args.input:
        return read_field(args.input)
    return generate_rough(RoughSpec(n_points=args.n, theta=args.theta, seed=args.seed))


def cmd_solve(args) -> int:
    schemes = parse_schemes(args.scheme)
    if len(schemes) != 1:
        raise ValueError("solve takes exactly one scheme")
    run = SolverRun(
        scheme=schemes[0],
        tau=args.tau,
        t_final=args.t_final,
        initial=_initial_field(args),
    )
    traj = evolve(run)
    final = traj.final
    if args.output:
        write_field(final, args.output, fmt=args.format)
        print(f"wrote final field after {run.n_steps} steps to {args.output}")
    else:
        print(f"steps          {run.n_steps}")
        print(f"final L2 norm  {sobolev_norm(final, 0.0):.12e}")
        print(f"final H1 norm  {sobolev_norm(final, 1.0):.12e}")
        print(f"mean value     {mean_value(final):.3e}")
        print(f"max mean drift {traj.max_mean_drift:.3e}")
    return 0


def _report_exit(report, args) -> int:
    if args.output:
        emit_report(report, args.format, args.output)
        print(f"wrote {report.kind} report ({len(report.rows)} rows) to {args.output}")
    else:
        sys.stdout.write(render_report(report, args.format))
    for fit in report.fits:
        if fit.fitted_order is None:
            line = f"{fit.scheme.value}: no fitted order (insufficient finite points)"
        else:
            line = (
                f"{fit.scheme.value}: fitted order {fit.fitted_order:.3f} "
                f"(fit residual {fit.fit_residual:.3f}"
            )
            if fit.excluded_taus:
                line += f", excluded {len(fit.excluded_taus)} pre-asymptotic points"
            line += ")"
        print(line, file=sys.stderr)
    for flag in report.flags:
        print(f"flag: {flag}", file=sys.stderr)
    return 0 if all(r.status == "ok" for r in report.rows) else 1


def cmd_converge(args) -> int:
    taus = (
        parse_tau_ladder(args.tau_ladder)
        if args.tau_ladder
        else DEFAULT_CONVERGE_LADDER
    )
    given = {"n_points": args.n, "t_final": args.t_final, "ref_tau": args.ref_tau,
             "theta": args.theta, "seed": args.seed}
    if args.paper_scale:
        for flag, key in (("--n", "n_points"), ("--t-final", "t_final")):
            if given[key] is not None:
                raise ValueError(f"--paper-scale sets N and T itself; drop {flag}")
        given.update(n_points=PAPER_SCALE_N, t_final=PAPER_SCALE_T_FINAL)
        if given["ref_tau"] is None:
            # the stated 1e-4 clamped so the reference invariant holds on
            # ladders reaching below tau = 1e-3
            given["ref_tau"] = min(PAPER_SCALE_REF_TAU, min(taus) / 10.0)
    cfg = StudyConfig(  # a value not given is left to StudyConfig's default
        schemes=parse_schemes(args.scheme),
        taus=taus,
        gamma_err=args.gamma,
        **{k: v for k, v in given.items() if v is not None},
    )
    return _report_exit(run_convergence_study(cfg), args)


def cmd_local_error(args) -> int:
    taus = (
        parse_tau_ladder(args.tau_ladder) if args.tau_ladder else DEFAULT_LOCAL_LADDER
    )
    report = run_local_error_study(parse_schemes(args.scheme), taus, args.n, args.gamma)
    return _report_exit(report, args)


def cmd_verify(args) -> int:
    results = verification_suite()
    for r in results:
        print(f"time {r.check_name}: {r.wall_s:.3f} s", file=sys.stderr)
        tag = "PASS" if r.passed else "FAIL"
        print(
            f"{tag} {r.check_name}: residual {r.residual:.3e} "
            f"(tolerance {r.tolerance:.3e})"
        )
    all_pass = all(r.passed for r in results)
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    if args.output:
        payload = {"all_pass": all_pass, "checks": [r.as_dict() for r in results]}
        with open(args.output, "w") as fh:
            fh.write(json_text(payload) + "\n")
        print(f"wrote verification results to {args.output}")
    return 0 if all_pass else 1


def cmd_gen_data(args) -> int:
    field = generate_rough(
        RoughSpec(n_points=args.n, theta=args.theta, seed=args.seed)
    )
    write_field(field, args.output, fmt=args.format)
    print(
        f"wrote rough data (n={args.n}, theta={args.theta:g}, seed={args.seed}) "
        f"to {args.output}"
    )
    return 0


_HANDLERS = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "local-error": cmd_local_error,
    "verify": cmd_verify,
    "gen-data": cmd_gen_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        folder = os.path.dirname(os.path.abspath(args.output)) if args.output else "."
        if not os.path.isdir(folder):  # refused before the work, not after it
            raise FileNotFoundError(f"--output {args.output}: no directory {folder}")
        if args.output and os.path.isdir(args.output):
            raise IsADirectoryError(f"--output {args.output}: is a directory")
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"{args.command} diverged at step {exc.step}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
