"""Convergence and local-error studies with machine-readable reports.

A study takes a scheme list and a descending tau ladder and steps each
scheme's ladder as the members of one integrators._march, which applies the
integrators' grid-size cap to every batch: a convergence study to t_final
against a shared high-accuracy reference, a local-error study one step per
tau against per-tau references (their ELRI2 checks one more batch).  Both
fit log-log slopes, by the closed-form least-squares line on centered log tau
(estimate_order; no LAPACK call), and emit a deterministic report: CSV rows,
or JSON carrying the same rows plus the fitted orders.  ``COLUMNS`` is the
one definition of a row: the CSV header, writer and parser, the JSON rows and
the row keys of the tests' JSON schema all derive from it.  Identical configs
produce byte-identical CSV and JSON files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as _field

import numpy as np

from .integrators import (
    BlowUpError,
    SchemeKind,
    _march,
    _trajectory,
    check_positive,
    check_scheme,
    check_step_count,
)
from .oracles import ifrk4_solve, reference_solution
from .rough_data import RoughSpec, generate_rough
from .spectral import Field, Grid, sobolev_distance, sobolev_norm

#: one report row: column names, and the type each CSV cell parses back to
COLUMNS = (
    "scheme", "tau", "error_rel", "gamma", "n_points", "theta", "seed", "t_final",
    "status",
)
_TYPES = (str, float, float, float, int, float, int, float, str)
CSV_HEADER = ",".join(COLUMNS)
#: cells a local-error row leaves empty (null in JSON): its built-in smooth
#: data has no roughness or seed, and it takes one step, to no t_final
LOCAL_EMPTY = ("theta", "seed", "t_final")

# pre-asymptotic guard: when the log-log fit is this bad, drop the two
# largest-tau points and refit (recorded in the report)
FIT_RESIDUAL_LIMIT = 0.05


class FitDataError(ValueError):
    """Not enough finite error points to fit an order."""


def _check_study(schemes, taus, n_points, gamma_err):
    """Schemes and taus as tuples, once the checks both studies share pass."""
    schemes = tuple(schemes)
    taus = tuple(float(t) for t in taus)
    if not schemes:
        raise ValueError("study needs at least one scheme")
    for i, s in enumerate(schemes):
        check_scheme(s)
        if s in schemes[:i]:
            raise ValueError(f"scheme {s.value} is given more than once")
    if not taus:
        raise ValueError("study needs at least one tau")
    for t in taus:
        check_positive("tau", t)
    if any(a <= b for a, b in zip(taus, taus[1:])):
        raise ValueError(f"tau ladder must be strictly decreasing: {taus}")
    if not 0 <= gamma_err < math.inf:
        raise ValueError(f"gamma_err must be finite and >= 0, got {gamma_err}")
    # 8 pi times the top-mode weight bounds the squared H^gamma distance of
    # two fields with mean(u^2) <= 1, as rough data (max |u| = 1) has
    top = np.float64(1 + (n_points // 2) ** 2)
    with np.errstate(over="ignore"):
        bound = 8.0 * np.pi * top**gamma_err
    if not np.isfinite(bound):
        raise ValueError(
            f"gamma = {gamma_err:g} overflows the H^gamma error weight "
            f"(1 + (N/2)^2)^gamma at N = {n_points}"
        )
    return schemes, taus


@dataclass
class StudyConfig:
    """Parameters of one convergence study against a fine-step reference."""

    schemes: tuple
    taus: tuple
    n_points: int = 1024
    theta: float = 2.0
    seed: int = 42
    gamma_err: float = 1.0
    t_final: float = 1.0
    ref_tau: float | None = None  # None: min(2^-14, min(taus)/16)

    def __post_init__(self):
        self.schemes, self.taus = _check_study(
            self.schemes, self.taus, self.n_points, self.gamma_err
        )
        check_positive("t_final", self.t_final)
        for t in self.taus[::-1]:  # smallest first: it takes the most steps
            check_step_count("tau", t, self.t_final)
        if self.ref_tau is None:
            self.ref_tau = min(2.0**-14, min(self.taus) / 16.0)
        check_positive("ref_tau", self.ref_tau)
        if self.ref_tau > min(self.taus) / 10.0:
            raise ValueError(
                f"ref_tau = {self.ref_tau:g} must be <= min(tau)/10 = "
                f"{min(self.taus) / 10.0:g}"
            )
        check_step_count("ref_tau", self.ref_tau, self.t_final)


@dataclass
class RunResult:
    scheme: SchemeKind
    tau: float
    error_rel: float
    status: str  # "ok" or "diverged"


@dataclass
class SchemeFit:
    scheme: SchemeKind
    fitted_order: float = None  # None when fewer than 2 finite points
    fit_residual: float = None
    excluded_taus: tuple = ()


@dataclass
class ConvergenceReport:
    """One study's rows, fits and flags, and the metadata its JSON prints."""

    metadata: dict
    rows: list = _field(default_factory=list)
    fits: list = _field(default_factory=list)
    flags: list = _field(default_factory=list)
    kind: str = "convergence"

    def fit_for(self, scheme) -> SchemeFit:
        for f in self.fits:
            if f.scheme == scheme:
                return f
        raise KeyError(scheme)


def estimate_order(pairs):
    """Least-squares slope of log(err) vs log(tau); returns (slope, residual).

    residual is the RMS deviation of the fit in log space.  Points with
    non-finite or non-positive error are discarded; usable points at fewer
    than two distinct taus raise FitDataError.
    """
    usable = [(t, e) for t, e in pairs if math.isfinite(e) and e > 0]
    if len({t for t, _ in usable}) < 2:  # one tau alone leaves the slope 0/0
        raise FitDataError(
            f"order fit needs finite error points at >= 2 distinct taus, got {usable}")
    # the normal equations on centered log tau, in elementwise sums: a fit of
    # a few points needs no LAPACK solve, whose first call adds ~1.1 MB of RSS
    lt = np.log([t for t, _ in usable])
    le = np.log([e for _, e in usable])
    x = lt - np.mean(lt)
    mean_le = np.mean(le)
    slope = np.sum(x * (le - mean_le)) / np.sum(x * x)
    residual = float(np.sqrt(np.mean((le - (mean_le + slope * x)) ** 2)))
    return float(slope), residual


def _fit_scheme(scheme, rows):
    """Fit of scheme's ok rows, which come in descending tau."""
    pairs = [
        (r.tau, r.error_rel) for r in rows if r.scheme == scheme and r.status == "ok"
    ]
    try:
        slope, residual = estimate_order(pairs)
    except FitDataError:
        return SchemeFit(scheme=scheme)
    if residual > FIT_RESIDUAL_LIMIT and len(pairs) >= 4:
        refit_slope, refit_residual = estimate_order(pairs[2:])
        return SchemeFit(
            scheme=scheme,
            fitted_order=refit_slope,
            fit_residual=refit_residual,
            excluded_taus=(pairs[0][0], pairs[1][0]),
        )
    return SchemeFit(scheme=scheme, fitted_order=slope, fit_residual=residual)


def _monotonicity_flags(rows, schemes):
    """A flag where an error grows as tau falls; rows of a scheme descend in tau."""
    flags = []
    for scheme in schemes:
        ok = [r for r in rows if r.scheme == scheme and r.status == "ok"]
        for a, b in zip(ok, ok[1:]):
            if b.error_rel > a.error_rel:
                flags.append(
                    f"{scheme.value}: error not monotone, "
                    f"tau={b.tau:g} error {b.error_rel:.3e} > "
                    f"tau={a.tau:g} error {a.error_rel:.3e}"
                )
    return flags


def _run_row(scheme, tau, result, ref, gamma_err, ref_norm):
    """Row of a _march member's result by its H^gamma_err error relative to
    ref: a BlowUpError or an error that is not finite (finite values too large
    to measure) is 'diverged' with error inf, so 'ok' rows carry finite errors."""
    err = (math.inf if isinstance(result, BlowUpError)
           else sobolev_distance(result.final, ref, gamma_err) / ref_norm)
    ok = math.isfinite(err)
    return RunResult(scheme, tau, err if ok else math.inf, "ok" if ok else "diverged")


def _report(metadata, schemes, rows, flags, kind):
    rows.sort(key=lambda r: (r.scheme.value, -r.tau))
    fits = [_fit_scheme(s, rows) for s in schemes]
    return ConvergenceReport(metadata, rows, fits, flags, kind)


def run_convergence_study(cfg: StudyConfig) -> ConvergenceReport:
    """Rough data once, reference once, then each scheme's tau ladder as the
    members of one _march.

    A member that diverged keeps a row (_run_row) but is excluded from slope
    fits, and the other members keep their bits.  Relative errors are
    measured in H^gamma_err against the ELRI2 reference at ref_tau,
    normalized by its norm.
    """
    u0 = generate_rough(RoughSpec(cfg.n_points, cfg.theta, cfg.seed))
    ref = reference_solution(u0, cfg.t_final, cfg.ref_tau)
    ref_norm = sobolev_norm(ref, cfg.gamma_err)
    counts = [check_step_count("tau", t, cfg.t_final) for t in cfg.taus]
    rows = []
    for scheme in cfg.schemes:
        results = _march(scheme, u0.grid, cfg.taus, counts, u0.spectrum)
        rows += [_run_row(scheme, t, r, ref, cfg.gamma_err, ref_norm)
                 for t, r in zip(cfg.taus, results)]
    metadata = dict(n_points=cfg.n_points, theta=cfg.theta, seed=cfg.seed,
                    gamma=cfg.gamma_err, t_final=cfg.t_final, ref_tau=cfg.ref_tau)
    flags = _monotonicity_flags(rows, cfg.schemes)
    return _report(metadata, cfg.schemes, rows, flags, "convergence")


def smooth_test_data(grid: Grid) -> Field:
    """The built-in smooth zero-mean profile cos(x) + sin(2x)/2."""
    return Field.from_values(grid, np.cos(grid.x) + 0.5 * np.sin(2.0 * grid.x))


def run_local_error_study(
    schemes, taus, n_points=1024, gamma_err=1.0
) -> ConvergenceReport:
    """One-step errors of each scheme on smooth data across the tau ladder.

    Each scheme's ladder is one _march of one step per tau.  The one-step
    reference at each tau is the integrating-factor RK4 with 64 substeps,
    cross-checked against an ELRI2 run with 256 substeps (one more _march);
    a disagreement above 5% of the smallest scheme error is flagged.  A step
    that blows up keeps a 'diverged' row, as in a convergence study.
    """
    schemes, taus = _check_study(schemes, taus, n_points, gamma_err)
    u0 = smooth_test_data(Grid(n_points))
    checks = _march(SchemeKind.ELRI2, u0.grid, [t / 256.0 for t in taus],
                    [check_step_count("tau", t / 256.0, t) for t in taus], u0.spectrum)
    runs = [_march(s, u0.grid, taus, [1] * len(taus), u0.spectrum) for s in schemes]
    flags = []
    rows = []

    for i, (tau, check) in enumerate(zip(taus, checks)):
        ref = ifrk4_solve(u0, tau, tau / 64.0)
        ref_norm = sobolev_norm(ref, gamma_err)
        dual_gap = sobolev_distance(ref, _trajectory(check).final, gamma_err)
        tau_rows = [_run_row(s, tau, r[i], ref, gamma_err, ref_norm)
                    for s, r in zip(schemes, runs)]
        rows += tau_rows
        smallest = min(r.error_rel for r in tau_rows)
        if dual_gap / ref_norm > 0.05 * smallest:
            flags.append(
                f"tau={tau:g}: one-step references disagree by "
                f"{dual_gap / ref_norm:.3e} (>5% of smallest error {smallest:.3e})"
            )
    metadata = {"n_points": n_points, "gamma": gamma_err}
    return _report(metadata, schemes, rows, flags, "local_error")


# ---------------------------------------------------------------------------
# report serialization


def _g17(x) -> str:
    return format(float(x), ".17g")


def _row(r: RunResult, report: ConvergenceReport) -> tuple:
    """The values of one report row, in COLUMNS order; None where unused."""
    md = report.metadata
    return (r.scheme.value, r.tau, r.error_rel, md["gamma"], md["n_points"],
            *(md.get(c) for c in LOCAL_EMPTY), r.status)


def _csv_text(report: ConvergenceReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        cells = zip(_TYPES, _row(r, report))
        lines.append(",".join("" if v is None else _g17(v) if t is float else str(v)
                              for t, v in cells))
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str):
    """Rows of a render_report(., "csv") document as dicts (its inverse)."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad report header: {lines[:1]!r}")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"bad report row: {ln!r}")
        out.append({c: None if p == "" and c in LOCAL_EMPTY else t(p)
                    for c, t, p in zip(COLUMNS, _TYPES, parts)})
    return out


def json_text(value) -> str:
    """JSON text of None, a bool, number or str, or a list or dict of them."""
    # hand-rolled so floats serialize with 17 significant digits; stdlib
    # json offers no control over float formatting
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            return "null"  # JSON has no inf/nan; divergence is in "status"
        return _g17(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(json_text(v) for v in value) + "]"
    if isinstance(value, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {json_text(v)}" for k, v in value.items()
        )
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def report_as_dict(report: ConvergenceReport) -> dict:
    return {
        "kind": report.kind,
        "metadata": report.metadata,
        "rows": [dict(zip(COLUMNS, _row(r, report))) for r in report.rows],
        "fits": [
            {
                "scheme": f.scheme.value,
                "fitted_order": f.fitted_order,
                "fit_residual": f.fit_residual,
                "excluded_taus": list(f.excluded_taus),
            }
            for f in report.fits
        ],
        "flags": list(report.flags),
    }


def render_report(report: ConvergenceReport, fmt: str) -> str:
    """The report as CSV or JSON text, ending with a newline."""
    if fmt == "csv":
        return _csv_text(report)
    if fmt == "json":
        return json_text(report_as_dict(report)) + "\n"
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def emit_report(report: ConvergenceReport, fmt: str, path) -> None:
    """Write render_report(report, fmt) to path."""
    text = render_report(report, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
