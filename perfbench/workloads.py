"""The three benchmark workloads, their inputs and their output checks.

Each workload has a set-up (inputs generated from the seed) and a run (the
timed work).  The program is driven only through `kdvlri.cli.main` and
public kdvlri functions, always looked up on their module at call time so
that a traced process sees them through the tracer's wrappers.  The checks
use the functions bound below at import time, before any tracer is
installed, and plain numpy, so they add no spans and no program time.

An operation is one CLI call, or one check of `verify`.  It fails on a
non-zero exit, an exception, or a failed output check; `Context.record`
keeps one record per operation with the reasons it failed and a digest of
its output bytes, which the parent compares across repetitions.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import time

import numpy as np

import kdvlri.cli
import kdvlri.spectral
from kdvlri.spectral import sobolev_norm
from kdvlri.spectral import write_field as _write_field_untraced

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 42
# values at the commit that introduced the benchmark, for the default seed;
# rounding changes such as real-to-complex FFTs stay well inside it
EXPECTED_RTOL = 1e-6
MEAN_DRIFT_TOL = 1e-12

VERIFY_CHECKS = (
    "inv_dx_dx_equals_projection",
    "exp_airy_isometry",
    "exp_airy_group_action",
    "ibp_identity_i_constant",
    "ibp_identity_i_modulated",
    "ibp_identity_ii_cubic",
    "fn_closed_form_vs_quadrature",
    "alpha3_alpha4_integer_identities",
    "multiplier_symmetrization_exact",
    "an_tilde_minus_an_boundary_terms",
    "embedded_form_matches_elri1",
    "embedded_form_matches_elri2",
    "reference_cross_check_smooth",
)


def load_expected():
    with open(os.path.join(HERE, "expected_seed42.json")) as fh:
        return json.load(fh)


def close(value, expected):
    return math.isclose(value, expected, rel_tol=EXPECTED_RTOL, abs_tol=0.0)


class Context:
    """Per-repetition state: work directory, seed, timings and op records."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.program_ns = 0
        self.records = []
        self.values = {}  # numbers the checks looked at, for the report
        self.notes = []  # findings that are not failures
        self.expected = load_expected() if seed == DEFAULT_SEED else None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def program(self, fn, *args, **kwargs):
        """Call into the program and add its duration to the work time."""
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.program_ns += time.perf_counter_ns() - start

    def cli(self, argv):
        """Run `kdvlri.cli.main(argv)`; returns (exit code, stdout, stderr, problems)."""
        out, err, problems = io.StringIO(), io.StringIO(), []
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.program(kdvlri.cli.main, argv)
        except SystemExit as exc:  # argparse rejects the arguments
            problems.append(f"SystemExit({exc.code})")
        except Exception as exc:  # the operation fails; the run goes on
            problems.append(f"{type(exc).__name__}: {exc}")
        if code is not None and code != 0:
            problems.append(f"exit code {code}")
        return code, out.getvalue(), err.getvalue(), problems

    def record(self, op, problems, digest=None):
        self.records.append({"op": op, "problems": list(problems), "digest": digest})


def sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# study-pair-n1024: the ELRI1 H^1 and ELRI2 L^2 studies of gates C2b and C3a


STUDY_LADDER = "2^-4,2^-5,2^-6,2^-7,2^-8"
STUDY_REF_TAU = "2^-12"
# (scheme, error norm exponent gamma, fitted-order band for the default seed,
# band for any other seed).  The default seed is held to the gates: the C2b
# and C3a bands, and errors that fall at every step of the ladder.  Some
# other draws are still pre-asymptotic on this ladder: seeds 10, 20, 23 and
# 117 fit ELRI2 orders of 1.74-1.80 (117 fits 1.76 even on the gates' ladder
# 2^-4..2^-10 with reference step 2^-14), and for seed 134 the ELRI1 error
# at 2^-5 exceeds the one at 2^-4.  So other seeds are held to the band that
# tells second order from first and third, and to falling errors over the
# three finest steps, which every fit uses; the rest is reported as a note.
STUDY_PAIR = (
    ("elri1", 1.0, (0.9, math.inf), (0.9, math.inf)),
    ("elri2", 0.0, (1.8, 2.2), (1.5, 2.5)),
)
_FIT_LINE = re.compile(r"^(\w+): fitted order (\S+) ")


def no_setup(ctx):
    return None


def run_study_pair(ctx, _state):
    strict = ctx.seed == DEFAULT_SEED
    for scheme, gamma, gate_band, any_seed_band in STUDY_PAIR:
        lo, hi = gate_band if strict else any_seed_band
        out = ctx.path(f"{scheme}.csv")
        _, _, err, problems = ctx.cli([
            "converge", "--scheme", scheme, "--gamma", f"{gamma:g}",
            "--n", "1024", "--theta", "3", "--seed", str(ctx.seed),
            "--t-final", "1", "--tau-ladder", STUDY_LADDER,
            "--ref-tau", STUDY_REF_TAU, "--output", out,
        ])
        digest = None
        if not problems and not os.path.exists(out):
            problems.append("no report written")
        elif not problems:
            text = read_bytes(out)
            digest = sha256(text)
            problems += _check_study(ctx, scheme, text.decode(), err, lo, hi, strict)
            order = ctx.values.get(scheme, {}).get("fitted_order")
            if order and not gate_band[0] <= order[0] <= gate_band[1]:
                ctx.notes.append(f"{scheme} fitted order {order[0]} is outside the "
                                 f"band {gate_band} of the seed-42 gate")
            ctx.notes += [f"{scheme} {line}" for line in err.splitlines()
                          if line.startswith("flag:")]
        ctx.record(f"converge {scheme}", problems, digest)


def _check_study(ctx, scheme, csv_text, stderr_text, lo, hi, strict):
    problems = []
    rows = [ln.split(",") for ln in csv_text.splitlines()[1:] if ln]
    if len(rows) != len(STUDY_LADDER.split(",")) or any(len(r) != 9 for r in rows):
        return [f"report rows are not one 9-column row per tau: {rows}"]
    if any(r[0] != scheme or r[8] != "ok" for r in rows):
        problems.append("a row is not an ok row of " + scheme)
    errors = [float(r[2]) for r in rows]
    if not all(math.isfinite(e) and e > 0 for e in errors):
        problems.append(f"non-finite error: {errors}")
    checked = errors if strict else errors[2:]
    if any(b > a for a, b in zip(checked, checked[1:])):
        problems.append(f"error not monotone in tau: {errors}")
    if strict and "flag:" in stderr_text:
        problems.append("monotonicity flag printed")
    orders = [float(m.group(2)) for m in map(_FIT_LINE.match, stderr_text.splitlines())
              if m and m.group(1) == scheme]
    if len(orders) != 1 or not lo <= orders[0] <= hi:
        problems.append(f"fitted order {orders} outside [{lo}, {hi}]")
    ctx.values[scheme] = {"error_rel": errors, "fitted_order": orders}
    if ctx.expected is not None:
        want = ctx.expected["study-pair-n1024"][scheme]["error_rel"]
        if len(want) != len(errors) or not all(map(close, errors, want)):
            problems.append(f"error_rel {errors} differs from seed-42 values {want}")
    return problems


# ---------------------------------------------------------------------------
# paper-slice-n16384: 64 steps of each scheme on the paper's grid, with I/O


SLICE_N = 16384
SLICE_SCHEMES = ("lri1", "elri1", "elri2")
SLICE_TAU = "2^-10"
SLICE_T_FINAL = "0.0625"  # 64 steps


def setup_paper_slice(ctx):
    initial = ctx.path("initial.bin")
    _, _, _, problems = ctx.cli([
        "gen-data", "--n", str(SLICE_N), "--theta", "3", "--seed", str(ctx.seed),
        "--format", "bin", "--output", initial,
    ])
    digest = None
    if not problems:
        raw = read_bytes(initial)
        digest = sha256(raw)
        if len(raw) != 16 + 8 * SLICE_N:
            problems.append(f"initial field file has {len(raw)} bytes")
    ctx.record("gen-data", problems, digest)
    return initial


def run_paper_slice(ctx, initial):
    if not os.path.exists(initial):
        for scheme in SLICE_SCHEMES:
            ctx.record(f"solve {scheme}", ["gen-data wrote no initial field"])
        return
    mean0 = float(np.mean(np.frombuffer(read_bytes(initial), "<f8", offset=16)))
    for scheme in SLICE_SCHEMES:
        out_bin, out_csv = ctx.path(f"{scheme}.bin"), ctx.path(f"{scheme}.csv")
        _, _, _, problems = ctx.cli([
            "solve", "--scheme", scheme, "--tau", SLICE_TAU,
            "--t-final", SLICE_T_FINAL, "--input", initial,
            "--output", out_bin, "--format", "bin",
        ])
        digest = None
        if not problems:
            try:
                final = ctx.program(kdvlri.spectral.read_field, out_bin)
                ctx.program(kdvlri.spectral.write_field, final, out_csv, fmt="csv")
            except (OSError, ValueError) as exc:
                problems.append(f"field i/o: {type(exc).__name__}: {exc}")
            else:
                raw_bin, raw_csv = read_bytes(out_bin), read_bytes(out_csv)
                digest = sha256(raw_bin, raw_csv)
                problems += _check_slice(ctx, scheme, final, mean0, raw_bin, out_csv)
        ctx.record(f"solve {scheme}", problems, digest)


def _check_slice(ctx, scheme, final, mean0, raw_bin, out_csv):
    problems = []
    values = final.values
    if values.shape != (SLICE_N,) or not np.all(np.isfinite(values)):
        problems.append("final field is not finite on the full grid")
    drift = abs(float(np.mean(values)) - mean0)
    if not drift <= MEAN_DRIFT_TOL:
        problems.append(f"mean drift {drift:.3e} > {MEAN_DRIFT_TOL:g}")
    if raw_bin[16:] != values.astype("<f8").tobytes():
        problems.append("binary field read back differs from the file")
    round_trip = ctx.path(f"{scheme}.rt.bin")
    _write_field_untraced(final, round_trip, fmt="bin")
    if read_bytes(round_trip) != raw_bin:
        problems.append("binary round trip is not bit-exact")
    from_csv = np.loadtxt(out_csv, dtype=np.float64, comments="#")
    if not np.array_equal(from_csv, values):
        problems.append("CSV field does not round-trip the binary values")
    norms = {"l2": sobolev_norm(final, 0.0), "h1": sobolev_norm(final, 1.0)}
    ctx.values[scheme] = norms
    if ctx.expected is not None:
        want = ctx.expected["paper-slice-n16384"][scheme]
        for key in ("l2", "h1"):
            if not close(norms[key], want[key]):
                problems.append(f"{key} norm {norms[key]!r} differs from {want[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# verify-small-n: the oracle and identity suite, many small-N calls

_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+): residual ")


def run_verify(ctx, _state):
    _, out, _, problems = ctx.cli(["verify"])
    seen = {}
    for m in map(_CHECK_LINE.match, out.splitlines()):
        if m:
            seen[m.group(2)] = m.group(1)
    if tuple(seen) != VERIFY_CHECKS:
        problems.append(f"check names differ: {list(seen)}")
    summary = f"{len(VERIFY_CHECKS)}/{len(VERIFY_CHECKS)} checks passed"
    if summary not in out.splitlines():
        problems.append(f"missing summary line {summary!r}")
    ctx.record("verify", problems, sha256(out.encode()))
    for name in VERIFY_CHECKS:
        status = seen.get(name, "missing")
        ctx.record(f"check {name}", [] if status == "PASS" else [status])


Workload = collections.namedtuple("Workload", "name n_points setup run")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-pair-n1024", 1024, no_setup, run_study_pair),
        Workload("paper-slice-n16384", SLICE_N, setup_paper_slice, run_paper_slice),
        # the grid of verify's evolve calls (reference cross check)
        Workload("verify-small-n", 64, no_setup, run_verify),
    )
}
