"""Property tests: report and field-file round trips, step-size tokens, study
rows, operators and steps, and stacks of fields against their rows."""

import json
import math
import os
import sys
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from kdvlri.cli import parse_tau_token
from kdvlri.integrators import SchemeKind, step
from kdvlri.oracles import random_band_field
from kdvlri.rough_data import RoughSpec, generate_rough, splitmix64_uniform
from kdvlri.spectral import (
    Field,
    Grid,
    dx,
    exp_airy,
    integral,
    inv_dx,
    mean_value,
    project_zero_mean,
    read_field,
    sobolev_distance,
    sobolev_norm,
    translate,
    write_field,
)
from kdvlri.studies import (
    ConvergenceReport,
    RunResult,
    StudyConfig,
    parse_report_csv,
    render_report,
    run_convergence_study,
)

FAST = settings(max_examples=100, deadline=None, database=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
EPS = np.finfo(np.float64).eps
sizes = st.sampled_from([4, 6, 8, 16, 30, 64, 128, 256])

ok_row = st.builds(
    RunResult, st.sampled_from(SchemeKind), positive, non_negative, st.just("ok")
)
diverged_row = st.builds(
    RunResult,
    st.sampled_from(SchemeKind),
    positive,
    st.just(float("inf")),
    st.just("diverged"),
)


def max_gamma(n):
    """Just below the largest error exponent StudyConfig accepts at N = n."""
    headroom = math.log(sys.float_info.max) - math.log(8 * math.pi)
    return 0.999 * headroom / math.log(1 + (n // 2) ** 2)


@st.composite
def reports(draw):
    n = draw(st.integers(4, 2**20))
    # a step and reference step that divide t_final within MAX_STEPS; below
    # 2^-1018, t_final/16 is subnormal or 0, and no reference step divides it
    t_final = draw(st.floats(min_value=2.0**-1018, allow_infinity=False))
    tau = t_final
    cfg = StudyConfig(
        schemes=(SchemeKind.ELRI1,),
        taus=(tau,),
        ref_tau=tau / 16,
        n_points=n,
        theta=draw(non_negative),
        seed=draw(st.integers(0, 2**64 - 1)),
        gamma_err=draw(st.floats(0.0, max_gamma(n))),
        t_final=t_final,
    )
    rows = draw(st.lists(st.one_of(ok_row, diverged_row), max_size=8))
    metadata = dict(n_points=cfg.n_points, theta=cfg.theta, seed=cfg.seed,
                    gamma=cfg.gamma_err, t_final=cfg.t_final, ref_tau=cfg.ref_tau)
    return ConvergenceReport(metadata=metadata, rows=rows)


def expected_rows(rep):
    md = rep.metadata
    return [
        {
            "scheme": r.scheme.value,
            "tau": r.tau,
            "error_rel": r.error_rel,
            "gamma": md["gamma"],
            "n_points": md["n_points"],
            "theta": md["theta"],
            "seed": md["seed"],
            "t_final": md["t_final"],
            "status": r.status,
        }
        for r in rep.rows
    ]


def bits(row):
    """Row with every float replaced by its exact hex form (keeps -0.0, inf)."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in row.items()}


@FAST
@given(reports())
def test_csv_round_trip_is_bit_exact(rep):
    parsed = parse_report_csv(render_report(rep, "csv"))
    assert [bits(r) for r in parsed] == [bits(r) for r in expected_rows(rep)]


@FAST
@given(reports())
def test_json_rows_equal_csv_rows(rep):
    from_json = json.loads(render_report(rep, "json"))["rows"]
    from_csv = [
        {k: None if isinstance(v, float) and math.isinf(v) else v for k, v in r.items()}
        for r in parse_report_csv(render_report(rep, "csv"))
    ]
    assert from_json == from_csv


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from([4, 8, 16]),
    st.floats(0.0, 4.0),
    st.one_of(st.floats(0.0, 500.0), non_negative),
)
def test_ok_rows_carry_finite_errors(n, theta, gamma):
    try:
        cfg = StudyConfig(
            schemes=tuple(SchemeKind),
            taus=(2.0**-3, 2.0**-4),
            n_points=n,
            theta=theta,
            gamma_err=gamma,
            t_final=0.5,
            ref_tau=2.0**-8,
        )
    except ValueError as exc:
        assert "gamma" in str(exc)  # the only input drawn out of range
        return
    rows = run_convergence_study(cfg).rows
    assert all(math.isfinite(r.error_rel) for r in rows if r.status == "ok")


field_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@FAST
@given(
    st.sampled_from([4, 6, 16]).flatmap(
        lambda n: st.lists(field_value, min_size=n, max_size=n)
    ),
    st.sampled_from(["csv", "bin"]),
)
def test_field_files_round_trip_bit_exact(values, fmt):
    f = Field.from_values(Grid(len(values)), values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u")
        write_field(f, path, fmt=fmt)
        back = read_field(path)
    assert back.values.tobytes() == f.values.tobytes()


@FAST
@given(st.integers(-1074, 1023))
def test_dyadic_tau_token_is_exact(k):
    assert parse_tau_token(f"2^{k}") == 2.0**k


@FAST
@given(positive)
def test_float_tau_token_round_trips(x):
    assert parse_tau_token(repr(x)) == x


@st.composite
def real_fields(draw):
    """Zero-mean real field: normal grid values or rough data."""
    n = draw(sizes)
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return generate_rough(RoughSpec(n, draw(st.floats(0.0, 4.0)), seed))
    x = np.random.default_rng(seed).standard_normal(n)
    return Field.from_values(Grid(n), x - x.mean())


@FAST
@given(real_fields(), st.sampled_from(SchemeKind), st.floats(0.0, 1.0))
def test_steps_keep_real_fields_real(u, kind, tau):
    # modes 0..N/2 hold a real field by construction, except for imaginary
    # parts at modes 0 and N/2, which no grid values hold: a step keeps both
    # exactly 0, so its spectrum stays the one of its values
    assert u.spectrum[0].imag == u.spectrum[-1].imag == 0.0
    out = step(kind, u, tau)
    assert out.spectrum[0].imag == out.spectrum[-1].imag == 0.0


# multiples of 2^-10: t * xi^3 is exact, so the group law is tested without
# phase rounding
dyadic_times = st.integers(-4096, 4096).map(lambda i: i / 1024.0)


@FAST
@given(real_fields(), dyadic_times, dyadic_times)
def test_exp_airy_isometry_and_group_law(f, s, t):
    once = exp_airy(f, s + t)
    for gamma in (0.0, 1.0, 2.5):
        a, b = sobolev_norm(exp_airy(f, s), gamma), sobolev_norm(f, gamma)
        assert abs(a - b) <= 4 * EPS * b
    twice = exp_airy(exp_airy(f, s), t)
    assert np.all(np.abs(twice.spectrum - once.spectrum) <= 8 * EPS * np.abs(f.spectrum))


@FAST
@given(real_fields())
def test_inv_dx_dx_is_zero_mean_projection(f):
    # the odd multiplier zeroes the unpaired Nyquist mode, so drop it first
    s = f.spectrum.copy()
    s[f.grid.nyquist_index] = 0.0
    f = Field.from_spectrum(f.grid, s)
    lhs = inv_dx(dx(f, 1)).spectrum
    rhs = project_zero_mean(f).spectrum
    assert np.all(np.abs(lhs - rhs) <= 4 * EPS * np.abs(s))


# ---------------------------------------------------------------------------
# a Field that holds a stack of B fields, shape (B, N), gives each row's
# result bit for bit


@st.composite
def stacks(draw):
    """(stack, its rows as single Fields, one time per row); the stack is
    built from values or from a spectrum, B <= 8 and N in {8, 16, 64}."""
    n = draw(st.sampled_from([8, 16, 64]))
    b = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid(n)
    values = rng.standard_normal((b, n))
    times = rng.uniform(-5.0, 5.0, b)
    if draw(st.booleans()):
        rows = [Field.from_values(grid, v) for v in values]
        return Field.from_values(grid, values), rows, times
    spectra = Field.from_values(grid, values).spectrum
    rows = [Field.from_spectrum(grid, s) for s in spectra]
    return Field.from_spectrum(grid, spectra), rows, times


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def rows_equal(stack, rows):
    """The stack's spectrum and values equal its rows', bit for bit."""
    return all(
        same_bits(getattr(stack, rep), [getattr(r, rep) for r in rows])
        for rep in ("spectrum", "values")
    )


@FAST
@given(stacks(), st.floats(-10.0, 10.0), st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_stack_operators_equal_their_rows(case, a, gamma):
    stack, rows, times = case
    assert stack.spectrum.shape == (len(rows), stack.grid.n // 2 + 1)
    assert rows_equal(stack, rows)
    for order in (0, 1, 2, 3):
        assert rows_equal(dx(stack, order), [dx(r, order) for r in rows])
    assert rows_equal(inv_dx(stack), [inv_dx(r) for r in rows])
    moved = [exp_airy(r, t) for r, t in zip(rows, times)]
    assert rows_equal(exp_airy(stack, times), moved)  # one time per row
    assert rows_equal(exp_airy(stack, times[0]), [exp_airy(r, times[0]) for r in rows])
    assert rows_equal(translate(stack, a), [translate(r, a) for r in rows])
    assert rows_equal(project_zero_mean(stack), [project_zero_mean(r) for r in rows])
    for reduce in (integral, mean_value):
        assert same_bits(reduce(stack), [reduce(r) for r in rows])
    assert same_bits(sobolev_norm(stack, gamma), [sobolev_norm(r, gamma) for r in rows])
    assert same_bits(
        sobolev_distance(stack, exp_airy(stack, times), gamma),
        [sobolev_distance(r, m, gamma) for r, m in zip(rows, moved)],
    )
    # one field still reduces to a Python float
    assert type(sobolev_norm(rows[0], gamma)) is float
    assert type(integral(rows[0])) is float


@FAST
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    st.integers(0, 40),
    st.sampled_from([8, 16, 64]),
)
def test_seed_arrays_draw_one_row_per_seed(seeds, count, n):
    seeds = np.array(seeds, dtype=np.uint64)
    assert same_bits(
        splitmix64_uniform(seeds, count), [splitmix64_uniform(s, count) for s in seeds]
    )
    grid = Grid(n)
    max_mode = 1 + count % (n // 2 - 1)
    stack = random_band_field(grid, max_mode, seeds)
    assert rows_equal(stack, [random_band_field(grid, max_mode, int(s)) for s in seeds])
