"""Property tests: report serialization round trips and step-size tokens."""

import json
import math

from hypothesis import given, settings, strategies as st

from kdvlri.cli import parse_tau_token
from kdvlri.integrators import SchemeKind
from kdvlri.studies import (
    ConvergenceReport,
    RunResult,
    StudyConfig,
    parse_report_csv,
    render_report_csv,
    render_report_json,
)

FAST = settings(max_examples=100, deadline=None, database=None)

positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)

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


@st.composite
def reports(draw):
    cfg = StudyConfig(
        schemes=(SchemeKind.ELRI1,),
        taus=(1.0,),
        ref_tau=0.01,
        n_points=draw(st.integers(4, 2**20)),
        theta=draw(non_negative),
        seed=draw(st.integers(0, 2**64 - 1)),
        gamma_err=draw(non_negative),
        t_final=draw(positive),
    )
    rows = draw(st.lists(st.one_of(ok_row, diverged_row), max_size=8))
    return ConvergenceReport(config=cfg, rows=rows)


def expected_rows(rep):
    cfg = rep.config
    return [
        {
            "scheme": r.scheme.value,
            "tau": r.tau,
            "error_rel": r.error_rel,
            "gamma": cfg.gamma_err,
            "n_points": cfg.n_points,
            "theta": cfg.theta,
            "seed": cfg.seed,
            "t_final": cfg.t_final,
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
    parsed = parse_report_csv(render_report_csv(rep))
    assert [bits(r) for r in parsed] == [bits(r) for r in expected_rows(rep)]


@FAST
@given(reports())
def test_json_rows_equal_csv_rows(rep):
    from_json = json.loads(render_report_json(rep))["rows"]
    from_csv = [
        {k: None if isinstance(v, float) and math.isinf(v) else v for k, v in r.items()}
        for r in parse_report_csv(render_report_csv(rep))
    ]
    assert from_json == from_csv


@FAST
@given(st.integers(-1074, 1023))
def test_dyadic_tau_token_is_exact(k):
    assert parse_tau_token(f"2^{k}") == 2.0**k


@FAST
@given(positive)
def test_float_tau_token_round_trips(x):
    assert parse_tau_token(repr(x)) == x
