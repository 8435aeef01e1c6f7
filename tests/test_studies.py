"""Order fitting, study drivers, and deterministic report serialization."""

import ast
import json
import pathlib
import warnings

import jsonschema
import numpy as np
import pytest

from kdvlri import integrators, oracles, studies
from kdvlri.integrators import BlowUpError, SchemeKind, SolverRun, evolve
from kdvlri.rough_data import RoughSpec
from kdvlri.spectral import Field, Grid, mean_value, sobolev_norm
from kdvlri.studies import (
    COLUMNS,
    CSV_HEADER,
    LOCAL_EMPTY,
    ConvergenceReport,
    FitDataError,
    RunResult,
    StudyConfig,
    _monotonicity_flags,
    emit_report,
    estimate_order,
    json_text,
    parse_report_csv,
    render_report,
    report_as_dict,
    run_convergence_study,
    run_local_error_study,
    smooth_test_data,
)

from report_schema import REPORT_JSON_SCHEMA

TAUS4 = (0.125, 0.0625, 0.03125, 0.015625)


def tiny_config(**kw):
    base = dict(
        schemes=(SchemeKind.ELRI1,),
        taus=TAUS4,
        n_points=64,
        theta=2.0,
        t_final=0.5,
        ref_tau=2.0**-10,
    )
    base.update(kw)
    return StudyConfig(**base)


def synthetic_report(rows):
    cfg = tiny_config()
    metadata = dict(n_points=cfg.n_points, theta=cfg.theta, seed=cfg.seed,
                    gamma=cfg.gamma_err, t_final=cfg.t_final, ref_tau=cfg.ref_tau)
    return ConvergenceReport(metadata=metadata, rows=rows)


# ---------------------------------------------------------------------------
# order fitting


def _polyfit_order(pairs):
    """np.polyfit's slope and RMS log residual: the reference for estimate_order."""
    lt, le = np.log(np.array(pairs, dtype=float)).T
    coeffs = np.polyfit(lt, le, 1)
    return coeffs[0], np.sqrt(np.mean((le - np.polyval(coeffs, lt)) ** 2))


def _assert_fit_matches_polyfit(pairs):
    slope, residual = estimate_order(pairs)
    ref_slope, ref_residual = _polyfit_order(pairs)
    assert abs(slope - ref_slope) <= 1e-12 * abs(ref_slope)
    assert abs(residual - ref_residual) <= 1e-12


def test_estimate_order_recovers_exact_powers():
    # ladders of 2, 4, 7 and 12 halvings from 0.1, and the refit slice [2:]
    for n in (2, 4, 7, 12):
        taus = 0.1 * 2.0 ** -np.arange(n)
        for p in (1.0, 2.0):
            pairs = [(t, 3.0 * t**p) for t in taus]
            slope, residual = estimate_order(pairs)
            assert abs(slope - p) < 1e-12
            assert residual < 1e-12
            _assert_fit_matches_polyfit(pairs)
            if n >= 4:
                _assert_fit_matches_polyfit(pairs[2:])


def test_estimate_order_with_noise():
    rng = np.random.default_rng(2)
    taus = np.logspace(-1, -3, 12)
    errs = 2.0 * taus**1.5 * np.exp(0.01 * rng.standard_normal(12))
    slope, _ = estimate_order(list(zip(taus, errs)))
    assert abs(slope - 1.5) < 0.05
    # the closed-form line against np.polyfit, at noise levels on both sides
    # of FIT_RESIDUAL_LIMIT, on each ladder and its refit slice [2:]
    for n in (2, 4, 7, 12):
        taus = np.logspace(-1, -3, n)
        for noise in (0.01, 0.3):
            errs = 2.0 * taus**1.5 * np.exp(noise * rng.standard_normal(n))
            pairs = list(zip(taus, errs))
            _assert_fit_matches_polyfit(pairs)
            if n >= 4:
                _assert_fit_matches_polyfit(pairs[2:])


def test_estimate_order_needs_two_finite_points():
    with pytest.raises(FitDataError):
        estimate_order([(0.1, 1e-3)])
    with pytest.raises(FitDataError):
        estimate_order([(0.1, float("inf")), (0.05, float("nan")), (0.025, 0.0)])
    # two points at one tau leave the slope 0/0: refused, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitDataError, match="at >= 2 distinct taus"):
            estimate_order([(0.1, 1e-2), (0.1, 2e-2)])


def test_studies_fit_orders_without_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a study called LAPACK")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    ladder = (2.0**-3, 2.0**-4, 2.0**-5)
    conv = run_convergence_study(StudyConfig(schemes=(SchemeKind.ELRI1,), taus=ladder,
                                             n_points=32, ref_tau=2.0**-9))
    local = run_local_error_study((SchemeKind.ELRI2,), (2.0**-4, 2.0**-5), n_points=16)
    for fit in conv.fits + local.fits:
        assert np.isfinite(fit.fitted_order) and np.isfinite(fit.fit_residual)


# numpy names whose use starts LAPACK or pulls in numpy.polynomial
_LAPACK_NAMES = {"linalg", "polynomial", "polyfit", "polyval"}


def _lapack_uses(path):
    """(function, name) of each use of a _LAPACK_NAMES numpy name in path's code."""
    tree = ast.parse(path.read_text())
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, fn.name) for node in ast.walk(fn))
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = node.module.split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.startswith("numpy.")
                     for part in a.name.split(".")]
        else:
            continue
        uses += [(owner.get(node), n) for n in names if n in _LAPACK_NAMES]
    return uses


def test_only_the_leggauss_fallback_may_reach_lapack():
    # a study or verify run starts no LAPACK; the one exception is the
    # leggauss call that builds Gauss-Legendre rules other than the stored
    # 64- and 128-node ones
    src = pathlib.Path(studies.__file__).parent
    uses = sorted(f"{path.name}:{fn}:{name}" for path in src.glob("*.py")
                  for fn, name in _lapack_uses(path))
    assert uses == ["oracles.py:_legendre_rule:polynomial"]
    # the scan sees this file's own reference fit and stubs
    here = _lapack_uses(pathlib.Path(__file__))
    assert ("_polyfit_order", "polyfit") in here
    assert ("test_studies_fit_orders_without_lapack", "linalg") in here


def test_monotonicity_flags():
    rows = [
        RunResult(SchemeKind.ELRI1, 0.1, 1e-2, "ok"),
        RunResult(SchemeKind.ELRI1, 0.05, 2e-2, "ok"),  # error went up
        RunResult(SchemeKind.ELRI1, 0.025, 1e-3, "ok"),
    ]
    flags = _monotonicity_flags(rows, (SchemeKind.ELRI1,))
    assert len(flags) == 1
    assert "elri1" in flags[0] and "not monotone" in flags[0]
    clean = [
        RunResult(SchemeKind.ELRI1, 0.1, 1e-2, "ok"),
        RunResult(SchemeKind.ELRI1, 0.05, 5e-3, "ok"),
    ]
    assert _monotonicity_flags(clean, (SchemeKind.ELRI1,)) == []


# ---------------------------------------------------------------------------
# configuration validation


def test_study_config_validation():
    with pytest.raises(ValueError, match="at least one scheme"):
        tiny_config(schemes=())
    with pytest.raises(ValueError, match="at least one tau"):
        tiny_config(taus=())
    with pytest.raises(ValueError, match="positive and finite"):
        tiny_config(taus=(0.1, float("nan")))
    with pytest.raises(ValueError, match="strictly decreasing"):
        tiny_config(taus=(0.1, 0.1, 0.05))
    with pytest.raises(ValueError, match="ref_tau"):
        tiny_config(ref_tau=0.01)
    for bad in (float("nan"), -0.001):
        with pytest.raises(ValueError, match="ref_tau must be positive and finite"):
            tiny_config(ref_tau=bad)
    for bad in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(ValueError, match="t_final must be positive and finite"):
            tiny_config(t_final=bad)
    # no ref_tau: the default reference step min(2^-14, min(tau)/16)
    assert tiny_config(ref_tau=None).ref_tau == 2.0**-14
    assert tiny_config(taus=(2.0**-4, 2.0**-11), ref_tau=None).ref_tau == 2.0**-15
    # a ladder too fine to run is refused by its own step, not by the default
    # reference step, which underflows to 0 below tau = 2^-1070
    with pytest.raises(ValueError, match="tau = .* MAX_STEPS"):
        tiny_config(taus=(2.0**-1071,), ref_tau=None)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma_err"):
            tiny_config(gamma_err=bad)
    with pytest.raises(ValueError, match="unknown scheme"):
        tiny_config(schemes=("lri2",))
    # gamma whose top-mode weight (1 + 32^2)^gamma overflows at N = 64
    tiny_config(gamma_err=100.0)
    for bad in (110.0, 1e308):
        with pytest.raises(ValueError, match="gamma = .* overflows"):
            tiny_config(gamma_err=bad)
    # step counts past MAX_STEPS, named by the input that asks for them
    with pytest.raises(ValueError, match="ref_tau = 1e-300 .*MAX_STEPS"):
        tiny_config(ref_tau=1e-300)
    with pytest.raises(ValueError, match="tau = 1e-300 .*MAX_STEPS"):
        tiny_config(taus=(0.1, 1e-300), ref_tau=1e-302)
    with pytest.raises(ValueError, match="tau = 0.015625 takes .*MAX_STEPS"):
        tiny_config(t_final=1e300)


def test_smooth_test_data_profile():
    g = Grid(64)
    f = smooth_test_data(g)
    assert abs(mean_value(f)) < 1e-15
    expected = np.cos(g.x) + 0.5 * np.sin(2.0 * g.x)
    assert np.max(np.abs(f.values - expected)) < 1e-15


# ---------------------------------------------------------------------------
# study drivers (small grids; the paper-scale runs live in the acceptance file)


def test_convergence_study_structure_and_exclusion():
    cfg = StudyConfig(
        schemes=(SchemeKind.ELRI1, SchemeKind.ELRI2),
        taus=TAUS4,
        n_points=128,
        theta=2.0,
        t_final=0.5,
        ref_tau=2.0**-10,
    )
    rep = run_convergence_study(cfg)
    assert rep.kind == "convergence"
    assert len(rep.rows) == 8
    assert all(r.status == "ok" for r in rep.rows)
    for scheme in cfg.schemes:
        errs = [r.error_rel for r in rep.rows if r.scheme == scheme]
        assert errs == sorted(errs, reverse=True)  # decay along the ladder
        fit = rep.fit_for(scheme)
        assert 0.5 < fit.fitted_order < 2.5
    # this config sits half in the pre-asymptotic range, so the fitter must
    # have dropped the two largest steps and recorded that
    assert rep.fit_for(SchemeKind.ELRI1).excluded_taus == (0.125, 0.0625)
    with pytest.raises(KeyError):
        rep.fit_for(SchemeKind.LRI1)


def test_convergence_study_is_deterministic():
    a = run_convergence_study(tiny_config())
    b = run_convergence_study(tiny_config())
    assert render_report(a, "csv") == render_report(b, "csv")
    assert render_report(a, "json") == render_report(b, "json")


def test_two_studies_on_the_same_data_build_one_reference(monkeypatch):
    calls = []

    def counted(run):
        calls.append(run.tau)
        return evolve(run)

    monkeypatch.setattr(oracles, "evolve", counted)
    pair = (tiny_config(), tiny_config(schemes=(SchemeKind.ELRI2,), gamma_err=0.0))

    def texts(rep):
        return [render_report(rep, "csv"), render_report(rep, "json")]

    oracles._reference.cache_clear()
    shared = [t for cfg in pair for t in texts(run_convergence_study(cfg))]
    assert calls == [2.0**-10]
    fresh = []
    for cfg in pair:
        oracles._reference.cache_clear()
        fresh += texts(run_convergence_study(cfg))
    assert len(calls) == 3
    assert shared == fresh


def per_rung_study(cfg):
    """cfg's report from one evolve per (scheme, tau): the bytes a batched
    ladder must reproduce."""
    u0 = studies.generate_rough(RoughSpec(cfg.n_points, cfg.theta, cfg.seed))
    ref = oracles.reference_solution(u0, cfg.t_final, cfg.ref_tau)
    ref_norm = sobolev_norm(ref, cfg.gamma_err)

    def one(scheme, tau):
        try:
            result = evolve(SolverRun(scheme, tau, cfg.t_final, u0))
        except BlowUpError as exc:
            result = exc
        return studies._run_row(scheme, tau, result, ref, cfg.gamma_err, ref_norm)

    rows = [one(s, t) for s in cfg.schemes for t in cfg.taus]
    metadata = dict(n_points=cfg.n_points, theta=cfg.theta, seed=cfg.seed,
                    gamma=cfg.gamma_err, t_final=cfg.t_final, ref_tau=cfg.ref_tau)
    flags = _monotonicity_flags(rows, cfg.schemes)
    return studies._report(metadata, cfg.schemes, rows, flags, "convergence")


@pytest.mark.parametrize("scheme, gamma", [
    pytest.param(SchemeKind.ELRI1, 1.0, id="C2b"),
    pytest.param(SchemeKind.ELRI2, 0.0, id="C3a"),
])
def test_batched_ladder_is_bytewise_per_rung_runs(scheme, gamma):
    # the acceptance configurations C2b and C3a (N = 1024, theta = 3, ladder
    # 2^-4..2^-10): the report of one _march per ladder is, byte for byte,
    # that of one evolve per rung
    cfg = StudyConfig(schemes=(scheme,), taus=tuple(2.0**-k for k in range(4, 11)),
                      n_points=1024, theta=3.0, gamma_err=gamma, ref_tau=2.0**-14)
    assert cfg.n_points < integrators.BATCH_MAX_N
    got = run_convergence_study(cfg)
    assert all(r.status == "ok" for r in got.rows)
    for fmt in ("csv", "json"):
        assert render_report(got, fmt) == render_report(per_rung_study(cfg), fmt)


def test_diverged_rungs_leave_the_ladder_alone(monkeypatch):
    # ten times the rough data: ELRI1 at 2^-5 and 2^-6 turns non-finite at
    # steps 22 and 64, while the finer rungs and the reference stay finite.
    # The two get diverged rows, and every row is the per-rung runs' row
    def loud(spec):
        u = generate(spec)
        return Field.from_spectrum(u.grid, 10.0 * u.spectrum)

    generate = studies.generate_rough
    monkeypatch.setattr(studies, "generate_rough", loud)
    cfg = tiny_config(taus=tuple(2.0**-k for k in range(5, 10)), t_final=1.0,
                      seed=3, ref_tau=2.0**-13)
    got = run_convergence_study(cfg)
    assert [r.status for r in got.rows] == ["diverged"] * 2 + ["ok"] * 3
    assert [r.error_rel for r in got.rows[:2]] == [np.inf, np.inf]
    assert render_report(got, "csv") == render_report(per_rung_study(cfg), "csv")
    fit = got.fit_for(SchemeKind.ELRI1)
    assert fit.fitted_order is not None and fit.excluded_taus == ()


@pytest.mark.parametrize("n_points", [integrators.BATCH_MAX_N // 2,
                                      integrators.BATCH_MAX_N])
def test_ladders_batch_below_the_grid_size_cap(monkeypatch, n_points):
    # one lockstep workspace per scheme below BATCH_MAX_N points (shrinking
    # as rungs reach their counts), one per rung from it up
    calls = []

    class Counted(integrators._Workspace):
        def __init__(self, kind, grid, taus):
            calls.append((kind, tuple(np.ravel(taus).tolist())))
            super().__init__(kind, grid, taus)

    monkeypatch.setattr(integrators, "_Workspace", Counted)
    taus = (2.0**-7, 2.0**-8, 2.0**-9)
    cfg = tiny_config(schemes=(SchemeKind.LRI1, SchemeKind.ELRI2), taus=taus,
                      n_points=n_points, t_final=2.0**-6, ref_tau=2.0**-13)
    got = run_convergence_study(cfg)
    ladders = ([taus[j:] for j in range(len(taus))] if n_points < integrators.BATCH_MAX_N
               else [(t,) for t in taus])
    rungs = [c for c in calls if c[1] != (cfg.ref_tau,)]  # not the reference
    assert rungs == [(s, ladder) for s in cfg.schemes for ladder in ladders]
    assert render_report(got, "csv") == render_report(per_rung_study(cfg), "csv")


def test_convergence_study_insensitive_to_reference_refinement():
    # halving ref_tau must not move the fitted order by a percent: the
    # reference error is far below the scheme errors being measured
    a = run_convergence_study(tiny_config(ref_tau=2.0**-10))
    b = run_convergence_study(tiny_config(ref_tau=2.0**-11))
    oa = a.fit_for(SchemeKind.ELRI1).fitted_order
    ob = b.fit_for(SchemeKind.ELRI1).fitted_order
    assert abs(oa - ob) / abs(oa) < 0.01


def test_local_error_study_orders():
    rep = run_local_error_study(
        schemes=(SchemeKind.LRI1, SchemeKind.ELRI1, SchemeKind.ELRI2),
        taus=(2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10),
        n_points=128,
    )
    assert rep.kind == "local_error"
    assert rep.flags == []  # the two one-step references agreed
    assert len(rep.rows) == 12
    # smooth data: one-step errors behave like tau^2, tau^2, tau^3
    assert 1.8 < rep.fit_for(SchemeKind.LRI1).fitted_order < 2.2
    assert 1.8 < rep.fit_for(SchemeKind.ELRI1).fitted_order < 2.2
    assert 2.7 < rep.fit_for(SchemeKind.ELRI2).fitted_order < 3.2


def test_local_error_study_leaves_reference_cache_alone():
    # its per-tau ELRI2 checks are one-off runs: caching them would evict a
    # convergence study's reference and never hit
    run_convergence_study(tiny_config())
    before = oracles._reference.cache_info()
    run_local_error_study((SchemeKind.ELRI2,), (2.0**-6, 2.0**-7), n_points=32)
    assert oracles._reference.cache_info() == before


def test_local_error_study_runs_fine_ladders():
    # one step per tau and per-tau references: no reference step or run to
    # t_final to cap-check, so ladders below 1.6e-6 run
    schemes = (SchemeKind.LRI1, SchemeKind.ELRI1, SchemeKind.ELRI2)
    rep = run_local_error_study(schemes, (2.0**-20, 2.0**-21), n_points=16)
    assert rep.metadata == {"n_points": 16, "gamma": 1.0}
    assert len(rep.rows) == 6 and all(r.status == "ok" for r in rep.rows)


def test_local_error_step_that_blows_up_is_a_diverged_row(monkeypatch):
    taus = (2.0**-6, 2.0**-7, 2.0**-8)

    def march(kind, grid, taus_, counts, spectra):
        runs = integrators._march(kind, grid, taus_, counts, spectra)
        if kind is SchemeKind.ELRI1 and tuple(taus_) == taus:  # the scheme's ladder
            runs[0] = BlowUpError("non-finite field after step 1 of 1", step=1)
        return runs

    monkeypatch.setattr("kdvlri.studies._march", march)
    rep = run_local_error_study((SchemeKind.ELRI1,), taus, n_points=32)
    assert (rep.rows[0].status, rep.rows[0].error_rel) == ("diverged", np.inf)
    assert all(r.status == "ok" for r in rep.rows[1:])
    monkeypatch.undo()
    rest = run_local_error_study((SchemeKind.ELRI1,), taus[1:], n_points=32)
    assert rep.rows[1:] == rest.rows and rep.fits == rest.fits  # the fit skips it


def test_local_error_rows_leave_unused_cells_empty():
    # smooth built-in data and one step per tau: no theta, seed or t_final
    rep = run_local_error_study((SchemeKind.ELRI2,), (2.0**-6, 2.0**-7), n_points=16)
    text = render_report(rep, "csv")
    for line in text.splitlines()[1:]:
        cells = dict(zip(COLUMNS, line.split(",")))
        assert [cells[c] for c in LOCAL_EMPTY] == ["", "", ""]
        assert cells["n_points"] == "16" and cells["status"] == "ok"
    parsed = parse_report_csv(text)
    assert len(parsed) == 2
    assert all(row[c] is None for row in parsed for c in LOCAL_EMPTY)
    doc = json.loads(render_report(rep, "json"))
    jsonschema.validate(doc, REPORT_JSON_SCHEMA)
    assert [{c: row[c] for c in LOCAL_EMPTY} for row in doc["rows"]] == [
        dict.fromkeys(LOCAL_EMPTY)
    ] * 2


def test_only_local_error_rows_may_leave_cells_empty():
    doc = report_as_dict(synthetic_report([RunResult(SchemeKind.ELRI1, 0.125, 1e-3, "ok")]))
    for name in LOCAL_EMPTY:
        broken = json.loads(json.dumps(doc))
        broken["rows"][0][name] = None
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, REPORT_JSON_SCHEMA)
    # an empty tau or error cell is still malformed
    with pytest.raises(ValueError):
        parse_report_csv(CSV_HEADER + "\nelri1,,1e-3,1,64,2,42,0.5,ok\n")
    with pytest.raises(ValueError):
        parse_report_csv(CSV_HEADER + "\nelri1,0.125,,1,64,2,42,0.5,ok\n")


# ---------------------------------------------------------------------------
# serialization


def test_csv_round_trip_preserves_rows():
    rows = [
        RunResult(SchemeKind.ELRI1, 0.125, 1.234567890123456e-3, "ok"),
        RunResult(SchemeKind.ELRI1, 0.0625, float("inf"), "diverged"),
    ]
    text = render_report(synthetic_report(rows), "csv")
    parsed = parse_report_csv(text)
    assert len(parsed) == 2
    assert parsed[0]["scheme"] == "elri1"
    assert parsed[0]["tau"] == 0.125
    assert parsed[0]["error_rel"] == 1.234567890123456e-3  # %.17g is lossless
    assert parsed[0]["n_points"] == 64
    assert parsed[1]["status"] == "diverged"
    assert parsed[1]["error_rel"] == float("inf")


def test_empty_report_renders_header_only():
    assert render_report(synthetic_report([]), "csv") == CSV_HEADER + "\n"


def test_parse_report_csv_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        parse_report_csv("nope\n")
    with pytest.raises(ValueError, match="row"):
        parse_report_csv(CSV_HEADER + "\nelri1,0.1\n")


def test_json_report_validates_against_schema():
    cfg = tiny_config()
    rep = run_convergence_study(cfg)
    doc = json.loads(render_report(rep, "json"))
    jsonschema.validate(doc, REPORT_JSON_SCHEMA)
    assert doc["kind"] == "convergence"
    assert doc["metadata"]["n_points"] == 64
    assert len(doc["rows"]) == len(rep.rows)
    # floats survive the 17-digit formatting exactly
    assert doc["rows"][0]["error_rel"] == rep.rows[0].error_rel
    assert doc["fits"][0]["fitted_order"] == rep.fits[0].fitted_order
    # a convergence report must say its horizon and reference step
    del doc["metadata"]["ref_tau"]
    with pytest.raises(jsonschema.ValidationError, match="ref_tau"):
        jsonschema.validate(doc, REPORT_JSON_SCHEMA)


def test_json_token_formatting():
    assert json_text(None) == "null"
    assert json_text(True) == "true"
    assert json_text(float("inf")) == "null"  # divergence lives in "status"
    assert json_text([1, 0.5]) == "[1, 0.5]"
    assert json.loads(json_text({"a": 1e-17})) == {"a": 1e-17}
    with pytest.raises(TypeError):
        json_text(object())
    with pytest.raises(TypeError):
        json_text(np.full(2, 1.0))


def test_report_as_dict_uses_plain_types():
    rows = [RunResult(SchemeKind.ELRI1, 0.125, 1e-3, "ok")]
    doc = report_as_dict(synthetic_report(rows))
    jsonschema.validate(doc, REPORT_JSON_SCHEMA)


def test_emit_report_writes_files(tmp_path):
    rep = synthetic_report([RunResult(SchemeKind.ELRI1, 0.125, 1e-3, "ok")])
    csv_path = tmp_path / "r.csv"
    emit_report(rep, "csv", csv_path)
    assert csv_path.read_text() == render_report(rep, "csv")
    json_path = tmp_path / "r.json"
    emit_report(rep, "json", json_path)
    assert json_path.read_text().endswith("\n")
    with pytest.raises(ValueError, match="format"):
        emit_report(rep, "yaml", tmp_path / "r.yaml")
    with pytest.raises(OSError):
        emit_report(rep, "csv", tmp_path / "missing" / "r.csv")
