"""End-to-end runs of every CLI subcommand through main(argv)."""

import dataclasses
import json
import re
import warnings

import jsonschema
import numpy as np
import pytest

from kdvlri import oracles
from kdvlri.cli import build_parser, main, parse_schemes, parse_tau_ladder, parse_tau_token
from kdvlri.integrators import SchemeKind
from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import Field, Grid, read_field, write_field
from kdvlri.studies import (
    CSV_HEADER,
    StudyConfig,
    parse_report_csv,
    render_report,
    run_convergence_study,
)

from report_schema import REPORT_JSON_SCHEMA


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_tau_token(capsys):
    assert parse_tau_token("2^-8") == 2.0**-8
    assert parse_tau_token("2^3") == 8.0
    assert parse_tau_token("0.125") == 0.125
    assert parse_tau_token(" 1e-3 ") == 1e-3
    with pytest.raises(ValueError):
        parse_tau_token("")
    for bad in ("2^x", "2^2000", "2^", "0.1.2"):
        with pytest.raises(ValueError, match=f"bad step size '{re.escape(bad)}'"):
            parse_tau_token(bad)
    # a nonzero token below the smallest subnormal underflows to 0.0
    for bad in ("2^-1075", "2^-2000", "1e-400"):
        with pytest.raises(ValueError, match=f"bad step size '{re.escape(bad)}'"):
            parse_tau_token(bad)
    assert parse_tau_token("2^-1074") == 5e-324
    assert parse_tau_token("0") == 0.0  # a literal zero is not an underflow
    # as an argparse type, a bad --tau is a usage error naming the token
    with pytest.raises(SystemExit) as info:
        main(["solve", "--scheme", "elri1", "--tau", "2^2000", "--n", "64"])
    assert info.value.code == 2
    assert "'2^2000'" in capsys.readouterr().err


def test_parse_tau_ladder():
    assert parse_tau_ladder("2^-4,2^-5,0.015625") == (2.0**-4, 2.0**-5, 2.0**-6)


def test_parse_schemes():
    assert parse_schemes("elri1,elri2") == (SchemeKind.ELRI1, SchemeKind.ELRI2)
    assert parse_schemes(" LRI1 ") == (SchemeKind.LRI1,)
    for name in ("rk4", "lri2"):
        with pytest.raises(ValueError, match="choose one of"):
            parse_schemes(name)
    with pytest.raises(ValueError):
        parse_schemes(",")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------------------
# solve


def test_solve_prints_summary(capsys):
    rc = main(
        ["solve", "--scheme", "elri1", "--tau", "2^-4", "--t-final", "0.25", "--n", "64"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps          4" in out
    assert "final L2 norm" in out
    assert "max mean drift" in out


def test_solve_writes_and_reads_fields(tmp_path):
    data = tmp_path / "u0.csv"
    final = tmp_path / "u1.bin"
    assert main(["gen-data", "--n", "64", "--theta", "2", "--output", str(data)]) == 0
    rc = main(
        [
            "solve",
            "--scheme",
            "elri2",
            "--tau",
            "2^-5",
            "--t-final",
            "0.5",
            "--input",
            str(data),
            "--output",
            str(final),
            "--format",
            "bin",
        ]
    )
    assert rc == 0
    u1 = read_field(final)
    assert u1.grid.n == 64
    assert np.all(np.isfinite(u1.values))


def test_solve_rejects_scheme_list(capsys):
    rc = main(["solve", "--scheme", "elri1,elri2", "--tau", "0.1", "--n", "64"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_solve_reports_blow_up(tmp_path, capsys):
    base = generate_rough(RoughSpec(64, 1.0, seed=3))
    big = Field.from_values(base.grid, 50.0 * base.values)
    path = tmp_path / "big.csv"
    write_field(big, path, fmt="csv")
    rc = main(
        [
            "solve",
            "--scheme",
            "elri1",
            "--tau",
            "0.5",
            "--t-final",
            "5",
            "--input",
            str(path),
        ]
    )
    assert rc == 1
    assert "diverged at step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, named",
    [
        (["--tau", "nan"], "tau must be positive and finite, got nan"),
        (["--tau", "2^-4", "--t-final", "inf"], "t_final must be positive and finite"),
        (["--tau", "2^-4", "--input", "{csv}"], "u0.csv: non-finite value nan"),
    ],
)
def test_solve_rejects_non_finite_input(tmp_path, capsys, args, named):
    g = Grid(64)
    values = np.cos(g.x)
    values[5] = np.nan
    path = tmp_path / "u0.csv"
    write_field(Field.from_values(g, values), path, fmt="csv")
    argv = ["solve", "--scheme", "elri1", "--n", "64"]
    rc = main(argv + [a.format(csv=path) for a in args])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert named in err


@pytest.mark.parametrize(
    "name, content",
    [
        ("odd.csv", "# n=5 length=6.283185307179586\n" + "0.5\n" * 5),
        ("empty.csv", "# n=8 length=6.283185307179586\n"),
        ("text.csv", "# n=4 length=6.283185307179586\nx\n0\n0\n0\n"),
        ("three.bin", b"KDVF" + (3).to_bytes(4, "little") + bytes(8) + bytes(24)),
        ("garbage.bin", b"\xff\xfe\x00garbage"),
    ],
    ids=["odd-n", "header-only", "non-numeric", "binary-n3", "not-utf8"],
)
def test_solve_refuses_bad_field_file_by_name(tmp_path, capsys, recwarn, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    rc = main(["solve", "--scheme", "elri1", "--tau", "2^-4", "--input", str(path)])
    assert rc == 2
    assert f"configuration error: {path}: " in capsys.readouterr().err
    assert not recwarn.list


def test_solve_mean_shift_flag(tmp_path, capsys):
    # the mean shift is decided from the data: the flag is gone, and a file
    # of mean 0.3 solves without it, its mean conserved
    g_args = ["solve", "--scheme", "elri1", "--tau", "2^-4", "--t-final", "0.25"]
    with pytest.raises(SystemExit) as info:
        main(g_args + ["--n", "64", "--mean-shift"])
    assert info.value.code == 2
    assert "unrecognized arguments: --mean-shift" in capsys.readouterr().err
    u = generate_rough(RoughSpec(64, 2.0, seed=3))
    write_field(Field.from_values(u.grid, u.values + 0.3), tmp_path / "m.bin", fmt="bin")
    assert main(g_args + ["--input", str(tmp_path / "m.bin")]) == 0
    assert "mean value     3.000e-01" in capsys.readouterr().out


def test_converge_leaves_unset_values_to_study_config(monkeypatch):
    # StudyConfig alone holds the defaults of --n, --t-final, --theta and
    # --seed: converge passes only the values given
    given = []

    def config(**kwargs):
        given.append(kwargs)
        return StudyConfig(**kwargs)

    monkeypatch.setattr("kdvlri.cli.StudyConfig", config)
    monkeypatch.setattr("kdvlri.cli.run_convergence_study", lambda cfg: cfg)
    monkeypatch.setattr("kdvlri.cli._report_exit", lambda cfg, args: 0)
    main(["converge", "--tau-ladder", "2^-3,2^-4"])
    main(["converge", "--tau-ladder", "2^-3,2^-4", "--n", "64", "--t-final", "0.5",
          "--theta", "3", "--seed", "7"])
    keys = ("n_points", "t_final", "theta", "seed")
    assert not set(keys) & set(given[0])
    assert [given[1][k] for k in keys] == [64, 0.5, 3.0, 7]
    # solve and gen-data take StudyConfig's defaults as their own
    defaults = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
    for argv in (["solve", "--scheme", "elri1", "--tau", "1"], ["gen-data", "--output", "u"]):
        args = build_parser().parse_args(argv)
        assert (args.n, args.theta, args.seed) == (
            defaults["n_points"], defaults["theta"], defaults["seed"])


# ---------------------------------------------------------------------------
# converge


CONV_QUICK = [
    "converge",
    "--scheme",
    "elri1",
    "--tau-ladder",
    "2^-3,2^-4,2^-5",
    "--t-final",
    "0.5",
    "--ref-tau",
    "2^-9",
    "--n",
    "64",
]


def test_converge_writes_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(CONV_QUICK + ["--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "wrote convergence report (3 rows)" in captured.out
    assert "fitted order" in captured.err
    rows = parse_report_csv(out.read_text())
    assert [r["tau"] for r in rows] == [2.0**-3, 2.0**-4, 2.0**-5]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["n_points"] == 64 for r in rows)


def test_converge_stdout_defaults_to_csv(capsys):
    rc = main(CONV_QUICK)
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(CSV_HEADER + "\n")


def test_converge_json_report_validates(tmp_path):
    out = tmp_path / "report.json"
    rc = main(CONV_QUICK + ["--output", str(out), "--format", "json"])
    assert rc == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_JSON_SCHEMA)
    assert doc["metadata"]["n_points"] == 64
    assert len(doc["rows"]) == 3


@pytest.mark.parametrize("k, ref_k", [(10, 14), (11, 15), (12, 16)])
def test_converge_takes_the_study_config_default_reference_step(k, ref_k, capsys):
    # with no --ref-tau, converge and a StudyConfig with no ref_tau run the
    # same default step, min(2^-14, min(tau)/16), and write the same report
    cfg = StudyConfig((SchemeKind.ELRI2,), (2.0 ** (1 - k), 2.0**-k), n_points=32,
                      t_final=0.25)
    assert cfg.ref_tau == 2.0**-ref_k
    argv = ["converge", "--scheme", "elri2", "--n", "32", "--t-final", "0.25",
            "--tau-ladder", f"2^{1 - k},2^-{k}"]
    assert main(argv) == 0
    assert capsys.readouterr().out == render_report(run_convergence_study(cfg), "csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["local-error", "--n", "64", "--tau-ladder", "2^2,2^1", "--scheme", "elri2"],
    ],
    ids=["local-error"],
)
def test_a_diverging_reference_exits_1_without_warnings(argv, capsys):
    # the RK4 reference blows up: a diverged run, not a configuration error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{argv[0]} diverged at step " in err and "ifrk4_solve" in err
    assert "configuration error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--scheme", "elri2", "--tau", "2^-4", "--n", "16", "--dealias"],
        ["converge", "--n", "16", "--tau-ladder", "2^-3,2^-4", "--dealias"],
        ["converge", "--n", "16", "--tau-ladder", "2^-3,2^-4", "--cross-check"],
        ["local-error", "--n", "16", "--tau-ladder", "2^-3", "--dealias"],
    ],
    ids=["solve-dealias", "converge-dealias", "converge-cross-check",
         "local-error-dealias"],
)
def test_removed_options_exit_2_naming_the_option(argv, capsys):
    # one discretization (aliased products) and one reference (ELRI2 at
    # ref_tau): the 2/3-rule and RK4 cross-check options are refused
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err


def test_converge_bad_ladder_is_config_error(capsys, monkeypatch):
    rc = main(["converge", "--tau-ladder", "2^-5,2^-4", "--n", "64"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    rc = main(["converge", "--n", "64", "--gamma", "nan"])
    assert rc == 2
    assert "gamma_err must be finite" in capsys.readouterr().err
    for token in ("2^2000", "2^x", "2^-1075", "2^-2000", "1e-400"):
        rc = main(["converge", "--n", "64", "--tau-ladder", f"2^-3,{token}"])
        assert rc == 2
        assert f"bad step size '{token}'" in capsys.readouterr().err
    # --paper-scale fixes N and T, so an explicit --n or --t-final is refused
    # before any rough data or reference exists
    def no_study(cfg):
        raise AssertionError("study started")

    monkeypatch.setattr("kdvlri.cli.run_convergence_study", no_study)
    for extra, flag in (
        (["--n", "64", "--t-final", "0.25"], "--n"),
        (["--t-final", "0.25"], "--t-final"),
    ):
        rc = main(["converge", "--paper-scale"] + extra)
        assert rc == 2
        assert f"--paper-scale sets N and T itself; drop {flag}" in (
            capsys.readouterr().err
        )


def test_step_cap_and_gamma_overflow_are_config_errors(capsys, monkeypatch):
    # refused at the boundary, before any study (data, reference) starts
    def no_study(cfg):
        raise AssertionError("study started")

    monkeypatch.setattr("kdvlri.cli.run_convergence_study", no_study)
    ladder = ["converge", "--n", "64", "--tau-ladder", "2^-3,2^-4"]
    for argv, named in (
        (["solve", "--scheme", "elri2", "--tau", "1e-300", "--n", "8"],
         "tau = 1e-300 takes 1e+300 steps"),
        (ladder + ["--ref-tau", "1e-300"], "ref_tau = 1e-300 takes 1e+300 steps"),
        (ladder + ["--gamma", "1e308"], "gamma = 1e+308 overflows"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err


def test_converge_bad_t_final_is_refused_before_rough_data(capsys, monkeypatch):
    def no_data(spec):
        raise AssertionError("rough data generated")

    monkeypatch.setattr("kdvlri.studies.generate_rough", no_data)
    for bad in ("nan", "-1", "0", "inf"):
        argv = ["converge", "--n", "64", "--tau-ladder", "2^-3,2^-4", "--t-final", bad]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: t_final must be positive and finite" in err


def test_repeated_scheme_is_refused_before_any_data(capsys, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data or reference built")

    for name in ("generate_rough", "smooth_test_data", "reference_solution",
                 "ifrk4_solve"):
        monkeypatch.setattr(f"kdvlri.studies.{name}", no_data)
    for argv in (
        ["converge", "--n", "64", "--scheme", "elri1,elri1",
         "--tau-ladder", "2^-3,2^-4", "--ref-tau", "2^-8"],
        ["local-error", "--n", "64", "--scheme", "lri1,elri2,lri1",
         "--tau-ladder", "2^-6,2^-7"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "configuration error: scheme" in captured.err
        assert "given more than once" in captured.err


@pytest.mark.parametrize(
    "steps, named",
    [
        (["--tau-ladder", "0.3,0.1", "--t-final", "1"], "tau = 0.3"),
        (["--tau-ladder", "2^-2,2^-3", "--ref-tau", "0.003"], "ref_tau = 0.003"),
    ],
    ids=["ladder", "ref-tau"],
)
def test_non_dividing_step_is_refused_before_any_data(capsys, monkeypatch, steps, named):
    def no_data(*args, **kwargs):
        raise AssertionError("data or reference built")

    for name in ("generate_rough", "reference_solution"):
        monkeypatch.setattr(f"kdvlri.studies.{name}", no_data)
    assert main(["converge", "--n", "256", *steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: {named} does not divide t_final = 1: " in captured.err


def test_converge_unwritable_output_is_io_error(tmp_path, capsys):
    rc = main(CONV_QUICK + ["--output", str(tmp_path / "nope" / "r.csv")])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--n", "64", "--tau-ladder", "2^-3,2^-4"],
        ["local-error", "--n", "64", "--tau-ladder", "2^-6,2^-7"],
        ["solve", "--scheme", "elri2", "--tau", "2^-4", "--n", "64"],
        ["gen-data", "--n", "64"],
        ["verify"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_output_directory_is_refused_before_any_work(
    tmp_path, capsys, monkeypatch, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("cli.generate_rough", "cli.verification_suite", "studies.generate_rough",
                 "studies.smooth_test_data", "studies.reference_solution"):
        monkeypatch.setattr(f"kdvlri.{name}", no_work)
    # a missing directory, and an existing directory as the file itself
    for path in (tmp_path / "missing" / "out", tmp_path):
        assert main(argv + ["--output", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and str(path) in captured.err


def test_no_complex_transform_is_called(tmp_path, capsys, monkeypatch):
    # every spectrum holds modes 0..N/2 of a real field, so the real
    # transforms rfft/irfft are the only ones any command needs; the complex
    # kernels are refused too, for code that calls them past np.fft
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    for name in ("fft", "ifft", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft._pocketfft_umath, name, refuse)
    oracles._reference.cache_clear()  # so converge builds its reference
    u0 = tmp_path / "u0.csv"
    for argv in (
        ["gen-data", "--n", "64", "--output", str(u0)],
        ["solve", "--scheme", "elri2", "--tau", "2^-4", "--input", str(u0)],
        ["converge", "--n", "64", "--tau-ladder", "2^-3,2^-4", "--ref-tau", "2^-8"],
        ["local-error", "--n", "64", "--tau-ladder", "2^-6,2^-7"],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert all(r.passed for r in oracles.verification_suite())


# ---------------------------------------------------------------------------
# local-error


def test_local_error_quick(capsys):
    rc = main(
        [
            "local-error",
            "--scheme",
            "lri1,elri2",
            "--tau-ladder",
            "2^-6,2^-7",
            "--n",
            "64",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    rows = parse_report_csv(captured.out)
    assert len(rows) == 4
    assert {r["scheme"] for r in rows} == {"lri1", "elri2"}


def test_local_error_runs_fine_ladders(capsys):
    # one step per tau and per-tau references: no reference step or run to
    # t_final to cap-check, so ladders below 1.6e-6 run
    argv = ["local-error", "--n", "16", "--tau-ladder", "2^-20,2^-21",
            "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_JSON_SCHEMA)
    assert set(doc["metadata"]) == {"n_points", "gamma"}
    assert len(doc["rows"]) == 6


# ---------------------------------------------------------------------------
# verify and gen-data


def test_verify_passes_and_writes_json(tmp_path, capsys):
    out = tmp_path / "checks.json"
    rc = main(["verify", "--output", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "13/13 checks passed" in captured
    assert "FAIL" not in captured
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 13
    for chk in doc["checks"]:
        assert set(chk) == {"check_name", "residual", "tolerance", "pass"}
        assert chk["pass"] is True


# `verify` output, stdout and then the --output file, byte for byte, as
# recorded with spectra of the modes 0..N/2
VERIFY_STDOUT = """\
PASS inv_dx_dx_equals_projection: residual 1.084e-16 (tolerance 1.000e-10)
PASS exp_airy_isometry: residual 2.576e-16 (tolerance 1.000e-12)
PASS exp_airy_group_action: residual 2.659e-12 (tolerance 1.000e-10)
PASS ibp_identity_i_constant: residual 1.354e-16 (tolerance 1.000e-09)
PASS ibp_identity_i_modulated: residual 5.573e-16 (tolerance 1.000e-08)
PASS ibp_identity_ii_cubic: residual 1.041e-17 (tolerance 1.000e-09)
PASS fn_closed_form_vs_quadrature: residual 1.462e-16 (tolerance 1.000e-10)
PASS alpha3_alpha4_integer_identities: residual 0.000e+00 (tolerance 0.000e+00)
PASS multiplier_symmetrization_exact: residual 0.000e+00 (tolerance 0.000e+00)
PASS an_tilde_minus_an_boundary_terms: residual 1.301e-18 (tolerance 1.000e-12)
PASS embedded_form_matches_elri1: residual 2.228e-16 (tolerance 1.000e-10)
PASS embedded_form_matches_elri2: residual 2.228e-16 (tolerance 1.000e-10)
PASS reference_cross_check_smooth: residual 1.931e-08 (tolerance 2.010e-07)
13/13 checks passed
wrote verification results to {path}
"""
VERIFY_JSON = (
    '{"all_pass": true, "checks": ['
    + ", ".join(
        f'{{"check_name": "{name}", "residual": {res}, "tolerance": {tol}, "pass": true}}'
        for name, res, tol in (
            ("inv_dx_dx_equals_projection", "1.0836197631025253e-16", "1e-10"),
            ("exp_airy_isometry", "2.5757085760227528e-16", "9.9999999999999998e-13"),
            ("exp_airy_group_action", "2.6585810501884683e-12", "1e-10"),
            ("ibp_identity_i_constant", "1.3543039381769579e-16", "1.0000000000000001e-09"),
            ("ibp_identity_i_modulated", "5.5732037927542049e-16", "1e-08"),
            ("ibp_identity_ii_cubic", "1.0408340855860843e-17", "1.0000000000000001e-09"),
            ("fn_closed_form_vs_quadrature", "1.4623521942398627e-16", "1e-10"),
            ("alpha3_alpha4_integer_identities", "0", "0"),
            ("multiplier_symmetrization_exact", "0", "0"),
            ("an_tilde_minus_an_boundary_terms", "1.3012324331722206e-18", "9.9999999999999998e-13"),
            ("embedded_form_matches_elri1", "2.2275232229033852e-16", "1e-10"),
            ("embedded_form_matches_elri2", "2.2275140515209969e-16", "1e-10"),
            ("reference_cross_check_smooth", "1.9306926098202705e-08", "2.0100031399889556e-07"),
        )
    )
    + "]}\n"
)


def test_verify_output_bytes_are_unchanged_and_times_go_to_stderr(tmp_path, capsys):
    out = tmp_path / "checks.json"
    assert main(["verify", "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == VERIFY_STDOUT.format(path=out)
    assert out.read_text() == VERIFY_JSON
    names = re.findall(r"^PASS (\S+):", captured.out, flags=re.M)
    times = re.findall(r"^time (\S+): (\d+\.\d{3}) s$", captured.err, flags=re.M)
    assert [name for name, _ in times] == names  # one line per check, in order
    assert captured.err.count("\n") == len(names)


def test_grid_size_beyond_the_cap_is_config_error(tmp_path, capsys):
    out = tmp_path / "u.csv"
    for argv in (
        ["gen-data", "--n", "100000000000", "--output", str(out)],
        ["converge", "--n", "100000000000", "--tau-ladder", "2^-3,2^-4"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: grid size n = 100000000000 " in err
    assert not out.exists()


def test_gen_data_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for path in (a, b):
        rc = main(
            [
                "gen-data",
                "--n",
                "128",
                "--theta",
                "2.5",
                "--seed",
                "7",
                "--output",
                str(path),
                "--format",
                "bin",
            ]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote rough data" in capsys.readouterr().out
    f = read_field(a)
    assert f.grid.n == 128
    assert abs(np.max(np.abs(f.values)) - 1.0) < 1e-12


def test_gen_data_bad_size_is_config_error(tmp_path, capsys):
    rc = main(["gen-data", "--n", "7", "--output", "x.csv"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    out = tmp_path / "nan.csv"
    rc = main(["gen-data", "--theta", "nan", "--output", str(out)])
    assert rc == 2
    assert "theta must be finite" in capsys.readouterr().err
    assert not out.exists()
