"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one [acceptance] PASS/FAIL line with the measured numbers
(visible with -s or in failure output; the -v test line mirrors it).  The
convergence studies at N = 1024 are shared module-scoped fixtures because
the fine-step reference dominates their cost.
"""

import numpy as np
import pytest

from kdvlri.cli import main
from kdvlri.integrators import SchemeKind, SolverRun, evolve, step
from kdvlri.oracles import (
    TimeField,
    _check_airy_isometry,
    _check_alpha_identities,
    _check_fn_quadrature,
    _check_projection_identity,
    _check_symmetrization,
    alias_free_max_mode,
    check_ibp_identity_i,
    check_ibp_identity_ii,
    embedded_form_step,
    ifrk4_solve,
    random_band_field,
)
from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import Field, Grid, sobolev_norm
from kdvlri.studies import StudyConfig, run_convergence_study, run_local_error_study

LADDER = tuple(2.0**-k for k in range(4, 11))  # 2^-4 ... 2^-10


def _line(tag, ok, detail):
    print(f"[acceptance] {tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _global_study(schemes, theta, gamma):
    cfg = StudyConfig(
        schemes=schemes,
        taus=LADDER,
        n_points=1024,
        theta=theta,
        seed=42,
        gamma_err=gamma,
        t_final=1.0,
        ref_tau=2.0**-14,
    )
    return run_convergence_study(cfg)


@pytest.fixture(scope="module")
def study_t2_g1():
    return _global_study((SchemeKind.LRI1, SchemeKind.ELRI1), theta=2.0, gamma=1.0)


@pytest.fixture(scope="module")
def study_t3_g1():
    return _global_study((SchemeKind.ELRI1,), theta=3.0, gamma=1.0)


@pytest.fixture(scope="module")
def study_t3_g0():
    return _global_study((SchemeKind.ELRI2,), theta=3.0, gamma=0.0)


@pytest.fixture(scope="module")
def study_t4_g0():
    return _global_study((SchemeKind.ELRI2,), theta=4.0, gamma=0.0)


def test_c01_embedded_oracle_matches_schemes():
    # N in {8, 16, 32}, 50 random zero-mean fields each, tau in {0.01, 0.05}:
    # the per-triple exact-integral form reproduces both schemes to 1e-10
    # relative L2.  Fields are band-limited so the grid products of the
    # schemes stay alias-free, the regime where the identity is exact.
    worst = 0.0
    for n in (8, 16, 32):
        g = Grid(n)
        mm = alias_free_max_mode(n, 3)
        for seed in range(50):
            v = random_band_field(g, mm, seed=90_000 + seed)
            for tau in (0.01, 0.05):
                for kind in (SchemeKind.ELRI1, SchemeKind.ELRI2):
                    direct = step(kind, v, tau)
                    oracle = embedded_form_step(v, 0.0, tau, variant=kind.value)
                    num = sobolev_norm(
                        Field.from_spectrum(g, direct.spectrum - oracle.spectrum), 0.0
                    )
                    worst = max(worst, num / sobolev_norm(direct, 0.0))
    _line("C1", worst <= 1e-10, f"embedded-form relative mismatch {worst:.3e} <= 1e-10")


def test_c02a_elri1_first_order_theta2(study_t2_g1):
    order = study_t2_g1.fit_for(SchemeKind.ELRI1).fitted_order
    _line(
        "C2a",
        0.85 <= order <= 1.15,
        f"ELRI1 theta=2 gamma=1 fitted order {order:.4f} in [0.85, 1.15]",
    )


def test_c02b_elri1_first_order_theta3(study_t3_g1):
    order = study_t3_g1.fit_for(SchemeKind.ELRI1).fitted_order
    _line("C2b", order >= 0.9, f"ELRI1 theta=3 gamma=1 fitted order {order:.4f} >= 0.9")


def test_c02_exploratory_gamma0_first_order():
    # gamma = 0 error norm is outside the gated regime; measure and report
    # the slope without gating on it
    cfg = StudyConfig(
        schemes=(SchemeKind.ELRI1,),
        taus=tuple(2.0**-k for k in range(4, 9)),
        n_points=1024,
        theta=2.0,
        gamma_err=0.0,
        t_final=1.0,
        ref_tau=2.0**-12,
    )
    order = run_convergence_study(cfg).fit_for(SchemeKind.ELRI1).fitted_order
    print(
        f"[acceptance] C2-exploratory INFO: ELRI1 theta=2 gamma=0 fitted order "
        f"{order:.4f} (not gated)"
    )


def test_c03a_elri2_second_order_theta3(study_t3_g0):
    order = study_t3_g0.fit_for(SchemeKind.ELRI2).fitted_order
    _line(
        "C3a",
        1.8 <= order <= 2.2,
        f"ELRI2 theta=3 gamma=0 fitted order {order:.4f} in [1.8, 2.2]",
    )


def test_c03b_elri2_second_order_theta4(study_t4_g0):
    order = study_t4_g0.fit_for(SchemeKind.ELRI2).fitted_order
    _line("C3b", order >= 1.9, f"ELRI2 theta=4 gamma=0 fitted order {order:.4f} >= 1.9")


def test_c04_lri1_baseline_is_worse(study_t2_g1):
    fit_lri1 = study_t2_g1.fit_for(SchemeKind.LRI1).fitted_order
    fit_elri1 = study_t2_g1.fit_for(SchemeKind.ELRI1).fitted_order
    smallest = min(LADDER)
    err = {
        (r.scheme, r.tau): r.error_rel
        for r in study_t2_g1.rows
        if r.status == "ok"
    }
    ratio = err[(SchemeKind.LRI1, smallest)] / err[(SchemeKind.ELRI1, smallest)]
    gap = fit_elri1 - fit_lri1
    ok = gap >= 0.2 or ratio >= 2.0
    _line(
        "C4",
        ok,
        f"LRI1 order {fit_lri1:.4f} vs ELRI1 {fit_elri1:.4f} (gap {gap:.2f}), "
        f"smallest-tau error ratio {ratio:.1f}x (need gap >= 0.2 or ratio >= 2)",
    )


def test_c05_local_error_orders():
    rep = run_local_error_study(
        schemes=(SchemeKind.LRI1, SchemeKind.ELRI1, SchemeKind.ELRI2),
        taus=tuple(2.0**-k for k in range(6, 13)),
        n_points=256,
    )
    o1 = rep.fit_for(SchemeKind.ELRI1).fitted_order
    o2 = rep.fit_for(SchemeKind.ELRI2).fitted_order
    o_base = rep.fit_for(SchemeKind.LRI1).fitted_order
    ok = abs(o1 - 2.0) <= 0.2 and abs(o2 - 3.0) <= 0.2
    _line(
        "C5",
        ok,
        f"one-step orders ELRI1 {o1:.4f} (2.0 +- 0.2), ELRI2 {o2:.4f} (3.0 +- 0.2); "
        f"LRI1 measured {o_base:.4f}",
    )


def test_c06_mean_conservation_over_1000_steps():
    u0 = generate_rough(RoughSpec(256, 2.0, seed=42))
    worst = 0.0
    for kind in (SchemeKind.LRI1, SchemeKind.ELRI1, SchemeKind.ELRI2):
        traj = evolve(SolverRun(scheme=kind, tau=1e-3, t_final=1.0, initial=u0))
        assert traj.n_steps == 1000
        worst = max(worst, traj.max_mean_drift)
    _line("C6", worst <= 1e-12, f"max mode-0 drift over 1000 steps {worst:.3e} <= 1e-12")


def test_c07_operator_identity_suite():
    parts = []
    r = _check_projection_identity()
    parts.append(("projection", r.residual, 1e-10))
    r = _check_airy_isometry()
    parts.append(("isometry", r.residual, 1e-12))

    g = Grid(16)
    mm2 = alias_free_max_mode(g.n, 2)
    worst_i = 0.0
    for seed in range(5):
        fc = TimeField.constant(random_band_field(g, mm2, seed=91_000 + seed))
        gc = TimeField.constant(random_band_field(g, mm2, seed=92_000 + seed))
        worst_i = max(worst_i, check_ibp_identity_i(fc, gc, 0.4, 0.1, nodes=128))
        fm = TimeField.modulated(random_band_field(g, mm2, seed=93_000 + seed), 3.0)
        gm = TimeField.modulated(random_band_field(g, mm2, seed=94_000 + seed), 7.0)
        worst_i = max(worst_i, check_ibp_identity_i(fm, gm, 0.3, 0.1, nodes=128))
    parts.append(("ibp-i", worst_i, 1e-8))

    mm3 = alias_free_max_mode(g.n, 3)
    worst_ii = 0.0
    for seed in range(5):
        fs = [random_band_field(g, mm3, seed=95_000 + 3 * seed + j) for j in range(3)]
        worst_ii = max(worst_ii, check_ibp_identity_ii(*fs, 0.2, 0.1, nodes=128))
    parts.append(("ibp-ii", worst_ii, 1e-8))

    parts.append(("alpha-identities", _check_alpha_identities().residual, 0.0))
    parts.append(("symmetrization", _check_symmetrization().residual, 0.0))

    ok = all(res <= tol for _, res, tol in parts)
    detail = ", ".join(f"{name} {res:.3e} <= {tol:g}" for name, res, tol in parts)
    _line("C7", ok, detail)


def test_c08_fn_closed_form_vs_quadrature():
    r = _check_fn_quadrature()
    _line("C8", r.residual <= 1e-10, f"F_n residual at N=16: {r.residual:.3e} <= 1e-10")


def test_c09_reference_routes_agree():
    g = Grid(256)
    u0 = Field.from_values(g, np.cos(g.x))
    fine = evolve(
        SolverRun(scheme=SchemeKind.ELRI2, tau=1e-4, t_final=1.0, initial=u0)
    ).final
    other = ifrk4_solve(u0, 1.0, 1e-3)
    rel = sobolev_norm(
        Field.from_spectrum(g, fine.spectrum - other.spectrum), 0.0
    ) / sobolev_norm(fine, 0.0)
    _line(
        "C9",
        rel <= 1e-8,
        f"ELRI2(1e-4) vs IFRK4(1e-3) on cos(x), T=1: relative L2 {rel:.3e} <= 1e-8",
    )


def test_c10_converge_is_byte_deterministic(tmp_path):
    argv = [
        "converge",
        "--scheme",
        "elri1,elri2",
        "--tau-ladder",
        "2^-3,2^-4,2^-5",
        "--t-final",
        "0.5",
        "--ref-tau",
        "2^-9",
        "--n",
        "64",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    same = a.read_bytes() == b.read_bytes()
    _line("C10", same, f"repeated converge runs byte-identical: {same}")
