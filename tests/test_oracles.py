"""Independent oracles: resonance algebra, Duhamel integrals, the embedded
integral form summed per frequency triple, and the cross-checked reference."""

import numpy as np
import pytest

from kdvlri import oracles
from kdvlri.integrators import elri1_step, elri2_step, evolve
from kdvlri.oracles import (
    MAX_ORACLE_N,
    CheckResult,
    CostGuardError,
    ReferenceMismatchError,
    TimeField,
    alias_free_max_mode,
    alpha3,
    alpha4,
    an_time_integral,
    check_ibp_identity_i,
    check_ibp_identity_ii,
    embedded_form_step,
    fn_closed_form,
    fn_quadrature,
    gauss_legendre_nodes,
    ifrk4_solve,
    random_band_field,
    reference_solution,
    symmetrized_multiplier_exact,
    verification_suite,
)
from kdvlri.spectral import Field, Grid, exp_airy, inv_dx, sobolev_norm


def l2_diff(a, b):
    return sobolev_norm(Field.from_spectrum(a.grid, a.spectrum - b.spectrum), 0.0)


# ---------------------------------------------------------------------------
# resonance algebra


def test_alpha_identities_on_random_integers():
    rng = np.random.default_rng(0)
    for _ in range(500):
        x1, x2, x3 = (int(v) for v in rng.integers(-50, 51, size=3))
        assert alpha3(x1, x2) == (x1 + x2) ** 3 - x1**3 - x2**3
        s = x1 + x2 + x3
        assert alpha4(x1, x2, x3) == s**3 - x1**3 - x2**3 - x3**3


def test_symmetrized_multiplier_exact_equality():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        x1, x2, x3 = (int(v) for v in rng.integers(-30, 31, size=3))
        if 0 in (x1, x2, x3, x1 + x2 + x3):
            continue
        lhs, rhs = symmetrized_multiplier_exact(x1, x2, x3)
        assert lhs == rhs  # exact rational arithmetic, no tolerance
        checked += 1


def test_symmetrized_multiplier_rejects_zero_frequencies():
    with pytest.raises(ValueError):
        symmetrized_multiplier_exact(0, 1, 2)
    with pytest.raises(ValueError):
        symmetrized_multiplier_exact(1, 2, -3)  # sum is zero


# ---------------------------------------------------------------------------
# band-limited inputs and quadrature helpers


def test_alias_free_max_mode_values():
    assert alias_free_max_mode(64, 3) == 10
    assert alias_free_max_mode(64, 2) == 15
    assert alias_free_max_mode(16, 3) == 2
    assert alias_free_max_mode(8, 3) == 1


def test_random_band_field_properties():
    g = Grid(64)
    f = random_band_field(g, 10, seed=7)
    k = np.abs(g.wavenumbers)
    assert np.all(f.spectrum[(k == 0) | (k > 10)] == 0.0)
    assert abs(sobolev_norm(f, 0.0) - 1.0) < 1e-12
    again = random_band_field(g, 10, seed=7)
    assert np.array_equal(f.spectrum, again.spectrum)
    with pytest.raises(ValueError):
        random_band_field(g, 0, seed=1)
    with pytest.raises(ValueError):
        random_band_field(g, 32, seed=1)


def test_gauss_legendre_exact_for_polynomials():
    pts, wts = gauss_legendre_nodes(0.0, 1.0, 3)
    # 3 nodes integrate degree <= 5 exactly
    assert abs(np.sum(wts * pts**5) - 1.0 / 6.0) < 1e-14
    pts, wts = gauss_legendre_nodes(-2.0, 3.0, 4)
    assert abs(np.sum(wts) - 5.0) < 1e-13


# ---------------------------------------------------------------------------
# quadratic Duhamel integral


def test_fn_closed_form_matches_quadrature():
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 2)
    for seed in (0, 3):
        w = random_band_field(g, mm, seed=seed)
        for t_n in (0.0, 0.7):
            closed = fn_closed_form(w, t_n, 0.05)
            quad = fn_quadrature(w, t_n, 0.05, nodes=64)
            assert l2_diff(closed, quad) < 1e-10


def test_fn_zero_length_interval_vanishes():
    g = Grid(16)
    w = random_band_field(g, 3, seed=2)
    assert np.max(np.abs(fn_closed_form(w, 0.3, 0.0).spectrum)) == 0.0
    assert np.max(np.abs(fn_quadrature(w, 0.3, 0.0).spectrum)) == 0.0


def test_fn_requires_zero_mean():
    g = Grid(16)
    w = Field.from_values(g, 1.0 + np.cos(g.x))
    with pytest.raises(ValueError, match="zero-mean"):
        fn_closed_form(w, 0.0, 0.1)


# ---------------------------------------------------------------------------
# integration-by-parts identities


def test_ibp_identity_i_constant_fields():
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 2)
    f = TimeField.constant(random_band_field(g, mm, seed=10))
    h = TimeField.constant(random_band_field(g, mm, seed=11))
    for t_n in (0.0, 0.4):
        assert check_ibp_identity_i(f, h, t_n, 0.1, nodes=64) < 1e-9


def test_ibp_identity_i_time_dependent_fields():
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 2)
    f = TimeField.modulated(random_band_field(g, mm, seed=12), 3.0)
    h = TimeField.modulated(random_band_field(g, mm, seed=13), 7.0)
    assert check_ibp_identity_i(f, h, 0.3, 0.1, nodes=128) < 1e-8


def test_ibp_identity_ii_cubic():
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 3)
    fs = [random_band_field(g, mm, seed=20 + j) for j in range(3)]
    assert check_ibp_identity_ii(*fs, 0.2, 0.1, nodes=64) < 1e-9


# ---------------------------------------------------------------------------
# cubic correction operators


def test_an_time_integral_vanishes_at_tau_zero():
    g = Grid(16)
    fs = [random_band_field(g, 2, seed=30 + j) for j in range(3)]
    for variant in ("A", "A_tilde"):
        out = an_time_integral(*fs, 0.3, 0.0, variant=variant)
        assert np.max(np.abs(out.spectrum)) == 0.0


def test_an_variant_validation():
    g = Grid(16)
    fs = [random_band_field(g, 2, seed=33 + j) for j in range(3)]
    with pytest.raises(ValueError, match="variant"):
        an_time_integral(*fs, 0.0, 0.1, variant="B")


def test_an_difference_is_boundary_term():
    # A_tilde - A integrates (i tau alpha / 2) e^{-i(t_n+t) alpha}, which
    # telescopes to (tau/2)(boundary(t_n) - boundary(t_n + tau))
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 3)
    fs = [random_band_field(g, mm, seed=40 + j) for j in range(3)]
    t_n, tau = 0.3, 0.05
    lhs = (
        an_time_integral(*fs, t_n, tau, variant="A_tilde").spectrum
        - an_time_integral(*fs, t_n, tau, variant="A").spectrum
    )

    def boundary(t_abs):
        prod = np.prod([exp_airy(f, t_abs).values for f in fs], axis=0)
        return exp_airy(inv_dx(Field.from_values(g, prod)), -t_abs).spectrum

    rhs = 0.5 * tau * (boundary(t_n) - boundary(t_n + tau))
    assert sobolev_norm(Field.from_spectrum(g, lhs - rhs), 0.0) < 1e-12


def test_triple_sum_oracles_refuse_large_grids():
    g = Grid(2 * MAX_ORACLE_N)
    fs = [random_band_field(g, 4, seed=50 + j) for j in range(3)]
    with pytest.raises(CostGuardError):
        an_time_integral(*fs, 0.0, 0.1)
    with pytest.raises(CostGuardError):
        embedded_form_step(fs[0], 0.0, 0.1)


# ---------------------------------------------------------------------------
# embedded integral form vs the production one-step maps


def test_embedded_form_matches_schemes_at_t_zero():
    for n in (8, 16):
        g = Grid(n)
        mm = alias_free_max_mode(n, 3)
        for seed in range(3):
            v = random_band_field(g, mm, seed=60 + seed)
            for tau in (0.01, 0.05):
                for variant, step in (("elri1", elri1_step), ("elri2", elri2_step)):
                    direct = step(v, tau)
                    oracle = embedded_form_step(v, 0.0, tau, variant=variant)
                    assert l2_diff(direct, oracle) < 1e-10


def test_embedded_form_general_start_time_conjugation():
    # for band-limited data the one-step map is autonomous: starting the
    # embedded form at t_n and untwisting must reproduce the plain step.
    # this exercises every t_n-dependent phase in the oracle at once
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 3)
    u = random_band_field(g, mm, seed=70)
    tau = 0.05
    for t_n in (0.0, 0.3, 1.7, -0.9):
        for variant, step in (("elri1", elri1_step), ("elri2", elri2_step)):
            oracle = embedded_form_step(
                exp_airy(u, -t_n), t_n, tau, variant=variant
            )
            assert l2_diff(step(u, tau), oracle) < 1e-12


def test_embedded_form_validation():
    g = Grid(16)
    v = random_band_field(g, 2, seed=80)
    with pytest.raises(ValueError, match="variant"):
        embedded_form_step(v, 0.0, 0.1, variant="lri1")
    bad = Field.from_values(g, 1.0 + np.cos(g.x))
    with pytest.raises(ValueError, match="zero-mean"):
        embedded_form_step(bad, 0.0, 0.1)


# ---------------------------------------------------------------------------
# independent reference route


def test_ifrk4_self_convergence_is_fourth_order():
    # the twisted right-hand side oscillates at frequency |k|^3, so the
    # asymptotic regime needs small steps: at N = 32 the halving ratio
    # settles near 16 from tau = 2^-7 on (measured 16.3)
    g = Grid(32)
    u0 = Field.from_values(g, np.cos(g.x))
    ref = ifrk4_solve(u0, 0.25, 2.0**-12)
    errs = [l2_diff(ifrk4_solve(u0, 0.25, tau), ref) for tau in (2.0**-7, 2.0**-8)]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 24.0


def test_ifrk4_step_count_validation():
    g = Grid(32)
    u0 = Field.from_values(g, np.cos(g.x))
    with pytest.raises(ValueError, match="step count"):
        ifrk4_solve(u0, 1.0, 0.3)


def test_reference_solution_cross_check_passes_on_smooth_data():
    g = Grid(64)
    u0 = Field.from_values(g, np.cos(g.x))
    plain = reference_solution(u0, 0.25, 5e-4)
    crossed = reference_solution(u0, 0.25, 5e-4, cross_check=True, cross_tau=5e-3)
    assert np.array_equal(plain.values, crossed.values)


def test_reference_solution_detects_bad_cross_solver():
    # a 2-step RK4 run cannot match the fine reference; the mismatch must be
    # reported instead of silently returned
    g = Grid(64)
    u0 = Field.from_values(g, np.cos(g.x))
    with pytest.raises(ReferenceMismatchError, match="disagree"):
        reference_solution(u0, 0.25, 5e-4, cross_check=True, cross_tau=0.125)


def test_reference_solution_is_built_once_per_key(monkeypatch):
    oracles._reference.cache_clear()
    calls = []

    def counted(run):
        calls.append(run.tau)
        return evolve(run)

    monkeypatch.setattr(oracles, "evolve", counted)
    g = Grid(64)
    u0 = Field.from_values(g, np.cos(g.x))
    base = dict(t_final=0.25, tau_ref=5e-4, cross_check=False, cross_tau=None,
                dealias=False)
    first = reference_solution(u0, **base)
    assert reference_solution(u0, **base) is first
    assert len(calls) == 1
    # a change to any key field misses, and the reference is built again
    other = Field.from_values(g, np.cos(g.x) + 1e-3 * np.sin(3 * g.x))
    misses = [
        (other, {}),
        (u0, {"t_final": 0.125}),
        (u0, {"tau_ref": 2.5e-4}),
        (u0, {"cross_check": True, "cross_tau": 5e-3}),
        (u0, {"cross_check": True, "cross_tau": 2.5e-3}),
        (u0, {"dealias": True}),
    ]
    for data, change in misses:
        before = len(calls)
        reference_solution(data, **{**base, **change})
        assert len(calls) > before, change
    # the cache is bounded: the oldest entries are gone, the newest are not
    assert oracles._reference.cache_info().currsize == oracles.REFERENCE_CACHE_SIZE
    before = len(calls)
    reference_solution(u0, **{**base, "dealias": True})
    assert len(calls) == before
    reference_solution(u0, **base)
    assert len(calls) == before + 1


# ---------------------------------------------------------------------------
# the bundled verification suite


def test_check_result_shape():
    r = CheckResult("demo", residual=np.float64(1e-14), tolerance=1e-12)
    assert r.passed is True
    d = r.as_dict()
    assert set(d) == {"check_name", "residual", "tolerance", "pass"}
    assert isinstance(d["pass"], bool)
    assert CheckResult("demo", 1.0, 0.5).passed is False


def test_verification_suite_all_pass():
    results = verification_suite()
    names = [r.check_name for r in results]
    assert len(names) == len(set(names))
    failing = [r.check_name for r in results if not r.passed]
    assert failing == []
