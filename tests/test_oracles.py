"""Independent oracles: resonance algebra, Duhamel integrals, the embedded
integral form summed per frequency triple, the reference and its RK4 check."""

import os
import pathlib
import platform
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from kdvlri import oracles
from kdvlri.integrators import BlowUpError, SchemeKind, evolve, step
from kdvlri.oracles import (
    MAX_ORACLE_N,
    CheckResult,
    CostGuardError,
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
    verification_suite,
)
from kdvlri.spectral import Field, Grid, dx, exp_airy, integral, inv_dx, sobolev_norm


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


def test_integer_identity_checks_fail_on_a_wrong_alpha4(monkeypatch):
    # verify's exact checks must report an off-by-one alpha4, not pass anyway
    exact = oracles.alpha4
    monkeypatch.setattr(oracles, "alpha4", lambda x1, x2, x3: exact(x1, x2, x3) + 1)
    for check in (oracles._check_symmetrization, oracles._check_alpha_identities):
        result = check()
        assert result.residual > 0 and not result.passed, result


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


def test_stored_legendre_rules_are_leggauss_bits():
    # 64 and 128 nodes come from the package's data file, any other count
    # from leggauss; both give leggauss's bits, read-only
    oracles._legendre_rule.cache_clear()
    for nodes in (3, 4, 7, 64, 128):
        rule = oracles._legendre_rule(nodes)
        for got, want in zip(rule, np.polynomial.legendre.leggauss(nodes), strict=True):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), nodes
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = got[0]


def test_node_counts_above_the_cap_are_refused_before_leggauss(monkeypatch):
    # leggauss(n) forms a dense n x n matrix, 7.2 GB at n = 30,000
    built = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", built.append)
    oracles._legendre_rule.cache_clear()
    g = Grid(16)
    v = random_band_field(g, 2, seed=81)
    tf = TimeField.constant(v)
    for k in (oracles.MAX_QUADRATURE_NODES + 1, 30_000):
        for call in (
            lambda: gauss_legendre_nodes(0.0, 1.0, k),
            lambda: fn_quadrature(v, 0.0, 0.1, nodes=k),
            lambda: check_ibp_identity_i(tf, tf, 0.0, 0.1, nodes=k),
            lambda: check_ibp_identity_ii(v, v, v, 0.0, 0.1, nodes=k),
        ):
            with pytest.raises(ValueError, match=r"^nodes must be an integer in \[1, 1024\]"):
                call()
    assert built == []
    info = oracles._legendre_rule.cache_info()
    assert (info.hits, info.misses) == (0, 0)


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
                for kind in (SchemeKind.ELRI1, SchemeKind.ELRI2):
                    direct = step(kind, v, tau)
                    oracle = embedded_form_step(v, 0.0, tau, variant=kind.value)
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
        for kind in (SchemeKind.ELRI1, SchemeKind.ELRI2):
            oracle = embedded_form_step(
                exp_airy(u, -t_n), t_n, tau, variant=kind.value
            )
            assert l2_diff(step(kind, u, tau), oracle) < 1e-12


def test_embedded_form_validation():
    g = Grid(16)
    v = random_band_field(g, 2, seed=80)
    with pytest.raises(ValueError, match="variant"):
        embedded_form_step(v, 0.0, 0.1, variant="lri1")
    bad = Field.from_values(g, 1.0 + np.cos(g.x))
    with pytest.raises(ValueError, match="zero-mean"):
        embedded_form_step(bad, 0.0, 0.1)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_shared_embedded_pass_equals_one_variant_steps(n):
    # one shared pass gives each variant's field byte for byte as its
    # one-variant embedded_form_step call
    g = Grid(n)
    v = random_band_field(g, alias_free_max_mode(n, 3), seed=90)
    variants = ("elri1", "elri2")
    for t_n in (0.0, 0.3):
        for tau in (0.01, 0.05):
            closed = fn_closed_form(v, t_n, tau).spectrum
            both = oracles._embedded_steps(v, closed, t_n, tau, variants)
            for variant, shared in zip(variants, both, strict=True):
                single = embedded_form_step(v, t_n, tau, variant=variant)
                assert shared.spectrum.tobytes() == single.spectrum.tobytes()


def test_embedded_check_stacks_equal_single_seed_calls():
    # at N = 32 the check's stacked seeds and the rows of its stacked
    # closed form are the single-seed calls byte for byte
    g = Grid(32)
    mm = alias_free_max_mode(g.n, 3)
    seeds = 80_000 + np.arange(10)
    stack = random_band_field(g, mm, seed=seeds)
    for tau in (0.01, 0.05):
        closed = fn_closed_form(stack, 0.0, tau).spectrum
        for seed, spec, row in zip(seeds, stack.spectrum, closed, strict=True):
            v = random_band_field(g, mm, seed=int(seed))
            assert spec.tobytes() == v.spectrum.tobytes()
            assert row.tobytes() == fn_closed_form(v, 0.0, tau).spectrum.tobytes()


def test_oracles_refuse_non_finite_times_and_bad_node_counts():
    g = Grid(16)
    v = random_band_field(g, 2, seed=81)
    tf = TimeField.constant(v)
    nan, inf = float("nan"), float("inf")
    refusals = [
        ("t_n", lambda: embedded_form_step(v, nan, 0.1)),
        ("tau", lambda: embedded_form_step(v, 0.0, nan)),
        ("t_n", lambda: an_time_integral(v, v, v, inf, 0.1)),
        ("tau", lambda: an_time_integral(v, v, v, 0.0, -inf)),
        ("t_n", lambda: fn_closed_form(v, nan, 0.1)),
        ("s", lambda: fn_closed_form(v, 0.0, inf)),
        ("t_n", lambda: fn_quadrature(v, nan, 0.1)),
        ("s", lambda: fn_quadrature(v, 0.0, nan)),
        ("t_n", lambda: check_ibp_identity_i(tf, tf, nan, 0.1)),
        ("tau", lambda: check_ibp_identity_i(tf, tf, 0.0, inf)),
        ("t_n", lambda: check_ibp_identity_ii(v, v, v, inf, 0.1)),
        ("tau", lambda: check_ibp_identity_ii(v, v, v, 0.0, nan)),
    ]
    for bad in (0, -3, 2.5, True):
        refusals += [
            ("nodes", lambda k=bad: gauss_legendre_nodes(0.0, 1.0, k)),
            ("nodes", lambda k=bad: fn_quadrature(v, 0.0, 0.1, nodes=k)),
            ("nodes", lambda k=bad: fn_quadrature(v, 0.0, 0.0, nodes=k)),
            ("nodes", lambda k=bad: check_ibp_identity_i(tf, tf, 0.0, 0.1, nodes=k)),
            ("nodes", lambda k=bad: check_ibp_identity_ii(v, v, v, 0.0, 0.1, nodes=k)),
        ]
    refusals += [
        ("variant", lambda: an_time_integral(v, v, v, 0.0, 0.1, variant="B")),
        ("variant", lambda: embedded_form_step(v, 0.0, 0.1, variant="elri3")),
    ]
    caches = (oracles._cascade_kernel, oracles._an_kernels, oracles._legendre_rule)
    for cache in caches:
        cache.cache_clear()
    for name, call in refusals:
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            call()
    # refused before any cache lookup: a NaN key would never hit
    for cache in caches:
        info = cache.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize(
    "boundary, call",
    [
        ("reference_solution", lambda u: reference_solution(u, 0.25, 2.0**-6)),
        ("embedded_form_step", lambda u: embedded_form_step(u, 0.0, 0.1)),
        ("an_time_integral", lambda u: an_time_integral(u, u, u, 0.0, 0.1)),
        ("ifrk4_solve", lambda u: ifrk4_solve(u, 0.25, 2.0**-6)),
    ],
)
def test_single_field_oracles_refuse_a_stack(boundary, call):
    stack = random_band_field(Grid(16), 3, seed=np.arange(2))
    with pytest.raises(ValueError, match=rf"{boundary} needs one field of shape \(16,\)"):
        call(stack)


def _rows(stack):
    return [Field.from_spectrum(stack.grid, row) for row in stack.spectrum]


@pytest.mark.parametrize("n", [8, 16])
def test_stacked_oracles_rows_equal_singles(n):
    # one call on a stack of B = 3 fields equals three single-field calls, bit
    # for bit; a single field still gives a float
    g = Grid(n)
    seeds = np.arange(3)
    mm2, mm3 = alias_free_max_mode(n, 2), alias_free_max_mode(n, 3)
    w = random_band_field(g, mm2, seed=200 + seeds)
    f, h = (random_band_field(g, mm2, seed=base + seeds) for base in (210, 220))
    trio = [random_band_field(g, mm3, seed=230 + 3 * seeds + j) for j in range(3)]
    for t_n in (0.0, 0.3):
        for oracle in (fn_closed_form, fn_quadrature):
            stacked = oracle(w, t_n, 0.05).spectrum
            assert stacked.shape == w.spectrum.shape
            for row, single in zip(stacked, _rows(w)):
                assert row.tobytes() == oracle(single, t_n, 0.05).spectrum.tobytes()
        for family, omegas in ((TimeField.constant, ()), (TimeField.modulated, (3.0,))):
            stacked = check_ibp_identity_i(family(f, *omegas), family(h, *omegas), t_n, 0.1)
            singles = [
                check_ibp_identity_i(family(a, *omegas), family(b, *omegas), t_n, 0.1)
                for a, b in zip(_rows(f), _rows(h))
            ]
            assert all(isinstance(r, float) for r in singles)
            assert stacked.tolist() == singles
        stacked = check_ibp_identity_ii(*trio, t_n, 0.1)
        singles = [check_ibp_identity_ii(*fs, t_n, 0.1) for fs in zip(*map(_rows, trio))]
        assert all(isinstance(r, float) for r in singles)
        assert stacked.tolist() == singles
    # the zero-mean gate checks every row and names the first offending one
    spec = w.spectrum.copy()
    spec[1, 0] = 0.5
    shifted = Field.from_spectrum(g, spec)
    for name, call in (
        ("fn_closed_form", lambda: fn_closed_form(shifted, 0.0, 0.1)),
        ("fn_quadrature", lambda: fn_quadrature(shifted, 0.0, 0.1)),
        ("check_ibp_identity_ii", lambda: check_ibp_identity_ii(w, shifted, w, 0.0, 0.1)),
    ):
        with pytest.raises(ValueError, match=rf"^{name} \(row 1\) requires zero-mean"):
            call()


def test_triple_kernel_caches_are_safe():
    g = Grid(16)
    mm = alias_free_max_mode(g.n, 3)
    u, v = random_band_field(g, mm, seed=82), random_band_field(g, mm, seed=83)
    oracles._cascade_kernel.cache_clear()
    oracles._an_kernels.cache_clear()
    # two fields on one (N, t_n, tau) key each get their own answer
    for variant in ("elri1", "elri2"):
        first = embedded_form_step(u, 0.3, 0.05, variant=variant)
        second = embedded_form_step(v, 0.3, 0.05, variant=variant)
        assert oracles._cascade_kernel.cache_info().hits >= 1
        assert l2_diff(first, _t_embedded_form_step(u, 0.3, 0.05, variant)) < 1e-15
        assert l2_diff(second, _t_embedded_form_step(v, 0.3, 0.05, variant)) < 1e-15
        assert l2_diff(first, second) > 1e-3
    # cached arrays cannot be written through
    kernels = (
        oracles._cascade_kernel(g.n, 0.3, 0.05),
        oracles._an_kernels(g.n, 0.3, 0.05),
    )
    for arr in (a for kernel in kernels for a in kernel):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    # a sweep over many start times stays within the documented size
    for t_n in np.linspace(0.0, 1.9, 20):
        embedded_form_step(u, t_n, 0.05, variant="elri2")
    sizes = {
        oracles._cascade_kernel: oracles.ORACLE_CACHE_SIZE,
        oracles._an_kernels: oracles.ORACLE_CACHE_SIZE // 2,
        oracles._legendre_rule: oracles.ORACLE_CACHE_SIZE,
    }
    for cache, size in sizes.items():
        assert cache.cache_info().currsize <= size
        assert cache.cache_info().maxsize == size
    # a full pair cache holds no more bytes than ORACLE_CACHE_SIZE single
    # (mask, coefficients, target modes) kernels would
    pair = oracles._an_kernels(MAX_ORACLE_N, 0.3, 0.05)
    single = oracles._an_kernel(MAX_ORACLE_N, 0.3, 0.05, "A")
    pair_bytes = sum(a.nbytes for a in pair)
    single_bytes = sum(a.nbytes for a in single)
    pairs_kept = sizes[oracles._an_kernels]
    assert pairs_kept * pair_bytes <= oracles.ORACLE_CACHE_SIZE * single_bytes


def test_verify_builds_each_correction_kernel_pair_once():
    # one pass builds A and A_tilde for an (N, t_n, tau): 2 keys in the
    # A_tilde - A check and 6 in the embedded check, where one build per
    # variant made 16
    for cache in (oracles._cascade_kernel, oracles._an_kernels, oracles._legendre_rule):
        cache.cache_clear()
    verification_suite()
    assert oracles._an_kernels.cache_info().misses == 8


@pytest.mark.parametrize("n", [8, 32])
def test_correction_kernels_do_not_depend_on_the_variant_asked_first(n):
    g = Grid(n)
    mm = alias_free_max_mode(n, 3)
    v = random_band_field(g, mm, seed=84)
    fs = [random_band_field(g, mm, seed=85 + j) for j in range(3)]
    answers = []
    for order in ((0, 1), (1, 0)):
        oracles._an_kernels.cache_clear()
        oracles._cascade_kernel.cache_clear()
        got = {}
        for i in order:
            kernel, variant = ("A", "A_tilde")[i], ("elri1", "elri2")[i]
            got[kernel] = an_time_integral(*fs, 0.3, 0.05, variant=kernel)
            got[variant] = embedded_form_step(v, 0.3, 0.05, variant=variant)
        answers.append({k: f.spectrum.tobytes() for k, f in got.items()})
    assert answers[0] == answers[1]
    assert answers[0]["A"] != answers[0]["A_tilde"]
    assert answers[0]["elri1"] != answers[0]["elri2"]


# a fresh interpreter: the minor page faults of one verification_suite()
_SUITE_FAULT_PROBE = """
import resource
from kdvlri.oracles import verification_suite
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verification_suite()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


_SUITE_WITHOUT_LAPACK = """
import sys
import numpy as np
def refuse(*args, **kwargs):
    raise AssertionError("verify called LAPACK")
np.linalg.eigvalsh = refuse
from kdvlri.oracles import verification_suite
assert all(r.passed for r in verification_suite())
print("numpy.polynomial" in sys.modules)
"""


def test_fresh_suite_makes_no_lapack_call_and_skips_numpy_polynomial():
    # its two Gauss-Legendre rules are read from the stored leggauss bits
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SUITE_WITHOUT_LAPACK],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="pins glibc malloc behaviour"
)
def test_verification_suite_reuses_heap_pages():
    # with glibc's default thresholds the IBP-i checks' 0.3-0.7 MB node
    # stacks were mapped fresh on every call: about 4,100 faults per suite,
    # against about 1,100 once the suite raises the thresholds
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SUITE_FAULT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 2500


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


def test_oracle_zero_mean_refusal_has_no_solver_hint():
    # the oracles keep the strict zero-mean gate: a real mean is refused by
    # name, with no hint at a mean shift they do not make
    g = Grid(16)
    with pytest.raises(ValueError) as err:
        ifrk4_solve(Field.from_values(g, 1.0 + np.cos(g.x)), 1.0, 0.1)
    msg = str(err.value)
    assert "ifrk4_solve requires zero-mean data" in msg
    assert "mean value 1.000000e+00" in msg
    assert "mean_shift" not in msg


def test_ifrk4_blow_up_is_a_blow_up_error_without_warnings():
    # smooth data at a 1/16 step to t = 4 overflows at step 57 of 64: the
    # divergence signal every stepping loop raises, not a warning or ValueError
    g = Grid(64)
    u0 = Field.from_values(g, np.cos(g.x) + 0.5 * np.sin(2.0 * g.x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match="ifrk4_solve blew up at step 57 of 64") as info:
            ifrk4_solve(u0, 4.0, 1.0 / 16.0)
    assert info.value.step == 57


def test_ifrk4_refuses_bad_step_and_horizon():
    # each is refused by name before the first step; tau = 1e-300 would
    # otherwise step (almost) forever
    g = Grid(16)
    u0 = Field.from_values(g, np.cos(g.x))
    for t_final, tau, message in (
        (1.0, 0.0, "tau must be positive and finite, got 0.0"),
        (1.0, float("nan"), "tau must be positive and finite, got nan"),
        (float("inf"), 0.1, "t_final must be positive and finite, got inf"),
        (-1.0, -0.1, "t_final must be positive and finite, got -1.0"),
        (1.0, 1e-300, "tau = 1e-300 takes 1e[+]300 steps .*MAX_STEPS"),
    ):
        with pytest.raises(ValueError, match=message):
            ifrk4_solve(u0, t_final, tau)


def test_reference_cross_check_reports_a_mismatch(monkeypatch):
    # a 2-step RK4 run cannot match the fine reference; the mismatch must be
    # reported as a failing check instead of silently passed
    rk4 = oracles.ifrk4_solve
    monkeypatch.setattr(
        oracles, "ifrk4_solve", lambda u0, t_final, tau: rk4(u0, t_final, 0.125)
    )
    result = oracles._check_reference_cross()
    assert result.check_name == "reference_cross_check_smooth"
    assert not result.passed and result.residual > result.tolerance


def test_reference_solution_is_built_once_per_key(monkeypatch):
    oracles._reference.cache_clear()
    calls = []

    def counted(run):
        calls.append(run.tau)
        return evolve(run)

    monkeypatch.setattr(oracles, "evolve", counted)
    g = Grid(64)
    u0 = Field.from_values(g, np.cos(g.x))
    base = dict(t_final=0.25, tau_ref=5e-4)
    first = reference_solution(u0, **base)
    assert reference_solution(u0, **base) is first
    assert len(calls) == 1
    # a change to any key field misses, and the reference is built again
    other = Field.from_values(g, np.cos(g.x) + 1e-3 * np.sin(3 * g.x))
    misses = [
        (other, {}),
        (u0, {"t_final": 0.125}),
        (u0, {"tau_ref": 2.5e-4}),
        (u0, {"t_final": 0.125, "tau_ref": 2.5e-4}),
        (u0, {"tau_ref": 1.25e-4}),
    ]
    for data, change in misses:
        before = len(calls)
        reference_solution(data, **{**base, **change})
        assert len(calls) > before, change
    # the cache is bounded: the oldest entries are gone, the newest are not
    assert oracles._reference.cache_info().currsize == oracles.REFERENCE_CACHE_SIZE
    before = len(calls)
    reference_solution(u0, **{**base, "tau_ref": 1.25e-4})
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


def test_verify_check_times_add_up_to_the_check(monkeypatch):
    # the embedded check's two results share its time: their wall times sum
    # to the check's own, not to twice it nor to its timed parts alone
    spans = []
    check = oracles._check_embedded_equivalence

    def timed():
        start = time.perf_counter()
        out = check()
        spans.append(time.perf_counter() - start)
        return out

    monkeypatch.setattr(oracles, "_check_embedded_equivalence", timed)
    times = {r.check_name: r.wall_s for r in verification_suite()}
    pair = [times[f"embedded_form_matches_{v}"] for v in ("elri1", "elri2")]
    assert all(t > 0.0 for t in pair)
    # the suite's clock brackets the wrapper's, by microseconds
    assert spans[0] <= sum(pair) <= spans[0] + 0.02


# ---------------------------------------------------------------------------
# transcription: the per-node, uncached oracles as they were first written.
# The stacked and cached oracles must reproduce them: Fields to 1e-14
# relative, scalar residuals and every verify residual bit for bit.


def _t_product(g, *fields):
    vals = fields[0].values.copy()
    for f in fields[1:]:
        vals = vals * f.values
    return Field.from_values(g, vals)


def _t_fn_quadrature(w, t_n, s, nodes=64):
    g = w.grid
    acc = np.zeros(g.n // 2 + 1, dtype=np.complex128)
    if s != 0.0:
        pts, wts = gauss_legendre_nodes(0.0, s, nodes)
        for r, wt in zip(pts, wts):
            a = exp_airy(w, t_n + r)
            sq = _t_product(g, a, a)
            acc += wt * exp_airy(dx(sq, 1), -(t_n + r)).spectrum
    return Field.from_spectrum(g, acc)


def _t_check_ibp_identity_i(f, g, t_n, tau, nodes=64):
    grid = f.at(0.0).grid
    pts, wts = gauss_legendre_nodes(0.0, tau, nodes)
    lhs = np.zeros(grid.n // 2 + 1, dtype=np.complex128)
    for t, wt in zip(pts, wts):
        s_abs = t_n + t
        a = exp_airy(f.at(t), s_abs)
        b = exp_airy(g.at(t), s_abs)
        lhs += wt * exp_airy(dx(_t_product(grid, a, b), 1), -s_abs).spectrum

    def boundary(t_rel):
        s_abs = t_n + t_rel
        a = exp_airy(inv_dx(f.at(t_rel)), s_abs)
        b = exp_airy(inv_dx(g.at(t_rel)), s_abs)
        return exp_airy(_t_product(grid, a, b), -s_abs).spectrum

    rhs = (boundary(tau) - boundary(0.0)) / 3.0
    for t, wt in zip(pts, wts):
        s_abs = t_n + t
        fa = exp_airy(inv_dx(f.at(t)), s_abs)
        fd = exp_airy(inv_dx(f.dt(t)), s_abs)
        ga = exp_airy(inv_dx(g.at(t)), s_abs)
        gd = exp_airy(inv_dx(g.dt(t)), s_abs)
        mixed = Field.from_values(grid, fd.values * ga.values + fa.values * gd.values)
        rhs -= (wt / 3.0) * exp_airy(mixed, -s_abs).spectrum
    return sobolev_norm(Field.from_spectrum(grid, lhs - rhs), 0.0)


def _t_check_ibp_identity_ii(f1, f2, f3, t_n, tau, nodes=64):
    grid = f1.grid
    pts, wts = gauss_legendre_nodes(0.0, tau, nodes)
    lhs = 0.0
    for t, wt in zip(pts, wts):
        s_abs = t_n + t
        prod = _t_product(
            grid, exp_airy(f1, s_abs), exp_airy(f2, s_abs), exp_airy(f3, s_abs)
        )
        lhs += wt * integral(exp_airy(prod, -s_abs))

    def boundary(t_abs):
        return integral(
            _t_product(
                grid,
                exp_airy(inv_dx(f1), t_abs),
                exp_airy(inv_dx(f2), t_abs),
                exp_airy(inv_dx(f3), t_abs),
            )
        )

    rhs = (boundary(t_n) - boundary(t_n + tau)) / 3.0
    return abs(lhs - rhs)


def _t_band_mask(xi, n):
    return (xi >= -(n // 2)) & (xi <= n // 2 - 1)


def _t_phase_J(phi_int, t_n, tau):
    phi = phi_int.astype(np.float64)
    base = np.exp(-1j * t_n * phi)
    safe = np.where(phi_int == 0, 1.0, phi)
    osc = (1.0 - np.exp(-1j * tau * phi)) / (1j * safe)
    return np.where(phi_int == 0, tau * base, base * osc)


def _t_an_kernel_integral(alpha_int, t_n, tau, variant):
    alpha = alpha_int.astype(np.float64)
    base = np.exp(-1j * t_n * alpha)
    safe = np.where(alpha_int == 0, 1.0, alpha)
    osc = (1.0 - np.exp(-1j * tau * alpha)) / (1j * safe)
    if variant == "A":
        out = base * (osc - tau)
    else:
        out = base * ((1.0 + 0.5j * tau * alpha) * osc - tau)
    return np.where(alpha_int == 0, 0.0 + 0.0j, out)


def _t_full_band(f):
    # the spectrum over all N wavenumbers in FFT order, which the triple sums
    # run over: each negative mode is the conjugate of its partner
    k = np.fft.fftfreq(f.grid.n, 1.0 / f.grid.n).astype(np.int64)
    return k, np.concatenate([f.spectrum, np.conj(f.spectrum[-2:0:-1])])


def _t_an_time_integral(f1, f2, f3, t_n, tau, variant="A"):
    grid = f1.grid
    n = grid.n
    (k, s1), (_, s2), (_, s3) = (_t_full_band(f) for f in (f1, f2, f3))
    k1, k2, k3 = k[:, None, None], k[None, :, None], k[None, None, :]
    xi = k1 + k2 + k3
    alpha = xi**3 - k1**3 - k2**3 - k3**3
    kernel = _t_an_kernel_integral(alpha, t_n, tau, variant)
    w = s1[:, None, None] * s2[None, :, None] * s3[None, None, :]
    mask = _t_band_mask(xi, n) & (xi != 0)
    inv_ixi = np.zeros(xi.shape, dtype=np.complex128)
    inv_ixi[mask] = 1.0 / (1j * xi[mask].astype(np.float64))
    contrib = inv_ixi * kernel * w
    out = np.zeros(n, dtype=np.complex128)
    np.add.at(out, (xi % n)[mask], contrib[mask])
    return Field.from_spectrum(grid, out[: n // 2 + 1])


def _t_embedded_form_step(v, t_n, tau, variant="elri1"):
    grid = v.grid
    n = grid.n
    k, s = _t_full_band(v)
    k1, k2, k3 = k[:, None, None], k[None, :, None], k[None, None, :]
    eta = k2 + k3
    xi = k1 + eta
    beta = eta**3 - k2**3 - k3**3
    mu = xi**3 - k1**3 - eta**3
    j_alpha = _t_phase_J(mu + beta, t_n, tau)
    j_mu = _t_phase_J(mu, t_n, tau)
    bracket = j_alpha - np.exp(-1j * t_n * beta.astype(np.float64)) * j_mu
    w = s[:, None, None] * s[None, :, None] * s[None, None, :]
    mask = (k2 != 0) & (k3 != 0) & _t_band_mask(xi, n)
    factor = np.zeros(xi.shape, dtype=np.complex128)
    k2f, k3f, xif = k2.astype(np.float64), k3.astype(np.float64), xi.astype(np.float64)
    denom = np.broadcast_to((1j * k2f) * (1j * k3f) * 3.0, xi.shape)
    factor[mask] = (0.5j * xif[mask]) / denom[mask]
    contrib = factor * bracket * w
    cascade = np.zeros(n, dtype=np.complex128)
    np.add.at(cascade, (xi % n)[mask], contrib[mask])
    corr = _t_an_time_integral(
        v, v, v, t_n, tau, variant="A" if variant == "elri1" else "A_tilde"
    )
    v_next = v.spectrum + 0.5 * fn_closed_form(v, t_n, tau).spectrum
    v_next = v_next + cascade[: n // 2 + 1] + corr.spectrum / 18.0
    return exp_airy(Field.from_spectrum(grid, v_next), t_n + tau)


def _rel_maxabs(new, old):
    scale = np.max(np.abs(old.spectrum))
    return np.max(np.abs(new.spectrum - old.spectrum)) / scale


@pytest.mark.parametrize("n", [8, 16, 32])
def test_oracles_reproduce_their_per_node_transcription(n):
    g = Grid(n)
    mm2, mm3 = alias_free_max_mode(n, 2), alias_free_max_mode(n, 3)
    for t_n in (0.0, 0.3):
        for seed in range(2):
            v = random_band_field(g, mm3, seed=100 + seed)
            for variant in ("elri1", "elri2"):
                for tau in (0.01, 0.05):
                    new = embedded_form_step(v, t_n, tau, variant=variant)
                    old = _t_embedded_form_step(v, t_n, tau, variant=variant)
                    assert _rel_maxabs(new, old) <= 1e-14, (t_n, variant, tau)
            fs = [random_band_field(g, mm3, seed=110 + 3 * seed + j) for j in range(3)]
            for kernel in ("A", "A_tilde"):
                new = an_time_integral(*fs, t_n, 0.05, variant=kernel)
                old = _t_an_time_integral(*fs, t_n, 0.05, variant=kernel)
                assert _rel_maxabs(new, old) <= 1e-14, (t_n, kernel)
            w = random_band_field(g, mm2, seed=120 + seed)
            for s in (0.01, 0.05):
                new = fn_quadrature(w, t_n, s, nodes=32)
                old = _t_fn_quadrature(w, t_n, s, nodes=32)
                assert _rel_maxabs(new, old) <= 1e-14, (t_n, s)
            f = random_band_field(g, mm2, seed=130 + seed)
            h = random_band_field(g, mm2, seed=140 + seed)
            pairs = (
                (TimeField.constant(f), TimeField.constant(h)),
                (TimeField.modulated(f, 3.0), TimeField.modulated(h, 7.0)),
            )
            for tf, th in pairs:
                assert check_ibp_identity_i(tf, th, t_n, 0.1, nodes=48) == (
                    _t_check_ibp_identity_i(tf, th, t_n, 0.1, nodes=48)
                )
            assert check_ibp_identity_ii(*fs, t_n, 0.1, nodes=48) == (
                _t_check_ibp_identity_ii(*fs, t_n, 0.1, nodes=48)
            )


def _t_cascade_kernel(n, t_n, tau):
    # the triple kernels as first built: every phase over the full (N, N, N)
    # band, masked last
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    k1, k2, k3 = k[:, None, None], k[None, :, None], k[None, None, :]
    eta = k2 + k3
    xi = k1 + eta
    beta = eta**3 - k2**3 - k3**3
    mu = xi**3 - k1**3 - eta**3
    j_alpha = _t_phase_J(mu + beta, t_n, tau)
    j_mu = _t_phase_J(mu, t_n, tau)
    bracket = j_alpha - np.exp(-1j * t_n * beta.astype(np.float64)) * j_mu
    mask = (k2 != 0) & (k3 != 0) & _t_band_mask(xi, n)
    factor = np.zeros(xi.shape, dtype=np.complex128)
    k2f, k3f, xif = k2.astype(np.float64), k3.astype(np.float64), xi.astype(np.float64)
    denom = np.broadcast_to((1j * k2f) * (1j * k3f) * 3.0, xi.shape)
    factor[mask] = (0.5j * xif[mask]) / denom[mask]
    return mask, (factor * bracket)[mask], (xi % n)[mask]


def _t_an_kernel(n, t_n, tau, variant):
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
    k1, k2, k3 = k[:, None, None], k[None, :, None], k[None, None, :]
    xi = k1 + k2 + k3
    alpha = xi**3 - k1**3 - k2**3 - k3**3
    kernel = _t_an_kernel_integral(alpha, t_n, tau, variant)
    mask = _t_band_mask(xi, n) & (xi != 0)
    inv_ixi = np.zeros(xi.shape, dtype=np.complex128)
    inv_ixi[mask] = 1.0 / (1j * xi[mask].astype(np.float64))
    return mask, (inv_ixi * kernel)[mask], (xi % n)[mask]


@pytest.mark.parametrize("n", [8, 16, 32])
def test_triple_kernels_match_the_full_array_construction(n):
    # built on the kept triples only, each kernel's mask, coefficients and
    # target modes are bitwise those of the full-array construction
    # (-0.0 == 0.0 takes the path that skips the unit phase)
    for t_n in (0.0, -0.0, 0.3):
        # -0.0 is an equal key: build afresh, not from the 0.0 entries
        oracles._cascade_kernel.cache_clear()
        oracles._an_kernels.cache_clear()
        for tau in (0.01, 0.05):
            pairs = [(oracles._cascade_kernel(n, t_n, tau), _t_cascade_kernel(n, t_n, tau))]
            for variant in ("A", "A_tilde"):
                pairs.append((
                    oracles._an_kernel(n, t_n, tau, variant),
                    _t_an_kernel(n, t_n, tau, variant),
                ))
            for new, old in pairs:
                for a, b in zip(new, old, strict=True):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape)
                    assert a.tobytes() == b.tobytes(), (n, t_n, tau)


def _t_row(x, i):
    # row i of a stacked Field or TimeField; anything else as it is
    if isinstance(x, Field):
        return Field.from_spectrum(x.grid, x.spectrum[i])
    if isinstance(x, TimeField):
        return TimeField(at=lambda t: _t_row(x.at(t), i), dt=lambda t: _t_row(x.dt(t), i))
    return x


def _t_row_by_row(old):
    # runs a per-field transcription once per row of stacked arguments
    def call(*args, **kwargs):
        first = args[0].at(0.0) if isinstance(args[0], TimeField) else args[0]
        if first.spectrum.ndim == 1:
            return old(*args, **kwargs)
        out = [
            old(*(_t_row(a, i) for a in args), **kwargs)
            for i in range(len(first.spectrum))
        ]
        if isinstance(out[0], Field):
            return Field.from_spectrum(first.grid, [f.spectrum for f in out])
        return np.array(out)

    return call


def _t_embedded_steps(v, closed, t_n, tau, variants):
    # the shared embedded-form pass as one transcribed step per variant, each
    # taking its own closed form
    return [_t_embedded_form_step(v, t_n, tau, variant) for variant in variants]


def test_verify_residuals_match_the_per_node_transcription(monkeypatch):
    fast = verification_suite()
    calls = {}

    def counted(name, old):
        calls[name] = 0

        def call(*args, **kwargs):
            calls[name] += 1
            return old(*args, **kwargs)

        return call

    for name, old in (
        ("fn_quadrature", _t_row_by_row(_t_fn_quadrature)),
        ("check_ibp_identity_i", _t_row_by_row(_t_check_ibp_identity_i)),
        ("check_ibp_identity_ii", _t_row_by_row(_t_check_ibp_identity_ii)),
        ("an_time_integral", _t_row_by_row(_t_an_time_integral)),
        ("_embedded_steps", _t_embedded_steps),
    ):
        monkeypatch.setattr(oracles, name, counted(name, old))
    slow = verification_suite()
    # every substituted transcription ran, so no check compared a fast path
    # with itself
    assert all(calls.values()), calls
    assert [r.check_name for r in fast] == [r.check_name for r in slow]
    for a, b in zip(fast, slow):
        assert a.residual == b.residual, (a.check_name, a.residual, b.residual)
        assert a.tolerance == b.tolerance
