"""One-step maps, the evolution loop, blow-up detection, mean shifting."""

import ast
import functools
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from kdvlri import integrators
from kdvlri.integrators import (
    MAX_STEPS,
    BlowUpError,
    SchemeConfigError,
    SchemeKind,
    SolverRun,
    Trajectory,
    evolve,
    step,
)
from kdvlri.oracles import fn_closed_form, ifrk4_solve
from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import (
    Field,
    Grid,
    exp_airy,
    inv_dx,
    mean_value,
    sobolev_norm,
    translate,
)
from kdvlri.studies import StudyConfig

ALL_STEPS = [functools.partial(step, kind) for kind in SchemeKind]


def l2_diff(a, b):
    return sobolev_norm(Field.from_spectrum(a.grid, a.spectrum - b.spectrum), 0.0)


def rough(n=64, theta=2.0, seed=4):
    return generate_rough(RoughSpec(n, theta, seed))


# ---------------------------------------------------------------------------
# one-step maps


def test_step_dispatch():
    u = rough(n=32)
    outs = {step(kind, u, 0.1).spectrum.tobytes() for kind in SchemeKind}
    assert len(outs) == len(SchemeKind)
    for bad in ("lri2", "elri1", None, [SchemeKind.ELRI1]):
        with pytest.raises(SchemeConfigError, match="unknown scheme"):
            step(bad, u, 0.1)


def test_zero_field_is_fixed_point():
    g = Grid(32)
    zero = Field.from_values(g, np.zeros(g.n))
    for step in ALL_STEPS:
        out = step(zero, 0.25)
        assert np.max(np.abs(out.values)) == 0.0


def test_tau_zero_is_exact_identity():
    # every scheme collapses to the identity at tau = 0, bitwise exact:
    # the cancelling term pairs are assembled as single differences
    u = rough(n=64, theta=2.0, seed=11)
    for step in ALL_STEPS:
        out = step(u, 0.0)
        assert np.max(np.abs(out.values - u.values)) == 0.0
        assert np.max(np.abs(out.spectrum - u.spectrum)) == 0.0


def test_lri1_cosine_closed_form():
    # LRI1(cos, tau) = cos(x+tau) + cos(2x+8tau)/12 - cos(2x+2tau)/12,
    # worked out by hand from the three-term update applied to one mode
    g = Grid(64)
    for tau in (0.05, 0.3, 1.0):
        out = step(SchemeKind.LRI1, Field.from_values(g, np.cos(g.x)), tau)
        expected = (
            np.cos(g.x + tau)
            + np.cos(2 * g.x + 8 * tau) / 12.0
            - np.cos(2 * g.x + 2 * tau) / 12.0
        )
        assert np.max(np.abs(out.values - expected)) < 1e-14


def test_elri2_is_elri1_plus_correction():
    u = rough(n=64, theta=2.0, seed=2)
    g = u.grid
    tau = 0.07
    a = step(SchemeKind.ELRI1, u, tau)
    b = step(SchemeKind.ELRI2, u, tau)
    eu = exp_airy(u, tau)
    u3 = Field.from_values(g, u.values**3)
    eu3 = Field.from_values(g, eu.values**3)
    corr = (tau / 36.0) * (
        exp_airy(inv_dx(u3), tau).spectrum - inv_dx(eu3).spectrum
    )
    assert np.max(np.abs(b.spectrum - a.spectrum - corr)) < 1e-15


def test_steps_preserve_mean_and_realness():
    # a spectrum of modes 0..N/2 is real by construction: only the mean is left
    u = rough(n=128, theta=2.0, seed=8)
    for step in ALL_STEPS:
        out = step(u, 0.1)
        assert abs(mean_value(out)) < 1e-13


def test_public_steps_shift_a_nonzero_mean_out():
    # a real mean c is no refusal: one step is the step of u - c, translated
    # by c tau, plus c
    g = Grid(32)
    u = Field.from_values(g, 0.5 + np.cos(g.x))
    for kind, step in zip(SchemeKind, ALL_STEPS):
        (want,) = shifted_recursion(kind, u, 0.1, 1, 0)
        assert step(u, 0.1).spectrum.tobytes() == want[1].spectrum.tobytes()
        assert abs(mean_value(step(u, 0.1)) - 0.5) < 1e-13


def test_zero_mean_refusal_names_what_tripped_it():
    # mode 0 = 0.3 + 1e-6j: the real mean is shifted out, the imaginary
    # residue left over is refused, and no shift removes it; the oracles'
    # strict gate names the real mean
    g = Grid(16)
    spec = np.zeros(g.n // 2 + 1, dtype=np.complex128)
    spec[1] = 0.25
    spec[0] = 0.3 + 1e-6j
    u = Field.from_spectrum(g, spec)
    for where, make in (("elri1_step", lambda: step(SchemeKind.ELRI1, u, 0.1)),
                        ("SolverRun", lambda: SolverRun(SchemeKind.ELRI1, 0.1, 0.2, u))):
        with pytest.raises(SchemeConfigError) as err:
            make()
        assert str(err.value) == (
            f"{where} requires zero-mean data: mode 0 is 0.000000e+00+1.000000e-06j, "
            "magnitude 1.000000e-06 exceeds 1e-12, from its imaginary residue "
            "1.000000e-06 (the data is not a real field)"
        )
    with pytest.raises(SchemeConfigError) as err:
        ifrk4_solve(u, 0.2, 0.1)
    msg = str(err.value)
    assert "mode 0 is 3.000000e-01+1.000000e-06j" in msg
    assert msg.endswith("from its mean value 3.000000e-01")


def test_imaginary_nyquist_mode_is_refused():
    # irfft drops the imaginary part of mode N/2: every value of this field is
    # 0, yet its L2 norm is sqrt(2 pi); each zero-mean gate refuses it
    g = Grid(8)
    u = Field.from_spectrum(g, [0, 0, 0, 0, 1j])
    shifted = Field.from_spectrum(g, [0.3, 0, 0, 0, 1j])  # a real mean does not hide it
    assert not np.any(u.values) and sobolev_norm(u, 0.0) > 2.5
    for where, make in (
        ("elri2_step", lambda: step(SchemeKind.ELRI2, u, 0.1)),
        ("SolverRun", lambda: SolverRun(SchemeKind.ELRI2, 0.1, 1.0, u)),
        ("SolverRun", lambda: SolverRun(SchemeKind.ELRI2, 0.1, 1.0, shifted)),
        ("lri1_step", lambda: step(SchemeKind.LRI1, shifted, 0.1)),
        ("fn_closed_form", lambda: fn_closed_form(u, 0.0, 0.1)),
    ):
        with pytest.raises(SchemeConfigError) as err:
            make()
        assert str(err.value) == (
            f"{where} requires a real field: mode N/2 has imaginary part "
            "1.000000e+00, above 1e-12 (the data is not a real field)"
        )
    # a stack names its offending row
    spec = np.zeros((3, 5), complex)
    spec[2, 4] = -1j
    with pytest.raises(SchemeConfigError, match=r"^fn_closed_form \(row 2\) requires a "
                       r"real field: mode N/2 has imaginary part -1.000000e\+00"):
        fn_closed_form(Field.from_spectrum(g, spec), 0.0, 0.1)


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name, make",
    [
        pytest.param("tau", lambda x: SolverRun(SchemeKind.ELRI1, x, 1.0, rough(n=16)),
                     id="SolverRun-tau"),
        pytest.param("t_final", lambda x: SolverRun(SchemeKind.ELRI1, 0.1, x, rough(n=16)),
                     id="SolverRun-t_final"),
        pytest.param("t_final", lambda x: StudyConfig((SchemeKind.ELRI1,), (0.1,), t_final=x),
                     id="StudyConfig-t_final"),
        pytest.param("ref_tau", lambda x: StudyConfig((SchemeKind.ELRI1,), (0.1,), ref_tau=x),
                     id="StudyConfig-ref_tau"),
        pytest.param("t_final", lambda x: ifrk4_solve(rough(n=16), x, 0.1),
                     id="ifrk4_solve-t_final"),
        pytest.param("tau", lambda x: ifrk4_solve(rough(n=16), 1.0, x),
                     id="ifrk4_solve-tau"),
    ],
)
def test_positive_checks_share_one_refusal(name, make, value):
    # SolverRun, StudyConfig and ifrk4_solve refuse through one check_positive,
    # with one message and one error type (a ValueError, so exit 2 at the CLI)
    with pytest.raises(SchemeConfigError) as err:
        make(value)
    assert str(err.value) == f"{name} must be positive and finite, got {value}"


def full_complex_update(kind, u, tau):
    """The update on full-length complex FFTs, transcribed term by term.

    This is the one-transform-per-term form the real-transform kernel
    replaced: it keeps every term separate and every mode of the full band,
    with its own multipliers, so it checks the kernel's shared transforms
    and its half spectrum.  Returns modes 0..N/2.
    """
    n = u.grid.n
    k = np.fft.fftfreq(n, 1.0 / n)
    k[n // 2] = 0.0  # Nyquist: no odd multiplier, no Airy phase
    inv_ik = np.zeros(n, dtype=complex)
    inv_ik[k != 0] = 1.0 / (1j * k[k != 0])
    airy = np.exp(1j * tau * k**3)
    s = np.fft.fft(u.values) / n
    p = s * inv_ik
    ep = p * airy
    p_v = np.fft.ifft(p * n).real
    ep_v = np.fft.ifft(ep * n).real
    p2_v = p_v * p_v
    ep2_v = ep_v * ep_v
    p2 = np.fft.fft(p2_v) / n
    ep2 = np.fft.fft(ep2_v) / n
    out = s * airy + (ep2 - p2 * airy) / 6.0
    if kind is SchemeKind.LRI1:
        return out[: n // 2 + 1]
    v = u.values
    u3 = np.fft.fft(v**3) / n
    q_plus = np.fft.fft(ep_v * np.fft.ifft(ep2 * inv_ik * n).real) / n
    q_minus = np.fft.fft(ep_v * np.fft.ifft(p2 * inv_ik * airy * n).real) / n
    q_plus[0] = q_minus[0] = 0.0
    out += (q_plus - q_minus) / 18.0
    out += (
        np.fft.fft(p_v * p2_v) / n * inv_ik * airy
        - np.fft.fft(ep_v * ep2_v) / n * inv_ik
    ) / 54.0
    out += (tau / (12.0 * np.pi) * (2.0 * np.pi * np.mean(v * v))) * ep
    out -= (tau / 18.0) * (u3 * airy * inv_ik)
    if kind is SchemeKind.ELRI1:
        return out[: n // 2 + 1]
    eu3 = np.fft.fft(np.fft.ifft(s * airy * n).real ** 3) / n
    out += (tau / 36.0) * (u3 * inv_ik * airy - eu3 * inv_ik)
    return out[: n // 2 + 1]


def test_steps_agree_with_full_complex_update():
    worst = 0.0
    for n in (64, 1024):
        for theta in (2.0, 3.0):
            u = rough(n=n, theta=theta, seed=17)
            for kind, step in zip(SchemeKind, ALL_STEPS):
                for tau in (2.0**-10, 2.0**-6, 0.1, 0.5):
                    ref = full_complex_update(kind, u, tau)
                    err = np.max(np.abs(step(u, tau).spectrum - ref))
                    worst = max(worst, err / np.max(np.abs(ref)))
    assert worst <= 1e-13


def allocating_update(kind, u, tau):
    """The update with a fresh array per term, as before workspaces.

    Same terms in the same operation order as the workspace kernel, so the
    two must agree bit for bit.
    """
    n = u.grid.n

    def irfft(h):
        return np.fft.irfft(h, n, norm="forward")

    def rfft(v):
        return np.fft.rfft(v, norm="forward")

    a, inv_ik = u.grid.airy(tau), u.grid.inv_ik
    s = u.spectrum
    out = s * a
    p = s * inv_ik
    ep = p * a
    p_v, ep_v = irfft(p), irfft(ep)
    p2_v, ep2_v = p_v * p_v, ep_v * ep_v
    d = rfft(ep2_v) - rfft(p2_v) * a
    corr = d / 6.0
    if kind is not SchemeKind.LRI1:
        v = irfft(s)
        v2 = v * v
        q = rfft(ep_v * irfft(d * inv_ik))
        q[0] = 0.0
        corr += q / 18.0
        cubic_p = p_v * p2_v / 54.0
        cubic_ep = ep_v * ep2_v / 54.0
        cubic_p -= (tau / 18.0 if kind is SchemeKind.ELRI1 else tau / 36.0) * (v2 * v)
        if kind is SchemeKind.ELRI2:
            w = irfft(out)
            cubic_ep += (tau / 36.0) * (w * w * w)
        corr += (rfft(cubic_p) * a - rfft(cubic_ep)) * inv_ik
        corr += (tau / (12.0 * np.pi) * (2.0 * np.pi * np.mean(v2))) * ep
    return out + corr


def test_workspace_steps_are_bitwise_the_allocating_update():
    for n in (16, 1024):
        for theta in (0.5, 3.0):
            u0 = rough(n=n, theta=theta, seed=23)
            for kind in SchemeKind:
                for tau in (0.0, 2.0**-10, 0.3):
                    u, want = u0, []
                    for _ in range(3):
                        u = Field.from_spectrum(u.grid, allocating_update(kind, u, tau))
                        want.append(u.spectrum.tobytes())
                    one = step(kind, u0, tau)
                    assert one.spectrum.tobytes() == want[0]
                    if tau:
                        run = SolverRun(kind, tau, 3 * tau, u0, record_every=1)
                        got = [f.spectrum.tobytes() for _, f in evolve(run).samples][1:]
                        assert got == want


def test_blow_up_check_is_entrywise(monkeypatch):
    # evolve first sums the spectrum's real view: a sum that overflows on
    # finite entries is no blow-up, the first non-finite entry is
    fills = iter([1e308, np.inf])

    def fill(ws):
        ws.s[:] = next(fills)

    monkeypatch.setattr(integrators, "_update", fill)
    with pytest.raises(BlowUpError) as err:
        evolve(SolverRun(SchemeKind.LRI1, 0.5, 1.0, rough(n=16)))
    assert err.value.step == 2


def members(n, count, theta=2.0):
    """count rough fields on one grid as one stack, and their step sizes."""
    us = [rough(n=n, theta=theta, seed=4 + j) for j in range(count)]
    spectra = np.array([u.spectrum for u in us])
    return us, spectra, [2.0**-6, 2.0**-7, 3 * 2.0**-8][:count]


# one run (the case ids of the single-run tests), and B = 3 members
KIND_COUNTS = [pytest.param(k, 1, id=str(k)) for k in SchemeKind] + [
    pytest.param(k, 3, id=f"{k}-B3") for k in SchemeKind
]


@pytest.mark.parametrize("kind, count", KIND_COUNTS)
def test_steady_state_step_binds_no_views(kind, count):
    # every row, stack and real view a step uses is bound when its workspace
    # is built, so at a small grid ten steady-state steps peak at 584-944
    # bytes (1,424-1,448 through np.fft's rfft/irfft wrappers), against
    # 2,224-2,848 when each step sliced its views; one view sliced per step
    # adds 96.  Three members peak at 632-1,000 bytes; a product that
    # broadcast a per-member column would add numpy's iterator, 2.8-4.4 KB
    us, spectra, taus = members(64, count)
    ws = integrators._Workspace(kind, us[0].grid, taus)
    ws.load(spectra)
    integrators._update(ws)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(10):
            integrators._update(ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 1500


@pytest.mark.parametrize("c", [6.0, 18.0])
def test_complex_division_is_the_real_view_reciprocal_product(c):
    # _update divides d by 6 and q by 18 as real-view products with 1/c;
    # numpy's complex division by a real c multiplies by the same 1.0 / c.
    # Exact zeros are left out: a -0.0 part may come back +0.0 from division
    rng = np.random.default_rng(int(c))
    z = rng.standard_normal(4097) + 1j * rng.standard_normal(4097)
    z *= 10.0 ** rng.integers(-300, 300, z.size)
    want = np.divide(z, c)
    got = np.multiply(z.view(float), np.float64(1.0 / c)).view(complex)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, count", KIND_COUNTS)
def test_steady_state_steps_allocate_nothing(monkeypatch, kind, count):
    # the traced peak over steps 2..9 of a run at the paper's grid, measured
    # from inside the step loop: the workspace exists by then, so the peak
    # counts only what a step itself allocates (a few KB of Python objects;
    # an N = 2^14 grid array alone is 128 KB)
    us, spectra, taus = members(2**14, count, theta=3.0)
    update = integrators._update
    marks = []

    def traced_update(*args):
        marks.append(tracemalloc.get_traced_memory())
        if len(marks) == 2:
            tracemalloc.reset_peak()
        return update(*args)

    monkeypatch.setattr(integrators, "_update", traced_update)
    tracemalloc.start()
    try:
        if count == 1:
            evolve(SolverRun(kind, 2.0**-10, 10 * 2.0**-10, us[0]))
        else:
            integrators._march(kind, us[0].grid, taus, [10] * count, spectra)
    finally:
        tracemalloc.stop()
    (base, _), (_, peak) = marks[1], marks[9]
    assert peak - base < 64 * 1024


def test_workspace_owns_one_spectrum_stepped_in_place(monkeypatch):
    # arrays the workspace holds that are no view (base is None) at the
    # paper's grid: the Airy symbol, the grid's inv_ik, the one spectrum, 4
    # more spectra, the correction sum, 4 + 3 rows of grid values and the
    # blow-up flags
    u = rough(n=2**14, theta=3.0)
    ws = integrators._Workspace(SchemeKind.ELRI2, u.grid, 2.0**-10)
    attrs = [x if isinstance(x, tuple) else (x,) for x in vars(ws).values()]
    arrays = [x for xs in attrs for x in xs if isinstance(x, np.ndarray)]
    owned = [x for x in arrays if x.base is None]
    assert sum(x.nbytes for x in owned) <= 1_974_401
    update = integrators._update
    seen = []

    def tracked_update(ws):
        seen.append((id(ws), ws.s.ctypes.data))
        update(ws)
        seen.append((id(ws), ws.s.ctypes.data))

    monkeypatch.setattr(integrators, "_update", tracked_update)
    traj = evolve(SolverRun(SchemeKind.ELRI2, 0.05, 0.25, rough(n=64), record_every=1))
    assert len(seen) == 2 * 5 and len(set(seen)) == 1
    assert traj.n_steps == 5


@pytest.mark.parametrize(
    "kind, rows, count",
    [
        pytest.param(k, rows, count, id=f"{k}-{rows}" + ("-B3" if count > 1 else ""))
        for count in (1, 3)
        for k, rows in ((SchemeKind.LRI1, 4), (SchemeKind.ELRI1, 9), (SchemeKind.ELRI2, 10))
    ],
)
def test_transforms_per_step(monkeypatch, kind, rows, count):
    # a step whose input already holds a spectrum makes only half-length
    # real transforms, each set of independent ones stacked into one call on
    # the last axis: rfft of k rows of N grid values, irfft of k rows of
    # N/2 + 1 modes, with k = 2 / 3 / 4 in the first irfft, 2 in the rfft of
    # the squares, 1 in the 1/18 projection and 3 in the last rfft.  B
    # members share each call: every stack gains a member axis of length B
    # (a single run steps without one), so the rows per step are B times
    us, spectra, _ = members(64, count)
    u = us[0]
    log = []

    def counted(name, fn, arg):  # arg: the position of the transformed array
        def call(*args, **kwargs):
            y = fn(*args, **kwargs)
            x = args[arg]
            log.append((name, np.shape(x), np.iscomplexobj(x), np.shape(y)))
            return y

        return call

    # the Grid pair, and any np.fft transform a step might call around it
    for name in ("rfft", "irfft"):
        monkeypatch.setattr(Grid, name, counted(name, getattr(Grid, name), 1))
    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(f"np.fft.{name}", getattr(np.fft, name), 0))
    n_steps = 3
    if count == 1:
        evolve(SolverRun(kind, 0.05, n_steps * 0.05, Field.from_spectrum(u.grid, spectra[0])))
    else:
        integrators._march(kind, u.grid, [0.05] * count, [n_steps] * count, spectra)
    n, m, b = u.grid.n, u.grid.n // 2 + 1, () if count == 1 else (count,)
    # (rows of the first irfft, calls per step)
    k, calls = {
        SchemeKind.LRI1: (2, 2), SchemeKind.ELRI1: (3, 4), SchemeKind.ELRI2: (4, 4)
    }[kind]
    step = [("irfft", (k, *b, m), True, (k, *b, n)), ("rfft", (2, *b, n), False, (2, *b, m))]
    if kind is not SchemeKind.LRI1:
        step += [("irfft", (*b, m), True, (*b, n)), ("rfft", (3, *b, n), False, (3, *b, m))]
    assert log == n_steps * step
    assert len(step) == calls
    assert sum(int(np.prod(shape[:-1])) for _, shape, _, _ in step) == rows * count


@pytest.mark.parametrize("n", [16, 64, 1024, 2**14])
def test_stacked_transform_rows_are_bitwise_separate_calls(n):
    # the step's output bytes rest on this: each row of a stacked Grid.rfft/
    # irfft on the last axis, with out= a slice of a larger stack, is the
    # same bits as that row transformed alone
    g = Grid(n)
    rng = np.random.default_rng(n)
    m = n // 2 + 1
    for k in (1, 2, 3, 4):
        x = rng.standard_normal((k, n))
        h = g.rfft(x, np.empty((k + 1, m), complex)[1:])
        y = g.irfft(h, np.empty((k + 1, n))[1:])
        for i in range(k):
            assert h[i].tobytes() == g.rfft(x[i], np.empty(m, complex)).tobytes()
            assert y[i].tobytes() == g.irfft(h[i], np.empty(n)).tobytes()


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_member_runs_are_bitwise_separate_runs(n):
    # three members of different step size and step count in one _march:
    # each member's samples (every 2nd step and its last) and mode-0 drift
    # are, bit for bit, those of its own evolve run
    us, spectra, taus = members(n, 3, theta=3.0)
    counts = [5, 8, 3]
    for kind in SchemeKind:
        got = integrators._march(kind, us[0].grid, taus, counts, spectra,
                                 record_every=2)
        for u, tau, count, traj in zip(us, taus, counts, got):
            samples, d = traj.samples, traj.max_mean_drift
            want = evolve(SolverRun(kind, tau, count * tau, u, record_every=2))
            assert [t for t, _ in samples] == [t for t, _ in want.samples[1:]]
            assert [f.spectrum.tobytes() for _, f in samples] == [
                f.spectrum.tobytes() for _, f in want.samples[1:]
            ]
            assert np.float64(d).tobytes() == np.float64(want.max_mean_drift).tobytes()


@pytest.mark.parametrize("first", [True, False])
def test_diverging_member_raises_with_its_own_step(first):
    # the large-amplitude data of test_blow_up_raises_with_step_index turns
    # non-finite at its step 6 while two small-step members beside it stay
    # finite: the diverging member's result is a BlowUpError that names its
    # step, count and time, raised when its samples are read, and the others
    # step on, bit for bit their own runs (samples on both sides of its exit)
    base = generate_rough(RoughSpec(64, 1.0, seed=3))
    spectra = [50.0 * base.spectrum, 0.1 * base.spectrum, -0.2 * base.spectrum]
    taus, counts = [0.5, 0.01, 0.02], [10, 40, 15]
    if not first:
        taus, counts, spectra = taus[::-1], counts[::-1], spectra[::-1]
    got = integrators._march(SchemeKind.ELRI1, base.grid, taus, counts,
                             np.array(spectra), record_every=4)
    wild = got.pop(0 if first else -1)
    assert isinstance(wild, BlowUpError) and wild.step == 6
    assert "after step 6 of 10 (t = 3, scheme ELRI1)" in str(wild)
    with pytest.raises(BlowUpError) as info:
        integrators._trajectory(wild)
    assert info.value is wild
    calm = [(t, c, s) for t, c, s in zip(taus, counts, spectra) if t < 0.5]
    for traj, (tau, count, spectrum) in zip(got, calm):
        samples = traj.samples
        u = Field.from_spectrum(base.grid, spectrum)
        want = evolve(SolverRun(SchemeKind.ELRI1, tau, count * tau, u, record_every=4))
        assert [(t, f.spectrum.tobytes()) for t, f in samples] == [
            (t, f.spectrum.tobytes()) for t, f in want.samples[1:]
        ]


def test_members_that_all_diverge_end_the_march(monkeypatch):
    # two large-amplitude members blow up at steps 6 and 7, of 10 and 10^4:
    # each gets its own error, and the loop stops once no member is left
    base = generate_rough(RoughSpec(64, 1.0, seed=3))
    taus, counts = [0.5, 2.0**-4], [10, 10**4]
    steps = []
    update = integrators._update

    def counted(ws):
        steps.append(ws.s.shape)
        update(ws)

    monkeypatch.setattr(integrators, "_update", counted)
    got = integrators._march(SchemeKind.ELRI1, base.grid, taus, counts,
                             50.0 * base.spectrum)
    assert [e.step for e in got] == [6, 7]
    assert "after step 7 of 10000 (t = 0.4375" in str(got[1])
    assert len(steps) == 7 and steps[-1] == (33,)


def test_only_the_stepping_loop_steps_and_batches():
    # a scan of the package source: _march alone builds a workspace and calls
    # _update, and it and the RK4 oracle alone build a BlowUpError; only
    # integrators reads BATCH_MAX_N, so every batch takes the one cap; and
    # studies steps only through _march
    calls, reads = {}, set()  # name -> {(module, function)}; modules naming the cap
    for path in sorted(pathlib.Path(integrators.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):  # outer functions first, so the innermost wins
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, set()).add((path.stem, owner.get(node)))
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", getattr(node, "attr", None))])
            if "BATCH_MAX_N" in names:
                reads.add(path.stem)
    assert calls["_Workspace"] == calls["_update"] == {("integrators", "_march")}
    assert calls["BlowUpError"] == {("integrators", "_march"), ("oracles", "ifrk4_solve")}
    assert reads == {"integrators"}
    in_studies = {n for n, where in calls.items() if "studies" in {m for m, _ in where}}
    assert not in_studies & {"step", "evolve", "SolverRun"}


# a fresh interpreter: 1 warm-up elri2 step at N = 2^14, then the minor page
# faults of 32 more
_FAULT_PROBE = """
import resource
from kdvlri import integrators as I
from kdvlri.rough_data import RoughSpec, generate_rough
u = generate_rough(RoughSpec(2**14, 3.0, 42))
ws = I._Workspace(I.SchemeKind.ELRI2, u.grid, 2.0**-10)
ws.load(u.spectrum)
I._update(ws)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(32):
    I._update(ws)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="pins glibc malloc behaviour")
def test_first_large_run_takes_no_page_faults():
    # in a process that has not yet freed a large block, glibc handed numpy's
    # stacked-FFT scratch back to the system after every call at N >= 2^14:
    # 96 faults per call, 288 per elri2 step
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 32


# ---------------------------------------------------------------------------
# solver configuration


def _boundary(kind):
    return f"{kind.value}_step" if kind else "SolverRun"


@pytest.mark.parametrize("kind", [None, *SchemeKind], ids=_boundary)
def test_single_field_boundaries_refuse_a_stack(kind):
    g = Grid(16)
    stack = Field.from_values(g, np.zeros((2, 16)))
    boundary = _boundary(kind)
    message = rf"{boundary} needs one field of shape \(16,\), got \(2, 16\)"
    with pytest.raises(ValueError, match=message):
        if boundary == "SolverRun":
            SolverRun(SchemeKind.ELRI2, tau=0.1, t_final=1.0, initial=stack)
        else:
            step(kind, stack, 0.1)


def test_solver_run_validation():
    u = rough(n=32)
    with pytest.raises(SchemeConfigError, match="tau must be positive"):
        SolverRun(SchemeKind.ELRI1, -0.1, 1.0, u)
    with pytest.raises(SchemeConfigError, match="t_final must be positive"):
        SolverRun(SchemeKind.ELRI1, 0.1, 0.0, u)
    with pytest.raises(SchemeConfigError, match="not a positive integer"):
        SolverRun(SchemeKind.ELRI1, 0.3, 1.0, u)
    with pytest.raises(SchemeConfigError, match="record_every"):
        SolverRun(SchemeKind.ELRI1, 0.1, 1.0, u, record_every=-1)
    with pytest.raises(SchemeConfigError, match="unknown scheme"):
        SolverRun("lri2", 0.1, 1.0, u)
    # a step count past MAX_STEPS is refused by name, before any stepping
    assert SolverRun(SchemeKind.ELRI1, 2.0**-23, 1.0, u).n_steps <= MAX_STEPS
    for tau, t_final in ((2.0**-24, 1.0), (1e-300, 1.0), (1e-300, 1e300)):
        with pytest.raises(SchemeConfigError, match=r"tau = .*MAX_STEPS"):
            SolverRun(SchemeKind.ELRI1, tau, t_final, u)
    # a real mean is data, not a refusal: the stepping loop shifts it out
    g = Grid(32)
    shifted = Field.from_values(g, 1.0 + np.cos(g.x))
    assert SolverRun(SchemeKind.ELRI1, 0.1, 1.0, shifted).n_steps == 10
    # an infinite mean is no mean to shift: it is refused by name
    spec = np.zeros(g.n // 2 + 1, complex)
    spec[0] = np.inf
    with pytest.raises(SchemeConfigError, match="from its mean value inf$"):
        SolverRun(SchemeKind.ELRI1, 0.1, 1.0, Field.from_spectrum(g, spec))


@pytest.mark.parametrize("where, call", [
    pytest.param(where, call, id=where) for where, call in (
        ("SolverRun", lambda u: SolverRun(SchemeKind.ELRI1, 0.1, 1.0, u)),
        ("elri2_step", lambda u: step(SchemeKind.ELRI2, u, 0.1)),
        ("ifrk4_solve", lambda u: ifrk4_solve(u, 1.0, 0.1)),
    )
])
def test_a_nan_value_is_refused_as_data_that_is_not_finite(where, call):
    # NaN fails every comparison of the mean gate: the refusal names the
    # data as not finite, not as complex
    g = Grid(16)
    v = np.cos(g.x)
    v[3] = np.nan
    with pytest.raises(SchemeConfigError) as err:
        call(Field.from_values(g, v))
    assert str(err.value) == (
        f"{where} requires finite data: mode 0 is nan+0.000000e+00j and mode N/2 "
        "has imaginary part 0.000000e+00 (the data is not finite)"
    )


@pytest.mark.parametrize("bad", [0.5, 2.5, 3.0, float("nan"), True, False, "2", None, -1,
                                 np.int64(-2)])
def test_record_every_must_be_a_non_negative_integer(bad):
    # 0.5 would record every step, 2.5 every fifth and nan only the endpoints
    with pytest.raises(SchemeConfigError) as err:
        SolverRun(SchemeKind.ELRI1, 0.1, 1.0, rough(n=16), record_every=bad)
    assert str(err.value) == f"record_every must be an integer >= 0, got {bad!r}"


def test_solver_run_step_count():
    u = rough(n=32)
    assert SolverRun(SchemeKind.ELRI1, 0.125, 1.0, u).n_steps == 8
    # ratio off by < 1e-9 still rounds to an integer count
    assert SolverRun(SchemeKind.ELRI1, 0.1, 1.0, u).n_steps == 10


# ---------------------------------------------------------------------------
# evolution loop


def test_evolve_single_step_matches_public_step():
    # evolve builds the Airy symbol once per run, each public step once per
    # call; both paths must agree bit for bit, whichever representation the
    # initial field was built from
    base = rough(n=64, theta=2.0, seed=13)
    tau = 0.05
    initials = (base, Field.from_values(base.grid, base.values))
    for kind, step in zip(
        (SchemeKind.LRI1, SchemeKind.ELRI1, SchemeKind.ELRI2), ALL_STEPS
    ):
        for u in initials:
            for n_steps in (1, 3):
                traj = evolve(SolverRun(kind, tau, n_steps * tau, u))
                direct = u
                for _ in range(n_steps):
                    direct = step(direct, tau)
                assert traj.n_steps == n_steps
                assert np.array_equal(traj.final.values, direct.values)
                assert np.array_equal(traj.final.spectrum, direct.spectrum)


def test_evolve_recording_pattern():
    u = rough(n=32)
    tau = 0.125
    for k in (3, np.int64(3)):  # a numpy integer is an integer too
        traj = evolve(SolverRun(SchemeKind.ELRI1, tau, 1.0, u, record_every=k))
        assert [t for t, _ in traj.samples] == [0.0, 3 * tau, 6 * tau, 8 * tau]
    assert len(traj.samples) == 4
    assert traj.samples[0][1] is u
    # record_every = 0: endpoints only, and the final step is never duplicated
    assert len(evolve(SolverRun(SchemeKind.ELRI1, tau, 1.0, u)).samples) == 2
    run = SolverRun(SchemeKind.ELRI1, tau, 1.0, u, record_every=4)
    assert len(evolve(run).samples) == 3


def test_evolve_mean_drift_stays_tiny():
    g = Grid(64)
    u = Field.from_values(g, np.cos(g.x))
    traj = evolve(SolverRun(SchemeKind.ELRI2, 0.01, 0.5, u))
    assert traj.max_mean_drift <= 1e-12
    assert abs(mean_value(traj.final)) <= 1e-12


def test_blow_up_raises_with_step_index():
    # large-amplitude rough data at a huge step diverges fast; the loop must
    # report the step where values stop being finite instead of warning or
    # tripping the mean gate on roundoff
    base = generate_rough(RoughSpec(64, 1.0, seed=3))
    u = Field.from_values(base.grid, 50.0 * base.values)
    run = SolverRun(SchemeKind.ELRI1, 0.5, 5.0, u)
    with pytest.raises(BlowUpError) as info:
        evolve(run)
    assert info.value.step == 6
    assert "step 6" in str(info.value)


@pytest.mark.parametrize("tau", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_step_with_a_non_finite_tau_raises_blow_up(kind, tau):
    # step is the one-step case of the stepping loop, so it checks as evolve
    # does, and quietly: the NaN symbol warns nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError, match=f"after step 1 of 1 .*{kind.name}") as info:
            step(kind, rough(n=32), tau)
    assert info.value.step == 1


# ---------------------------------------------------------------------------
# mean shift


def plain_stepping(kind, u, tau, count, record_every):
    """Spectra after steps 1..count of bare _update calls (every
    record_every-th and the last), no mean arithmetic."""
    ws = integrators._Workspace(kind, u.grid, [tau])
    s, out = ws.load(u.spectrum), []
    for n in range(1, count + 1):
        integrators._update(ws)
        if (record_every and n % record_every == 0) or n == count:
            out.append((n * tau, s[0].copy()))
    return out


def shifted_recursion(kind, u, tau, count, record_every):
    """The mean-shift recursion, written out: subtract the real mean c, step,
    map every sample back through translate(., c t) + c.  A mean within
    MEAN_TOL is stepped as it is."""
    c = float(u.spectrum[0].real)
    if abs(c) <= integrators.MEAN_TOL:
        return [(t, Field.from_spectrum(u.grid, s))
                for t, s in plain_stepping(kind, u, tau, count, record_every)]
    s0 = u.spectrum.copy()
    s0[0] += -c
    inner = Field.from_spectrum(u.grid, s0)
    out = []
    for t, s in plain_stepping(kind, inner, tau, count, record_every):
        back = translate(Field.from_spectrum(u.grid, s), c * t).spectrum.copy()
        back[0] += c
        out.append((t, Field.from_spectrum(u.grid, back)))
    return out


def test_mean_shift_with_zero_mean_matches_plain_evolve():
    # a mean within MEAN_TOL is stepped as it is: bare _update calls, bit for
    # bit, and the t = 0 sample is the input object
    base = rough(n=64, theta=2.0, seed=21)
    for mean in (0.0, 5e-13, -9e-13):
        u = Field.from_values(base.grid, base.values + mean)
        for kind in SchemeKind:
            for record_every in (0, 3):
                got = evolve(SolverRun(kind, 0.05, 0.5, u, record_every=record_every))
                want = plain_stepping(kind, u, 0.05, 10, record_every)
                assert got.samples[0][1] is u
                assert [(t, f.spectrum.tobytes()) for t, f in got.samples[1:]] == [
                    (t, s.tobytes()) for t, s in want
                ]
            (_, once), = plain_stepping(kind, u, 0.05, 1, 0)
            assert step(kind, u, 0.05).spectrum.tobytes() == once.tobytes()


@pytest.mark.parametrize("n", [32, 256])
@pytest.mark.parametrize("mean", [0.3, 0.0])
def test_mean_shift_is_bitwise_shift_evolve_shift_back(n, mean):
    # a real mean above MEAN_TOL: evolve is, bit for bit, the recursion the
    # mean shift is defined by, and its drift is that of the shifted run; at
    # mean 0 (mode 0 at roundoff, within MEAN_TOL) it is plain stepping
    base = rough(n=n, theta=2.0, seed=5)
    u = Field.from_values(base.grid, base.values + mean)
    c = float(u.spectrum[0].real) if mean else 0.0
    inner = Field.from_spectrum(u.grid, u.spectrum - np.eye(1, n // 2 + 1)[0] * c)
    for kind in SchemeKind:
        for record_every in (0, 3):
            got = evolve(SolverRun(kind, 0.05, 0.4, u, record_every=record_every))
            want = shifted_recursion(kind, u, 0.05, 8, record_every)
            assert got.samples[0][1] is u
            assert [t for t, _ in got.samples[1:]] == [t for t, _ in want]
            assert [f.spectrum.tobytes() for _, f in got.samples[1:]] == [
                f.spectrum.tobytes() for _, f in want
            ]
            drift = evolve(SolverRun(kind, 0.05, 0.4, inner)).max_mean_drift
            assert got.max_mean_drift == drift


def test_members_of_different_means_are_their_separate_runs():
    # one _march over members with means 0.3, 0, -2 and 1e-13: each member's
    # samples and drift are, bit for bit, those of its own evolve run
    base = rough(n=64, theta=3.0, seed=11)
    means, taus, counts = [0.3, 0.0, -2.0, 1e-13], [0.05, 0.04, 0.1, 0.05], [6, 9, 4, 6]
    us = [Field.from_values(base.grid, base.values + m) for m in means]
    spectra = np.array([u.spectrum for u in us])
    for kind in SchemeKind:
        got = integrators._march(kind, base.grid, taus, counts, spectra,
                                 record_every=2)
        for u, tau, count, traj in zip(us, taus, counts, got):
            samples, d = traj.samples, traj.max_mean_drift
            want = evolve(SolverRun(kind, tau, count * tau, u, record_every=2))
            assert [(t, f.spectrum.tobytes()) for t, f in samples] == [
                (t, f.spectrum.tobytes()) for t, f in want.samples[1:]
            ]
            assert d == want.max_mean_drift


def test_mean_shift_constant_state_is_steady():
    g = Grid(32)
    c = 1.5
    u = Field.from_values(g, np.full(g.n, c))
    traj = evolve(SolverRun(SchemeKind.ELRI2, 0.1, 1.0, u))
    assert np.max(np.abs(traj.final.values - c)) < 1e-13


def test_mean_shift_self_convergence_is_second_order():
    # ELRI2 on 0.4 + cos(x): successive refinement against a tau = 2^-12
    # reference reproduces the expected slope (measured 2.076 here)
    g = Grid(64)
    u0 = Field.from_values(g, 0.4 + np.cos(g.x))

    def final(tau):
        return evolve(SolverRun(SchemeKind.ELRI2, tau, 1.0, u0)).final

    ref = final(2.0**-12)
    taus = [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8]
    errs = [l2_diff(final(t), ref) for t in taus]
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.4


def test_trajectory_final_of_empty_is_error():
    with pytest.raises(IndexError):
        Trajectory().final
