"""Time stepping for the KdV equation u_t + u_xxx = (1/2) d_x(u^2) on (0, 2*pi).

Three explicit exponential-type schemes, all built from FFT-diagonal
operators (the Airy symbol e^{i tau k^3}, the antiderivative 1/(i k)) and
pointwise grid products.  They nest, LRI1 within ELRI1 within ELRI2, and
one update body (_update) builds all three:

* LRI1   -- classical three-term low-regularity integrator (baseline):
             e^{-tau dx^3} u - (1/6) e^{-tau dx^3}(dxinv u)^2
             + (1/6)(e^{-tau dx^3} dxinv u)^2.
* ELRI1  -- LRI1 plus six embedded correction terms (coefficients 1/18,
             1/54, tau/(12 pi), tau/18); first order in H^gamma for
             H^(gamma+1) data.
* ELRI2  -- ELRI1 plus two tau/36 correction terms; second order for
             H^(gamma+3) data.

The update writes only into a workspace allocated once per run (by evolve)
or per call (by step).  It holds the scheme, tau, the Airy
symbol, the one full spectrum every step updates in place, and the
temporaries, so a step in steady state allocates no array.  A Field is
built only for recorded samples and the final state.  The linear part
e^{-tau dx^3} u is the spectrum times the symbol.  The correction terms are
formed on the half spectrum (modes 0..N/2) with real transforms (rfft/irfft
with norm="forward", so no separate 1/N scaling), added to the nonnegative
modes, and mirrored as conjugates onto the negative ones.  Terms that share
a multiplier share a transform: the 1/18 pair is one transform of the
difference the 1/6 term builds, the resonant u^3 term rides in the p^3 half
of the 1/54 pair and the ELRI2 (e^{-tau dx^3} u)^3 term in its other half.
Mutually independent transforms are the rows of one stack and one call.  A
step whose input holds a spectrum transforms 4 / 9 / 10 half-length real
rows (LRI1 / ELRI1 / ELRI2) in 2 / 4 / 4 calls, and no full-length ones.

The schemes assume zero-mean data (the mode-0 coefficient of the update is
only conserved, never evolved); with mean_shift, evolve removes a nonzero
mean c, steps, and restores each sample via the exact Galilean-type change
of variables u(t, x) = utilde(t, x + c t) + c.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .spectral import TWO_PI, Field, require_single, translate

MEAN_TOL = 1e-12

#: most steps one run may take.  Paper-scale references take 10^4 steps, so
#: only a mistyped step size reaches this; it is refused before any stepping.
MAX_STEPS = 10**7

#: from this grid size up, numpy's stacked rfft/irfft scratch page-faults on
#: every call until the first workspace frees a 4 MB block (none at 8192)
SCRATCH_N = 2**14


class SchemeConfigError(ValueError):
    """Invalid scheme selection or solver configuration."""


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class SchemeKind(enum.Enum):
    LRI1 = "lri1"
    ELRI1 = "elri1"
    ELRI2 = "elri2"


def require_zero_mean(f, where):
    """Refuse a stack, or a field whose mode-0 coefficient exceeds MEAN_TOL."""
    require_single(f, where)
    m = complex(f.spectrum[0])
    if abs(m) <= MEAN_TOL:
        return
    if abs(m.real) > MEAN_TOL:
        cause = f"mean value {m.real:.6e} (set mean_shift for nonzero mean)"
    else:  # a mean shift removes only the real part
        cause = f"imaginary residue {m.imag:.6e} (the data is not a real field)"
    raise SchemeConfigError(
        f"{where} requires zero-mean data: mode 0 is {m:.6e}, magnitude "
        f"{abs(m):.6e} exceeds {MEAN_TOL:g}, from its {cause}"
    )


def check_scheme(kind):
    """Refuse anything but a SchemeKind member."""
    if not isinstance(kind, SchemeKind):
        valid = ", ".join(k.value for k in SchemeKind)
        raise SchemeConfigError(f"unknown scheme {kind!r}; choose one of {valid}")


def check_step_count(name, tau, t_final):
    """Refuse a step size tau that needs more than MAX_STEPS steps to t_final."""
    steps = t_final / tau
    if steps > MAX_STEPS:
        raise SchemeConfigError(
            f"{name} = {tau:g} takes {steps:.3g} steps to t_final = {t_final:g}, "
            f"more than MAX_STEPS = {MAX_STEPS:.0e}"
        )


@functools.cache
def _raise_malloc_thresholds():
    # numpy's rfft/irfft of two or more rows allocates scratch on each call.
    # At N >= SCRATCH_N glibc hands it back to the system after the call (96
    # minor faults per call at 2^14) until a larger mapped block is freed:
    # that raises glibc's dynamic mmap threshold to the block's size, and its
    # trim threshold to twice that.  This relies on that glibc heuristic (1 MB
    # measured too small here, 2 MB enough); the 4 MB are never touched.
    np.empty(1 << 19)


class _Workspace:
    """One run's stepping state, allocated once per run.

    Holds the scheme, tau, the first irfft's row count and the resonant
    coefficient; the Airy symbol at tau and half-length views of it and of
    inv_ik; the dealias mask; the one spectrum s every step updates in
    place; the stacks _update transforms in one call each (4 half spectra,
    4 and 3 rows of grid values), the correction sum and the blow-up flags.
    """

    def __init__(self, kind, grid, tau, dealias):
        n = grid.n
        m = n // 2 + 1
        self.kind, self.tau, self.n = kind, tau, n
        if n >= SCRATCH_N:
            _raise_malloc_thresholds()
        self.rows = {SchemeKind.LRI1: 2, SchemeKind.ELRI1: 3, SchemeKind.ELRI2: 4}[kind]
        self.resonant = tau / 18.0 if kind is SchemeKind.ELRI1 else tau / 36.0
        self.airy = grid.airy(tau)
        self.a = self.airy[:m]
        self.inv_ik = grid.inv_ik[:m]
        self.drop = ~grid.keep_two_thirds if dealias else None
        self.s = np.empty(n, complex)
        self.half = np.empty((4, m), complex)
        self.corr = np.empty(m, complex)
        self.vals = np.empty((4, n))
        self.prod = np.empty((3, n))
        self.finite = np.empty(n, bool)

    def load(self, spectrum):
        """Copy spectrum into s, 2/3-truncated when dealiasing; return s."""
        np.copyto(self.s, spectrum)
        if self.drop is not None:
            np.copyto(self.s, 0.0, where=self.drop)
        return self.s


def _update(ws):
    """Advance ws.s by one step of ws.kind at ws.tau, in place.

    The linear part is s times the symbol.  The correction terms are built
    on the half spectrum, added there, and their conjugates added to the
    negative modes.  Each cancelling pair is one difference, so every scheme
    is the exact identity at tau = 0.  Every array written is one of ws's,
    and each term keeps the operation order of its formula, so the bits do
    not depend on which buffer or stack row holds it.  No mean gate: evolve
    checks the initial mean once, and a diverging iterate must reach the
    non-finite check (BlowUpError), not trip the absolute mean gate.
    """
    s, a, inv_ik, half, vals, prod = ws.s, ws.a, ws.inv_ik, ws.half, ws.vals, ws.prod
    n, m, k = ws.n, a.size, ws.rows
    p = np.multiply(s[:m], inv_ik, out=half[1])  # dxinv u
    ep = np.multiply(p, a, out=half[0])  # e^{-tau dx^3} dxinv u
    if k > 2:
        np.copyto(half[2], s[:m])  # u
    np.multiply(s, ws.airy, out=s)  # the linear part; s holds it from here on
    if k > 3:
        np.copyto(half[3], s[:m])  # e^{-tau dx^3} u
    np.fft.irfft(half[:k], n, norm="forward", out=vals[:k])
    ep_v, p_v, v, w = vals
    # pseudo-spectral products, no dealiasing; rows 2 and 3 of half are free now
    squares = np.multiply(vals[:2], vals[:2], out=prod[1:])
    # d = rfft(ep_v^2) - rfft(p_v^2) a
    d, h = np.fft.rfft(squares, norm="forward", out=half[2:])
    np.subtract(d, np.multiply(h, a, out=h), out=d)
    corr = np.divide(d, 6.0, out=ws.corr)
    if ws.kind is not SchemeKind.LRI1:
        # projected cubic pair, 1/18: one transform of the difference d
        g = np.fft.irfft(np.multiply(d, inv_ik, out=h), n, norm="forward", out=prod[0])
        np.multiply(ep_v, g, out=g)
        # antiderivative cubic pair, 1/54; the resonant u^3 term (tau/18,
        # net tau/36 in ELRI2) rides in the p_v^3 transform, the ELRI2
        # (e^{-tau dx^3} u)^3 term in the ep_v^3 transform
        cubes = np.multiply(vals[:2], squares, out=squares)
        cubic_ep, cubic_p = np.divide(cubes, 54.0, out=cubes)
        v2 = np.multiply(v, v, out=ep_v)
        u3 = np.multiply(v2, v, out=p_v)
        np.subtract(cubic_p, np.multiply(ws.resonant, u3, out=u3), out=cubic_p)
        if ws.kind is SchemeKind.ELRI2:  # resonant is tau/36 here
            w3 = np.multiply(np.multiply(w, w, out=v), w, out=v)
            np.add(cubic_ep, np.multiply(ws.resonant, w3, out=w3), out=cubic_ep)
        # rows ep_v g, cubic_ep, cubic_p; row 0 of half, ep, stays
        q, cubic_ep_h, cubic = np.fft.rfft(prod, norm="forward", out=half[1:])
        q[0] = 0.0  # zero-mean projection
        np.add(corr, np.divide(q, 18.0, out=q), out=corr)
        np.subtract(np.multiply(cubic, a, out=cubic), cubic_ep_h, out=cubic)
        np.add(corr, np.multiply(cubic, inv_ik, out=cubic), out=corr)
        # mass term: (tau / 12 pi) e^{-tau dx^3} dxinv u * integral(u^2)
        mass = ws.tau / (12.0 * np.pi) * (TWO_PI * (np.add.reduce(v2) / n))
        np.add(corr, np.multiply(mass, ep, out=q), out=corr)
    np.add(s[:m], corr, out=s[:m])
    # modes -(N/2 - 1)..-1
    mirror = np.conjugate(corr[m - 2 : 0 : -1], out=half[0, : m - 2])
    np.add(s[m:], mirror, out=s[m:])
    if ws.drop is not None:
        np.copyto(s, 0.0, where=ws.drop)


def step(kind: SchemeKind, u: Field, tau: float, dealias: bool = False) -> Field:
    """One step of kind from zero-mean u; tau = 0 without dealias returns u exactly."""
    check_scheme(kind)
    require_zero_mean(u, f"{kind.value}_step")
    ws = _Workspace(kind, u.grid, tau, dealias)
    ws.load(u.spectrum)
    _update(ws)
    return Field.from_spectrum(u.grid, ws.s)


@dataclass
class SolverRun:
    """One time-integration job: scheme, step size, horizon, initial data.

    t_final/tau must be an integer (within 1e-9); without mean_shift the
    initial mean must vanish to 1e-12.  record_every = 0 keeps only the
    endpoints, k > 0 keeps every k-th step plus both endpoints.
    """

    scheme: SchemeKind
    tau: float
    t_final: float
    initial: Field
    record_every: int = 0
    mean_shift: bool = False
    dealias: bool = False

    def __post_init__(self):
        check_scheme(self.scheme)
        require_single(self.initial, "SolverRun")
        for name in ("tau", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SchemeConfigError(
                    f"{name} must be positive and finite, got {value}"
                )
        check_step_count("tau", self.tau, self.t_final)
        ratio = self.t_final / self.tau
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise SchemeConfigError(
                f"t_final/tau = {ratio!r} is not a positive integer step count"
            )
        if self.record_every < 0:
            raise SchemeConfigError(
                f"record_every must be >= 0, got {self.record_every}"
            )
        if not self.mean_shift:
            require_zero_mean(self.initial, "SolverRun")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.tau))


@dataclass
class Trajectory:
    """Recorded (t, Field) samples plus bookkeeping from one evolve call."""

    samples: list = field(default_factory=list)
    n_steps: int = 0
    max_mean_drift: float = 0.0

    @property
    def final(self) -> Field:
        return self.samples[-1][1]

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, i):
        return self.samples[i]

    def __iter__(self):
        return iter(self.samples)


def evolve(run: SolverRun) -> Trajectory:
    """Apply the scheme t_final/tau times from the initial field.

    Raises BlowUpError (with the offending step index) as soon as a
    non-finite value appears; tracks the largest mode-0 drift seen.  With
    run.mean_shift the initial mean c is removed first, the zero-mean data
    utilde evolved, and each sample mapped back through
    u(t_n) = translate(utilde^n, c t_n) + c, the exact Galilean-type change
    of variables u(t, x) = utilde(t, x + c t) + c.
    """
    n_steps, tau, u0 = run.n_steps, run.tau, run.initial
    if run.mean_shift:
        c = float(u0.spectrum[0].real)
        s0 = u0.spectrum.copy()
        s0[0] -= c  # at most a roundoff-size imaginary residue is left
        u0 = Field.from_spectrum(u0.grid, s0)
        require_zero_mean(u0, "SolverRun")
    ws = _Workspace(run.scheme, u0.grid, tau, run.dealias)
    s = ws.load(u0.spectrum)
    mean0 = complex(s[0])
    samples = [(0.0, u0)]
    drift = 0.0
    # a diverging iterate overflows before the isfinite check catches it;
    # the warnings would only duplicate the BlowUpError diagnostic
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_steps + 1):
            _update(ws)
            if not np.isfinite(s, out=ws.finite).all():
                raise BlowUpError(
                    f"non-finite field after step {n} of {n_steps} "
                    f"(t = {n * tau:.6g}, scheme {run.scheme.name})",
                    step=n,
                )
            drift = max(drift, abs(complex(s[0]) - mean0))
            if run.record_every and n % run.record_every == 0 and n != n_steps:
                samples.append((n * tau, Field.from_spectrum(u0.grid, s)))
    samples.append((n_steps * tau, Field.from_spectrum(u0.grid, s)))
    if run.mean_shift:
        samples = [(t, _add_constant(translate(f, c * t), c)) for t, f in samples]
    return Trajectory(samples=samples, n_steps=n_steps, max_mean_drift=drift)


def _add_constant(f, c):
    s = f.spectrum.copy()
    s[0] += c
    return Field.from_spectrum(f.grid, s)
