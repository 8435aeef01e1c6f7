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

The update writes only into a workspace allocated once per run.  It holds
B members, each with its own tau and one spectrum (modes 0..N/2) every step
updates in place, the temporaries and every view of them a step uses, so a
step in steady state allocates no array and slices no view.  Members share
every call, each bit for bit a run of its own.  The one stepping loop
(_march) alone builds workspaces and BlowUpErrors and applies BATCH_MAX_N to
every batch; per member it returns a Trajectory, or the error of a member
that turned non-finite and left as the others stepped on.  evolve is its
one-member case and step its one-step case; both raise that error.  A Field
is built only for samples.  The linear part e^{-tau dx^3} u is the spectrum times the symbol.
The correction terms are formed with Grid.rfft/irfft (normalized like the
spectrum, so no separate 1/N scaling), summed, and added to the spectrum.
Terms that share a multiplier share a transform: the 1/18 pair is one
transform of the difference the 1/6 term builds, the resonant u^3 term rides
in the p^3 half of the 1/54 pair and the ELRI2 (e^{-tau dx^3} u)^3 term in
its other half.  Mutually independent transforms are the rows of one stack
and one call.  A step whose input holds a spectrum transforms 4 / 9 / 10
real rows (LRI1 / ELRI1 / ELRI2) in 2 / 4 / 4 calls.

The schemes assume zero-mean data (the mode-0 coefficient of the update is
only conserved, never evolved).  _march removes a member's real mean c above
MEAN_TOL at load, steps, and maps each sample back through the exact
Galilean-type change of variables u(t, x) = utilde(t, x + c t) + c.
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

#: from this grid size up, _march steps each member as its own run: a batch
#: stops being faster than its members stepped apart (BENCH_28.json)
BATCH_MAX_N = 4096

#: from this grid size up, stacked Grid.rfft/irfft scratch page-faults on
#: every call until the first workspace frees a 4 MB block (none at 8192)
SCRATCH_N = 2**14

#: numpy divides a complex array by a real c as the product with 1.0 / c
#: (Smith's algorithm), so these products on real views keep its bits, up to
#: the sign of an exact zero (as does a real-view product with a real scalar)
SIXTH, EIGHTEENTH = np.float64(1.0 / 6.0), np.float64(1.0 / 18.0)


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


def require_zero_mean(f, where, stack=False):
    """Refuse a mode 0, or an imaginary part of mode N/2, above MEAN_TOL or
    not finite (naming its row), and a stack unless stack."""
    if not stack:
        require_single(f, where)
    spec = f.spectrum
    m0, top = spec[..., 0].ravel().tolist(), spec[..., -1].imag.ravel().tolist()
    bad = [(i, m, t) for i, (m, t) in enumerate(zip(m0, top))
           if not (abs(m) <= MEAN_TOL and abs(t) <= MEAN_TOL)]
    if not bad:
        return
    row, m, t = bad[0]
    where += f" (row {row})" if spec.ndim > 1 else ""
    if not (abs(m.real) > MEAN_TOL or math.isfinite(abs(m)) and math.isfinite(t)):
        raise SchemeConfigError(  # NaN fails every comparison below
            f"{where} requires finite data: mode 0 is {m:.6e} and mode N/2 has "
            f"imaginary part {t:.6e} (the data is not finite)"
        )
    if abs(m) <= MEAN_TOL:  # irfft drops it, so the values show no trace of it
        raise SchemeConfigError(
            f"{where} requires a real field: mode N/2 has imaginary part {t:.6e}, "
            f"above {MEAN_TOL:g} (the data is not a real field)"
        )
    if abs(m.real) > MEAN_TOL:
        cause = f"mean value {m.real:.6e}"
    else:  # a mean shift removes only the real part
        cause = f"imaginary residue {m.imag:.6e} (the data is not a real field)"
    raise SchemeConfigError(
        f"{where} requires zero-mean data: mode 0 is {m:.6e}, magnitude "
        f"{abs(m):.6e} exceeds {MEAN_TOL:g}, from its {cause}"
    )


def require_real_field(f, where):
    """Refuse a stack, and an imaginary part of mode 0 or N/2 above MEAN_TOL:
    require_zero_mean of f less the real mean _march shifts out."""
    require_single(f, where)
    c = f.spectrum[0].real
    require_zero_mean(_add_constant(f, -c) if MEAN_TOL < abs(c) < np.inf else f, where)


def check_scheme(kind):
    """Refuse anything but a SchemeKind member."""
    if not isinstance(kind, SchemeKind):
        valid = ", ".join(k.value for k in SchemeKind)
        raise SchemeConfigError(f"unknown scheme {kind!r}; choose one of {valid}")


def check_positive(name, value):
    """Refuse a value that is not a positive finite number."""
    if not (math.isfinite(value) and value > 0):
        raise SchemeConfigError(f"{name} must be positive and finite, got {value}")


def check_step_count(name, tau, t_final):
    """Return the step count t_final/tau; refuse one above MAX_STEPS, or one
    that is not a positive whole number (within 1e-9)."""
    ratio = t_final / tau
    if ratio > MAX_STEPS:
        raise SchemeConfigError(
            f"{name} = {tau:g} takes {ratio:.3g} steps to t_final = {t_final:g}, "
            f"more than MAX_STEPS = {MAX_STEPS:.0e}"
        )
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9:
        raise SchemeConfigError(
            f"{name} = {tau:g} does not divide t_final = {t_final:g}: "
            f"t_final/{name} = {ratio!r} is not a positive integer step count"
        )
    return steps


@functools.cache
def _raise_malloc_thresholds():
    # numpy's real FFT kernels allocate scratch on each call of two or more
    # rows.  At N >= SCRATCH_N glibc hands it back to the system after the
    # call (96 minor faults per call at 2^14) until a larger mapped block is
    # freed: that raises glibc's dynamic mmap threshold to the block's size,
    # and its trim threshold to twice that.  This relies on that glibc
    # heuristic (1 MB too small, 2 MB enough); the 4 MB are never touched.
    np.empty(1 << 19)


class _Workspace:
    """The stepping state of B members, allocated once per run.

    Holds the scheme, the grid's transform pair, each member's Airy symbol
    and coefficients at its own tau, the members' spectra (B, N/2+1) and the
    stacks _update transforms in one call each (5 spectra, 4 and 3 rows of
    grid values, shaped (rows, B, .)).  No product broadcasts
    (numpy's iterator costs ~0.5 us, 3-4 KB): for B > 1 the coefficients have
    their operands' shapes, and B = 1 steps on views without the member axis.
    Every row, stack and view a step uses is bound here: a step slices nothing.
    """

    def __init__(self, kind, grid, taus):
        n = grid.n
        m = n // 2 + 1
        tau = np.reshape(taus, (-1, 1))  # a column, one row per member
        b = tau.shape[0]
        self.kind, self.n = kind, n
        if n >= SCRATCH_N:
            _raise_malloc_thresholds()
        k = {SchemeKind.LRI1: 2, SchemeKind.ELRI1: 3, SchemeKind.ELRI2: 4}[kind]
        s, a = np.empty((b, m), complex), grid.airy(tau[:, 0])
        spec = np.empty((5, b, m), complex)
        vals, prod = np.empty((4, b, n)), np.empty((3, b, n))
        self.members = s
        res = tau / 18.0 if kind is SchemeKind.ELRI1 else tau / 36.0
        if b == 1:  # a single run: no member axis, scalar coefficients
            s, a, spec, vals, prod = s[0], a[0], spec[:, 0], vals[:, 0], prod[:, 0]
            inv_ik, res, tau = grid.inv_ik, res[0, 0], tau[0, 0]
        else:  # operands of equal shapes, so that no product broadcasts
            inv_ik, tau = np.tile(grid.inv_ik, (b, 1)), tau[:, 0]
            res = np.broadcast_to(res, (k - 2, b, n)).copy()
        self.s, self.airy, self.inv_ik, self.prod = s, a, inv_ik, prod
        self.resonant, self.mass = res, tau / (12.0 * np.pi)
        self.rfft, self.irfft = grid.rfft, grid.irfft
        # spec rows: 0 the correction sum; from 1 the rows of the first irfft,
        # e^{-tau dx^3} dxinv u, dxinv u, then e^{-tau dx^3} u (ELRI2) and -u
        # (ELRI1, ELRI2); the first rfft writes d and h to rows 2..3, the last
        # q, cubic_ep and cubic to rows 2..4
        self.corr, self.ep, self.p, self.w = spec[:4]
        self.neg_u, self.rows, self.rows_v = spec[k], spec[1 : k + 1], vals[:k]
        self.d, self.h, self.dh, self.out3 = spec[2], spec[3], spec[2:4], spec[2:]
        self.q, self.cubic_ep, self.cubic = self.out3
        # prod rows: the 1/18 product, then the squares and cubes of the grid
        # values of e^{-tau dx^3} dxinv u and dxinv u (the 1/54 pair)
        self.pair_v, self.ep_v, self.v2 = vals[:2], vals[0], vals[1]
        self.g, self.squares = prod[0], prod[1:]
        # the resonant cubes, one stack: the grid rows -u (ELRI1) or
        # e^{-tau dx^3} u, -u (ELRI2), their squares in the free rows before
        # them (u^2 in row 1, which the mass term sums), and the cubic rows
        # of prod they are added to
        c = k - 2
        self.cube_v, self.cube_sq = vals[2:k], vals[2 - c : 2]
        self.cube_to = prod[3 - c :]
        real = (s, self.neg_u, self.d, self.q, self.ep, self.corr)
        self.s_f, self.neg_u_f, self.d_f, self.q_f, self.ep_f, self.corr_f = (
            x.view(float) for x in real
        )
        self.q0, self.ep_rows = self.q[..., :1], tuple(self.ep_f.reshape(b, -1))

    def load(self, spectrum):
        """Copy spectrum into members; return it."""
        np.copyto(self.members, spectrum)
        return self.members


def _update(ws):
    """Advance ws.s by one step of ws.kind, in place, at the tau of ws.airy.

    The linear part is s times the symbol, and s gains the sum of the
    correction terms.  Each cancelling pair is one difference, so every
    scheme is the exact identity at tau = 0.  Every array written is one of
    ws's, and each term keeps the operation order of its formula, so the bits
    do not depend on which buffer or stack row holds it.  No mean gate:
    the boundary checks the initial field once, and a diverging iterate must
    reach the non-finite check (BlowUpError), not trip the absolute mean gate.
    """
    kind, n, s, a, inv_ik = ws.kind, ws.n, ws.s, ws.airy, ws.inv_ik
    p = ws.p
    np.multiply(s, inv_ik, out=p)  # dxinv u
    np.multiply(p, a, out=ws.ep)  # e^{-tau dx^3} dxinv u
    if kind is not SchemeKind.LRI1:
        np.negative(ws.s_f, out=ws.neg_u_f)
    np.multiply(s, a, out=s)  # the linear part; s holds it from here on
    if kind is SchemeKind.ELRI2:
        np.copyto(ws.w, s)  # e^{-tau dx^3} u
    ws.irfft(ws.rows, ws.rows_v)
    # pseudo-spectral products on the full band (aliased by design)
    pair_v, squares, d, h, corr = ws.pair_v, ws.squares, ws.d, ws.h, ws.corr
    np.multiply(pair_v, pair_v, out=squares)
    # d = rfft(ep_v^2) - rfft(p_v^2) a
    ws.rfft(squares, ws.dh)
    np.subtract(d, np.multiply(h, a, out=h), out=d)
    np.multiply(ws.d_f, SIXTH, out=ws.corr_f)  # d / 6
    if kind is not SchemeKind.LRI1:
        # projected cubic pair, 1/18: one transform of the difference d
        g = ws.irfft(np.multiply(d, inv_ik, out=h), ws.g)
        np.multiply(ws.ep_v, g, out=g)
        # antiderivative cubic pair, 1/54; the resonant u^3 term (tau/18,
        # net tau/36 in ELRI2) rides in the p_v^3 transform, the ELRI2
        # (e^{-tau dx^3} u)^3 term in the ep_v^3 transform.  Both are one
        # stack over the grid rows (w,) -u: the sign of -u makes each an
        # addition of the resonant coefficient times a cube
        np.divide(np.multiply(pair_v, squares, out=squares), 54.0, out=squares)
        cube_v, cube_sq = ws.cube_v, ws.cube_sq
        np.multiply(cube_v, cube_v, out=cube_sq)
        mass = ws.mass * (TWO_PI * (np.add.reduce(ws.v2, -1) / n))  # one per member
        np.multiply(np.multiply(cube_sq, cube_v, out=cube_v), ws.resonant, out=cube_v)
        np.add(ws.cube_to, cube_v, out=ws.cube_to)
        # rows ep_v g, cubic_ep, cubic_p
        q, cubic = ws.q, ws.cubic
        ws.rfft(ws.prod, ws.out3)
        ws.q0.fill(0.0)  # zero-mean projection
        np.multiply(ws.q_f, EIGHTEENTH, out=ws.q_f)
        np.add(corr, q, out=corr)
        np.subtract(np.multiply(cubic, a, out=cubic), ws.cubic_ep, out=cubic)
        np.add(corr, np.multiply(cubic, inv_ik, out=cubic), out=corr)
        # mass term: (tau / 12 pi) e^{-tau dx^3} dxinv u * integral(u^2)
        if s.ndim == 1:
            np.multiply(ws.ep_f, mass, out=ws.ep_f)
        else:  # row by row: a product with a column of masses would broadcast
            for row, c in zip(ws.ep_rows, mass):
                np.multiply(row, c, out=row)
        np.add(corr, ws.ep, out=corr)
    np.add(s, corr, out=s)


def step(kind: SchemeKind, u: Field, tau: float) -> Field:
    """One step of kind from the real field u (_march shifts a real mean out);
    tau = 0 returns u exactly, and a non-finite result raises BlowUpError."""
    check_scheme(kind)
    require_real_field(u, f"{kind.value}_step")
    return _trajectory(_march(kind, u.grid, [tau], [1], u.spectrum)[0]).final


@dataclass
class SolverRun:
    """One time-integration job: scheme, step size, horizon, initial data.

    t_final/tau must be a whole step count (check_step_count gives n_steps),
    the initial field real, of any mean.  record_every = 0 keeps only the
    endpoints, k > 0 every k-th step plus both endpoints.
    """

    scheme: SchemeKind
    tau: float
    t_final: float
    initial: Field
    record_every: int = 0

    def __post_init__(self):
        check_scheme(self.scheme)
        require_real_field(self.initial, "SolverRun")
        check_positive("tau", self.tau)
        check_positive("t_final", self.t_final)
        self.n_steps = check_step_count("tau", self.tau, self.t_final)
        k = self.record_every
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise SchemeConfigError(f"record_every must be an integer >= 0, got {k!r}")


@dataclass
class Trajectory:
    """Recorded (t, Field) samples plus bookkeeping of one evolve or _march run."""

    samples: list = field(default_factory=list)
    n_steps: int = 0
    max_mean_drift: float = 0.0

    @property
    def final(self) -> Field:
        return self.samples[-1][1]


def evolve(run: SolverRun) -> Trajectory:
    """Apply the scheme t_final/tau times from the initial field.

    Raises BlowUpError (with the offending step index) as soon as a
    non-finite value appears; tracks the largest mode-0 drift seen.  The
    first sample is run.initial itself; _march handles a real mean.
    """
    u0 = run.initial
    traj = _trajectory(_march(run.scheme, u0.grid, [run.tau], [run.n_steps],
                              u0.spectrum, run.record_every)[0])
    traj.samples.insert(0, (0.0, u0))
    return traj


def _march(kind, grid, taus, counts, spectra, record_every=0):
    """Step row b of spectra (or the one spectrum) counts[b] times by taus[b],
    in lockstep below BATCH_MAX_N points, member by member from it up; return
    per member its Trajectory (samples after t = 0 at every record_every-th
    step and its last) or the BlowUpError of its first non-finite step.  A
    member leaves at its count or at that error, and the rest go on, with
    their bits, in a smaller workspace.  A member with a real mean c above
    MEAN_TOL steps u - c (its drift is that run's), and its samples are
    mapped back through translate(., c t) + c."""
    if grid.n >= BATCH_MAX_N and len(taus) > 1:
        rows = np.broadcast_to(spectra, (len(taus), grid.n // 2 + 1))
        return [_march(kind, grid, [t], [c], row, record_every)[0]
                for t, c, row in zip(taus, counts, rows)]
    live, ends = list(range(len(taus))), set(counts)
    samples, drift = [[] for _ in live], [0.0 for _ in live]
    # a diverging iterate overflows (an infinite tau's symbol is NaN) before
    # the isfinite check; the warnings would only duplicate BlowUpError's
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _Workspace(kind, grid, taus)
        s = ws.load(spectra)
        mode0 = s[:, 0]
        shift = [m.real if abs(m.real) > MEAN_TOL else 0.0 for m in mode0.tolist()]
        for b in np.flatnonzero(shift):
            s[b, 0] += -shift[b]
        mean0 = mode0.tolist()
        for n in range(1, max(counts) + 1):
            _update(ws)
            # a finite sum proves every entry finite; a non-finite one, which
            # finite entries also reach by overflow, is checked entry by entry
            blown = ()
            if not math.isfinite(np.add.reduce(ws.s_f, None)):
                blown = np.flatnonzero(~np.isfinite(s).all(axis=-1)).tolist()
            for b, z in zip(live, mode0.tolist()):
                drift[b] = max(drift[b], abs(z - mean0[b]))
            record = record_every and n % record_every == 0
            if not (record or blown or n in ends):
                continue
            stay = []
            for j, b in enumerate(live):
                if j in blown:  # it leaves with its error in place of samples
                    samples[b] = BlowUpError(
                        f"non-finite field after step {n} of {counts[b]} "
                        f"(t = {n * taus[b]:.6g}, scheme {kind.name})",
                        step=n,
                    )
                    continue
                if record or n == counts[b]:
                    samples[b].append((n * taus[b], Field.from_spectrum(grid, s[j])))
                if n < counts[b]:
                    stay.append(j)
            if not stay:
                break
            if len(stay) < len(live):
                live, kept = [live[j] for j in stay], s[stay]
                ws = s = mode0 = None  # free the larger workspace first
                ws = _Workspace(kind, grid, [taus[b] for b in live])
                s = ws.load(kept)
                mode0 = s[:, 0]
    return [run if isinstance(run, BlowUpError) else Trajectory(
        [(t, _add_constant(translate(f, c * t), c) if c else f) for t, f in run],
        count, d) for run, c, count, d in zip(samples, shift, counts, drift)]


def _trajectory(result):
    """The Trajectory of a _march member's result; raise it if a BlowUpError."""
    if isinstance(result, BlowUpError):
        raise result
    return result


def _add_constant(f, c):
    s = f.spectrum.copy()
    s[0] += c
    return Field.from_spectrum(f.grid, s)
