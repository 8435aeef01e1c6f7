"""Independent small-N reference computations behind the scheme algebra.

Everything here exists to falsify the production integrators if they are
wrong.  The embedded integral form of one time step is evaluated by exact
per-frequency-triple time integration (O(N^3) sums over the full discrete
band, its negative modes rebuilt by conjugate symmetry, with true integer
wavenumber sums, never folded); the integration-by-parts identities and the
quadratic Duhamel closed form are checked against Gauss-Legendre quadrature;
an unrelated integrating-factor RK4 provides a second route to reference
solutions on smooth data (verify's reference_cross_check_smooth).  On rough
data the two routes alias the product u^2 differently, so the RK4 cannot
judge the rough-data reference: that is ELRI2 at tau_ref alone.

The triple sums are cubic in N and guarded to N <= 32.  Their kernels depend
only on (N, t_n, tau) and are kept (lru_cache); each forms its mask first and
runs its phase algebra on the kept triples only, A and A_tilde in one pass
from one mask and one set of phase parts; at t_n = 0 the phase e^{-i t_n phi}
is exactly 1 and is neither formed nor multiplied.  A call scatters one field's
triple products (a stacked scatter measured six times slower than a row loop
at N = 32 and moved bits).  embedded_form_step is one variant of a shared
pass that forms the field's triple product, v + F/2 and the cascade sum once,
then each variant's correction from one gather; verify runs it per seed for
both variants, F from fn_closed_form of the seed stack.  The quadratures take
all nodes at once (exp_airy with one time per row), sum the weighted rows in
node order and cache Gauss-Legendre rules per node count, at most
MAX_QUADRATURE_NODES; the 64- and 128-node rules verify uses are leggauss's
bits stored in _gauss_legendre.bin, so verify imports no numpy.polynomial and
makes no LAPACK call.  fn_closed_form, fn_quadrature, check_ibp_identity_i
(TimeFields of a stack) and check_ibp_identity_ii also take a stack of fields
and give one value per row, each bit for bit its single-field call;
random_band_field takes an array of seeds, so verify's operator checks make
one call per (t_n, s), not one per seed.

Per-tuple identities hold on the grid only when products stay inside the
resolved band, so the random test fields produced here are band-limited
accordingly (|xi| <= (N/2 - 1) / degree for degree-fold products); the
production schemes form aliased grid products by design, and the two agree
exactly on such fields.
"""

from __future__ import annotations

import functools
import math
import pathlib
import time
from dataclasses import dataclass, field

import numpy as np

from .integrators import BlowUpError, SchemeKind, SolverRun, check_positive, evolve
from .integrators import _march, _raise_malloc_thresholds, _trajectory, check_step_count
from .integrators import require_zero_mean
from .rough_data import splitmix64_uniform
from .spectral import (
    Field,
    Grid,
    dx,
    exp_airy,
    integral,
    inv_dx,
    sobolev_distance,
    sobolev_norm,
)

MAX_ORACLE_N = 32

#: largest Gauss-Legendre rule the quadratures build; leggauss forms a dense
#: nodes x nodes companion matrix, 8 MB at this count
MAX_QUADRATURE_NODES = 1024

#: how many entries each oracle cache (triple kernels, quadrature rules) keeps;
#: an (A, A_tilde) pair holds two coefficient arrays, so the pair cache keeps
#: half as many, no more bytes than this many single kernels
ORACLE_CACHE_SIZE = 4


class CostGuardError(ValueError):
    """O(N^3) oracle asked to run at a grid size it refuses."""


def _guard_small(grid):
    if grid.n > MAX_ORACLE_N:
        raise CostGuardError(
            f"triple-sum oracle limited to N <= {MAX_ORACLE_N}, got N = {grid.n}"
        )


def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# ---------------------------------------------------------------------------
# resonance algebra


def alpha3(xi1: int, xi2: int) -> int:
    """Quadratic resonance 3*xi*xi1*xi2 with xi = xi1 + xi2.

    Equals xi^3 - xi1^3 - xi2^3 identically over the integers.
    """
    return 3 * (xi1 + xi2) * xi1 * xi2


def alpha4(xi1: int, xi2: int, xi3: int) -> int:
    """Cubic resonance 3(xi xi1 xi2 + xi xi1 xi3 + xi xi2 xi3 - xi1 xi2 xi3).

    Equals xi^3 - xi1^3 - xi2^3 - xi3^3 with xi = xi1 + xi2 + xi3.
    """
    xi = xi1 + xi2 + xi3
    return 3 * (xi * xi1 * xi2 + xi * xi1 * xi3 + xi * xi2 * xi3 - xi1 * xi2 * xi3)


# ---------------------------------------------------------------------------
# band-limited random fields (alias-safe inputs for per-tuple identities)


def alias_free_max_mode(n: int, degree: int) -> int:
    """Largest M so degree-fold products of |xi| <= M stay inside the band."""
    return (n // 2 - 1) // degree


def random_band_field(grid: Grid, max_mode: int, seed) -> Field:
    """Random real zero-mean field on 1 <= |xi| <= max_mode, L2 norm 1.

    Coefficients come from the SplitMix64 stream, so the field is a pure
    function of (grid.n, max_mode, seed).
    An array of seeds gives a stack, one row per seed.
    """
    if not 1 <= max_mode <= grid.n // 2 - 1:
        raise ValueError(f"max_mode must be in [1, {grid.n // 2 - 1}], got {max_mode}")
    draws = splitmix64_uniform(seed, 2 * max_mode)
    coeff = (2.0 * draws[..., 0::2] - 1.0) + 1j * (2.0 * draws[..., 1::2] - 1.0)
    spec = np.zeros(coeff.shape[:-1] + grid.wavenumbers.shape, dtype=np.complex128)
    spec[..., 1 : max_mode + 1] = 0.5 * coeff
    # each mode counts twice, for itself and its conjugate partner
    norm = np.sqrt(4.0 * np.pi * np.sum(np.abs(spec) ** 2, axis=-1, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("degenerate draw: zero field")
    spec /= norm
    return Field.from_spectrum(grid, spec)


# ---------------------------------------------------------------------------
# quadrature helpers


def gauss_legendre_nodes(a: float, b: float, nodes: int):
    """Gauss-Legendre points and weights on [a, b]."""
    if (not isinstance(nodes, (int, np.integer)) or isinstance(nodes, bool)
            or not 1 <= nodes <= MAX_QUADRATURE_NODES):
        raise ValueError(
            f"nodes must be an integer in [1, {MAX_QUADRATURE_NODES}], got {nodes!r}"
        )
    x, w = _legendre_rule(int(nodes))
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


#: node counts whose rules _gauss_legendre.bin holds, in file order
_STORED_NODES = (64, 128)


@functools.lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _legendre_rule(nodes):
    """Read-only Gauss-Legendre points and weights on [-1, 1].

    _gauss_legendre.bin holds leggauss's points then weights for each count of
    _STORED_NODES, as little-endian float64.  Regenerate it from the repository root:
      python -c "import numpy as np; np.concatenate([np.ravel(
        np.polynomial.legendre.leggauss(n)) for n in (64, 128)]).astype('<f8').tofile(
        'src/kdvlri/_gauss_legendre.bin')"
    """
    if nodes not in _STORED_NODES:
        return _frozen(*np.polynomial.legendre.leggauss(nodes))
    data = pathlib.Path(__file__).with_name("_gauss_legendre.bin").read_bytes()
    start = 2 * sum(_STORED_NODES[: _STORED_NODES.index(nodes)])
    rule = np.frombuffer(data, dtype="<f8", count=2 * nodes, offset=8 * start)
    x, w = rule.reshape(2, nodes)  # views of bytes: read-only
    return x, w


def _product(g, *fields):
    vals = fields[0].values.copy()
    for f in fields[1:]:
        vals = vals * f.values
    return Field.from_values(g, vals)


def _node_axis(ts, f):
    # node times shaped to lead f's stack axes: one time per node, every row
    return ts.reshape(ts.shape + (1,) * (f.spectrum.ndim - 1))


def _twisted_product(fields, t_abs):
    # spectrum of e^{t_abs dx^3} of the product of the e^{-t_abs dx^3} f
    moved = [exp_airy(f, t_abs) for f in fields]
    return exp_airy(_product(fields[0].grid, *moved), -t_abs).spectrum


# ---------------------------------------------------------------------------
# quadratic Duhamel integral: closed form and defining quadrature


def fn_closed_form(w: Field, t_n: float, s: float) -> Field:
    """Closed form of int_0^s e^{(t_n+r) dx^3} d_x (e^{-(t_n+r) dx^3} w)^2 dr.

    Equals (1/3) e^{(t_n+s) dx^3}(e^{-(t_n+s) dx^3} dxinv w)^2
         - (1/3) e^{t_n dx^3}(e^{-t_n dx^3} dxinv w)^2,
    where e^{+t dx^3} g = exp_airy(g, -t).
    """
    require_zero_mean(w, "fn_closed_form", stack=True)
    t_n, s = _finite("t_n", t_n), _finite("s", s)
    p = [inv_dx(w)] * 2
    rhs = (_twisted_product(p, t_n + s) - _twisted_product(p, t_n)) / 3.0
    return Field.from_spectrum(w.grid, rhs)


def fn_quadrature(w: Field, t_n: float, s: float, nodes: int = 64) -> Field:
    """Gauss-Legendre evaluation of the defining integral of fn_closed_form."""
    require_zero_mean(w, "fn_quadrature", stack=True)
    t_n, s = _finite("t_n", t_n), _finite("s", s)
    pts, wts = gauss_legendre_nodes(0.0, s, nodes)
    g = w.grid
    acc = np.zeros_like(w.spectrum)
    if s != 0.0:
        ts = _node_axis(t_n + pts, w)
        a = exp_airy(w, ts).values  # one row per node (and field)
        rows = exp_airy(dx(Field.from_values(g, a * a)), -ts).spectrum
        for wt, row in zip(wts, rows):
            acc += wt * row
    return Field.from_spectrum(g, acc)


# ---------------------------------------------------------------------------
# integration-by-parts identities


@dataclass
class TimeField:
    """Time-dependent field, or stack of fields, with an analytic d/dt.

    `at(t)` and `dt(t)` return Fields of f's shape, with a leading axis of
    times for an array of times; the identity checks need d/dt in closed
    form, so only families built this way are accepted.
    """

    at: object
    dt: object

    @classmethod
    def constant(cls, f: Field) -> "TimeField":
        return cls.modulated(f, 0.0)  # cos(0 t) = 1 exactly

    @classmethod
    def modulated(cls, f: Field, omega: float) -> "TimeField":
        """cos(omega t) * f, with derivative -omega sin(omega t) * f."""

        def scaled(c):
            return Field.from_spectrum(f.grid, np.multiply.outer(c, f.spectrum))

        return cls(
            at=lambda t: scaled(np.cos(omega * np.asarray(t))),
            dt=lambda t: scaled(-omega * np.sin(omega * np.asarray(t))),
        )


def check_ibp_identity_i(
    f: TimeField, g: TimeField, t_n: float, tau: float, nodes: int = 64
) -> float:
    """L2 residual of the quadratic integration-by-parts identity.

    int_0^tau e^{(t_n+t) dx^3} d_x(e^{-(t_n+t) dx^3} f(t) *
                                   e^{-(t_n+t) dx^3} g(t)) dt
      = (1/3) [boundary at t_n + tau] - (1/3) [boundary at t_n]
        - (1/3) int_0^tau e^{(t_n+t) dx^3}(dxinv-weighted d_t terms) dt,
    with boundary(s) = e^{s dx^3}(e^{-s dx^3} dxinv f * e^{-s dx^3} dxinv g).
    Both sides are evaluated by Gauss-Legendre quadrature in t.
    """
    t_n, tau = _finite("t_n", t_n), _finite("tau", tau)
    pts, wts = gauss_legendre_nodes(0.0, tau, nodes)
    f0 = f.at(0.0)
    grid, ts = f0.grid, _node_axis(t_n + pts, f0)
    # f, g, d_t f and d_t g at every node: one stack of shape (4, nodes, ..., N)
    h = Field.from_spectrum(grid, [q(pts).spectrum for q in (f.at, g.at, f.dt, g.dt)])

    lhs = np.zeros_like(h.spectrum[0, 0])
    a, b = exp_airy(Field.from_spectrum(grid, h.spectrum[:2]), ts).values  # f, g
    for wt, row in zip(wts, exp_airy(dx(Field.from_values(grid, a * b)), -ts).spectrum):
        lhs += wt * row

    end, start = ([inv_dx(q.at(t)) for q in (f, g)] for t in (tau, 0.0))
    rhs = (_twisted_product(end, t_n + tau) - _twisted_product(start, t_n)) / 3.0
    fa, ga, fd, gd = exp_airy(inv_dx(h), ts).values
    mixed = Field.from_values(grid, fd * ga + fa * gd)
    for wt, row in zip(wts, exp_airy(mixed, -ts).spectrum):
        rhs -= (wt / 3.0) * row

    return sobolev_norm(Field.from_spectrum(grid, lhs - rhs), 0.0)


def check_ibp_identity_ii(
    f1: Field, f2: Field, f3: Field, t_n: float, tau: float, nodes: int = 64
) -> float:
    """Absolute residual of the scalar cubic integration-by-parts identity.

    int_0^tau int_T e^{(t_n+t) dx^3} prod_j e^{-(t_n+t) dx^3} f_j dx dt
      = -(1/3) int_T prod_j e^{-t_{n+1} dx^3} dxinv f_j dx
        + (1/3) int_T prod_j e^{-t_n dx^3} dxinv f_j dx.
    """
    grid = f1.grid
    for f in (f1, f2, f3):
        require_zero_mean(f, "check_ibp_identity_ii", stack=True)
    t_n, tau = _finite("t_n", t_n), _finite("tau", tau)
    pts, wts = gauss_legendre_nodes(0.0, tau, nodes)
    ts = _node_axis(t_n + pts, f1)
    # the three factors, a node axis of length 1, then each factor's shape
    trio = Field.from_spectrum(grid, [[f.spectrum] for f in (f1, f2, f3)])
    v1, v2, v3 = exp_airy(trio, ts).values
    prod = Field.from_values(grid, v1 * v2 * v3)
    lhs = 0.0
    for wt, m in zip(wts, integral(exp_airy(prod, -ts))):
        lhs += wt * m

    def boundary(t_abs):
        p1, p2, p3 = exp_airy(inv_dx(trio), t_abs).values[:, 0]
        return integral(Field.from_values(grid, p1 * p2 * p3))

    rhs = (boundary(t_n) - boundary(t_n + tau)) / 3.0
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# exact per-triple time integrals of the cubic correction operators


def _band_mask(xi, n):
    return (xi >= -(n // 2)) & (xi <= n // 2 - 1)


def _phase_parts(phi_int, t_n, tau):
    # e^{-i t_n phi} and (1 - e^{-i tau phi}) / (i phi), the latter with phi = 1
    # in the denominator where phi = 0 (each caller takes its own branch there);
    # at t_n = 0 the first is exactly 1, so it is None and no caller multiplies it
    phi = phi_int.astype(np.float64)
    osc = (1.0 - np.exp(-1j * tau * phi)) / (1j * np.where(phi_int == 0, 1.0, phi))
    return (None if t_n == 0.0 else np.exp(-1j * t_n * phi)), osc


# Each "base * (osc - tau)" below stays one expression: numpy reuses a large
# temporary as the output, which swaps the operands, and numpy's complex
# product gives different bits for the two orders.


def _phase_J(phi_int, t_n, tau):
    # int_0^tau e^{-i (t_n + s) phi} ds, exact branch at phi = 0
    base, osc = _phase_parts(phi_int, t_n, tau)
    if base is None:
        return np.where(phi_int == 0, tau, osc)
    return np.where(phi_int == 0, tau * base, base * osc)


def _an_kernel_integrals(alpha_int, t_n, tau):
    # time integrals over [0, tau] of the two correction kernels, from one
    # pair of phase parts:
    #   A:       e^{-i(t_n+t) a} - e^{-i t_n a}
    #   A_tilde: (e^{-i t a} - 1 + (i tau a / 2) e^{-i t a}) e^{-i t_n a}
    base, osc = _phase_parts(alpha_int, t_n, tau)
    a = osc - tau if base is None else base * (osc - tau)
    a = np.where(alpha_int == 0, 0.0 + 0.0j, a)
    osc = (1.0 + 0.5j * tau * alpha_int) * osc
    a_tilde = osc - tau if base is None else base * (osc - tau)
    return a, np.where(alpha_int == 0, 0.0 + 0.0j, a_tilde)


def an_time_integral(
    f1: Field, f2: Field, f3: Field, t_n: float, tau: float, variant: str = "A"
) -> Field:
    """int_0^tau of the cubic correction operator, by exact triple sums.

    Fourier transform of the operator applied to (f1, f2, f3):
    0 at xi = 0, else (i xi)^{-1} sum over xi = xi1+xi2+xi3 of the phase
    kernel times f1hat(xi1) f2hat(xi2) f3hat(xi3); the time integral of the
    kernel is taken in closed form per triple (degenerate branch at
    alpha4 = 0 exact, no regularization).  Wavenumber sums are true integer
    sums; contributions leaving the band are dropped.
    """
    grid = f1.grid
    _guard_small(grid)
    for f in (f1, f2, f3):
        require_zero_mean(f, "an_time_integral")
    if variant not in ("A", "A_tilde"):
        raise ValueError(f"variant must be 'A' or 'A_tilde', got {variant!r}")
    t_n, tau = _finite("t_n", t_n), _finite("tau", tau)
    mask, coeff, target = _an_kernel(grid.n, t_n, tau, variant)
    w = _triple_product(f1, f2, f3)[mask]
    return Field.from_spectrum(grid, _scatter(grid.n, target, coeff * w))


def _triples(n):
    k = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)  # the full band, FFT order
    return k[:, None, None], k[None, :, None], k[None, None, :]


def _full_spectrum(f):
    """f's coefficients over the full band in FFT order (conjugate symmetry)."""
    return np.concatenate([f.spectrum, np.conj(f.spectrum[-2:0:-1])])


def _triple_product(f1, f2, f3):
    """f1hat(xi1) f2hat(xi2) f3hat(xi3) over the full band, shape (N, N, N)."""
    s1, s2, s3 = (_full_spectrum(f) for f in (f1, f2, f3))
    return s1[:, None, None] * s2[None, :, None] * s3[None, None, :]


def _scatter(n, target, terms):
    """Add each kept triple's term onto its mode xi1 + xi2 + xi3; modes 0..N/2."""
    out = np.zeros(n, dtype=np.complex128)
    np.add.at(out, target, terms)
    return out[: n // 2 + 1]


def _an_kernel(n, t_n, tau, variant):
    """(mask, coefficients, target modes) of an_time_integral, read-only."""
    mask, coeff_a, coeff_a_tilde, target = _an_kernels(n, t_n, tau)
    return mask, coeff_a if variant == "A" else coeff_a_tilde, target


@functools.lru_cache(maxsize=ORACLE_CACHE_SIZE // 2)
def _an_kernels(n, t_n, tau):
    """(mask, A and A_tilde coefficients, target modes), built in one pass."""
    k1, k2, k3 = _triples(n)
    xi = k1 + k2 + k3
    mask = _band_mask(xi, n) & (xi != 0)
    # all phase and coefficient algebra runs on the kept triples only
    k1, k2, k3 = (np.broadcast_to(k, mask.shape)[mask] for k in (k1, k2, k3))
    xi = k1 + k2 + k3
    alpha = xi**3 - k1**3 - k2**3 - k3**3
    del k1, k2, k3
    pair = _an_kernel_integrals(alpha, t_n, tau)
    inv_ixi = 1.0 / (1j * xi.astype(np.float64))
    return _frozen(mask, *(np.multiply(inv_ixi, k, out=k) for k in pair), xi % n)


def embedded_form_step(v: Field, t_n: float, tau: float, variant: str = "elri1") -> Field:
    """One step from the embedded integral form, by exact time integration.

    In the twisted variable the update is
      v_next = v + (1/2) I_quad + (1/2) I_cascade + (1/18) int_0^tau corr,
    where I_quad is the quadratic Duhamel integral (closed form
    fn_closed_form(v, t_n, tau)), I_cascade is the Duhamel integral of the
    product of v with the inner integral F_n(v, s) (computed per frequency
    triple with exact phase integrals), and corr is the A (elri1 variant) or
    A_tilde (elri2 variant) correction operator.  Returns the untwisted
    field e^{-(t_n+tau) dx^3} v_next, which for t_n = 0 must match
    step(SchemeKind.ELRI1 / ELRI2, v, tau).
    """
    _guard_small(v.grid)
    require_zero_mean(v, "embedded_form_step")
    variant = variant.lower()
    if variant not in ("elri1", "elri2"):
        raise ValueError(f"variant must be 'elri1' or 'elri2', got {variant!r}")
    t_n, tau = _finite("t_n", t_n), _finite("tau", tau)
    closed = fn_closed_form(v, t_n, tau).spectrum
    return _embedded_steps(v, closed, t_n, tau, (variant,))[0]


def _embedded_steps(v, closed, t_n, tau, variants):
    """embedded_form_step per variant, given fn_closed_form(v, t_n, tau).spectrum."""
    grid, n = v.grid, v.grid.n
    c_mask, c_coeff, c_target = _cascade_kernel(n, t_n, tau)  # no build beside w
    mask, coeff_a, coeff_a_tilde, target = _an_kernels(n, t_n, tau)
    w = _triple_product(v, v, v)  # the cascade and both corrections share it
    shared = v.spectrum + 0.5 * closed + _scatter(n, c_target, c_coeff * w[c_mask])
    w = w[mask]  # A and A_tilde keep the same triples
    steps = []
    for variant in variants:
        coeff = coeff_a if variant == "elri1" else coeff_a_tilde
        v_next = shared + _scatter(n, target, coeff * w) / 18.0
        steps.append(exp_airy(Field.from_spectrum(grid, v_next), t_n + tau))
    return steps


@functools.lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _cascade_kernel(n, t_n, tau):
    """(mask, coefficients, target modes) of the cascade sum, read-only."""
    k1, k2, k3 = _triples(n)
    mask = (k2 != 0) & (k3 != 0) & _band_mask(k1 + k2 + k3, n)
    # all phase and coefficient algebra runs on the kept triples only
    k1, k2, k3 = (np.broadcast_to(k, mask.shape)[mask] for k in (k1, k2, k3))
    eta = k2 + k3
    xi = k1 + eta
    beta = eta**3 - k2**3 - k3**3  # = 3 eta xi2 xi3
    mu = xi**3 - k1**3 - eta**3  # = 3 xi xi1 eta
    j_alpha = _phase_J(mu + beta, t_n, tau)
    j_mu = _phase_J(mu, t_n, tau)
    if t_n != 0.0:  # at t_n = 0, e^{-i t_n beta} is exactly 1
        j_mu = np.exp(-1j * t_n * beta.astype(np.float64)) * j_mu
    bracket = j_alpha - j_mu
    k2f, k3f = k2.astype(np.float64), k3.astype(np.float64)
    factor = (0.5j * xi.astype(np.float64)) / ((1j * k2f) * (1j * k3f) * 3.0)
    return _frozen(mask, factor * bracket, xi % n)


# ---------------------------------------------------------------------------
# independent reference integrator (integrating-factor RK4)


@np.errstate(over="ignore", invalid="ignore")  # a blow-up is a BlowUpError
def ifrk4_solve(u0: Field, t_final: float, tau: float) -> Field:
    """Classical RK4 on the twisted system d/dt w = (1/2) e^{t dx^3} d_x (e^{-t dx^3} w)^2.

    The integrating factor removes the stiff dispersive part exactly; the
    remaining system is non-stiff and the textbook RK4 applies.  Shares no
    algebra with the low-regularity schemes, which is the point: it serves
    as an independent reference route.  A non-finite iterate raises
    BlowUpError.
    """
    require_zero_mean(u0, "ifrk4_solve")
    check_positive("t_final", t_final)
    check_positive("tau", tau)
    steps = check_step_count("tau", tau, t_final)
    g = u0.grid

    def rhs(t, w_spec):
        uw = g.irfft(w_spec * g.airy(t))  # e^{-t dx^3} w, on the grid
        return 0.5 * (g.rfft(uw * uw) * g.ik * g.airy(-t))

    w = u0.spectrum.copy()
    for n in range(1, steps + 1):
        t = (n - 1) * tau
        r1 = rhs(t, w)
        r2 = rhs(t + 0.5 * tau, w + 0.5 * tau * r1)
        r3 = rhs(t + 0.5 * tau, w + 0.5 * tau * r2)
        r4 = rhs(t + tau, w + tau * r3)
        w = w + (tau / 6.0) * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        if not np.all(np.isfinite(w)):
            raise BlowUpError(f"ifrk4_solve blew up at step {n} of {steps}", step=n)
    return exp_airy(Field.from_spectrum(g, w), t_final)


#: how many reference_solution results the process keeps
REFERENCE_CACHE_SIZE = 4


def reference_solution(u0: Field, t_final: float, tau_ref: float) -> Field:
    """High-accuracy reference: ELRI2 at tau_ref.

    The last REFERENCE_CACHE_SIZE results are kept, keyed by N, the initial
    spectrum's bytes, t_final and tau_ref, so studies on the same data build
    their reference once (_reference.cache_clear() empties the cache).  A
    Field is immutable, so sharing one is safe.
    """
    require_zero_mean(u0, "reference_solution")
    return _reference(u0.grid.n, u0.spectrum.tobytes(), t_final, tau_ref)


@functools.lru_cache(maxsize=REFERENCE_CACHE_SIZE)
def _reference(n, spectrum, t_final, tau_ref):
    u0 = Field.from_spectrum(Grid(n), np.frombuffer(spectrum, dtype=np.complex128))
    return evolve(SolverRun(SchemeKind.ELRI2, tau_ref, t_final, u0)).final


# ---------------------------------------------------------------------------
# the verification suite behind the CLI `verify` subcommand


@dataclass
class CheckResult:
    check_name: str
    residual: float
    tolerance: float
    wall_s: float = field(default=0.0, compare=False)  # seconds, not in as_dict

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self):
        return {
            "check_name": self.check_name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _check_projection_identity():
    grid = Grid(64)
    f = random_band_field(grid, grid.n // 2 - 1, seed=10_000 + np.arange(1000))
    lhs = inv_dx(dx(f, 1))
    rhs = Field.from_spectrum(grid, f.spectrum * (grid.wavenumbers != 0))
    worst = np.max(sobolev_distance(lhs, rhs) / sobolev_norm(f, 0.0))
    return CheckResult("inv_dx_dx_equals_projection", float(worst), 1e-10)


def _check_airy_isometry():
    grid = Grid(64)
    seeds = np.arange(200)
    f = random_band_field(grid, grid.n // 2 - 1, seed=20_000 + seeds)
    moved = exp_airy(f, 10.0 * splitmix64_uniform(30_000 + seeds, 1)[:, 0] - 5.0)
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0, 2.0):
        a = sobolev_norm(f, gamma)
        worst = max(worst, np.max(np.abs(a - sobolev_norm(moved, gamma)) / a))
    return CheckResult("exp_airy_isometry", float(worst), 1e-12)


def _check_airy_group():
    # phase arguments reach |t| max|k|^3 ~ 1e5 here, so argument rounding
    # alone costs ~3e-12; the tolerance reflects that, not the isometry's
    grid = Grid(64)
    seeds = np.arange(100)
    f = random_band_field(grid, grid.n // 2 - 1, seed=40_000 + seeds)
    s, t = (4.0 * splitmix64_uniform(50_000 + seeds, 2) - 2.0).T
    once = exp_airy(f, s + t)
    twice = exp_airy(exp_airy(f, s), t)
    worst = np.max(sobolev_distance(once, twice) / sobolev_norm(f, 0.0))
    return CheckResult("exp_airy_group_action", float(worst), 1e-10)


def _check_ibp_i_constant():
    grid = Grid(16)
    mm = alias_free_max_mode(grid.n, 2)
    seeds = np.arange(10)
    f = TimeField.constant(random_band_field(grid, mm, seed=60_000 + seeds))
    g = TimeField.constant(random_band_field(grid, mm, seed=61_000 + seeds))
    worst = max(np.max(check_ibp_identity_i(f, g, t_n, 0.1)) for t_n in (0.0, 0.4))
    return CheckResult("ibp_identity_i_constant", float(worst), 1e-9)


def _check_ibp_i_modulated():
    grid = Grid(16)
    mm = alias_free_max_mode(grid.n, 2)
    seeds = np.arange(10)
    f = TimeField.modulated(random_band_field(grid, mm, seed=62_000 + seeds), 3.0)
    g = TimeField.modulated(random_band_field(grid, mm, seed=63_000 + seeds), 7.0)
    worst = np.max(check_ibp_identity_i(f, g, 0.3, 0.1, nodes=128))
    return CheckResult("ibp_identity_i_modulated", float(worst), 1e-8)


def _check_ibp_ii():
    grid = Grid(16)
    mm = alias_free_max_mode(grid.n, 3)
    seeds = 64_000 + 3 * np.arange(10)
    fs = [random_band_field(grid, mm, seed=seeds + j) for j in range(3)]
    worst = np.max(check_ibp_identity_ii(*fs, 0.2, 0.1))
    return CheckResult("ibp_identity_ii_cubic", float(worst), 1e-9)


def _check_fn_quadrature():
    grid = Grid(16)
    mm = alias_free_max_mode(grid.n, 2)
    w = random_band_field(grid, mm, seed=66_000 + np.arange(10))
    worst = max(
        np.max(sobolev_distance(fn_closed_form(w, t_n, s), fn_quadrature(w, t_n, s)))
        for t_n in (0.0, 0.7)
        for s in (0.01, 0.05)
    )
    return CheckResult("fn_closed_form_vs_quadrature", float(worst), 1e-10)


def _random_int_triples(count, seed):
    # uniform integers in -40..40
    draws = splitmix64_uniform(seed, 3 * count)
    return ((draws * 81).astype(np.int64) - 40).reshape(count, 3)


def _check_alpha_identities():
    x1, x2, x3 = _random_int_triples(10_000, seed=5).T
    xs = x1 + x2 + x3
    mismatches = np.count_nonzero(alpha3(x1, x2) != (x1 + x2) ** 3 - x1**3 - x2**3)
    mismatches += np.count_nonzero(alpha4(x1, x2, x3) != xs**3 - x1**3 - x2**3 - x3**3)
    return CheckResult("alpha3_alpha4_integer_identities", float(mismatches), 0.0)


def _check_symmetrization():
    # 1/x1 + 1/x2 + 1/x3 = alpha4/(3 xi x1 x2 x3) + 1/xi, xi = x1 + x2 + x3,
    # times 3 xi x1 x2 x3 != 0; with |x_j| <= 40 every int64 term stays below
    # 2.4e7, so it is exact
    x1, x2, x3 = _random_int_triples(10_000, seed=6).T
    xi = x1 + x2 + x3
    valid = (x1 != 0) & (x2 != 0) & (x3 != 0) & (xi != 0)
    if np.count_nonzero(valid) < 1000:
        raise RuntimeError("symmetrization check drew too few valid triples")
    x1, x2, x3, xi = x1[valid], x2[valid], x3[valid], xi[valid]
    lhs = 3 * xi * (x1 * x2 + x1 * x3 + x2 * x3)
    rhs = alpha4(x1, x2, x3) + 3 * x1 * x2 * x3
    mismatches = np.count_nonzero(lhs != rhs)
    return CheckResult("multiplier_symmetrization_exact", float(mismatches), 0.0)


def _check_an_difference():
    t_n, tau, worst = 0.3, 0.05, 0.0
    for n in (8, 16):
        grid = Grid(n)
        mm = alias_free_max_mode(n, 3)
        for seed in 70_000 + 10 * np.arange(5):
            fs = [random_band_field(grid, mm, seed=seed + j) for j in range(3)]
            lhs = (
                an_time_integral(*fs, t_n, tau, variant="A_tilde").spectrum
                - an_time_integral(*fs, t_n, tau, variant="A").spectrum
            )

            def boundary(t_abs):
                prod = _product(grid, *(exp_airy(f, t_abs) for f in fs))
                return exp_airy(inv_dx(prod), -t_abs).spectrum

            rhs = 0.5 * tau * (boundary(t_n) - boundary(t_n + tau))
            worst = max(worst, sobolev_norm(Field.from_spectrum(grid, lhs - rhs), 0.0))
    return CheckResult("an_tilde_minus_an_boundary_terms", worst, 1e-12)


def _check_embedded_equivalence():
    # one oracle pass per seed serves both variants, one _march the ten seeds;
    # tau stays outermost (N outside it would keep both taus' N = 32 kernels,
    # +0.6 MB peak RSS); the peak is the N = 32 cascade build, with no w alive
    kinds = (SchemeKind.ELRI1, SchemeKind.ELRI2)
    names = [k.value for k in kinds]
    results = [CheckResult(f"embedded_form_matches_{k}", 0.0, 1e-10) for k in names]
    for tau in (0.01, 0.05):
        for n in (8, 16, 32):
            grid = Grid(n)
            mm = alias_free_max_mode(n, 3)
            vs = random_band_field(grid, mm, seed=80_000 + np.arange(10))
            closed = fn_closed_form(vs, 0.0, tau).spectrum
            oracles = zip(*(
                _embedded_steps(Field.from_spectrum(grid, v), c, 0.0, tau, names)
                for v, c in zip(vs.spectrum, closed)
            ))
            # each result times its own part; verification_suite splits the rest
            for r, kind, oracle in zip(results, kinds, oracles):
                start = time.perf_counter()
                runs = _march(kind, grid, [tau] * 10, [1] * 10, vs.spectrum)
                finals = [_trajectory(x).final.spectrum for x in runs]
                direct = Field.from_spectrum(grid, finals)
                oracle = Field.from_spectrum(grid, [o.spectrum for o in oracle])
                num = sobolev_distance(direct, oracle)
                r.residual = max(r.residual, float(np.max(num / sobolev_norm(direct))))
                r.wall_s += time.perf_counter() - start
    return results


def _check_reference_cross():
    # ELRI2 at tau_ref against the RK4 at a tenth of its steps, within 10x the
    # ELRI2 error Richardson-estimated from a 2 tau_ref run stepped beside it
    grid = Grid(64)
    u0 = Field.from_values(grid, np.cos(grid.x))
    t_final, steps = 0.25, 500
    tau_ref = t_final / steps  # 5e-4
    runs = _march(SchemeKind.ELRI2, grid, [tau_ref, 2 * tau_ref],
                  [steps, steps // 2], u0.spectrum)
    fine, coarse = (_trajectory(x).final for x in runs)
    est = sobolev_distance(fine, coarse) / 3.0
    other = ifrk4_solve(u0, t_final, t_final / (steps // 10))  # step 5e-3
    disagreement = sobolev_distance(fine, other)
    bound = 10.0 * max(est, 1e-13 * max(sobolev_norm(fine, 0.0), 1.0))
    return CheckResult("reference_cross_check_smooth", disagreement, bound)


def verification_suite():
    """Run every oracle/identity check; CheckResults with their wall times."""
    _raise_malloc_thresholds()  # the IBP node stacks then reuse heap pages
    results = []
    for check in (
        _check_projection_identity,
        _check_airy_isometry,
        _check_airy_group,
        _check_ibp_i_constant,
        _check_ibp_i_modulated,
        _check_ibp_ii,
        _check_fn_quadrature,
        _check_alpha_identities,
        _check_symmetrization,
        _check_an_difference,
        _check_embedded_equivalence,
        _check_reference_cross,
    ):
        start = time.perf_counter()
        out = check()
        out = [out] if isinstance(out, CheckResult) else out
        # time that no result took as its own is split evenly: the times add up
        spare = (time.perf_counter() - start - sum(r.wall_s for r in out)) / len(out)
        for r in out:
            r.wall_s += spare
        results.extend(out)
    return results
