"""Embedded exponential-type low-regularity integrators for KdV on the torus.

The library solves u_t + u_xxx = (1/2) (u^2)_x on (0, 2*pi) with periodic
boundary conditions by Fourier pseudo-spectral discretization in space and
exponential-type stepping in time.  step(kind, u, tau) steps one of three
schemes: a classical first-order low-regularity integrator (LRI1) and two
embedded variants (ELRI1, ELRI2), first/second order accurate for much
rougher initial data.  `oracles` re-derives one step of each embedded scheme
by exact per-frequency-triple time integration; `studies` reproduces the
convergence-order experiments; the `kdvlri` console script fronts both.
"""

from .spectral import (
    Field,
    Grid,
    dx,
    exp_airy,
    integral,
    inv_dx,
    mean_value,
    project_zero_mean,
    read_field,
    sobolev_norm,
    translate,
    write_field,
)
from .rough_data import RoughSpec, generate_rough, splitmix64_uniform
from .integrators import (
    BlowUpError,
    SchemeConfigError,
    SchemeKind,
    SolverRun,
    Trajectory,
    evolve,
    step,
)
from .oracles import (
    CheckResult,
    CostGuardError,
    an_time_integral,
    embedded_form_step,
    fn_closed_form,
    fn_quadrature,
    ifrk4_solve,
    reference_solution,
    verification_suite,
)
from .studies import (
    ConvergenceReport,
    FitDataError,
    StudyConfig,
    emit_report,
    estimate_order,
    parse_report_csv,
    render_report,
    run_convergence_study,
    run_local_error_study,
    smooth_test_data,
)

__version__ = "0.1.0"
