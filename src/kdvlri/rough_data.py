"""Deterministic random initial data with prescribed Sobolev regularity.

The construction: draw N uniform samples U_j in [0, 1), take the discrete
Fourier transform, apply the smoothing multiplier |l|^(-theta) (and 0 at
l = 0, which removes the mean), transform back and normalize by the grid
max-absolute-value.  The result is real, has mode-0 coefficient exactly 0,
satisfies max_j |u(x_j)| = 1, and its coefficients decay like |l|^(-theta),
i.e. the field sits in H^s for s < theta + 1/2 uniformly in N.

Randomness comes from SplitMix64, chosen because its three-line update rule
is easy to document and reproduce bit-for-bit in any language:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    z = z XOR (z >> 31)
    uniform = (z >> 11) * 2^-53          # float64 in [0, 1)

The i-th state is seed + i * 0x9E3779B97F4A7C15 mod 2^64, so the stream
vectorizes.  Same (n_points, theta, seed) always yields the same Field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Field, Grid, check_grid_size

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@dataclass(frozen=True)
class RoughSpec:
    """Parameters for generate_rough: grid size, decay exponent, seed."""

    n_points: int
    theta: float
    seed: int = 42

    def __post_init__(self):
        check_grid_size(self.n_points)
        if not 0 <= self.theta < np.inf:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


def splitmix64_uniform(seed, count: int) -> np.ndarray:
    """First `count` uniforms in [0, 1) of each seed's SplitMix64 stream (last axis)."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    state = np.asarray(seed, dtype=np.uint64)[..., None] + steps
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def generate_rough(spec: RoughSpec) -> Field:
    """Rough field |d_x|^(-theta) U / max|.|, a pure function of the RoughSpec.

    The multiplier zeroes mode 0, so the output mean is exactly zero; the
    normalization makes the largest grid value 1 in magnitude.
    """
    grid = Grid(spec.n_points)
    noise = splitmix64_uniform(spec.seed, spec.n_points)
    noise_hat = Field.from_values(grid, noise).spectrum
    mult = np.zeros(grid.wavenumbers.size)
    mult[1:] = grid.wavenumbers[1:] ** (-spec.theta)
    shaped = noise_hat * mult
    values = Field.from_spectrum(grid, shaped).values
    peak = np.max(np.abs(values))
    if peak == 0.0:
        raise ValueError("degenerate draw: field is identically zero")
    return Field.from_spectrum(grid, shaped / peak)
