"""Deterministic rough-data generator: stream KATs, invariants, decay."""

import numpy as np
import pytest

from kdvlri.rough_data import RoughSpec, generate_rough, splitmix64_uniform
from kdvlri.spectral import sobolev_norm

# frozen known answers for the SplitMix64 uniform stream
KAT_SEED0 = [
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
]
KAT_SEED42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
]


def splitmix64_scalar(seed, count):
    # straight transcription of the documented update rule, one value at a time
    out = []
    state = seed
    mask = (1 << 64) - 1
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0**-53)
    return np.array(out)


def test_splitmix64_known_answers():
    assert list(splitmix64_uniform(0, 4)) == KAT_SEED0
    assert list(splitmix64_uniform(42, 4)) == KAT_SEED42


def test_splitmix64_matches_scalar_reference():
    for seed in (0, 1, 42, 2**63 + 17):
        assert np.array_equal(splitmix64_uniform(seed, 64), splitmix64_scalar(seed, 64))


def test_splitmix64_range_and_spread():
    u = splitmix64_uniform(7, 4096)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_rough_spec_validation():
    with pytest.raises(ValueError):
        RoughSpec(3, 1.0)
    with pytest.raises(ValueError):
        RoughSpec(7, 1.0)
    with pytest.raises(ValueError, match="grid size n = 1073741824 must be even"):
        RoughSpec(2**30, 1.0)  # above MAX_GRID_N, refused before any draw
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="theta"):
            RoughSpec(64, bad)
    with pytest.raises(ValueError):
        RoughSpec(64, 1.0, seed=2**64)
    with pytest.raises(ValueError):
        RoughSpec(64, 1.0, seed=-1)


@pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), True, "2", None])
def test_rough_spec_seed_must_be_an_integer(bad):
    # 2.5 once gave seed 2's field, bit for bit
    with pytest.raises(ValueError) as err:
        RoughSpec(32, 2.0, bad)
    assert str(err.value) == f"seed must be an integer, got {bad!r}"


def test_generate_rough_is_deterministic():
    a = generate_rough(RoughSpec(128, 2.0, seed=42))
    b = generate_rough(RoughSpec(128, 2.0, seed=42))
    assert a.values.tobytes() == b.values.tobytes()
    c = generate_rough(RoughSpec(128, 2.0, seed=43))
    assert not np.array_equal(a.values, c.values)
    for seed in (np.int64(42), np.uint64(42), np.int32(42)):  # numpy integers too
        same = generate_rough(RoughSpec(128, 2.0, seed))
        assert same.values.tobytes() == a.values.tobytes()


def test_generate_rough_invariants():
    for theta in (0.0, 1.0, 2.5):
        f = generate_rough(RoughSpec(256, theta, seed=5))
        assert f.spectrum[0] == 0.0  # mean removed exactly
        assert abs(np.max(np.abs(f.values)) - 1.0) < 1e-12
        assert f.spectrum[-1].imag == 0.0  # the Nyquist mode of real values


def test_generate_rough_decay_envelope():
    # |uhat(l)| <= C |l|^(-theta); the constant stays O(1) for these draws
    for theta in (1.0, 2.0, 3.0):
        for seed in (1, 7, 42):
            f = generate_rough(RoughSpec(256, theta, seed))
            k = np.abs(f.grid.wavenumbers).astype(float)
            env = np.abs(f.spectrum[1:]) * k[1:] ** theta
            assert np.max(env) < 5.0


def test_generate_rough_band_decay():
    # dyadic-band averages of |uhat| fall with frequency for a rough draw
    f = generate_rough(RoughSpec(1024, 2.0, seed=42))
    k = np.abs(f.grid.wavenumbers)
    mags = np.abs(f.spectrum)
    band_means = []
    for j in range(2, 9):
        sel = (k >= 2**j) & (k < 2 ** (j + 1))
        band_means.append(mags[sel].mean())
    assert all(b < a for a, b in zip(band_means, band_means[1:]))


def test_roughness_scales_with_theta():
    # growth of the H^3.5 norm under refinement separates theta = 2 from 3:
    # smaller theta means rougher data and a faster-growing supercritical norm
    ratio = {}
    for theta in (2.0, 3.0):
        coarse = sobolev_norm(generate_rough(RoughSpec(2**10, theta)), 3.5)
        fine = sobolev_norm(generate_rough(RoughSpec(2**12, theta)), 3.5)
        ratio[theta] = fine / coarse
    assert ratio[2.0] > 1.5
    assert ratio[2.0] > 2.0 * ratio[3.0]
