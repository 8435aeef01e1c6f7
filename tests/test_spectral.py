"""Grid and Field basics, multiplier operators, norms, serialization."""

import ast
import pathlib
import re

import numpy as np
import pytest

from kdvlri import spectral
from kdvlri.rough_data import RoughSpec, generate_rough
from kdvlri.spectral import (
    MAX_GRID_N,
    Field,
    Grid,
    dx,
    exp_airy,
    integral,
    inv_dx,
    mean_value,
    project_zero_mean,
    read_field,
    sobolev_distance,
    sobolev_norm,
    translate,
    write_field,
)

TWO_PI = 2.0 * np.pi


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field.from_values(grid, rng.standard_normal(grid.n))


def l2_diff(a, b):
    return sobolev_norm(Field.from_spectrum(a.grid, a.spectrum - b.spectrum), 0.0)


# ---------------------------------------------------------------------------
# grid and field construction


def test_grid_rejects_bad_sizes():
    for bad in (0, 2, 3, 7, -8):
        with pytest.raises(ValueError):
            Grid(bad)


def test_grid_wavenumbers_are_modes_zero_to_nyquist():
    g = Grid(8)
    assert list(g.wavenumbers) == [0, 1, 2, 3, 4]
    assert g.nyquist_index == 4
    for arr in (g.ik, g.inv_ik, g.airy(0.3), g.airy([0.1, 0.2])[1]):
        assert arr.shape == (5,)
    assert g.x[0] == 0.0
    assert np.allclose(np.diff(g.x), TWO_PI / 8)


def test_field_shape_mismatch():
    g = Grid(8)
    with pytest.raises(ValueError):
        Field.from_values(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field.from_spectrum(g, np.zeros(8, dtype=complex))  # the full band
    with pytest.raises(ValueError):
        Field(g)
    # both representations, unchecked against each other (these two disagree)
    with pytest.raises(ValueError, match="not both"):
        Field(g, values=np.zeros(8), spectrum=[0, 1, 0, 0, 0])
    # complex values are refused, not cast to their real part
    with pytest.raises(ValueError, match="values must be real, got dtype complex128"):
        Field.from_values(g, np.ones(8) + 1j)


def test_grid_size_is_capped_before_any_allocation():
    # a grid at the cap would allocate about 1 GB, so only refusals are run
    for n in (MAX_GRID_N + 2, 100_000_000_000):
        with pytest.raises(ValueError, match=f"grid size n = {n} "):
            Grid(n)


def test_field_holds_a_stack_and_checks_only_the_last_axis():
    g = Grid(8)
    f = Field.from_values(g, np.zeros((3, 8)))
    assert f.spectrum.shape == (3, 5)
    for bad in (np.zeros((3, 7)), np.zeros((8, 3)), np.float64(0.0)):
        with pytest.raises(ValueError, match="does not match grid n=8"):
            Field.from_values(g, bad)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_write_field_refuses_a_stack(tmp_path, fmt):
    path = tmp_path / "u"
    stack = Field.from_values(Grid(8), np.zeros((2, 8)))
    with pytest.raises(ValueError, match=r"needs one field of shape \(8,\), got \(2, 8\)"):
        write_field(stack, path, fmt=fmt)
    assert not path.exists()


def test_field_arrays_read_only():
    g = Grid(8)
    f = random_field(g, 0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(ValueError):
        f.spectrum[0] = 1.0


def test_dft_normalization_matches_continuous_coefficients():
    # uhat(xi) = (1/N) sum u(x_j) e^{-i xi x_j}: cos(kx) -> 1/2 at +-k
    g = Grid(32)
    for k in (1, 2, 5):
        s = Field.from_values(g, np.cos(k * g.x)).spectrum
        assert abs(s[k] - 0.5) < 1e-14
        others = np.delete(s, k)
        assert np.max(np.abs(others)) < 1e-14


def test_values_spectrum_round_trip():
    g = Grid(64)
    for seed in range(20):
        f = random_field(g, seed)
        back = Field.from_spectrum(g, f.spectrum)
        assert np.max(np.abs(back.values - f.values)) < 1e-13


def test_spectrum_is_the_nonnegative_half_of_the_complex_fft():
    # the modes 0..N/2 a real field's complex FFT holds; the rest are their
    # conjugates, so they carry nothing the half spectrum does not
    for n in (8, 32, 1024):
        g = Grid(n)
        for seed in range(5):
            f = random_field(g, seed)
            full = np.fft.fft(f.values) / n
            assert np.max(np.abs(f.spectrum - full[: n // 2 + 1])) < 1e-15
            assert np.max(np.abs(full[: n // 2 : -1] - np.conj(full[1 : n // 2]))) < 1e-15
            assert f.spectrum[0].imag == f.spectrum[-1].imag == 0.0


@pytest.mark.parametrize("n", [8, 64, 1024, 2**14])
def test_grid_transform_pair_is_np_fft_bit_for_bit(n):
    # Grid.rfft/irfft call numpy's private pocketfft kernels directly; this
    # pins them to the public np.fft.rfft/irfft with norm="forward", for one
    # row and for stacks, into a fresh array and into a view of a larger one
    g = Grid(n)
    m = n // 2 + 1
    rng = np.random.default_rng(n)
    for rows in ((), (1,), (2,), (3,), (4,)):
        x = rng.standard_normal(rows + (n,))
        # nonzero imaginary parts at modes 0 and N/2, which neither inverse reads
        h = rng.standard_normal(rows + (m,)) + 1j * rng.standard_normal(rows + (m,))
        want_s = np.fft.rfft(x, norm="forward")
        want_v = np.fft.irfft(h, n, norm="forward")
        h_real_ends = h.copy()
        h_real_ends[..., [0, -1]] = h_real_ends[..., [0, -1]].real
        assert np.fft.irfft(h_real_ends, n, norm="forward").tobytes() == want_v.tobytes()
        for into in (False, True):
            out_s = np.empty((2,) + want_s.shape, complex)[1] if into else None
            out_v = np.empty((2,) + want_v.shape)[1] if into else None
            got_s, got_v = g.rfft(x, out_s), g.irfft(h, out_v)
            if into:
                assert got_s is out_s and got_v is out_v
            assert got_s.shape == want_s.shape and got_s.dtype == want_s.dtype
            assert got_v.shape == want_v.shape and got_v.dtype == want_v.dtype
            assert got_s.tobytes() == want_s.tobytes()
            assert got_v.tobytes() == want_v.tobytes()
            assert g.irfft(h_real_ends, out_v).tobytes() == want_v.tobytes()


def test_only_spectral_reaches_the_fft_kernels():
    # Grid.rfft/irfft are the package's one transform pair: no module calls an
    # np.fft transform, and no module but spectral names the kernels it calls
    transforms = {"fft", "ifft", "rfft", "irfft"}
    src = pathlib.Path(spectral.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert "spectral.py" in {p.name for p in modules} and len(modules) > 1
    for path in modules:
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in transforms:
                assert not (
                    isinstance(node.value, ast.Attribute) and node.value.attr == "fft"
                ), f"{path.name}:{node.lineno} calls an np.fft transform"
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "numpy.fft"
            ):
                names = {a.name for a in node.names}
                assert path.name == "spectral.py" or not names & transforms, (
                    f"{path.name}:{node.lineno} imports {names & transforms}"
                )
        if path.name != "spectral.py":
            found = re.findall(r"\bfft\.i?r?fft\b|_pocketfft_umath", text)
            assert not found, f"{path.name} names {found}"


# ---------------------------------------------------------------------------
# multiplier operators


def test_dx_of_cosine():
    g = Grid(32)
    d = dx(Field.from_values(g, np.cos(g.x)), 1)
    assert np.max(np.abs(d.values - (-np.sin(g.x)))) < 1e-13


def test_dx_orders():
    g = Grid(32)
    f = Field.from_values(g, np.sin(2.0 * g.x))
    # second derivative: -4 sin(2x); third: -8 cos(2x)
    assert np.max(np.abs(dx(f, 2).values + 4.0 * np.sin(2.0 * g.x))) < 1e-12
    assert np.max(np.abs(dx(f, 3).values + 8.0 * np.cos(2.0 * g.x))) < 1e-12


def test_odd_dx_zeroes_nyquist():
    g = Grid(8)
    spec = np.zeros(5, dtype=complex)
    spec[g.nyquist_index] = 1.0
    f = Field.from_spectrum(g, spec)
    assert np.max(np.abs(dx(f, 1).spectrum)) == 0.0
    assert np.max(np.abs(dx(f, 3).spectrum)) == 0.0
    # even order keeps it
    assert abs(dx(f, 2).spectrum[g.nyquist_index] + 16.0) < 1e-14


def test_inv_dx_of_cosine_is_sine():
    g = Grid(32)
    p = inv_dx(Field.from_values(g, np.cos(g.x)))
    assert np.max(np.abs(p.values - np.sin(g.x))) < 1e-13


def test_inv_dx_dx_is_zero_mean_projection():
    g = Grid(64)
    for seed in range(50):
        f = random_field(g, seed)
        lhs = inv_dx(dx(f, 1))
        rhs = project_zero_mean(f)
        # the Nyquist mode is zeroed by the odd multiplier, exclude it
        diff = lhs.spectrum - rhs.spectrum
        diff = np.delete(diff, g.nyquist_index)
        assert np.max(np.abs(diff)) < 1e-13


def test_exp_airy_single_mode_phase():
    # e^{-t dx^3} cos(2x) = cos(2x + 8t)
    g = Grid(32)
    t = 0.37
    out = exp_airy(Field.from_values(g, np.cos(2.0 * g.x)), t)
    assert np.max(np.abs(out.values - np.cos(2.0 * g.x + 8.0 * t))) < 1e-13


def test_exp_airy_is_isometry_and_invertible():
    g = Grid(64)
    for seed in range(20):
        f = random_field(g, seed)
        t = 0.1 + 0.3 * seed
        out = exp_airy(f, t)
        for gamma in (0.0, 1.0, 2.5):
            a, b = sobolev_norm(out, gamma), sobolev_norm(f, gamma)
            assert abs(a - b) / b < 1e-12
        back = exp_airy(out, -t)
        assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_exp_airy_group_law():
    g = Grid(32)
    f = random_field(g, 3)
    once = exp_airy(f, 0.7)
    twice = exp_airy(exp_airy(f, 0.3), 0.4)
    assert l2_diff(once, twice) < 1e-12


def test_exp_airy_keeps_fields_real_with_nyquist_content():
    g = Grid(16)
    rng = np.random.default_rng(5)
    f = Field.from_values(g, rng.standard_normal(g.n))
    assert abs(f.spectrum[g.nyquist_index]) > 1e-3  # content actually there
    out = exp_airy(f, 0.9)
    # dropped phase means the mode passes through unchanged, and real
    assert out.spectrum[g.nyquist_index] == f.spectrum[g.nyquist_index]


def test_translate_shifts_left_argument():
    g = Grid(64)
    a = 0.8
    out = translate(Field.from_values(g, np.cos(g.x) + 0.2 * np.sin(3 * g.x)), a)
    expected = np.cos(g.x + a) + 0.2 * np.sin(3 * (g.x + a))
    assert np.max(np.abs(out.values - expected)) < 1e-13


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_multipliers_are_bitwise_the_explicit_nyquist_formulas(n):
    # each multiplier written out with its own Nyquist patch, as the operators
    # built them before Grid held the one zeroed copy of the wavenumbers
    g = Grid(n)
    k = np.arange(n // 2 + 1).astype(np.float64)
    ik = 1j * k
    ik[-1] = 0.0
    inv_ik = np.zeros_like(ik)
    inv_ik[1:-1] = 1.0 / ik[1:-1]
    k3 = k**3
    k3[-1] = 0.0
    assert g.ik.tobytes() == ik.tobytes()
    assert g.inv_ik.tobytes() == inv_ik.tobytes()
    for t in (0.3, -1.7, 0.0, [0.1, -2.5]):
        airy = np.exp(1j * np.asarray(t)[..., None] * k3)
        assert g.airy(t).tobytes() == airy.tobytes()
    f = random_field(g, n)
    for a in (0.3, -1.7, 0.0, TWO_PI / n):
        sym = np.exp(1j * (k * a))
        sym[n // 2] = 1.0
        assert translate(f, a).spectrum.tobytes() == (f.spectrum * sym).tobytes()
    for order in range(2, 6):
        sym = (1j * k) ** order
        if order % 2:
            sym[n // 2] = 0.0
        assert dx(f, order).spectrum.tobytes() == (f.spectrum * sym).tobytes()


def test_translate_keeps_the_nyquist_coefficient():
    g = Grid(16)
    spec = random_field(g, 5).spectrum.copy()
    spec[g.nyquist_index] = 0.7 - 0.2j
    f = Field.from_spectrum(g, spec)
    for a in (-0.3, -1.7, -TWO_PI / g.n, -100.0, 0.3):
        assert translate(f, a).spectrum[g.nyquist_index] == spec[g.nyquist_index]


def test_translate_by_grid_spacing_rolls_values():
    g = Grid(16)
    spec = random_field(g, 9).spectrum.copy()
    spec[g.nyquist_index] = 0.0  # translate drops the Nyquist phase, keep it out
    f = Field.from_spectrum(g, spec)
    h = TWO_PI / g.n
    out = translate(f, h)
    # f(x + h) shifts every sample one node to the left
    assert np.max(np.abs(out.values - np.roll(f.values, -1))) < 1e-12


def test_project_zero_mean():
    g = Grid(16)
    f = Field.from_values(g, 2.5 + np.cos(g.x))
    p = project_zero_mean(f)
    assert abs(mean_value(p)) < 1e-15
    assert np.max(np.abs(p.values - np.cos(g.x))) < 1e-13


# ---------------------------------------------------------------------------
# norms and integrals


def test_sobolev_norm_closed_forms():
    g = Grid(32)
    sin1 = Field.from_values(g, np.sin(g.x))
    cos1 = Field.from_values(g, np.cos(g.x))
    assert abs(sobolev_norm(sin1, 0.0) - np.sqrt(np.pi)) < 1e-13
    assert abs(sobolev_norm(cos1, 1.0) - np.sqrt(TWO_PI)) < 1e-13


def test_sobolev_norm_monotone_in_gamma():
    g = Grid(64)
    f = random_field(g, 11)
    norms = [sobolev_norm(f, gamma) for gamma in (0.0, 0.5, 1.0, 2.0)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_sobolev_norm_counts_each_paired_mode_twice(n):
    # against the sum over all N coefficients of the complex FFT, Nyquist
    # included, for a stack of white-noise fields and for each of its rows
    g = Grid(n)
    values = np.random.default_rng(n).standard_normal((3, n))
    full = np.fft.fft(values) / n
    assert np.all(np.abs(full[:, n // 2]) > 1e-3 / n)  # Nyquist content
    k = np.fft.fftfreq(n, 1.0 / n)
    stack = Field.from_values(g, values)
    for gamma in (0.0, 0.5, 1.0, 2.0):
        want = np.sqrt(TWO_PI * np.sum((1 + k * k) ** gamma * np.abs(full) ** 2, axis=-1))
        got = sobolev_norm(stack, gamma)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)
        assert list(got) == [sobolev_norm(Field.from_values(g, v), gamma) for v in values]


def test_sobolev_distance_is_norm_of_difference():
    g = Grid(64)
    a, b = random_field(g, 12), random_field(g, 13)
    for gamma in (0.0, 1.0):
        diff = Field.from_values(g, a.values - b.values)
        expected = sobolev_norm(diff, gamma)
        assert abs(sobolev_distance(a, b, gamma) - expected) < 1e-12 * expected
        assert sobolev_distance(a, b, gamma) == sobolev_distance(b, a, gamma)
    assert sobolev_distance(a, a) == 0.0
    assert sobolev_distance(a, b) == sobolev_distance(a, b, 0.0)


def test_integral_matches_parseval():
    g = Grid(64)
    for seed in range(10):
        f = random_field(g, seed)
        sq = Field.from_values(g, f.values**2)
        assert abs(integral(sq) - sobolev_norm(f, 0.0) ** 2) < 1e-11


def test_integral_and_mean_of_constants():
    g = Grid(16)
    one = Field.from_values(g, np.ones(g.n))
    assert abs(integral(one) - TWO_PI) < 1e-14
    assert abs(mean_value(one) - 1.0) < 1e-15
    assert abs(integral(Field.from_values(g, np.cos(g.x)))) < 1e-14


# ---------------------------------------------------------------------------
# serialization


def test_csv_round_trip_is_exact(tmp_path):
    g = Grid(32)
    f = random_field(g, 21)
    path = tmp_path / "f.csv"
    write_field(f, path, fmt="csv")
    text = path.read_text()
    assert text.startswith("# n=32 length=6.283185307179586\n")
    assert text.endswith("\n")
    back = read_field(path)
    # 17 significant digits round-trip float64 exactly
    assert np.array_equal(back.values, f.values)


def per_value_csv_bytes(f):
    """The field CSV writer as it was, one format call per value."""
    lines = [f"# n={f.grid.n} length={TWO_PI!r}"]
    lines.extend(format(v, ".17g") for v in f.values)
    return ("\n".join(lines) + "\n").encode()


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e308, -2.5, 0.1, 1.0 / 3.0, -1e-300]


@pytest.mark.parametrize(
    "field",
    [
        generate_rough(RoughSpec(64, 2.0, 42)),
        generate_rough(RoughSpec(2**14, 3.0, 42)),
        # 0.1 and 1/3 need all 17 significant digits to round-trip
        Field.from_values(Grid(len(EDGE_VALUES)), EDGE_VALUES),
    ],
    ids=["rough-64", "rough-16384", "edge-values"],
)
def test_csv_writer_bytes_match_the_per_value_writer(tmp_path, field):
    path = tmp_path / "f.csv"
    write_field(field, path, fmt="csv")
    assert path.read_bytes() == per_value_csv_bytes(field)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0\n1.0\n")
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("# n=8 length=1.0\n" + "0.0\n" * 8)
    with pytest.raises(ValueError):
        read_field(path)
    path.write_text("# n=8 length=6.283185307179586\n" + "0.0\n" * 5)
    with pytest.raises(ValueError):
        read_field(path)


def test_binary_round_trip_bit_exact(tmp_path):
    g = Grid(64)
    f = random_field(g, 22)
    path = tmp_path / "f.bin"
    write_field(f, path, fmt="bin")
    raw = path.read_bytes()
    assert raw[:4] == b"KDVF"
    assert len(raw) == 16 + 8 * g.n
    back = read_field(path)
    assert back.values.tobytes() == f.values.tobytes()


def test_read_field_sniffs_format(tmp_path):
    g = Grid(16)
    f = random_field(g, 23)
    write_field(f, tmp_path / "a.csv", fmt="csv")
    write_field(f, tmp_path / "a.bin", fmt="bin")
    assert np.array_equal(read_field(tmp_path / "a.csv").values, f.values)
    assert np.array_equal(read_field(tmp_path / "a.bin").values, f.values)
    for fmt in ("xyz", "binary"):  # the writer offers "bin" only
        with pytest.raises(ValueError, match=f"unknown field format '{fmt}'"):
            write_field(f, tmp_path / "a.xyz", fmt=fmt)
    assert not (tmp_path / "a.xyz").exists()


def test_binary_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.bin"
    # without the magic bytes a file is read as CSV, and has no CSV header
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="missing field header"):
        read_field(path)
    path.write_bytes(b"KDVF" + b"\x00" * 11)  # one byte short of a header
    with pytest.raises(ValueError, match="truncated header"):
        read_field(path)
    g = Grid(16)
    write_field(random_field(g, 1), path, fmt="bin")
    path.write_bytes(path.read_bytes()[:-8])  # drop one value
    with pytest.raises(ValueError, match="expected 144 bytes, got 136"):
        read_field(path)
    values = np.cos(g.x)
    values[3] = np.inf
    write_field(Field.from_values(g, values), path, fmt="bin")
    with pytest.raises(ValueError, match="non-finite value inf at index 3"):
        read_field(path)
