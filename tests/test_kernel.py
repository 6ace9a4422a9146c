"""Lattice kernel: symbol, normalization constant, table, convolution."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import gamma, ive

import lattice_choquard
from lattice_choquard import (
    DomainError,
    Field,
    KernelTable,
    LatticeSpec,
    build_table,
    convolve,
    dense_operator,
    fractional_degree,
)
from lattice_choquard import kernel
from reference import (
    canonical_representatives,
    k_alpha_midpoint,
    kernel_matrix_by_differences,
    random_field,
)

# Adaptive-quadrature oracle values (QAWS algebraic-endpoint rule on the
# stable 4 sin^2(k/2) form of the symbol), frozen from an independent
# computation.  dim=1, alpha=0.5.
ORACLE_K_HALF = 1.0787052023767583
ORACLE_R = {0: 1.2732395447351625, 3: 0.24803367754581082, 10: 0.13606458019472528}


def test_normalization_closed_form_one_dim():
    # (1/2pi) int (2 - 2cos k)^s dk = Gamma(1+2s) / Gamma(1+s)^2, the
    # central binomial moment; with s = alpha/2 this is an exact oracle
    # for the normalization constant in one dimension.  Small alpha puts
    # the most weight on the Hankel tail of the subordination integral.
    for alpha in (0.001, 0.05, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0, 1.5):
        exact = gamma(1.0 + alpha) / gamma(1.0 + alpha / 2.0) ** 2
        got = fractional_degree(1, alpha)
        assert got == pytest.approx(exact, rel=1e-13)


def test_normalization_four_over_pi():
    assert fractional_degree(1, 1.0) == pytest.approx(4.0 / np.pi, rel=1e-8)


def test_normalization_small_alpha_limit():
    assert fractional_degree(1, 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_normalization_matches_adaptive_quadrature():
    assert fractional_degree(1, 0.5) == pytest.approx(ORACLE_K_HALF, rel=1e-12)


# (dim, alpha, midpoint points per axis); s = alpha/2 close to ceil(s)
# (alpha = 1.99, 2.999) needs the head term below t = e^{-40}, and
# alpha = 2.0 is the exact moment E_1(0)
K_ALPHA_CASES = (
    [(2, a, 512) for a in (0.01, 0.5, 1.0, 1.5, 1.99)]
    + [(3, a, 64) for a in (0.01, 0.5, 1.0, 1.5, 1.99, 2.0, 2.01, 2.5, 2.9, 2.999)]
    + [(4, a, 48) for a in (1.0, 3.0)]
)


@pytest.mark.parametrize("dim,alpha,quad_points", K_ALPHA_CASES)
def test_normalization_matches_midpoint_oracle(dim, alpha, quad_points):
    expected = k_alpha_midpoint(dim, alpha, quad_points)
    assert fractional_degree(dim, alpha) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_normalization_integer_moments(dim):
    # mu = sum_j (2 - 2 cos k_j) has mean 2N and second moment 4N^2 + 2N
    assert fractional_degree(dim, 2.0) == 2 * dim
    assert fractional_degree(dim, 4.0) == 4 * dim**2 + 2 * dim


@pytest.mark.parametrize("d", [0, 3, 10])
def test_kernel_matches_adaptive_quadrature(d, table_1d):
    got = table_1d.values[16 + d]
    assert got == pytest.approx(ORACLE_R[d], rel=1e-12)


def closed_form_1d(alpha, reach):
    # R(n) = K Gamma(1-a) Gamma(n+a/2) / (Gamma(a/2) Gamma(1-a/2) Gamma(n+1-a/2))
    # with K = Gamma(1+a) / Gamma(1+a/2)^2 (Ciaurri et al., Adv. Math. 330,
    # 2018), by the ratio R(n+1) / R(n) = (n+a/2) / (n+1-a/2) from n = 0
    k = gamma(1.0 + alpha) / gamma(1.0 + alpha / 2.0) ** 2
    r0 = k * gamma(1.0 - alpha) / gamma(1.0 - alpha / 2.0) ** 2
    n = np.arange(reach)
    ratios = (n + alpha / 2.0) / (n + 1.0 - alpha / 2.0)
    return r0 * np.concatenate([[1.0], np.cumprod(ratios)])


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("radius", [8, 64])
def test_table_matches_closed_form_one_dim(alpha, radius):
    table = build_table(LatticeSpec(1, radius), alpha)
    exact = closed_form_1d(alpha, 2 * radius)
    got = table.values[2 * radius :]
    assert float(np.max(np.abs(got - exact) / exact)) <= 1e-12
    assert table.error_estimate <= 1e-12


def test_table_3d_positive_with_small_error_estimate():
    table = build_table(LatticeSpec(3, 10), 1.5)
    assert np.all(np.isfinite(table.values))
    assert np.all(table.values > 0)
    assert table.error_estimate <= 1e-12


def test_parameter_errors():
    with pytest.raises(ValueError, match="alpha"):
        build_table(LatticeSpec(1, 2), 1.0)  # alpha = N: non-integrable
    with pytest.raises(ValueError):
        build_table(LatticeSpec(1, 2), -0.5)
    with pytest.raises(ValueError):
        fractional_degree(1, 0.0)


@pytest.mark.parametrize("dim,alpha", [(1, 0.5), (2, 1.0)])
def test_self_convergence(dim, alpha):
    # the main rule against the error estimate's coarser one (panels 0.5
    # wider in log t, the Hankel tail from a ten times smaller t)
    main = fractional_degree(dim, alpha)
    coarse = kernel._k_alpha(dim, alpha, kernel._K_T_MAX / 10.0, kernel._PANEL + 0.5)
    assert abs(coarse - main) <= 1e-13 * main


@pytest.mark.parametrize("reach", [12, 64])
def test_heat_rows_match_bessel(reach):
    # p_t(n) = e^{-2t} I_n(2t) by the method of images and, on steep rows,
    # by ratio recurrence, against scipy's Bessel function over every node
    # range the table's integral uses: to roundoff of p_t(0), and to 1e-13
    # relative on each entry that is not flushed to zero
    t_max = kernel._t_max(reach)
    t = np.exp(np.linspace(-40.0, np.log(t_max), 400))
    rows = kernel._heat(t, reach)
    exact = ive(np.arange(reach + 1), 2.0 * t[:, None])
    err = np.abs(rows - exact)
    assert np.all(err <= 1e-14 * exact[:, :1])
    kept = exact > 1e-90
    assert np.all(err[kept] <= 1e-13 * exact[kept])


def test_fast_len_matches_scipy():
    for n in range(1, 2001):
        assert kernel._fast_len(n) == next_fast_len(n, True), n


def test_canonical_representative_counts():
    assert len(canonical_representatives(1, 8)) == 17  # |d| in 0..16
    # sorted nonnegative pairs with entries in 0..4
    assert len(canonical_representatives(2, 2)) == 15


def entry(table, d):
    """The table entry R(d), indexed by d + 2r per axis."""
    return table.values[tuple(c + 2 * table.radius for c in d)]


def direct(table, w):
    """The quadratic-cost reference sum R * w, by the oracle's gathered matrix."""
    return kernel_matrix_by_differences(table) @ w.values


@pytest.fixture(scope="module")
def table_1d():
    return build_table(LatticeSpec(1, 8), 0.5)


@pytest.fixture(scope="module")
def table_2d():
    return build_table(LatticeSpec(2, 3), 1.0)


def test_table_positive_finite(table_1d, table_2d):
    for table in (table_1d, table_2d):
        assert table.k_alpha > 0
        assert np.all(np.isfinite(table.values))
        assert np.all(table.values > 0)
        assert table.error_estimate <= 1e-12


def test_table_symmetries(table_2d):
    # sign flips reuse the same contraction and are literally equal;
    # axis permutations re-contract and agree to roundoff
    for d in [(1, 2), (3, 0), (2, 2)]:
        base = entry(table_2d, d)
        assert entry(table_2d, (-d[0], -d[1])) == base
        assert entry(table_2d, (d[0], -d[1])) == base
        assert entry(table_2d, (d[1], d[0])) == pytest.approx(base, rel=1e-12)


def test_table_doubling_stability(table_1d):
    # an entry does not depend on the box it was built for: the radius-16
    # table holds the radius-8 one in its middle
    doubled = build_table(LatticeSpec(1, 16), 0.5).values[16:-16]
    rel = np.abs(doubled - table_1d.values) / np.abs(doubled)
    assert float(np.max(rel)) <= 1e-13


def test_kernel_decay_along_axis():
    table = build_table(LatticeSpec(2, 10), 1.0)
    vals = [entry(table, (t, 0)) for t in range(1, 21)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_convolve_delta_reproduces_kernel(table_1d):
    spec = LatticeSpec(1, 8)
    conv = convolve(table_1d, Field.delta(spec))
    for x, value in zip(spec.coordinate_array().tolist(), conv.values):
        assert value == pytest.approx(entry(table_1d, x), rel=1e-12)


@pytest.mark.parametrize("fixture", ["table_1d", "table_2d"])
def test_convolve_fft_equals_direct(fixture, request):
    table = request.getfixturevalue(fixture)
    spec = LatticeSpec(table.dim, table.radius)
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = random_field(spec, rng)
        fast = convolve(table, w).values
        slow = direct(table, w)
        denom = max(float(np.max(np.abs(slow))), 1e-300)
        assert float(np.max(np.abs(fast - slow))) / denom <= 1e-10


@pytest.mark.parametrize("fixture", ["table_1d", "table_2d"])
def test_convolve_cached_spectrum_is_bitwise_stable(fixture, request):
    # the operator convolve uses (here the dense matrix) is computed once
    # per table; repeated calls and a call on a fresh copy of the table give
    # the same bits
    table = request.getfixturevalue(fixture)
    spec = LatticeSpec(table.dim, table.radius)
    rng = np.random.default_rng(23)
    for _ in range(3):
        w = random_field(spec, rng)
        first = convolve(table, w).values
        again = convolve(table, w).values
        fresh = convolve(dataclasses.replace(table), w).values
        assert first.tobytes() == again.tobytes() == fresh.tobytes()
        slow = direct(table, w)
        err = float(np.max(np.abs(first - slow)))
        assert err <= 1e-12 * float(np.max(np.abs(slow)))


def corner_field(spec: LatticeSpec, rng) -> Field:
    # mass on the 2^N box corners, whose wrap-around images would land
    # inside the window first if the transform were too short
    vals = np.zeros(spec.site_count)
    r = spec.radius
    for corner in np.ndindex(*(2,) * spec.dim):
        site = tuple(r if c else -r for c in corner)
        vals[spec.index_of(site)] = rng.uniform(0.5, 2.0)
    return Field(spec, vals)


def unsymmetric_table(dim: int, radius: int, rng) -> KernelTable:
    # a random table makes any wrap-around or flipped index show
    return KernelTable(dim, radius, 1.0, 1.0, rng.uniform(0.1, 1.0, (4 * radius + 1,) * dim))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("radius", [1, 2, 3, 6])
def test_convolve_alias_free_transform_size(dim, radius):
    rng = np.random.default_rng([dim, radius])
    spec = LatticeSpec(dim, radius)
    table = unsymmetric_table(dim, radius, rng)
    fields = [random_field(spec, rng), random_field(spec, rng)]
    fields += [corner_field(spec, rng), corner_field(spec, rng)]
    for w in fields:
        fast = kernel._fft_convolve(table, w.grid()).reshape(-1)
        slow = direct(table, w)
        err = float(np.max(np.abs(fast - slow)))
        assert err <= 1e-12 * float(np.max(np.abs(slow)))
    fshape, _ = table._spectrum
    assert fshape == (next_fast_len(4 * radius + 1, True),) * dim
    if radius in (1, 2, 6):
        assert fshape == (4 * radius + 1,) * dim


@pytest.mark.parametrize("dim,radius", [(1, 8), (2, 3), (3, 2)])
def test_stacked_fft_rows_equal_single_field_convolve(dim, radius):
    # one transform over a stack of 7 fields gives each row the bits of a
    # single-field transform
    spec = LatticeSpec(dim, radius)
    table = build_table(spec, 0.5)
    rng = np.random.default_rng([dim, radius, 7])
    stack = rng.standard_normal((7, *spec.shape))
    rows = kernel._fft_convolve(table, stack)
    assert rows.shape == stack.shape
    for grid, row in zip(stack, rows):
        w = Field(spec, grid.reshape(-1))
        assert row.tobytes() == kernel._fft_convolve(table, grid).tobytes()
        slow = direct(table, w)
        err = float(np.max(np.abs(row.reshape(-1) - slow)))
        assert err <= 1e-12 * float(np.max(np.abs(slow)))


@pytest.mark.parametrize(
    "dim,radius,heights", [(1, 3, (1025,)), (2, 6, (27,)), (2, 32, (3,)), (3, 3, (7,)), (3, 6, (3, 8))]
)
def test_pruned_chunked_convolve_matches_full_window(dim, radius, heights):
    # the pruned inverse, on a single field and on stacks taller than one
    # transform's share, gives the bits of irfftn over the whole grid in one
    # transform, cut to the window
    from reference import full_window_convolve

    spec = LatticeSpec(dim, radius)
    rng = np.random.default_rng([dim, radius])
    table = KernelTable(dim, radius, 1.0, 1.0, rng.uniform(0.1, 1.0, (4 * radius + 1,) * dim))
    size = kernel._stack_size(table)
    assert all(m > size for m in heights)
    for shape in [spec.shape] + [(m, *spec.shape) for m in heights]:
        grids = rng.standard_normal(shape)
        fast, full = kernel._fft_convolve(table, grids), full_window_convolve(table, grids)
        assert fast.shape == full.shape == shape
        assert fast.tobytes() == full.tobytes()


@pytest.mark.parametrize("dim,radius", [(1, 8), (1, 64), (2, 3), (2, 6), (3, 2), (3, 3)])
def test_dense_path_matches_gather_oracle_and_fft(dim, radius):
    # the dense matrix is the oracle's gather by coordinate differences to
    # the bit; the dense path and the pruned FFT both agree with the
    # oracle's product to 1e-14 of max |R * w|
    rng = np.random.default_rng([dim, radius, 14])
    spec = LatticeSpec(dim, radius)
    table = unsymmetric_table(dim, radius, rng)
    oracle = kernel_matrix_by_differences(table)
    assert dense_operator(table).tobytes() == oracle.tobytes()
    assert oracle.nbytes <= kernel._DENSE_BYTES
    fields = [random_field(spec, rng), corner_field(spec, rng)]
    fields += [Field(spec, rng.standard_normal(spec.site_count))]
    for w in fields:
        slow = oracle @ w.values
        bound = 1e-14 * float(np.max(np.abs(slow)))
        fast = kernel._fft_convolve(table, w.grid()).reshape(-1)
        assert float(np.max(np.abs(convolve(table, w).values - slow))) <= bound
        assert float(np.max(np.abs(fast - slow))) <= bound


@pytest.mark.parametrize("dim,radius", [(1, 3), (2, 6), (3, 3)])
def test_dense_stack_rows_equal_single_field_convolve(dim, radius):
    # the dense path multiplies a stack one row at a time, so every row of a
    # stack (contiguous, an offset view into a taller stack, or a view
    # into wider rows) gets the bits of its field convolved alone
    spec = LatticeSpec(dim, radius)
    table = build_table(spec, 0.5)
    n = spec.site_count
    assert 8 * n * n <= kernel._DENSE_BYTES
    rng = np.random.default_rng([dim, radius, 8])
    for height in (1, 5, 8):
        tall = rng.standard_normal((height + 2, n))
        wide = rng.standard_normal((height, n + 3))
        for stack in (tall[:height].copy(), tall[1 : height + 1], tall[2:], wide[:, 3:]):
            rows = convolve(table, Field(spec, stack)).values
            assert rows.shape == stack.shape
            for row, values in zip(rows, stack):
                alone = convolve(table, Field(spec, values.copy())).values
                assert row.tobytes() == alone.tobytes()


def test_gauss_legendre_rule_is_leggauss():
    # the stored half rule, mirrored, is numpy's 20-point rule to the bit
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(20)
    assert kernel._GL_NODES.tobytes() == nodes.tobytes()
    assert kernel._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_convolve_positivity(table_2d):
    spec = LatticeSpec(2, 3)
    rng = np.random.default_rng(2)
    w = Field(spec, np.abs(rng.standard_normal(spec.site_count)))
    assert np.all(convolve(table_2d, w).values >= 0)


def test_convolve_linearity(table_1d):
    spec = LatticeSpec(1, 8)
    rng = np.random.default_rng(4)
    w1, w2 = random_field(spec, rng), random_field(spec, rng)
    a, b = 2.5, -1.25
    lhs = convolve(table_1d, Field(spec, a * w1.values + b * w2.values)).values
    rhs = a * convolve(table_1d, w1).values + b * convolve(table_1d, w2).values
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_convolve_self_adjoint(table_2d):
    spec = LatticeSpec(2, 3)
    rng = np.random.default_rng(6)
    w1, w2 = random_field(spec, rng), random_field(spec, rng)
    lhs = float(np.dot(convolve(table_2d, w1).values, w2.values))
    rhs = float(np.dot(w1.values, convolve(table_2d, w2).values))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_convolve_spec_mismatch(table_1d):
    with pytest.raises(DomainError):
        convolve(table_1d, Field.delta(LatticeSpec(1, 5)))


def test_dense_operator_matches_convolve(table_2d):
    spec = LatticeSpec(2, 3)
    rng = np.random.default_rng(8)
    w = random_field(spec, rng)
    mat = dense_operator(table_2d)
    assert mat.shape == (spec.site_count, spec.site_count)
    assert np.allclose(mat, mat.T, atol=1e-14)
    assert np.allclose(mat @ w.values, convolve(table_2d, w).values)


def test_kernel_csv_dump(tmp_path, table_1d):
    path = tmp_path / "kernel.csv"
    table_1d.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")  # JSON metadata comment
    data = lines[1:]
    assert len(data) == 4 * 8 + 1  # rows "d_1,value" over -2r..2r
    d0 = dict((int(r.split(",")[0]), float(r.split(",")[1])) for r in data)
    assert d0[0] == pytest.approx(entry(table_1d, (0,)))
    assert d0[5] == d0[-5]


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about a second of import time; convolve runs on
    # numpy.fft
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    code = "import sys, lattice_choquard; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.stdout.split() == [b"False"], out.stderr


def test_import_does_not_load_numpy_polynomial():
    # numpy.polynomial costs about 0.7 MB and 4 ms of import; the kernel
    # stores its Gauss-Legendre rule and convolves the Hankel series itself
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    code = "import sys, lattice_choquard; print('numpy.polynomial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.stdout.split() == [b"False"], out.stderr
