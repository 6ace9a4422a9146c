"""Fiber polynomials, projection onto the constraint set, golden search."""

import dataclasses
import re

import numpy as np
import pytest

from lattice_choquard import (
    ConstantPotential,
    FiberCoefficients,
    Field,
    LatticeSpec,
    ModelSpec,
    ModelViolationError,
    SumOfPowers,
    convolve,
    fiber_coefficients,
    h_norm,
    h_norm_pow,
    make_context,
    project_su,
)
from conftest import make_model
from lattice_choquard.nehari import _phi_root
from reference import (
    bisection_phi_root,
    energy_J,
    fiber_max_golden,
    fiber_phi,
    golden_max,
    m_inverse,
    psi_grad_pairing,
    random_field,
)


@pytest.fixture(scope="module")
def ctx():
    return make_context(make_model(1, 5, 2.0, 0.5, 4.0))


@pytest.fixture(scope="module")
def ctx_p3():
    return make_context(make_model(1, 5, 3.0, 0.5, 4.0))


def closed_form_su(ctx_, u):
    # phi(s) = s^p A - (a^2/q) B s^{2q} for a single power (a, q), with
    # A = ||u||^p and B the doubly weighted convolution sum; the unique
    # positive root is (q A / (a^2 B))^{1/(2q - p)}
    ((a, q),) = ctx_.model.nonlinearity.terms
    p = ctx_.model.p
    A = h_norm_pow(ctx_, u)
    pow_q = Field(ctx_.spec, np.abs(u.values) ** q)
    B = float(np.dot(convolve(ctx_.table, pow_q).values, pow_q.values))
    return (q * A / (a**2 * B)) ** (1.0 / (2.0 * q - p))


@pytest.mark.parametrize("fixture", ["ctx", "ctx_p3"])
def test_projection_matches_closed_form(fixture, request):
    ctx_ = request.getfixturevalue(fixture)
    rng = np.random.default_rng(1)
    for _ in range(10):
        u = random_field(ctx_.spec, rng)
        s, coeffs = project_su(ctx_, u)
        assert s == pytest.approx(closed_form_su(ctx_, u), rel=1e-10)
        assert coeffs.norm_pow == h_norm_pow(ctx_, u)  # the evaluation of u itself


def test_projection_lands_on_constraint_set(ctx):
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_field(ctx.spec, rng)
        s, _ = project_su(ctx, u)
        w = Field(ctx.spec, s * u.values)
        residual = fiber_coefficients(ctx, w).phi(1.0)
        assert abs(residual) <= 1e-8 * max(1.0, h_norm_pow(ctx, w))


def test_projection_matches_golden_section(ctx):
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = random_field(ctx.spec, rng)
        s_root, _ = project_su(ctx, u)
        s_gold, val = fiber_max_golden(ctx, u, rel_tol=1e-10)
        assert s_gold == pytest.approx(s_root, rel=1e-6)
        assert val == pytest.approx(energy_J(ctx, Field(ctx.spec, s_root * u.values)))
        # on a grid centred at s_u the fiber energy peaks at s_u, where phi
        # changes sign
        coeffs = fiber_coefficients(ctx, u)
        grid = np.geomspace(s_root / 4.0, 4.0 * s_root, 41)
        energies, phis = coeffs.energy(grid), coeffs.phi(grid)
        assert int(np.argmax(energies)) == 20
        assert phis[0] > 0 and phis[19] > 0 > phis[21] and phis[-1] < 0


def test_projection_scale_invariance(ctx):
    rng = np.random.default_rng(4)
    u = random_field(ctx.spec, rng)
    s1, _ = project_su(ctx, u)
    s3, _ = project_su(ctx, Field(ctx.spec, 3.0 * u.values))
    assert s3 == pytest.approx(s1 / 3.0, rel=1e-9)
    assert np.allclose(s3 * (3.0 * u.values), s1 * u.values, rtol=1e-9, atol=1e-12)


def test_projection_rejects_zero_field(ctx):
    with pytest.raises(ValueError):
        project_su(ctx, Field(ctx.spec, np.zeros(ctx.spec.site_count)))


def test_fiber_phi_is_the_constraint_along_the_ray(ctx_p3):
    rng = np.random.default_rng(5)
    u = random_field(ctx_p3.spec, rng)
    for s in (0.25, 1.0, 2.5):
        scaled = Field(ctx_p3.spec, s * u.values)
        assert fiber_phi(ctx_p3, u, s) == pytest.approx(
            fiber_coefficients(ctx_p3, scaled).phi(1.0), rel=1e-10
        )


def test_fiber_coefficients_polynomial(ctx):
    rng = np.random.default_rng(6)
    u = random_field(ctx.spec, rng)
    coeffs = fiber_coefficients(ctx, u)
    assert coeffs.conv_fields  # raw convolution fields retained for the gradient
    grid = np.geomspace(0.1, 3.0, 7)
    phis = coeffs.phi(grid)
    for s, ph in zip(grid, phis):
        assert ph == pytest.approx(fiber_phi(ctx, u, float(s)), rel=1e-12)
    for s, en in zip(grid, coeffs.energy(grid)):
        assert en == pytest.approx(
            energy_J(ctx, Field(ctx.spec, float(s) * u.values)), rel=1e-12
        )


def two_term_context(p):
    model = ModelSpec(
        lattice=LatticeSpec(1, 5),
        p=p,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 4.0), (0.5, 5.0))),
    )
    return make_context(model)


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_fiber_polynomial_float_path_matches_array_path(p):
    # phi and J along the ray take one np.power path for a float s, an array
    # of s and a stack's rows: a float s, and the row of a stack of copies of
    # u, get the bits of the broadcast array evaluation
    ctx_two = two_term_context(p)
    u = random_field(ctx_two.spec, np.random.default_rng(9))
    coeffs = fiber_coefficients(ctx_two, u)
    draws = np.random.default_rng(10).uniform(0.01, 20.0, 1000)
    grid = np.concatenate([np.geomspace(1e-3, 1e3, 1001), draws])
    copies = fiber_coefficients(ctx_two, Field(ctx_two.spec, np.tile(u.values, (grid.size, 1))))
    for fn, on_rows in ((coeffs.phi, copies.phi), (coeffs.energy, copies.energy)):
        on_array = fn(grid)
        assert on_rows(grid).tobytes() == on_array.tobytes()
        for s, expected in zip(grid.tolist(), on_array.tolist()):
            value = fn(s)
            assert np.ndim(value) == 0
            assert value == expected
            assert value == fn(np.array([s]))[0]


@pytest.fixture
def phi_calls(monkeypatch):
    calls = []
    phi = FiberCoefficients.phi

    def counted(self, s):
        calls.append(s)
        return phi(self, s)

    monkeypatch.setattr(FiberCoefficients, "phi", counted)
    return calls


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_newton_root_matches_bisection_oracle(p, phi_calls):
    ctx_two = two_term_context(p)
    rng = np.random.default_rng(13)
    for _ in range(300):
        amplitude = 10.0 ** rng.uniform(-2.0, 2.0)  # four decades
        u = Field(ctx_two.spec, amplitude * rng.standard_normal(11))
        coeffs = fiber_coefficients(ctx_two, u)
        del phi_calls[:]
        s = _phi_root(coeffs)
        assert len(phi_calls) <= 8
        assert s == pytest.approx(bisection_phi_root(coeffs), rel=1e-12)


def test_one_term_root_is_the_closed_form(ctx, phi_calls):
    rng = np.random.default_rng(14)
    for _ in range(20):
        coeffs = fiber_coefficients(ctx, random_field(ctx.spec, rng))
        ((e,), (w,), p) = coeffs.exponents, coeffs.phi_weights, coeffs.p
        del phi_calls[:]
        s = _phi_root(coeffs)
        assert len(phi_calls) == 1
        assert s == pytest.approx((coeffs.norm_pow / w) ** (1.0 / (e - p)), rel=1e-14)


def three_row_stack(ctx_):
    fields = random_field(ctx_.spec, np.random.default_rng(15)).values * [[1.0], [2.0], [0.5]]
    return fiber_coefficients(ctx_, Field(ctx_.spec, fields))


@pytest.mark.parametrize("exponents", [(1.5,), (2.0,), (2.0, 8.0), (1.0, 3.0)])
def test_root_refuses_exponents_at_or_below_p(ctx, exponents):
    # the exponents are shared by a stack's rows, so every row fails
    ones = np.ones((3, len(exponents)))
    bad = dataclasses.replace(
        three_row_stack(ctx), exponents=exponents, phi_weights=ones, energy_weights=ones
    )
    witness = f"least exponent {min(exponents):g}, least weight 1"
    with pytest.raises(ModelViolationError, match=re.escape(witness)):
        _phi_root(bad)


@pytest.mark.parametrize("weights", [(1.0, -0.5), (-1.0, 2.0)])
def test_root_refuses_a_negative_weight(ctx, weights):
    # exponents above p, but a negative weight in the middle row of a stack:
    # that row's coefficients no longer change sign once, so Descartes' rule
    # does not certify its one root, and the stack is refused with its witness
    rows = np.array([(1.0, 2.0), weights, (0.5, 0.5)])
    bad = dataclasses.replace(
        three_row_stack(ctx), exponents=(4.0, 6.0), phi_weights=rows, energy_weights=rows
    )
    witness = f"least exponent 4, least weight {min(weights):g}"
    with pytest.raises(ModelViolationError, match=re.escape(witness)):
        _phi_root(bad)


def test_stacked_projection_refuses_one_inaccurate_row(ctx, monkeypatch):
    # the residual certificate is an array test: one row off by a relative
    # 1e-6 refuses the whole stack
    from lattice_choquard import nehari

    root = nehari._phi_root
    monkeypatch.setattr(nehari, "_phi_root", lambda coeffs: root(coeffs) * [1.0, 1.0 + 1e-6, 1.0])
    fields = three_row_stack(ctx).u
    with pytest.raises(ArithmeticError, match="fiber root residual"):
        project_su(ctx, Field(ctx.spec, fields))
    monkeypatch.setattr(nehari, "_phi_root", root)
    s, coeffs = project_su(ctx, Field(ctx.spec, fields))
    assert s.shape == (3,) and coeffs.norm_pow.shape == (3,)


def test_stacked_root_matches_each_row_alone(phi_calls):
    # a stack's Newton iterations stop row by row: each row's root has the
    # bits it has alone, and the stack evaluates phi as often as its slowest
    # row does, plus nothing per row
    two = two_term_context(3.0)
    rng = np.random.default_rng(16)
    u = (10.0 ** rng.uniform(-2.0, 2.0, (6, 1))) * rng.standard_normal((6, 11))
    stack = fiber_coefficients(two, Field(two.spec, u))
    del phi_calls[:]
    roots = _phi_root(stack)
    stacked_calls = len(phi_calls)
    counts = []
    for k, row in enumerate(u):
        del phi_calls[:]
        assert _phi_root(fiber_coefficients(two, Field(two.spec, row))) == roots[k]
        counts.append(len(phi_calls))
    assert stacked_calls == max(counts)


def test_m_inverse_unit_norm(ctx):
    # m_inverse accepts constraint-manifold points and returns the unit ray
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_field(ctx.spec, rng)
        s, _ = project_su(ctx, u)
        w = Field(ctx.spec, s * u.values)
        v = m_inverse(ctx, w)
        assert h_norm(ctx, v) == pytest.approx(1.0, rel=1e-12)
        mask = np.abs(w.values) > 1e-12
        ratio = w.values[mask] / v.values[mask]
        assert np.allclose(ratio, ratio[0], rtol=1e-10)


def test_m_inverse_rejects_off_manifold_fields(ctx):
    rng = np.random.default_rng(70)
    u = random_field(ctx.spec, rng)
    from lattice_choquard import DomainError

    with pytest.raises(DomainError):
        m_inverse(ctx, u)


def test_projection_of_projected_field_is_identity(ctx):
    rng = np.random.default_rng(8)
    u = random_field(ctx.spec, rng)
    s, _ = project_su(ctx, u)
    s_again, _ = project_su(ctx, Field(ctx.spec, s * u.values))
    assert s_again == pytest.approx(1.0, rel=1e-9)


def unit(ctx_, u):
    return Field(ctx_.spec, u.values / h_norm(ctx_, u))


def psi(ctx_, w):
    """Psi(w) = J(m(w)) for unit-norm w, from one evaluation of w."""
    coeffs = fiber_coefficients(ctx_, w)
    return float(coeffs.energy(_phi_root(coeffs)))


def test_psi_is_the_fiber_maximum(ctx):
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = random_field(ctx.spec, rng)
        w = unit(ctx, u)
        s, _ = project_su(ctx, w)
        proj = Field(ctx.spec, s * w.values)
        assert psi(ctx, w) == pytest.approx(energy_J(ctx, proj), rel=1e-12)
        assert psi(ctx, w) >= energy_J(ctx, w) - 1e-12


def test_psi_even_under_sign_flip(ctx):
    rng = np.random.default_rng(10)
    w = unit(ctx, random_field(ctx.spec, rng))
    flipped = Field(ctx.spec, -w.values)
    assert psi(ctx, flipped) == pytest.approx(psi(ctx, w), rel=1e-12)


def test_psi_gradient_pairing_matches_differences(ctx_p3):
    # directional derivative of the fiber-maximum value functional along
    # tangent directions of the unit sphere
    from lattice_choquard import pairing_field

    rng = np.random.default_rng(11)
    w = unit(ctx_p3, random_field(ctx_p3.spec, rng))
    kappa = pairing_field(ctx_p3, w).values
    eps = 1e-6
    for _ in range(3):
        v = random_field(ctx_p3.spec, rng)
        coef = float(np.dot(kappa, v.values)) / float(np.dot(kappa, w.values))
        z = Field(ctx_p3.spec, v.values - coef * w.values)
        up = unit(ctx_p3, Field(ctx_p3.spec, w.values + eps * z.values))
        dn = unit(ctx_p3, Field(ctx_p3.spec, w.values - eps * z.values))
        fd = (psi(ctx_p3, up) - psi(ctx_p3, dn)) / (2.0 * eps)
        assert psi_grad_pairing(ctx_p3, w, z) == pytest.approx(fd, rel=1e-4)


def test_golden_max_on_parabola():
    # the argmax of a smooth peak is only localizable to sqrt(eps), but
    # the value itself is pinned to machine precision
    s, val = golden_max(lambda x: 5.0 - (x - 2.0) ** 2, 0.0, 10.0, rel_tol=1e-12)
    assert s == pytest.approx(2.0, abs=1e-6)
    assert val == pytest.approx(5.0, abs=1e-12)
