"""Norms, energy functional, and the analytic gradient."""

import numpy as np
import pytest

from lattice_choquard import (
    Field,
    energy_J,
    fiber_coefficients,
    h_norm,
    h_norm_pow,
    make_context,
    pairing_field,
    random_field,
)
from conftest import make_model
from reference import dense_interaction


@pytest.fixture(scope="module")
def ctx_small():
    return make_context(make_model(1, 4, 2.0, 0.5, 4.0))


@pytest.fixture(scope="module")
def ctx_small_p3():
    return make_context(make_model(1, 4, 3.0, 0.5, 4.0))


def test_delta_norm_closed_form():
    # |grad delta|^2 is 1 at the origin and 1/2 at the two neighbors,
    # so ||delta||^2 = 2 + h(0) = 3 and ||delta||^3 = 2 + 2 (1/2)^{3/2} + 1
    ctx2 = make_context(make_model(1, 2, 2.0, 0.5, 4.0))
    ctx3 = make_context(make_model(1, 2, 3.0, 0.5, 4.0))
    d2 = Field.delta(ctx2.spec)
    d3 = Field.delta(ctx3.spec)
    assert h_norm_pow(ctx2, d2) == pytest.approx(3.0, rel=1e-14)
    assert h_norm_pow(ctx3, d3) == pytest.approx(2.0 + 2.0 * 0.5**1.5, rel=1e-14)


def test_norm_homogeneity(ctx_small_p3):
    rng = np.random.default_rng(1)
    u = random_field(ctx_small_p3.spec, rng)
    t = 2.75
    scaled = Field(ctx_small_p3.spec, t * u.values)
    assert h_norm_pow(ctx_small_p3, scaled) == pytest.approx(
        t**3 * h_norm_pow(ctx_small_p3, u), rel=1e-12
    )
    assert h_norm(ctx_small_p3, scaled) == pytest.approx(
        t * h_norm(ctx_small_p3, u), rel=1e-12
    )


def test_interaction_homogeneity(ctx_small):
    # single power q: D(t u) = |t|^{2q} D(u) exactly, here the fiber
    # polynomial's D(t u) against the dense oracle's D(u)
    rng = np.random.default_rng(2)
    u = random_field(ctx_small.spec, rng)
    t = -1.5
    scaled = Field(ctx_small.spec, t * u.values)
    grown = 2.0 * sum(fiber_coefficients(ctx_small, scaled).energy_weights)
    assert grown == pytest.approx(abs(t) ** 8 * dense_interaction(ctx_small, u), rel=1e-12)


def test_interaction_positive(ctx_small):
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_field(ctx_small.spec, rng)
        assert dense_interaction(ctx_small, u) > 0
        assert min(fiber_coefficients(ctx_small, u).energy_weights) > 0


def test_energy_zero_field(ctx_small):
    zero = Field(ctx_small.spec, np.zeros(ctx_small.spec.site_count))
    assert energy_J(ctx_small, zero) == 0.0


def test_energy_decomposition(ctx_small):
    rng = np.random.default_rng(4)
    u = random_field(ctx_small.spec, rng)
    expected = h_norm_pow(ctx_small, u) / 2.0 - dense_interaction(ctx_small, u) / 2.0
    assert energy_J(ctx_small, u) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("fixture", ["ctx_small", "ctx_small_p3"])
def test_pairing_reproduces_norm(fixture, request):
    # <kappa_u, u> = ||u||^p, the summation-by-parts anchor of the descent
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = random_field(ctx.spec, rng)
        kappa = pairing_field(ctx, u)
        assert float(np.dot(kappa.values, u.values)) == pytest.approx(
            h_norm_pow(ctx, u), rel=1e-10
        )


def test_pairing_field_is_the_riesz_representer(ctx_small_p3):
    # <kappa_u, v> is the derivative of norm^p / p at u along v
    ctx = ctx_small_p3
    rng = np.random.default_rng(6)
    u = random_field(ctx.spec, rng)
    kappa = pairing_field(ctx, u)
    eps = 1e-6
    for _ in range(5):
        v = random_field(ctx.spec, rng)
        up, dn = (Field(ctx.spec, u.values + t * v.values) for t in (eps, -eps))
        fd = (h_norm_pow(ctx, up) - h_norm_pow(ctx, dn)) / (2.0 * eps * ctx.model.p)
        assert float(np.dot(kappa.values, v.values)) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("fixture", ["ctx_small", "ctx_small_p3"])
def test_gradient_matches_central_differences(fixture, request):
    ctx = request.getfixturevalue(fixture)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(3):
        u = random_field(ctx.spec, rng)
        g = fiber_coefficients(ctx, u).gradient(1.0, pairing_field(ctx, u))
        fd = np.zeros_like(g)
        for i in range(u.values.size):
            up = u.values.copy()
            dn = u.values.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (
                energy_J(ctx, Field(ctx.spec, up)) - energy_J(ctx, Field(ctx.spec, dn))
            ) / (2.0 * eps)
        scale = float(np.max(np.abs(g)))
        assert float(np.max(np.abs(fd - g))) / scale <= 1e-6


def test_gradient_pairing_identity(ctx_small):
    # <J'(u), u> equals the constraint functional, exactly as computed
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = random_field(ctx_small.spec, rng)
        g = fiber_coefficients(ctx_small, u).gradient(1.0, pairing_field(ctx_small, u))
        lhs = float(np.dot(g, u.values))
        assert lhs == pytest.approx(fiber_coefficients(ctx_small, u).phi(1.0), rel=1e-10)


def test_translation_invariance_constant_potential():
    ctx = make_context(make_model(1, 6, 2.0, 0.5, 4.0))
    rng = np.random.default_rng(10)
    coords = ctx.spec.coordinate_array()
    inner = np.max(np.abs(coords), axis=1) <= 3
    u = Field(ctx.spec, np.where(inner, rng.standard_normal(ctx.spec.site_count), 0.0))
    shifted = u.translated((2,))
    assert energy_J(ctx, shifted) == pytest.approx(energy_J(ctx, u), rel=1e-12)
    assert h_norm_pow(ctx, shifted) == pytest.approx(h_norm_pow(ctx, u), rel=1e-12)


def test_periodic_potential_shifted_by_period():
    # with a period-2 potential, shifting by 2 preserves J but shifting
    # by 1 does not
    from lattice_choquard import PeriodicPotential

    model = make_model(
        1, 8, 2.0, 0.5, 4.0, potential=PeriodicPotential(2, np.array([1.0, 3.0]))
    )
    ctx = make_context(model)
    rng = np.random.default_rng(11)
    coords = ctx.spec.coordinate_array()
    inner = np.max(np.abs(coords), axis=1) <= 4
    u = Field(ctx.spec, np.where(inner, rng.standard_normal(ctx.spec.site_count), 0.0))
    assert energy_J(ctx, u.translated((2,))) == pytest.approx(
        energy_J(ctx, u), rel=1e-12
    )
    assert abs(energy_J(ctx, u.translated((1,))) - energy_J(ctx, u)) > 1e-6


@pytest.mark.parametrize("dim, radius, p", [(1, 4, 2.0), (2, 3, 3.0), (3, 2, 2.5)])
def test_stacked_evaluation_matches_each_field_alone(dim, radius, p):
    # a stack is one code path for many fields: norms, pairing fields,
    # stencils and fiber coefficients of each row carry that field's bits
    from lattice_choquard.energy import _pairing_parts
    from lattice_choquard.lattice import grad_sq_grid

    ctx = make_context(make_model(dim, radius, p, 0.5, 4.0))
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((5, ctx.spec.site_count))
    stack = Field(ctx.spec, rows)
    assert stack.values.shape == rows.shape
    assert stack.grid().shape == (5, *ctx.spec.shape)
    fields = [Field(ctx.spec, row) for row in rows]
    assert h_norm_pow(ctx, stack).tolist() == [h_norm_pow(ctx, u) for u in fields]
    assert h_norm(ctx, stack).tolist() == [h_norm(ctx, u) for u in fields]
    kappa = pairing_field(ctx, stack).values
    gsq = grad_sq_grid(stack)
    parts = _pairing_parts(ctx, stack)
    for k, u in enumerate(fields):
        assert kappa[k].tobytes() == pairing_field(ctx, u).values.tobytes()
        assert gsq[k].tobytes() == grad_sq_grid(u).tobytes()
        assert parts[0][k].tobytes() == kappa[k].tobytes()
        assert parts[1][k].tobytes() == _pairing_parts(ctx, u)[1].tobytes()
    c = fiber_coefficients(ctx, stack)
    assert c.norm_pow.shape == (5,) and c.phi_weights.shape == (5, 1)
    for k, u in enumerate(fields):
        alone = fiber_coefficients(ctx, u)
        assert alone.exponents == c.exponents
        assert c.norm_pow[k] == alone.norm_pow
        assert c.phi_weights[k].tobytes() == alone.phi_weights.tobytes()
        assert c.energy_weights[k].tobytes() == alone.energy_weights.tobytes()
        assert c.conv_fields[0][k].tobytes() == alone.conv_fields[0].tobytes()
