"""Box lattice, fields, and the discrete p-Laplacian."""

import numpy as np
import pytest

from lattice_choquard import (
    DomainError,
    Field,
    LatticeSpec,
    random_field,
    read_field_csv,
    write_field_csv,
)
from lattice_choquard import lattice
from reference import (
    grad_norm,
    gradient_form,
    ibp_check,
    lp_norm,
    neighbors,
    padded_grid_by_np_pad,
    value_at,
)


def inner_trim(u, margin=2):
    """Zero out every site within `margin` of the box boundary."""
    coords = u.spec.coordinate_array()
    keep = np.max(np.abs(coords), axis=1) <= u.spec.radius - margin
    return Field(u.spec, np.where(keep, u.values, 0.0))


def test_spec_geometry():
    spec = LatticeSpec(2, 3)
    assert spec.side == 7
    assert spec.shape == (7, 7)
    assert spec.site_count == 49
    assert spec.contains((3, -3))
    assert not spec.contains((4, 0))


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LatticeSpec(0, 3)
    with pytest.raises(ValueError):
        LatticeSpec(1, 0)


def test_index_round_trip():
    spec = LatticeSpec(2, 2)
    for i, x in enumerate(map(tuple, spec.coordinate_array().tolist())):
        assert spec.index_of(x) == i
        assert spec.point_of(i) == x


def test_neighbors_include_outside_points():
    spec = LatticeSpec(1, 2)
    assert neighbors((0,), spec) == [(1,), (-1,)]
    # outside neighbors are still reported; fields are zero there
    assert (3,) in neighbors((2,), spec)
    with pytest.raises(DomainError):
        neighbors((3,), spec)


def test_delta_and_value_at():
    spec = LatticeSpec(1, 4)
    d = Field.delta(spec)
    assert value_at(d, (0,)) == 1.0
    assert value_at(d, (5,)) == 0.0  # zero extension outside the box
    assert lp_norm(d, 2.0) == 1.0


def test_translated_drops_mass_leaving_box():
    spec = LatticeSpec(1, 2)
    u = Field(spec, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    v = u.translated((1,))
    assert v.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_gradient_form_and_norm_at_center():
    spec = LatticeSpec(1, 3)
    u = Field.delta(spec)
    # Gamma carries the 1/2 factor: two incident edges, each difference 1
    assert gradient_form(u, u, (0,)) == pytest.approx(1.0)
    assert grad_norm(u, (0,)) == pytest.approx(1.0)


def test_p_laplacian_linear_case_matches_graph_laplacian():
    spec = LatticeSpec(1, 5)
    rng = np.random.default_rng(3)
    u = random_field(spec, rng)
    lap = lattice._p_laplacian_parts(u, 2.0)[0]
    g = np.concatenate([[0.0], u.values, [0.0]])
    expected = g[:-2] + g[2:] - 2.0 * g[1:-1]
    assert np.allclose(lap, expected, atol=1e-14)


def test_p_laplacian_odd_scaling():
    # Delta_p(t u) = t |t|^{p-2} Delta_p(u)
    spec = LatticeSpec(2, 3)
    rng = np.random.default_rng(5)
    u = random_field(spec, rng)
    p, t = 3.5, -2.0
    lhs = lattice._p_laplacian_parts(Field(spec, t * u.values), p)[0]
    rhs = t * abs(t) ** (p - 2.0) * lattice._p_laplacian_parts(u, p)[0]
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencils_match_np_pad_reference(dim, monkeypatch):
    spec = LatticeSpec(dim, 3)
    u = random_field(spec, np.random.default_rng(40 + dim))
    fast = [lattice.grad_sq_grid(u)] + [lattice._p_laplacian_parts(u, p)[0] for p in (2.0, 3.0)]
    monkeypatch.setattr(lattice, "_padded_grid", padded_grid_by_np_pad)
    ref = [lattice.grad_sq_grid(u)] + [lattice._p_laplacian_parts(u, p)[0] for p in (2.0, 3.0)]
    for a, b in zip(fast, ref):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, p", [(1, 3.0), (2, 2.0), (2, 2.5), (3, 4.0)])
def test_p_laplacian_pass_gives_frozen_diagonal(dim, p):
    # the pass returns Delta_p u and, at each site, the sum over y ~ x of its
    # edge weights 1/2 (|grad u|^{p-2}(x) + |grad u|^{p-2}(y)); at p = 2
    # every weight is 1, so the sum is 2N at every site
    spec = LatticeSpec(dim, 2)
    u = random_field(spec, np.random.default_rng(60 + dim))
    diag = lattice._p_laplacian_parts(u, p)[1]
    assert diag.shape == u.values.shape
    sites = list(map(tuple, spec.coordinate_array().tolist()))
    weight = {x: grad_norm(u, x) ** (p - 2.0) for x in sites}
    for x in sites:
        if max(map(abs, x)) < spec.radius:  # every neighbour in the box
            pairs = [weight[x] + weight[y] for y in neighbors(x, spec)]
            assert diag[spec.index_of(x)] == pytest.approx(0.5 * sum(pairs), rel=1e-12)
    if p == 2.0:
        assert np.all(diag == 2 * dim)


def test_field_stack_and_grid_inputs():
    # a 2-D array of site_count columns is a stack; any other shape holding
    # site_count values (a value grid) is one field
    spec = LatticeSpec(2, 2)
    grid = np.arange(25.0).reshape(5, 5)
    assert Field(spec, grid).values.shape == (25,)
    stack = Field(spec, np.stack([grid.reshape(-1)] * 3))
    assert stack.values.shape == (3, 25)
    assert np.array_equal(stack.grid()[2], grid)
    with pytest.raises(ValueError):
        Field(spec, np.zeros((3, 24)))
    with pytest.raises(ValueError):
        Field(spec, np.full((2, 25), np.nan))


def test_p_laplacian_rejects_small_p():
    spec = LatticeSpec(1, 2)
    with pytest.raises(ValueError):
        lattice._p_laplacian_parts(Field.delta(spec), 1.5)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_summation_by_parts_random_pairs(dim, p):
    # sum_x |grad u|^{p-2} Gamma(u, v) equals -sum_x (Delta_p u) v exactly
    spec = LatticeSpec(dim, 5 if dim == 1 else 4)
    rng = np.random.default_rng(11 * dim + int(10 * p))
    for _ in range(5):
        u = random_field(spec, rng)
        v = inner_trim(random_field(spec, rng))
        lhs, rhs = ibp_check(u, v, p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_summation_by_parts_rejects_boundary_support():
    spec = LatticeSpec(1, 4)
    u = Field.delta(spec)
    v = Field(spec, np.ones(spec.site_count))
    with pytest.raises(ValueError):
        ibp_check(u, v, 2.0)


def test_lp_norm_infinity():
    spec = LatticeSpec(1, 2)
    u = Field(spec, np.array([1.0, -3.0, 2.0, 0.0, 0.5]))
    assert lp_norm(u, np.inf) == 3.0


def test_field_csv_round_trip(tmp_path):
    spec = LatticeSpec(2, 2)
    rng = np.random.default_rng(7)
    u = random_field(spec, rng)
    path = tmp_path / "field.csv"
    write_field_csv(u, path)
    v = read_field_csv(path)
    assert v.spec == spec
    assert np.array_equal(v.values, u.values)  # repr round trip is bit exact


def test_read_field_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0\n")
    with pytest.raises(ValueError):
        read_field_csv(path)


def test_write_field_csv_refuses_a_stack(tmp_path):
    # one site per row cannot hold a stack: writing one raises instead of
    # leaving a file that read_field_csv refuses
    spec = LatticeSpec(1, 2)
    stack = Field(spec, np.arange(10.0).reshape(2, 5))
    path = tmp_path / "stack.csv"
    with pytest.raises(ValueError, match="stack"):
        write_field_csv(stack, path)
    assert not path.exists()
