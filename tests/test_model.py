"""Potentials, nonlinearities, and the admissibility rule min q_i > p."""

import numpy as np
import pytest
from scipy.integrate import quad

from lattice_choquard import (
    CoercivePotential,
    ConstantPotential,
    LatticeSpec,
    ModelRejectedError,
    PeriodicPotential,
    ModelSpec,
    SumOfPowers,
    eval_F,
    eval_f,
    make_context,
    minimize_ground_state,
    validate_model,
)
from conftest import make_model


def h_at(pot, x, radius=4):
    """h(x), read from the potential's grid on a box that holds x."""
    spec = LatticeSpec(len(x), radius)
    return pot.grid(spec).reshape(-1)[spec.index_of(x)]


def test_constant_potential():
    pot = ConstantPotential(2.5)
    assert h_at(pot, (4,)) == 2.5
    assert pot.floor == 2.5
    with pytest.raises(ValueError):
        ConstantPotential(0.0)


def test_periodic_potential_wraps():
    pot = PeriodicPotential(period=2, cell=np.array([1.0, 3.0]))
    assert h_at(pot, (0,)) == 1.0
    assert h_at(pot, (1,)) == 3.0
    assert h_at(pot, (2,)) == 1.0
    assert h_at(pot, (-1,)) == 3.0
    assert pot.floor == 1.0
    assert pot.period == 2


def test_periodic_potential_2d_cell():
    cell = np.array([[1.0, 2.0], [3.0, 4.0]])
    pot = PeriodicPotential(period=2, cell=cell)
    assert h_at(pot, (0, 1)) == 2.0
    assert h_at(pot, (3, 3)) == 4.0
    assert h_at(pot, (-2, -1)) == 2.0


def test_periodic_potential_rejects_nonpositive_cell():
    with pytest.raises(ValueError):
        PeriodicPotential(period=2, cell=np.array([1.0, 0.0]))


def test_coercive_potential_graph_distance():
    pot = CoercivePotential(floor=1.0, center=(0,), scale=1.0, exponent=1.0)
    assert h_at(pot, (4,)) == 5.0  # 1 + |4|
    assert h_at(pot, (-4,)) == 5.0
    pot2 = CoercivePotential(floor=0.5, center=(1, -1), scale=2.0, exponent=2.0)
    # l1 distance from (1,-1) to (3,0) is 3
    assert h_at(pot2, (3, 0)) == 0.5 + 2.0 * 9.0


def test_potential_grid_matches_pointwise():
    spec = LatticeSpec(1, 3)
    pot = PeriodicPotential(period=3, cell=np.array([1.0, 2.0, 5.0]))
    grid = pot.grid(spec)
    for i, x in enumerate(spec.coordinate_array()):
        assert grid.reshape(-1)[i] == pot.cell[x[0] % 3]


def test_nonlinearity_point_values():
    nl = SumOfPowers(((1.0, 4.0),))
    assert eval_f(nl, 2.0) == pytest.approx(8.0)  # |t|^{q-2} t
    assert eval_F(nl, 2.0) == pytest.approx(4.0)  # (1/q)|t|^q
    assert eval_f(nl, 0.0) == 0.0
    assert eval_F(nl, 0.0) == 0.0


def test_nonlinearity_parity():
    nl = SumOfPowers(((0.5, 3.0), (2.0, 4.5)))
    ts = np.linspace(-3.0, 3.0, 31)
    f_vals = np.asarray(eval_f(nl, ts))
    F_vals = np.asarray(eval_F(nl, ts))
    assert np.allclose(f_vals, -f_vals[::-1], atol=1e-12)  # f odd
    assert np.allclose(F_vals, F_vals[::-1], atol=1e-12)  # F even


def test_primitive_matches_adaptive_quadrature():
    # F(t) = int_0^t f, checked against scipy quad
    nl = SumOfPowers(((0.7, 3.0), (1.3, 5.5)))
    for t in (-2.0, -0.5, 0.3, 1.7):
        ref, _ = quad(lambda s: float(eval_f(nl, s)), 0.0, t, epsabs=1e-13)
        assert float(eval_F(nl, t)) == pytest.approx(ref, abs=1e-10)


def test_nonlinearity_rejects_bad_terms():
    with pytest.raises(ValueError):
        SumOfPowers(())
    with pytest.raises(ValueError):
        SumOfPowers(((-1.0, 4.0),))
    with pytest.raises(ValueError):
        SumOfPowers(((1.0, 1.0),))  # exponent must exceed 1


def test_theta_is_min_exponent():
    nl = SumOfPowers(((1.0, 5.0), (2.0, 3.5)))
    assert nl.theta == 3.5


def test_validate_model_accepts_reference_models():
    for model in (make_model(1, 8, 2.0, 0.5, 4.0), make_model(2, 6, 3.0, 1.0, 4.0)):
        assert validate_model(model) is None


def test_validate_model_accepts_cubic_in_2d():
    # threshold (N + alpha) p / (2N) = 1.5 < 3 and q = 3 > p = 2
    assert validate_model(make_model(2, 4, 2.0, 1.0, 3.0)) is None


def test_validate_model_rejects_quadratic_in_2d():
    with pytest.raises(ModelRejectedError) as err:
        validate_model(make_model(2, 4, 2.0, 1.0, 2.0))
    (failure,) = err.value.failures
    assert failure.startswith("exponent_thresholds")
    assert "smallest exponent 2" in failure and "p = 2" in failure


def two_term_model(p, q_low, q_high=4.0):
    return ModelSpec(
        lattice=LatticeSpec(1, 8),
        p=p,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, q_high), (1.0, q_low))),
    )


# q just above p and a huge q were refused by sampled grid tests before
# min q_i > p became the rule; the rest are admissible variations of model A
ADMISSIBLE = {
    "p2_q2.05": make_model(1, 8, 2.0, 0.5, 2.05),
    "p3_q3.05": make_model(1, 8, 3.0, 0.5, 3.05),
    "p2_q200": make_model(1, 8, 2.0, 0.5, 200.0),
    "two_term_q2.01": two_term_model(2.0, 2.01),
    "tiny_floor": make_model(1, 6, 2.0, 0.5, 4.0, potential=ConstantPotential(1e-12)),
    "periodic": make_model(
        1, 6, 2.0, 0.5, 4.0, potential=PeriodicPotential(2, np.array([1.0, 3.0]))
    ),
    "coercive": make_model(
        1,
        6,
        2.0,
        0.5,
        4.0,
        potential=CoercivePotential(floor=1.0, center=(1,), scale=0.5, exponent=1.5),
    ),
}


@pytest.mark.parametrize("name", list(ADMISSIBLE))
def test_validate_model_accepts_min_exponent_above_p(name):
    assert validate_model(ADMISSIBLE[name]) is None


@pytest.mark.parametrize(
    "model",
    [make_model(1, 8, 2.0, 0.5, 2.0), make_model(1, 8, 3.0, 0.5, 3.0),
     two_term_model(2.0, 2.0), two_term_model(3.0, 3.0, 5.0)],
    ids=["q=p=2", "q=p=3", "two_term_min_2_at_p2", "two_term_min_3_at_p3"],
)
def test_validate_model_refuses_min_exponent_at_p(model):
    with pytest.raises(ModelRejectedError) as err:
        validate_model(model)
    (failure,) = err.value.failures
    assert failure.startswith("exponent_thresholds")


def test_newly_admissible_models_solve():
    # the models the sampled checks refused converge from every start
    for name in ("p2_q2.05", "p3_q3.05", "p2_q200"):
        report = minimize_ground_state(make_context(ADMISSIBLE[name]))
        assert len(report.diagnostics) == 8
        assert all(d.converged for d in report.diagnostics), name
        assert report.energy > 0


def test_model_spec_rejects_bad_alpha():
    with pytest.raises(ValueError, match="alpha"):
        make_model(1, 4, 2.0, 1.0, 4.0)  # alpha = N


def test_model_spec_rejects_small_p():
    with pytest.raises(ValueError):
        make_model(1, 4, 1.5, 0.5, 4.0)
