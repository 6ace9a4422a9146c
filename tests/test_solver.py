"""Sphere descent and its metric, multistart, box levels, mountain-pass
probes, centering."""

import dataclasses
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import dstn

import lattice_choquard
from lattice_choquard import (
    ConstantPotential,
    Field,
    LatticeSpec,
    ModelSpec,
    ModelViolationError,
    NonconvergenceError,
    PeriodicPotential,
    SolverConfig,
    SumOfPowers,
    center_normalize,
    energy_J,
    fiber_coefficients,
    h_norm,
    make_context,
    minimize_ground_state,
    pairing_field,
    run_all_checks,
)
from lattice_choquard.energy import _pairing_parts, _stacked_gradient, fiber_coefficients
from lattice_choquard.lattice import _p_laplacian_parts
from lattice_choquard.nehari import _phi_root
from lattice_choquard.solver import (
    _METRIC_EPS,
    _dirichlet_basis,
    _metric_inverse,
    _sine_transform,
    _tangent_direction,
)
from conftest import make_model
from reference import mountain_pass_geometry_probe, mountain_pass_level

# ground-state levels frozen from converged runs of this solver,
# cross-checked against the dense-scan oracle on the small model
LEVEL_A = 1.5885474963452393
LEVEL_B = 1.6916798733631013
LEVEL_PERIODIC = 1.9305488416698724


def test_reference_level_1d(report_a):
    assert report_a.energy == pytest.approx(LEVEL_A, rel=1e-8)


def test_reference_level_2d(report_b):
    assert report_b.energy == pytest.approx(LEVEL_B, rel=1e-8)


def test_report_residuals(ctx_a, report_a):
    u = report_a.u
    norm = h_norm(ctx_a, u)
    p = ctx_a.model.p
    assert report_a.nehari_residual <= 1e-8 * norm**p
    assert report_a.pointwise_residual <= 1e-8 * max(1.0, norm ** (p - 1.0))
    # the report echoes recomputable quantities
    assert report_a.nehari_residual == pytest.approx(
        abs(fiber_coefficients(ctx_a, u).phi(1.0)), rel=1e-6, abs=1e-15
    )
    gradient = fiber_coefficients(ctx_a, u).gradient(1.0, pairing_field(ctx_a, u))
    assert report_a.pointwise_residual == pytest.approx(
        float(np.max(np.abs(gradient))), rel=1e-6, abs=1e-15
    )


def test_report_histories(report_a):
    assert len(report_a.psi_history) == len(report_a.residual_history)
    assert len(report_a.start_energies) == 8  # default start count
    assert report_a.winner_start == int(np.argmin(report_a.start_energies))
    # descent with a sufficient-decrease line search is monotone
    psis = np.asarray(report_a.psi_history)
    assert np.all(psis[1:] <= psis[:-1] + 1e-12)
    assert report_a.energy == pytest.approx(min(report_a.start_energies), rel=1e-12)


@pytest.mark.parametrize("which", ["a", "b"])
def test_winning_iterate_is_unit_norm(which, request):
    # trials are normalized once and their norm power is taken as 1, so the
    # candidate's norm must still equal its fiber scale
    ctx = request.getfixturevalue(f"ctx_{which}")
    report = request.getfixturevalue(f"report_{which}")
    assert h_norm(ctx, report.u) == pytest.approx(report.s_history[-1], rel=1e-12)


def test_one_log_line_per_start(ctx_a, caplog):
    cfg = SolverConfig(n_starts=3)
    with caplog.at_level(logging.INFO, logger="lattice_choquard.solver"):
        report = minimize_ground_state(ctx_a, cfg)
    pattern = re.compile(
        r"start (\d+): (\d+) iterations, (\d+) trials, (\d+) fiber roots, "
        r"residual=\S+, converged=(True|False), stop=(\w+)"
    )
    lines = [pattern.fullmatch(rec.getMessage()) for rec in caplog.records]
    lines = [m for m in lines if m]
    assert [int(m[1]) for m in lines] == [0, 1, 2]
    for m, diag in zip(lines, report.diagnostics):
        iterations, trials, roots = int(m[2]), int(m[3]), int(m[4])
        assert (iterations, trials, roots) == (diag.iterations, diag.trials, diag.roots)
        assert trials >= iterations - 1
        assert roots == trials + 1  # the start, then one per trial
        assert m[5] == str(diag.converged)
        assert m[6] == diag.stop == "converged"


def _unit_fields(ctx, count=3):
    """Seeded decaying noise, scaled to unit space norm."""
    coords = ctx.spec.coordinate_array()
    envelope = np.exp(-0.5 * np.sqrt(np.sum(coords**2, axis=1)))
    out = []
    for k in range(count):
        vals = np.random.default_rng([7, k]).standard_normal(ctx.spec.site_count)
        u = Field(ctx.spec, vals * envelope)
        out.append(Field(ctx.spec, u.values / h_norm(ctx, u)))
    return out


def _frozen(ctx, w):
    """The iterate's values and its frozen p-Laplacian diagonal, as the
    descent hands them to the metric."""
    return w.values, _pairing_parts(ctx, w)[1]


def test_metric_inverse_symmetric_positive(ctx_b):
    rng = np.random.default_rng(11)
    for w in _unit_fields(ctx_b):
        a, b = rng.standard_normal((2, ctx_b.spec.site_count))
        frozen = _frozen(ctx_b, w)
        pa, pb = _metric_inverse(ctx_b, *frozen, np.stack((a, b)))
        assert np.array_equal(pa, _metric_inverse(ctx_b, *frozen, a))  # row by row
        lhs, rhs = float(np.dot(a, pb)), float(np.dot(pa, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert float(np.dot(a, pa)) > 0 and float(np.dot(b, pb)) > 0


@pytest.mark.parametrize("dim,radius", [(1, 8), (2, 4), (3, 2)])
def test_sine_transform_matches_scipy_dst(dim, radius):
    # the dense sine matrix is the orthonormal DST-I on every trailing axis,
    # and its own inverse
    ctx = make_context(make_model(dim, radius, 2.0, 0.5, 4.0))
    sine, _ = _dirichlet_basis(ctx)
    grids = np.random.default_rng(dim).standard_normal((2, *ctx.spec.shape))
    expected = dstn(grids, type=1, norm="ortho", axes=tuple(range(-dim, 0)))
    got = _sine_transform(grids, sine, dim)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
    back = _sine_transform(got, sine, dim)
    np.testing.assert_allclose(back, grids, rtol=0, atol=1e-13)


def test_tangent_direction_descends(ctx_b):
    for w in _unit_fields(ctx_b):
        coeffs = fiber_coefficients(ctx_b, w, norm_pow=1.0)
        s = _phi_root(coeffs)
        kappa_field = pairing_field(ctx_b, w)
        kappa = kappa_field.values
        g = coeffs.gradient(s, kappa_field)
        d = _tangent_direction(ctx_b, *_frozen(ctx_b, w), g, kappa)
        assert abs(np.dot(kappa, d)) <= 1e-12 * np.linalg.norm(kappa) * np.linalg.norm(d)
        slope = s * float(np.dot(g, -d))  # the Armijo slope
        assert slope < 0

        def psi(t):  # Psi along the retracted ray w - t d
            trial = Field(ctx_b.spec, w.values - t * d)
            c = fiber_coefficients(ctx_b, trial)
            return float(c.energy(_phi_root(c)))

        h = 1e-5 / np.linalg.norm(d)
        assert (psi(h) - psi(-h)) / (2 * h) == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize("dim, radius, h", [(1, 8, 1.0), (2, 4, 2.5)])
def test_metric_inverts_shifted_laplacian_at_p2(dim, radius, h):
    # for p = 2 and constant h the metric is (1 + eps)(-Delta + h), whatever w
    ctx = make_context(
        make_model(dim, radius, 2.0, 0.5, 4.0, potential=ConstantPotential(h))
    )
    rng = np.random.default_rng(3)
    for w in _unit_fields(ctx, count=2):
        v = rng.standard_normal(ctx.spec.site_count)
        x = Field(ctx.spec, _metric_inverse(ctx, *_frozen(ctx, w), v))
        back = (1.0 + _METRIC_EPS) * (-_p_laplacian_parts(x, 2.0)[0] + h * x.values)
        np.testing.assert_allclose(back, v, rtol=0, atol=1e-12 * np.max(np.abs(v)))


def test_armijo_test_allows_roundoff():
    # near the minimum a trial step changes Psi only in its last bits; the
    # sufficient-decrease test must not reject it for that, or a start
    # backtracks to the step floor iteration after iteration.  Without the
    # allowance, start 3 of model A at r=6 stalls so on one of these tables
    # or another, depending on the table's last bits
    model = make_model(1, 6, 2.0, 0.5, 4.0)
    base = make_context(model).table
    for factor in (1.0 - 5e-12, 1.0, 1.0 + 2e-12):
        table = dataclasses.replace(base, values=base.values * factor)
        report = minimize_ground_state(
            make_context(model, table=table), SolverConfig(max_iters=60)
        )
        for d in report.diagnostics:
            assert d.converged and d.iterations <= 30, d.log_line()


def test_iterations_small_and_steady(model_b, ctx_b, report_b):
    # the metric makes the count a property of the model, not of roundoff:
    # a 1e-12 relative change of the kernel table leaves every start alone
    counts = [d.iterations for d in report_b.diagnostics]
    assert sum(counts) <= 200
    for factor in (1.0 - 1e-12, 1.0 + 1e-12):
        table = dataclasses.replace(ctx_b.table, values=ctx_b.table.values * factor)
        again = minimize_ground_state(make_context(model_b, table=table))
        assert [d.iterations for d in again.diagnostics] == counts


def test_worst_start_iterations_do_not_grow_with_radius(report_b):
    ctx = make_context(make_model(2, 12, 3.0, 1.0, 4.0))
    worst_12 = max(d.iterations for d in minimize_ground_state(ctx).diagnostics)
    worst_6 = max(d.iterations for d in report_b.diagnostics)
    assert worst_12 <= 4 * worst_6


@pytest.mark.parametrize(
    "dim, p, alpha, radii",
    [(1, 2.0, 0.5, (4, 6, 8, 12)), (2, 3.0, 1.0, (4, 6, 8, 10))],
    ids=["model_a", "model_b"],
)
def test_box_levels_nonincreasing(dim, p, alpha, radii):
    # fields on B_r extend by zero to B_{r+2}, so the box level c_r can only
    # fall as r grows; a rise means a multistart missed the ground state
    levels = [
        minimize_ground_state(make_context(make_model(dim, r, p, alpha, 4.0))).energy
        for r in radii
    ]
    for small, big in zip(levels, levels[1:]):
        assert big <= small * (1.0 + 1e-12)


def test_energy_is_the_fiber_value(ctx_a, report_a):
    assert energy_J(ctx_a, report_a.u) == pytest.approx(report_a.energy, rel=1e-12)


def test_determinism_bitwise(ctx_a, report_a):
    again = minimize_ground_state(ctx_a)
    assert again.energy == report_a.energy
    assert np.array_equal(again.u.values, report_a.u.values)
    assert again.iterations == report_a.iterations


def test_threaded_run_matches_serial(ctx_a, report_a):
    threaded = minimize_ground_state(ctx_a, threads=4)
    assert threaded.energy == report_a.energy
    assert np.array_equal(threaded.u.values, report_a.u.values)


def test_solve_refuses_an_inaccurate_root(ctx_b, monkeypatch):
    # every start and trial projects through `project_su`, whose certificate
    # refuses a stack in which one row's root is off by a relative 1e-6
    from lattice_choquard import nehari

    root = nehari._phi_root

    def last_row_off(coeffs):
        rows = np.arange(coeffs.norm_pow.size)
        return root(coeffs) * np.where(rows == rows[-1], 1.0 + 1e-6, 1.0)

    monkeypatch.setattr(nehari, "_phi_root", last_row_off)
    with pytest.raises(ArithmeticError, match="fiber root residual"):
        minimize_ground_state(ctx_b)


def count_convolutions(monkeypatch) -> list:
    """Record each call of `kernel.convolve`, the dispatch between the dense
    product and the pruned FFT, through every module of the package that
    binds it; the returned list gets the shape of each call's field values."""
    from lattice_choquard import kernel

    shapes, convolve = [], kernel.convolve

    def counted(table, w):
        shapes.append(w.values.shape)
        return convolve(table, w)

    for name, module in list(sys.modules.items()):
        if name.startswith("lattice_choquard") and getattr(module, "convolve", None) is convolve:
            monkeypatch.setattr(module, "convolve", counted)
    return shapes


def test_starts_share_transforms(ctx_b, monkeypatch):
    # the starts of model B run as one stack: each trial round convolves
    # every running start in one call, so the count follows the longest
    # start instead of the sum over starts
    shapes = count_convolutions(monkeypatch)
    report = minimize_ground_state(ctx_b)
    roots = [d.roots for d in report.diagnostics]
    assert shapes[0] == (len(roots), ctx_b.spec.site_count)
    assert len(shapes) <= 2 * max(roots)


def test_small_boxes_convolve_without_the_fft(ctx_b, ctx_3d, monkeypatch):
    # model B's 169 sites fit the dense matrix, so neither its solve nor its
    # checks run a transform; the 3D r=6 box (2197 sites) keeps the FFT
    from lattice_choquard import kernel

    calls = []
    fft = kernel._fft_convolve

    def counted(table, grids):
        calls.append(grids.shape)
        return fft(table, grids)

    monkeypatch.setattr(kernel, "_fft_convolve", counted)
    minimize_ground_state(ctx_b)
    run_all_checks(ctx_b)
    assert calls == []
    minimize_ground_state(ctx_3d)
    assert calls


@pytest.mark.parametrize("which, stacks", [("b", 1), ("3d", 2)])
def test_starts_run_in_few_stacks(which, stacks, request, monkeypatch):
    # the stacks are sized by the solver's own stacked arrays, not by the
    # kernel's spectrum: model B's 8 starts share one stack, and the 3D
    # r=6 box's 8 starts run in at most 2, not one stack per start
    from lattice_choquard import solver

    heights = []
    descend = solver._descend

    def counted(ctx, cfg, w0, starts):
        heights.append(len(starts))
        return descend(ctx, cfg, w0, starts)

    monkeypatch.setattr(solver, "_descend", counted)
    minimize_ground_state(request.getfixturevalue(f"ctx_{which}"))
    assert len(heights) <= stacks and sum(heights) == SolverConfig().n_starts


def test_report_evaluates_the_winner_once(ctx_b, monkeypatch):
    # after the descent, the report's level, constraint value and pointwise
    # residual come from one evaluation of u*: one convolution per term
    from lattice_choquard import solver

    marks, descend = [], solver._descend
    calls = count_convolutions(monkeypatch)

    def marked(*args, **kwargs):
        result = descend(*args, **kwargs)
        marks.append(len(calls))
        return result

    monkeypatch.setattr(solver, "_descend", marked)
    minimize_ground_state(ctx_b)
    assert len(calls) - marks[-1] == len(ctx_b.model.nonlinearity.terms) == 1


def _count_stencils(monkeypatch):
    """Wrap the edge weights and |grad u|^2 (both bindings) with counters;
    grad_sq_grid calls are recorded by the name of their caller."""
    from lattice_choquard import energy, lattice, solver

    counts = {"edge_weights": 0, "turns": 0, "grad_sq_callers": []}
    edge_weights, grad_sq_grid, turn = lattice._edge_weights, lattice.grad_sq_grid, solver._turn

    def counted_edge_weights(*args, **kwargs):
        counts["edge_weights"] += 1
        return edge_weights(*args, **kwargs)

    def counted_grad_sq_grid(*args, **kwargs):
        counts["grad_sq_callers"].append(sys._getframe(1).f_code.co_name)
        return grad_sq_grid(*args, **kwargs)

    def counted_turn(*args, **kwargs):
        counts["turns"] += 1
        return turn(*args, **kwargs)

    monkeypatch.setattr(lattice, "_edge_weights", counted_edge_weights)
    for module in (lattice, energy):
        monkeypatch.setattr(module, "grad_sq_grid", counted_grad_sq_grid)
    monkeypatch.setattr(solver, "_turn", counted_turn)
    return counts


def test_one_stencil_pass_per_turn(ctx_b, monkeypatch):
    # kappa and the metric's diagonal come from one pass over the edge
    # weights: one build per turn of the stack, and one for the report's
    # pointwise residual
    counts = _count_stencils(monkeypatch)
    minimize_ground_state(ctx_b)
    assert counts["turns"] > 1
    assert counts["edge_weights"] == counts["turns"] + 1


def test_p2_builds_no_edge_weights(ctx_a, monkeypatch):
    # at p = 2 every edge weight is 1: |grad u|^2 is formed for the norm only
    counts = _count_stencils(monkeypatch)
    minimize_ground_state(ctx_a)
    assert counts["edge_weights"] == counts["turns"] + 1
    assert set(counts["grad_sq_callers"]) == {"h_norm_pow"}


@pytest.fixture(scope="module")
def ctx_3d():
    # the 3D r=6 model of the benchmark's solve-3d-p2
    return make_context(make_model(3, 6, 2.0, 1.0, 4.0))


@pytest.fixture(scope="module")
def ctx_two():
    # two nonlinearity terms, so the fiber weights and the gradient sum over
    # pairs of terms
    return make_context(
        ModelSpec(
            lattice=LatticeSpec(1, 8),
            p=2.0,
            alpha=0.5,
            potential=ConstantPotential(1.0),
            nonlinearity=SumOfPowers(((1.0, 3.0), (0.5, 5.0))),
        )
    )


@pytest.mark.parametrize("which", ["b", "two"])
def test_stacked_evaluation_matches_rows_alone(which, request):
    # the premise of the stacked descent: on this numpy, np.vecdot over rows
    # is np.dot row by row, and np.power, np.exp, np.log and np.log1p give
    # each element the same bits at every array length 1-63 and offset (a
    # numpy that breaks either fails here, not by drifting the artifacts)
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 8, 169))
    assert np.vecdot(a, b).tobytes() == np.array([np.dot(x, y) for x, y in zip(a, b)]).tobytes()
    x, y = rng.uniform(0.01, 20.0, (2, 127))
    ufuncs = [
        (np.power, (x, y)),
        (np.power, (x, 4.0)),
        (np.exp, (y,)),
        (np.log, (x,)),
        (np.log1p, (-x / 21.0,)),
    ]
    for fn, args in ufuncs:
        whole = fn(*args)
        for n in range(1, 64):
            for at in range(0, 64):
                part = fn(*(arg[at : at + n] if np.ndim(arg) else arg for arg in args))
                assert part.tobytes() == whole[at : at + n].tobytes(), (fn, n, at)
    # a stack's fiber weights, roots, gradient and direction (which carries
    # lambda) have, row by row, the bits of each row evaluated alone
    ctx = request.getfixturevalue(f"ctx_{which}")
    terms, nl, p = ctx.model.nonlinearity.terms, ctx.model.nonlinearity, ctx.model.p
    w = Field(ctx.spec, np.stack([u.values for u in _unit_fields(ctx, 4)]))
    stack = fiber_coefficients(ctx, w, norm_pow=1.0)
    s = _phi_root(stack)
    kappa, lap_diag = _pairing_parts(ctx, w)
    g = _stacked_gradient(nl, p, s, w.values, stack.conv_fields, kappa)
    d = _tangent_direction(ctx, w.values, lap_diag, g, kappa)
    for k in range(len(w.values)):
        row = Field(ctx.spec, w.values[k])
        alone = fiber_coefficients(ctx, row, norm_pow=1.0)
        weights = np.array([stack.phi_weights[k], stack.energy_weights[k]])
        assert np.array([alone.phi_weights, alone.energy_weights]).tobytes() == weights.tobytes()
        assert _phi_root(alone) == s[k]
        dots = [  # each weight from a plain np.dot
            (q_i + q_j, a_i / q_i * a_j * float(np.dot(conv[k], np.abs(row.values) ** q_j)))
            for (a_i, q_i), conv in zip(terms, stack.conv_fields)
            for a_j, q_j in terms
        ]
        assert [x for _, x in sorted(dots, key=lambda pair: pair[0])] == stack.phi_weights[k].tolist()
        kappa_k, lap_diag_k = _pairing_parts(ctx, row)
        g_k = alone.gradient(s[k], Field(ctx.spec, kappa_k))
        assert g_k.tobytes() == g[k].tobytes()
        d_k = _tangent_direction(ctx, row.values, lap_diag_k, g_k, kappa_k)
        assert d_k.tobytes() == d[k].tobytes()
    # along the rays, a stack of 64 (each of the 4 rows at 16 scales) has the
    # bits of each ray evaluated alone
    scales = np.geomspace(0.5, 2.0, 16)
    xs = (s[:, None] * scales).reshape(-1)
    ray = np.repeat(np.arange(4), scales.size)
    convs = [conv[ray] for conv in stack.conv_fields]
    g_rays = _stacked_gradient(nl, p, xs, w.values[ray], convs, kappa[ray])
    for x, k, g_ray in zip(xs.tolist(), ray, g_rays):
        alone = fiber_coefficients(ctx, Field(ctx.spec, w.values[k]), norm_pow=1.0)
        assert alone.gradient(x, Field(ctx.spec, kappa[k])).tobytes() == g_ray.tobytes()


@pytest.mark.parametrize(
    "which, n_starts", [("a", 8), ("b", 8), ("b", 3), ("3d", 7), ("two", 8)]
)
def test_stacked_descent_rows_are_independent(which, n_starts, request):
    # one stack of all starts (one thread) against stacks of one start each
    # (a thread per start): a row of a stack takes the steps, and keeps the
    # bits, of its start descending alone; on the 3D box the stack's
    # transforms are split into one field each, and the two-term model sums
    # its weights and gradient over pairs of terms
    from lattice_choquard.solver import _stack_rows

    ctx = request.getfixturevalue(f"ctx_{which}")
    assert _stack_rows(ctx) >= n_starts
    cfg = SolverConfig(n_starts=n_starts)
    stacked = minimize_ground_state(ctx, cfg)
    alone = minimize_ground_state(ctx, cfg, threads=n_starts)
    assert stacked.diagnostics == alone.diagnostics
    assert stacked.u.values.tobytes() == alone.u.values.tobytes()
    assert stacked.s_history == alone.s_history
    assert stacked.psi_history == alone.psi_history
    assert stacked.residual_history == alone.residual_history


def test_mixed_stops_keep_their_rows_bits(ctx_b):
    # at max_iters=18 starts 0, 2, 3 and 6 converge and 1, 4, 5 and 7 stop
    # at max_iters, so rows leave the stack at different rounds and for
    # different reasons: the one stack still gives each start the bits of
    # its descent alone
    cfg = SolverConfig(max_iters=18)
    stacked = minimize_ground_state(ctx_b, cfg)
    stops = ["converged", "max_iters", "converged", "converged"] + ["max_iters"] * 2
    assert [d.stop for d in stacked.diagnostics] == stops + ["converged", "max_iters"]
    alone = minimize_ground_state(ctx_b, cfg, threads=cfg.n_starts)
    assert stacked.diagnostics == alone.diagnostics
    assert stacked.u.values.tobytes() == alone.u.values.tobytes()
    assert stacked.s_history == alone.s_history
    assert stacked.psi_history == alone.psi_history
    assert stacked.residual_history == alone.residual_history


def test_rounds_validate_no_field(ctx_b, monkeypatch):
    # a lockstep round wraps the arrays it computes without the finite scan
    # that a Field built at the public boundary runs
    from lattice_choquard import lattice, solver

    inside, checked = [False], []
    post_init = lattice.Field.__post_init__

    def counted(self):
        checked.append(inside[0])
        post_init(self)

    def marked(fn):
        def run(*args):
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False

        return run

    monkeypatch.setattr(lattice.Field, "__post_init__", counted)
    for name in ("_turn", "_trial_round"):
        monkeypatch.setattr(solver, name, marked(getattr(solver, name)))
    minimize_ground_state(ctx_b)
    assert checked and not any(checked)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_trial_fails_loudly(ctx_b, monkeypatch):
    # with no Field checks inside a round, the trial's norm is where a
    # non-finite step shows: the solve raises, and not as a model violation
    # about a "nan" fiber weight
    from lattice_choquard import solver

    direction = solver._tangent_direction

    def broken(*args):
        d = direction(*args)
        d[-1, 0] = np.inf
        return d

    monkeypatch.setattr(solver, "_tangent_direction", broken)
    with pytest.raises((ValueError, ArithmeticError)) as err:
        minimize_ground_state(ctx_b)
    assert not isinstance(err.value, ModelViolationError)
    assert "nan" not in str(err.value)


def test_import_does_not_load_concurrent_futures():
    # concurrent.futures (with queue) costs about 2 ms of import; the solver
    # loads it only for a run on more than one thread
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    code = "import sys, lattice_choquard.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.stdout.split() == [b"False"], out.stderr


def test_nonconvergence_reports_diagnostics(ctx_a):
    cfg = SolverConfig(max_iters=1)
    with pytest.raises(NonconvergenceError) as err:
        minimize_ground_state(ctx_a, cfg)
    diags = err.value.diagnostics
    assert len(diags) == cfg.n_starts
    assert all(not d.converged for d in diags)
    assert all(np.isfinite(d.energy) for d in diags)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(n_starts=0)


def test_mountain_pass_level_consistency(ctx_a, report_a):
    mp = mountain_pass_level(ctx_a, report_a.u, n_dirs=100, seed=0)
    assert mp.path_level == pytest.approx(report_a.energy, rel=1e-8)
    assert mp.direction_min >= report_a.energy - 1e-8
    ray_end = Field(ctx_a.spec, mp.t_negative * report_a.u.values)
    assert energy_J(ctx_a, ray_end) < 0


def test_geometry_probe(ctx_a, report_a):
    probe = mountain_pass_geometry_probe(ctx_a, n_samples=32, seed=0)
    assert probe.rho > 0
    assert probe.sigma > 0
    assert h_norm(ctx_a, probe.witness) > probe.rho
    assert energy_J(ctx_a, probe.witness) < 0
    # the small-sphere floor sits below the minimax level
    assert probe.sigma <= report_a.energy + 1e-9


@pytest.fixture(scope="module")
def periodic_solution():
    model = make_model(
        1, 12, 2.0, 0.5, 4.0, potential=PeriodicPotential(2, np.array([1.0, 3.0]))
    )
    ctx = make_context(model)
    return ctx, minimize_ground_state(ctx)


def test_periodic_reference_level(periodic_solution):
    _, report = periodic_solution
    assert report.energy == pytest.approx(LEVEL_PERIODIC, rel=1e-8)


def test_center_normalize_peaks_at_origin(periodic_solution):
    ctx, report = periodic_solution
    centered = center_normalize(ctx, report.u)
    peak = ctx.spec.point_of(int(np.argmax(np.abs(centered.values))))
    assert peak == (0,)
    assert energy_J(ctx, centered) == pytest.approx(report.energy, rel=1e-12)


def test_center_normalize_undoes_period_shifts(periodic_solution):
    # interior-supported bump: shifting by two periods and re-centering
    # recovers the field exactly (no mass crosses the boundary)
    ctx, _ = periodic_solution
    coords = ctx.spec.coordinate_array()[:, 0]
    vals = np.where(np.abs(coords) <= 6, np.exp(-np.abs(coords.astype(float))), 0.0)
    u = Field(ctx.spec, vals)
    shifted = u.translated((4,))
    again = center_normalize(ctx, shifted)
    assert np.array_equal(again.values, u.values)


def test_center_normalize_keeps_coercive_fields(ctx_a):
    from lattice_choquard import CoercivePotential

    model = make_model(
        1,
        6,
        2.0,
        0.5,
        4.0,
        potential=CoercivePotential(floor=1.0, center=(0,), scale=0.5, exponent=1.0),
    )
    ctx = make_context(model)
    u = Field.delta(ctx.spec).translated((2,))
    out = center_normalize(ctx, u)
    assert np.array_equal(out.values, u.values)
