"""Inequality harness and the brute-force level oracle."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

import lattice_choquard
from lattice_choquard import (
    CoercivePotential,
    ConstantPotential,
    DomainError,
    Field,
    LatticeSpec,
    ModelSpec,
    SumOfPowers,
    ar_condition_check,
    dense_operator,
    fiber_growth_check,
    ground_state_oracle,
    h_norm_pow,
    hls_sampler,
    make_context,
    nehari_floor_check,
    run_all_checks,
    su_uniqueness_scan,
    write_checks_json,
)
from conftest import make_model
from lattice_choquard.verify import (
    _dense_norm_pow,
    _difference_matrix,
    _direct_fiber_max,
    _nelder_mead,
)
from reference import fiber_max_golden

# full-budget oracle value on the 7-site model, which the solver also reaches
TINY_LEVEL = 1.5906930102521835


def _bracket(report):
    """(lower, upper) read back from an HLS report's detail."""
    nums = [float(x) for x in re.findall(r"(?:sup|method|bound) ([0-9.e+-]+)", report.detail)]
    return max(nums[:2]), nums[2]


def test_hls_bilinear(ctx_a):
    # 1/r + 1/s + (N - alpha)/N = 3/4 + 3/4 + 1/2 = 2
    report = hls_sampler(ctx_a, r=4.0 / 3.0, s=4.0 / 3.0, n=300, seed=0)
    assert report.name == "hls_bilinear"
    assert report.passed
    assert report.n_samples == 600
    lower, upper = _bracket(report)
    assert 0.0 < lower <= upper
    assert report.margin == pytest.approx((upper - lower) / upper, abs=1e-5)
    assert lower >= ctx_a.table.values[16]  # a unit delta gives R(0)


def test_hls_operator(ctx_a):
    # 1 < r < N/alpha = 2
    report = hls_sampler(ctx_a, r=1.5, n=300, seed=1)
    assert report.name == "hls_operator"
    assert report.passed
    lower, upper = _bracket(report)
    assert 0.0 < lower <= upper
    assert report.margin == pytest.approx((upper - lower) / upper, abs=1e-5)


def test_hls_rejects_broken_exponent_relation(ctx_a):
    with pytest.raises(ValueError, match="exponent relation"):
        hls_sampler(ctx_a, r=2.0, s=2.0, n=10)
    with pytest.raises(ValueError, match="operator form"):
        hls_sampler(ctx_a, r=3.0, n=10)
    with pytest.raises(ValueError):
        hls_sampler(ctx_a, r=0.5, s=0.5, n=10)


def test_fiber_growth(ctx_a):
    report = fiber_growth_check(ctx_a, n=16, seed=0)
    assert report.passed
    assert report.margin >= -1e-10
    assert report.n_samples == 16 * 5


def test_ar_condition_matches_per_point_oracle(ctx_a, ctx_b):
    # the exact check reads its margin on the grid the sampled check scanned
    from reference import ar_condition_by_sample

    two_term = SumOfPowers(((1.0, 4.0), (0.5, 5.0)))
    for nl in (ctx_a.model.nonlinearity, ctx_b.model.nonlinearity, two_term):
        report = ar_condition_check(nl)
        assert (report.margin, report.passed, report.n_samples) == ar_condition_by_sample(nl)


def test_ar_condition_default_grid(ctx_a, ctx_b):
    report = ar_condition_check(ctx_a.model.nonlinearity)
    assert report.passed
    assert report.margin >= 0.0  # the least relative slack over t != 0
    # the grid minima include t = 0, where both sides are 0, so the detail
    # leaves them to `margin`
    detail = ar_condition_check(ctx_b.model.nonlinearity).detail
    assert detail == "least a_i 1, largest theta/(2 q_i) 0.5"


def test_model_b_margins_read_the_slack(ctx_b):
    # one term F = t^4 / 4: theta F / (2 f t) = 1/2 at every t != 0, and
    # D(t u) = t^8 D(u), so the least ladder slack is 1.25^4 - 1, at t = 1.25;
    # neither reads the 0 of t = 0 or t = 1
    assert ar_condition_check(ctx_b.model.nonlinearity).margin == pytest.approx(0.5, rel=1e-12)
    assert fiber_growth_check(ctx_b).margin == pytest.approx(1.25**4 - 1, rel=1e-12)


def test_su_uniqueness(ctx_a):
    report = su_uniqueness_scan(ctx_a, n=16, seed=0)
    assert report.passed
    assert report.margin == 0.0  # zero offending samples


def test_su_uniqueness_flags_subcritical_exponent():
    # one term q = 1.5 below p = 3 gives phi = (A - w) s^3, whose exponent
    # e = 2q = p breaks the certificate's e_k > p: the check fails on every
    # sample and names the exponent
    model = ModelSpec(
        lattice=LatticeSpec(1, 3),
        p=3.0,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 1.5),)),
    )
    report = su_uniqueness_scan(make_context(model), n=8)
    assert not report.passed
    assert report.margin == -8.0
    assert "least exponent 3," in report.detail


def test_exact_checks_fail_on_a_negative_kernel_entry(ctx_b):
    # the weights of the fiber polynomial are nonnegative for every field
    # only when the kernel table is: one negative entry fails the three
    # fiber certificates, whatever the sampled fields show
    from lattice_choquard.kernel import KernelTable

    good = ctx_b.table
    values = good.values.copy()
    values[0, 0] = -1.0
    table = KernelTable(good.dim, good.radius, good.alpha, good.k_alpha, values)
    ctx = make_context(ctx_b.model, table=table)
    for check in (su_uniqueness_scan, fiber_growth_check, nehari_floor_check):
        report = check(ctx, n=8)
        assert not report.passed
        assert "kernel table min -1" in report.detail


def test_nehari_floor_margins(ctx_a, ctx_b):
    # single-power models give exact floor ratios:
    # (1/p - 1/2q) / (1/p - 1/q) - 1 = 0.5 at p=2, q=4 and 1.5 at p=3, q=4
    rep_a = nehari_floor_check(ctx_a, n=16, seed=0)
    rep_b = nehari_floor_check(ctx_b, n=16, seed=0)
    assert rep_a.passed and rep_b.passed
    assert rep_a.margin == pytest.approx(0.5, abs=1e-9)
    assert rep_b.margin == pytest.approx(1.5, abs=1e-9)


def test_oracle_rejects_large_boxes(ctx_a):
    with pytest.raises(DomainError, match="site_count"):
        ground_state_oracle(ctx_a, n_directions=10)


def test_oracle_smoke_small_budget(ctx_tiny):
    # the flat start already lies in the best basin on this model, so even
    # a tiny budget lands close to the full-budget level
    level = ground_state_oracle(ctx_tiny, n_directions=300, refine=3, n_restarts=4)
    assert level == pytest.approx(TINY_LEVEL, rel=1e-9)


def test_nelder_mead_matches_scipy_bitwise(ctx_tiny):
    # the oracle's lockstep simplex polish is scipy's standard Nelder-Mead,
    # step for step on every row, on its radially pinned objective; the
    # short budget ends on the iteration limit, the long one on the
    # tolerances, where the three rows stop at different iterations
    K = dense_operator(ctx_tiny.table)
    D = _difference_matrix(ctx_tiny.spec)

    def pinned(V):
        return _direct_fiber_max(ctx_tiny, K, D, V) + (np.linalg.norm(V, axis=1) - 1.0) ** 2

    rng = np.random.default_rng(17)
    X0 = np.stack([np.ones(7), np.abs(rng.standard_normal(7)), rng.standard_normal(7)])
    X0[2, 3] = 0.0  # a zero coordinate takes the absolute simplex step
    X0 /= np.linalg.norm(X0, axis=1)[:, None]
    for maxiter in (40, 4000):
        X, F = _nelder_mead(pinned, X0, maxiter=maxiter, xatol=1e-10, fatol=1e-13)
        nits = set()
        for x0, x, fun in zip(X0, X, F):
            options = {"maxiter": maxiter, "fatol": 1e-13, "xatol": 1e-10}
            res = optimize.minimize(
                lambda v: pinned(v[None])[0], x0, method="Nelder-Mead", options=options
            )
            assert x.tobytes() == res.x.tobytes()
            assert fun == res.fun
            nits.add(res.nit)
        assert len(nits) == (1 if maxiter == 40 else 3)


def _dense_oracle_parts(dim, radius, p, terms):
    """Context, dense kernel and difference matrix of a model with h = 1."""
    ctx = make_context(
        ModelSpec(
            lattice=LatticeSpec(dim, radius),
            p=p,
            alpha=0.5,
            potential=ConstantPotential(1.0),
            nonlinearity=SumOfPowers(terms),
        )
    )
    return ctx, dense_operator(ctx.table), _difference_matrix(ctx.spec)


@pytest.mark.parametrize("dim,radius", [(1, 3), (2, 1)])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("terms", [((1.0, 4.0),), ((1.0, 4.0), (0.5, 6.0))])
def test_direct_fiber_max_matches_golden_section(dim, radius, p, terms):
    # the oracle's Newton root in log s against golden section on the
    # library's FFT energy, on the dense-oracle boxes
    ctx, K, D = _dense_oracle_parts(dim, radius, p, terms)
    rng = np.random.default_rng([dim, int(p), len(terms)])
    V = rng.standard_normal((21, ctx.spec.site_count))
    V[20] = 0.0
    levels = _direct_fiber_max(ctx, K, D, V)
    for v, level in zip(V[:20], levels):
        _, golden = fiber_max_golden(ctx, Field(ctx.spec, v))
        assert level == pytest.approx(golden, rel=1e-12)
    assert levels[20] == np.inf


@pytest.mark.parametrize("dim,radius", [(1, 3), (2, 1)])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("terms", [((1.0, 4.0),), ((1.0, 4.0), (0.5, 6.0))])
def test_direct_fiber_max_rows_are_independent(dim, radius, p, terms):
    # each row of a stack, the zero row among them, has the bits of the
    # same row evaluated alone
    ctx, K, D = _dense_oracle_parts(dim, radius, p, terms)
    V = np.random.default_rng([dim, 7]).standard_normal((51, ctx.spec.site_count))
    V[31] = 0.0
    stacked = _direct_fiber_max(ctx, K, D, V)
    alone = np.concatenate([_direct_fiber_max(ctx, K, D, v[None]) for v in V])
    assert stacked.tobytes() == alone.tobytes()
    assert stacked[31] == np.inf and np.all(np.isfinite(np.delete(stacked, 31)))


def test_direct_fiber_max_refuses_an_unconverged_root(monkeypatch):
    # two terms need more than one Newton step; one allowed step must raise
    ctx, K, D = _dense_oracle_parts(1, 3, 2.0, ((1.0, 4.0), (0.5, 6.0)))
    monkeypatch.setattr(lattice_choquard.verify, "_ORACLE_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _direct_fiber_max(ctx, K, D, np.ones((3, ctx.spec.site_count)))


@pytest.mark.parametrize("dim,radius", [(1, 3), (1, 4), (2, 1), (2, 3), (3, 1)])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0])
def test_oracle_dense_norm_matches_h_norm_pow(dim, radius, p):
    # the oracle's difference-matrix norm against the library's padded-grid
    # one, with a site-dependent potential so the h-weighted part is checked
    potential = CoercivePotential(1.0, (0,) * dim, 1.0, 1.0)
    model = make_model(dim, radius, p, 0.5, 4.0, potential=potential)
    ctx = make_context(model)
    D = _difference_matrix(ctx.spec)
    rng = np.random.default_rng([dim, radius, int(10 * p)])
    V = rng.standard_normal((10, ctx.spec.site_count))
    for v, dense in zip(V, _dense_norm_pow(ctx, D, V)):
        assert dense == pytest.approx(h_norm_pow(ctx, Field(ctx.spec, v)), rel=1e-12)


def test_run_all_checks_composition(ctx_a):
    reports = run_all_checks(ctx_a, seed=0)
    assert [r.name for r in reports] == [
        "hls_bilinear",
        "hls_operator",
        "fiber_growth",
        "ar_condition",
        "su_uniqueness",
        "nehari_floor",
    ]
    assert all(r.passed for r in reports)
    assert [r.seed for r in reports] == [0, 1, 2, 3, 4, 5]


def test_run_all_checks_second_model(ctx_b):
    assert all(r.passed for r in run_all_checks(ctx_b, seed=0))


def test_write_checks_json(tmp_path, ctx_a):
    reports = [
        fiber_growth_check(ctx_a, n=4, seed=0),
        ar_condition_check(ctx_a.model.nonlinearity),
    ]
    path = tmp_path / "checks.json"
    write_checks_json(reports, path)
    data = json.loads(path.read_text())
    assert data["all_passed"] is True
    assert len(data["checks"]) == 2
    for entry in data["checks"]:
        assert set(entry) >= {"name", "statement", "n_samples", "margin", "passed", "seed"}


def test_random_supported_matches_site_by_site_fill():
    # a stack of blocks placed by one scatter at their flat block sites
    # against a site-by-site fill, corners spanning the whole room (none at
    # radius 1)
    from lattice_choquard.verify import _block_sites
    from reference import random_supported_by_sites

    for dim, radius in ((1, 1), (1, 8), (2, 6), (3, 2)):
        spec = LatticeSpec(dim, radius)
        sub = max(1, radius // 2)
        rng = np.random.default_rng([dim, radius])
        corners = rng.integers(0, 2 * (radius - sub) + 1, (20, dim))
        blocks = rng.standard_normal((20,) + (2 * sub + 1,) * dim)
        sites = _block_sites(spec, corners, blocks.shape[1:])
        fast = np.zeros((20, spec.site_count))
        np.put_along_axis(fast, sites, blocks.reshape(20, -1), 1)
        for row, c, b in zip(fast, corners, blocks):
            assert np.array_equal(row, random_supported_by_sites(spec, c, b).values)


@pytest.fixture(scope="module")
def ctx_3d():
    return make_context(make_model(3, 3, 2.0, 1.0, 4.0))


@pytest.fixture(scope="module")
def ctx_fft():
    # 441 sites: past the dense crossover, so convolve runs the pruned FFT
    return make_context(make_model(2, 10, 2.0, 1.0, 4.0))


@pytest.mark.parametrize("name", ["ctx_a", "ctx_b", "ctx_3d", "ctx_fft"])
@pytest.mark.parametrize("form", ["bilinear", "operator"])
@pytest.mark.parametrize("fields", [None, 7])
def test_stacked_hls_ratios_match_per_sample_oracle(name, form, fields, request, monkeypatch):
    # stacks of the default size (963, 96, 47 and 37 fields on these boxes)
    # and of 7 fields; 97 samples leave a short last stack either way, and
    # the ratios have the same bits whatever the stack size.  The first
    # three boxes take the dense operator's columns at each cube, the last
    # places u and convolves
    from lattice_choquard import verify
    from lattice_choquard.kernel import _is_dense
    from reference import hls_ratios_by_sample

    ctx = request.getfixturevalue(name)
    assert _is_dense(ctx.table) == (name != "ctx_fft")
    N, alpha = ctx.model.dim, ctx.model.alpha
    if form == "bilinear":
        r = s = e = 2.0 * N / (N + alpha)
    else:
        r, s = 0.5 * (1.0 + N / alpha), None
        e = N * r / (N - alpha * r)
    n = 97
    default = verify._hls_ratios(ctx, r, e, n, np.random.default_rng(7), s is not None)
    if fields is not None:
        monkeypatch.setattr(verify, "_STACK_BYTES", fields * 8 * ctx.spec.site_count)
    assert n % max(1, verify._STACK_BYTES // (8 * ctx.spec.site_count)) != 0
    fast = verify._hls_ratios(ctx, r, e, n, np.random.default_rng(7), s is not None)
    slow = hls_ratios_by_sample(ctx, r, s, n, np.random.default_rng(7))
    assert fast.tobytes() == default.tobytes()
    assert np.max(np.abs(fast - slow) / slow) <= 1e-10
    assert np.argmax(fast) == np.argmax(slow)
    assert np.max(fast) == pytest.approx(np.max(slow), rel=1e-12)


@pytest.mark.parametrize("form", ["bilinear", "operator"])
def test_hls_norms_see_no_zero_padding(ctx_b, form, monkeypatch):
    # each sample's norms are taken of its drawn block, not of the placed
    # field, whose zero padding costs pow about four times a nonzero entry
    from lattice_choquard import verify

    seen = []
    lp_norms = verify._lp_norms

    def recorded(rows, p):
        seen.append(rows.copy())
        return lp_norms(rows, p)

    monkeypatch.setattr(verify, "_lp_norms", recorded)
    N, alpha = ctx_b.model.dim, ctx_b.model.alpha
    if form == "bilinear":
        r = e = 2.0 * N / (N + alpha)
    else:
        r = 0.5 * (1.0 + N / alpha)
        e = N * r / (N - alpha * r)
    verify._hls_ratios(ctx_b, r, e, 97, np.random.default_rng(7), form == "bilinear")
    assert len(seen) == 2 * 2  # two norms per stack of 96 placed fields
    assert all(np.all(rows != 0.0) for rows in seen)


@pytest.mark.parametrize("form", ["bilinear", "operator"])
def test_hls_sampler_memory_stays_per_stack(ctx_b, form):
    # blocks are drawn a stack at a time: 2000 samples peak at 0.62-0.67 MB
    # under tracemalloc, where drawing every block up front costs over 1.5 MB
    import tracemalloc

    dense_operator(ctx_b.table)
    tracemalloc.start()
    try:
        if form == "bilinear":
            hls_sampler(ctx_b, r=4.0 / 3.0, s=4.0 / 3.0, n=1000)
        else:
            hls_sampler(ctx_b, r=1.5, n=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_run_all_checks_reports_on_a_sign_indefinite_table(ctx_b):
    # the power method takes its powers of |R * u|, so a table with negative
    # entries gives finite bounds and six reports, not a crash; the three
    # fiber certificates fail on the table's minimum, also where samples get
    # negative weights (R(0) negated, or the whole table) and a fiber root
    # would refuse them
    from lattice_choquard.kernel import KernelTable

    t = ctx_b.table
    center = t.values.copy()
    center[(2 * t.radius,) * t.dim] *= -1.0
    for values in (np.where(t.values < 0.05, -t.values, t.values), center, -t.values):
        ctx = make_context(ctx_b.model, KernelTable(t.dim, t.radius, t.alpha, t.k_alpha, values))
        reports = {r.name: r for r in run_all_checks(ctx)}
        assert len(reports) == 6
        assert all(np.isfinite(reports[name].margin) for name in ("hls_bilinear", "hls_operator"))
        for name in ("fiber_growth", "su_uniqueness", "nehari_floor"):
            assert not reports[name].passed
            assert reports[name].detail.startswith("kernel table min -")


def _closed_form_context():
    # model A's box with the 1D kernel from its closed form,
    # R(n) = R(0) prod_{k<n} (k + a/2) / (k + 1 - a/2), not from quadrature
    from lattice_choquard.kernel import KernelTable
    from test_kernel import closed_form_1d

    model = make_model(1, 8, 2.0, 0.5, 4.0)
    half = closed_form_1d(0.5, 16)
    table = KernelTable(1, 8, 0.5, 1.0, np.concatenate([half[:0:-1], half]))
    return make_context(model, table)


@pytest.mark.parametrize("closed_form", [True, False])
def test_hls_bracket_holds(closed_form, ctx_b):
    # lower <= upper on both forms, the bilinear lower bound is at least the
    # pairing R(0) of a unit delta, and the upper bound is Young's l^{N/(N-a)}
    # norm of the whole table, summed here without scaling
    ctx = _closed_form_context() if closed_form else ctx_b
    N, alpha = ctx.model.dim, ctx.model.alpha
    young = float(np.sum(ctx.table.values ** (N / (N - alpha))) ** ((N - alpha) / N))
    r = 2.0 * N / (N + alpha)
    bilinear = hls_sampler(ctx, r=r, s=r, n=200)
    operator = hls_sampler(ctx, r=0.5 * (1.0 + N / alpha), n=200, seed=1)
    for report in (bilinear, operator):
        lower, upper = _bracket(report)
        assert report.passed and 0.0 < lower <= upper
        assert upper == pytest.approx(young, rel=1e-5)
    assert _bracket(bilinear)[0] >= float(ctx.table.values.max())  # R(0)


def test_hls_checks_fail_on_a_doubled_kernel(ctx_b, monkeypatch):
    # convolutions with twice the kernel push the power-method lower bound
    # past the Young bound of the (unchanged) table; model B's box convolves
    # through its dense matrix, so that is the operator doubled
    from lattice_choquard import kernel

    dense = kernel.dense_operator
    monkeypatch.setattr(kernel, "dense_operator", lambda t: 2.0 * dense(t))
    reports = run_all_checks(ctx_b)[:2]
    assert [r.name for r in reports] == ["hls_bilinear", "hls_operator"]
    for report in reports:
        lower, upper = _bracket(report)
        assert not report.passed and lower > upper and report.margin < 0.0


@pytest.mark.parametrize(
    "dim,radius,p,alpha", [(1, 8, 2.0, 0.9), (1, 8, 2.0, 0.99), (2, 6, 3.0, 1.9)]
)
def test_run_all_checks_passes_with_alpha_near_dim(dim, radius, p, alpha):
    # the operator form's target exponent reaches about 200 at alpha = 0.99,
    # where unscaled powers of the convolved field overflow
    reports = run_all_checks(make_context(make_model(dim, radius, p, alpha, 4.0)))
    assert all(r.passed for r in reports), [(r.name, r.detail) for r in reports if not r.passed]


def test_nehari_floor_evaluates_each_sample_once(ctx_b, monkeypatch):
    # J(m(u)) and ||m(u)|| come from the evaluation of u its projection came
    # from: the kernel gets all 32 samples as one stack in one call, so each
    # sample is convolved once
    from test_solver import count_convolutions

    calls = count_convolutions(monkeypatch)
    nehari_floor_check(ctx_b, n=32)
    assert len(ctx_b.model.nonlinearity.terms) == 1
    assert calls == [(32, ctx_b.spec.site_count)]


@pytest.fixture(scope="module")
def ctx_two_terms():
    # model B's box with F(t) = t^4/4 + 0.5 t^5/5: the floor's pairs have
    # unequal factors 1/theta - 1/(2 q_j)
    model = make_model(2, 6, 3.0, 1.0, 4.0)
    return make_context(replace(model, nonlinearity=SumOfPowers(((1.0, 4.0), (0.5, 5.0)))))


@pytest.mark.parametrize("name", ["ctx_a", "ctx_b", "ctx_two_terms"])
def test_stacked_checks_match_per_sample_oracles(name, request):
    # fiber growth and uniqueness report the bits of a loop over one sample
    # at a time; the exact floor gives its sampled oracle's verdict, and a
    # margin no larger than the sampled one: equal where one term attains
    # it, strictly below with two terms (1.5 against 1.6175)
    from reference import fiber_growth_by_sample, nehari_floor_by_sample, su_uniqueness_by_sample

    ctx = request.getfixturevalue(name)
    for check, oracle in (
        (fiber_growth_check, fiber_growth_by_sample),
        (su_uniqueness_scan, su_uniqueness_by_sample),
    ):
        report = check(ctx, n=40, seed=3)
        margin, passed, _ = oracle(ctx, n=40, seed=3)
        assert (repr(report.margin), report.passed) == (repr(margin), passed)
    report = nehari_floor_check(ctx, n=40, seed=3)
    margin, passed, _ = nehari_floor_by_sample(ctx, n=40, seed=3)
    assert report.passed == passed
    assert report.margin <= margin * (1 + 1e-12)
    if name == "ctx_two_terms":
        assert report.margin == 1.5 and margin == pytest.approx(1.6175, abs=1e-4)
    else:
        assert report.margin == pytest.approx(margin, rel=1e-12)


def test_run_all_checks_solves_no_fiber_root(ctx_b, monkeypatch):
    # every fiber check is a termwise certificate on the fiber weights
    from lattice_choquard import nehari

    def refuse(coeffs):
        raise AssertionError("a check solved a fiber root")

    monkeypatch.setattr(nehari, "_phi_root", refuse)
    assert all(r.passed for r in run_all_checks(ctx_b))


@pytest.mark.parametrize("dim,radius", [(2, 6), (3, 6), (3, 16)])
def test_hls_stack_stays_within_byte_budget(dim, radius):
    # a stack's spectrum holds one transform per field: the stack fills the
    # budget, and a field larger than the budget (3D r=16) goes alone
    from lattice_choquard.kernel import _STACK_BYTES, KernelTable, _spectrum, _stack_size

    side = 4 * radius + 1
    table = KernelTable(dim, radius, 1.0, 1.0, np.ones((side,) * dim))
    per_field = _spectrum(table)[1].nbytes
    size = _stack_size(table)
    if radius == 16:
        assert per_field > _STACK_BYTES and size == 1
    else:
        assert size * per_field <= _STACK_BYTES < (size + 1) * per_field


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize costs about 0.3 s of import time; the oracle's
    # Nelder-Mead is a port in verify
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    code = "import sys, lattice_choquard; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.stdout.split() == [b"False"], out.stderr
