"""Checks of the model-level inequalities, plus a brute-force ground-state
oracle for tiny boxes.

Each check owns a random stream derived from a stated seed, reports a
worst-case margin over its samples, and passes or fails.  Fiber growth,
fiber-root uniqueness and the energy floor are exact: a termwise
certificate on each sample's fiber weights, which holds for every field
once the kernel table is nonnegative, and none solves a fiber root;
uniqueness is the Descartes test the root finder refuses through.  The
superlinearity inequality is exact term by term for every sum of powers.
The convolution inequality constant is bracketed between certified bounds
(a power-method maximum below, Young's inequality above), never asserted
against invented ground truth; each of its random samples costs its block
of sites, not the box.  A failed report, on any kernel table, is a
finding, not a crash.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import default_rng

from .energy import EnergyContext
from .kernel import _STACK_BYTES, _is_dense, convolve, dense_operator
from .lattice import DomainError, Field, LatticeSpec
from .model import eval_F
from .nehari import _descartes_witness, fiber_coefficients
from .simplex import _nelder_mead

__all__ = [
    "CheckReport",
    "hls_sampler",
    "fiber_growth_check",
    "ar_condition_check",
    "su_uniqueness_scan",
    "nehari_floor_check",
    "ground_state_oracle",
    "run_all_checks",
    "write_checks_json",
]


_T_LADDER = (1.0, 1.25, 2.0, 5.0, 10.0)
# where the superlinearity margin is read: t = 0 and 41 points a sign over [1e-3, 1e2]
_AR_GRID = np.concatenate([-np.logspace(-3, 2, 41)[::-1], [0.0], np.logspace(-3, 2, 41)])
# the power method's step cap; near alpha = 0 its linear limit converges slowly
_POWER_MAX_STEPS = 1000
_ORACLE_SITE_LIMIT = 9
_ORACLE_NEWTON_STEPS = 60
# the Newton steps shrink quadratically: past this one the root is exact
_ORACLE_STEP_TOL = 1e-12


@dataclass(frozen=True)
class CheckReport:
    """One verification outcome.

    `margin` is the worst-case slack observed; its sign convention is that
    nonnegative means the property held on the samples (for the bracket
    checks it is the bracket's relative width, (upper - lower) / upper; for
    the energy floor, the slack its identity guarantees for every field).
    The exact checks also fail on a negative kernel entry, whatever their
    margin.  Any report, failed ones especially, is reproducible from `seed`.
    """

    name: str
    statement: str
    n_samples: int
    margin: float
    passed: bool
    seed: int
    detail: str = ""


def _block_sites(spec, corners: np.ndarray, cube: tuple) -> np.ndarray:
    """Flat box indices (m, cube sites) of row k's cube, of shape `cube`,
    row-major from its lowest site at box point corners[k] (0-based)."""
    offsets = np.ravel_multi_index(np.indices(cube).reshape(spec.dim, -1), spec.shape)
    return np.ravel_multi_index(corners.T, spec.shape)[:, None] + offsets


def _lp_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """The l^p norm of each row as max|x| * ||x / max|x|||_p, so no power
    overflows at large p; `np.power` rounds each row's root as it does that
    row alone, whatever the stack's length."""
    top = np.abs(rows).max(1)
    sums = np.sum((np.abs(rows) / top[:, None]) ** p, axis=1)
    return top * np.power(sums, 1.0 / p)


def _hls_ratios(
    ctx: EnergyContext, r: float, e: float, n: int, rng, bilinear: bool
) -> np.ndarray:
    """Ratios of n samples.  The sub-box corners of u, then of v, are drawn
    up front, u's sorted into flat order; the blocks come from one spawned
    stream per field, _STACK_BYTES of box fields at a time, unscaled, as both
    ratios are 0-homogeneous in u and in v.  Where `convolve` is dense, R * u
    of a run of equal corners is the dense operator's columns at that cube
    times each block, one product per sample, so no bit depends on the
    stack; a larger box places u and convolves.  Norms are of the blocks;
    R * u is read at v's block sites."""
    spec = ctx.spec
    sub = max(1, spec.radius // 2)
    room = 2 * (spec.radius - sub) + 1
    draws = [rng.integers(0, room, (n, spec.dim)) for _ in range(1 + bilinear)]
    # u's corners in flat order, by counting: a numpy sort pages in 128-320 KiB more code
    corners, cells = draws[0], (room,) * spec.dim
    counts = np.bincount(np.ravel_multi_index(corners.T, cells))
    corners[:] = np.transpose(np.unravel_index(np.repeat(np.arange(counts.size), counts), cells))
    streams = rng.spawn(len(draws))
    ratios = np.empty(n)
    size = max(1, _STACK_BYTES // (8 * spec.site_count))
    cube = (2 * sub + 1,) * spec.dim
    K = cols = None
    if _is_dense(ctx.table):  # one buffer takes each run's columns
        K, cols = dense_operator(ctx.table), np.empty((spec.site_count, np.prod(cube)))
    for lo in range(0, n, size):
        k = slice(lo, min(lo + size, n))
        blocks = [g.standard_normal((k.stop - lo, np.prod(cube))) for g in streams]
        at = [_block_sites(spec, c[k], cube) for c in draws]
        conv = np.zeros((k.stop - lo, spec.site_count))
        if K is None:
            np.put_along_axis(conv, at[0], blocks[0], 1)
            conv = convolve(ctx.table, Field(spec, conv)).values
        else:
            cuts = [0, *np.flatnonzero(np.diff(at[0][:, 0])) + 1, k.stop - lo]
            for a, b in zip(cuts, cuts[1:]):
                np.take(K, at[0][a], axis=1, out=cols)
                np.matmul(cols, blocks[0][a:b, :, None], out=conv[a:b, :, None])
        norm = _lp_norms(blocks[0], r)
        if bilinear:
            pair = np.vecdot(np.take_along_axis(conv, at[1], 1), blocks[1])
            ratios[k] = np.abs(pair) / (norm * _lp_norms(blocks[1], e))
        else:
            ratios[k] = _lp_norms(conv, e) / norm
    return ratios


def _power_sup(ctx: EnergyContext, r: float, e: float, bilinear: bool) -> tuple[float, int]:
    """The nonlinear power method (Boyd 1974) from a unit delta at the box
    center: the largest ratio of its iterates, a lower bound on the sup, and
    its step count.  The bilinear step is u <- |R * u|^(1/(r-1)) with v = u,
    the operator step u <- |R * |R * u|^(e-1)|^(1/(r-1)), each power of a field
    over its max (finite on a signed table); it stops once the ratio moves <= 1e-12 rel."""
    u = np.zeros((1, ctx.spec.site_count))
    u[0, ctx.spec.site_count // 2] = 1.0
    best = value = 0.0
    for steps in range(1, _POWER_MAX_STEPS + 1):
        conv = convolve(ctx.table, Field(ctx.spec, u)).values
        nu, pair = _lp_norms(u, r)[0], abs(np.vecdot(conv, u)[0])
        new = float(pair / (nu * _lp_norms(u, e)[0]) if bilinear else _lp_norms(conv, e)[0] / nu)
        best = max(best, new)
        if abs(new - value) <= 1e-12 * new:
            break
        value = new
        w = np.abs(conv)
        if not bilinear:
            w = np.abs(convolve(ctx.table, Field(ctx.spec, (w / w.max()) ** (e - 1.0))).values)
        u = (w / w.max()) ** (1.0 / (r - 1.0))
    return best, steps


def hls_sampler(
    ctx: EnergyContext, r: float, s: float | None = None, n: int = 1000, seed: int = 0
) -> CheckReport:
    """Bracket the convolution inequality constant on the box.

    With `s` given, checks the bilinear form: the pairing of (R * u) with v
    against the product of the l^r and l^s norms, which requires the exponent
    relation 1/r + 1/s + (N - alpha)/N = 2.  With `s` omitted, checks the
    operator form: the l^{Nr/(N - alpha r)} norm of R * u against the l^r
    norm of u, which requires 1 < r < N/alpha.

    The lower bound is the larger of the sup over 2n random samples (fields
    varied in placement) and the power method's maximum.  The upper bound is
    Young's inequality: the l^{N/(N - alpha)} norm of the kernel over its
    table window bounds both forms on the box.
    Passes when every ratio and both bounds are finite and lower <= upper;
    `margin` is (upper - lower) / upper.
    """
    N = ctx.model.dim
    alpha = ctx.model.alpha
    if r <= 1:
        raise ValueError("norm exponent r must exceed 1")
    bilinear = s is not None
    if bilinear:
        relation = 1.0 / r + 1.0 / s + (N - alpha) / N
        if abs(relation - 2.0) > 1e-12:
            raise ValueError(
                "exponent relation violated: 1/r + 1/s + (N - alpha)/N must equal 2"
            )
    elif not r < N / alpha:
        raise ValueError("operator form requires 1 < r < N/alpha")
    e = s if bilinear else N * r / (N - alpha * r)
    ratios = _hls_ratios(ctx, r, e, 2 * n, default_rng(seed), bilinear)
    sampled = float(np.max(ratios))
    power, steps = _power_sup(ctx, r, e, bilinear)
    lower = max(sampled, power)
    upper = float(_lp_norms(ctx.table.values.reshape(1, -1), N / (N - alpha))[0])
    passed = bool(np.isfinite(np.append(ratios, [power, upper])).all()) and lower <= upper
    return CheckReport(
        name=f"hls_{'bilinear' if bilinear else 'operator'}",
        statement=(
            "the kernel pairing ratio stays bounded over random supported "
            "fields across translations"
        ),
        n_samples=2 * n,
        margin=(upper - lower) / upper,
        passed=passed,
        seed=seed,
        detail=(
            f"sampled sup {sampled:.6g}, power method {power:.6g} ({steps} steps), "
            f"Young bound {upper:.6g}"
        ),
    )


def _termwise_report(ctx, bad, why, name, statement, n, margin, seed) -> CheckReport:
    """The report of a termwise certificate on random fields, which holds for
    every field once the kernel table is nonnegative: it passes when the
    table's minimum is >= 0 and no sample in `bad` fails; `detail` gives that
    minimum, then the first failing sample and `why`."""
    low = float(ctx.table.values.min())
    detail = f"kernel table min {low:.6g}" + (f"; sample {bad[0]}{why}" if bad.size else "")
    return CheckReport(name, statement, n, margin, low >= 0 and not bad.size, seed, detail)


def fiber_growth_check(ctx: EnergyContext, n: int = 32, seed: int = 0) -> CheckReport:
    """Check that the interaction term grows at least like t^theta along rays.

    Exact, termwise: D(t u) = 2 sum_k w_k t^{e_k} for the energy weights w_k
    of u, so w_k >= 0 and e_k >= theta give D(t u) >= t^theta D(u) for every
    t >= 1.  The weights are nonnegative for every u when the kernel table
    is, so the check fails on a table with a negative entry, and on a random
    u with a negative weight.  `margin` is the worst relative slack
    D(t u) / (t^theta D(u)) - 1 over the points t > 1 of a fixed ladder
    (at t = 1 it is 0 for every u), read from each sample's polynomial.
    """
    vals = default_rng(seed).standard_normal((n, ctx.spec.site_count))
    u = vals / np.maximum(1.0, np.abs(vals).max(1))[:, None]
    coeffs = fiber_coefficients(ctx, Field(ctx.spec, u))
    w, e = coeffs.energy_weights, np.array(coeffs.exponents)
    theta, t = ctx.model.nonlinearity.theta, np.array(_T_LADDER)
    grown = 2.0 * (w[:, None] * t[:, None] ** e).sum(-1)  # D(t u): (n, ladder)
    floor = t**theta * 2.0 * w.sum(1)[:, None]  # t^theta D(u)
    bad = np.flatnonzero((w < 0).any(1) | (e < theta).any())
    statement = "scaling a field by t >= 1 scales the interaction sum by at least t**theta"
    margin = float(((grown - floor) / floor)[:, t > 1].min())
    return _termwise_report(ctx, bad, " fails termwise", "fiber_growth", statement, n * t.size, margin, seed)


def ar_condition_check(nl, seed: int = 0) -> CheckReport:
    """Certify 0 <= theta*F(t) <= 2*f(t)*t for every t.

    Exact, termwise: theta F(t) = sum_i theta (a_i / q_i) |t|^{q_i} and
    2 f(t) t = sum_i 2 a_i |t|^{q_i}, so a_i >= 0 and theta <= 2 q_i give both
    inequalities term by term; every sum of powers has a_i > 0 and
    theta = min q_i < 2 q_i.  `margin` is the least relative slack
    min(theta F, 2 f(t) t - theta F) / (2 f(t) t) over the points t != 0 of
    a fixed sign-symmetric grid of 83 points (at t = 0 both sides are 0).
    """
    theta, off0 = nl.theta, _AR_GRID != 0
    F_vals = theta * eval_F(nl, _AR_GRID)
    two_ft = 2.0 * sum(a * np.abs(_AR_GRID) ** q for a, q in nl.terms)
    least, ratio = min(a for a, _ in nl.terms), max(theta / (2.0 * q) for _, q in nl.terms)
    return CheckReport(
        name="ar_condition",
        statement="0 <= theta*F(t) <= 2*f(t)*t for every t, term by term",
        n_samples=_AR_GRID.size,
        margin=float((np.minimum(F_vals, two_ft - F_vals)[off0] / two_ft[off0]).min()),
        passed=least >= 0 and ratio <= 1.0,
        seed=seed,
        detail=f"least a_i {least:.6g}, largest theta/(2 q_i) {ratio:.6g}",
    )


def su_uniqueness_scan(ctx: EnergyContext, n: int = 32, seed: int = 0) -> CheckReport:
    """Certify that the fiber derivative has exactly one positive root.

    Exact, termwise, by the root finder's own test: by Descartes' rule of
    signs, phi(s) = s^p norm^p(u) - sum_k w_k s^{e_k} has exactly one
    positive root when norm^p(u) > 0, every w_k >= 0, some w_k > 0 and every
    e_k > p.  Each random u is certified from one evaluation.  The weights
    are nonnegative for every u when the kernel table is, so the check
    fails on a table with a negative entry.
    `margin` is minus the number of samples that fail the certificate.
    """
    U = default_rng(seed).standard_normal((n, ctx.spec.site_count))
    bad, why = _descartes_witness(fiber_coefficients(ctx, Field(ctx.spec, U)))
    statement = "the fiber derivative changes sign exactly once"
    return _termwise_report(ctx, bad, f": {why}", "su_uniqueness", statement, n, float(-bad.size), seed)


def nehari_floor_check(ctx: EnergyContext, n: int = 32, seed: int = 0) -> CheckReport:
    """Certify the energy floor J(m(u)) >= (1/p - 1/theta) ||m(u)||^p on the
    constraint manifold.

    Exact, termwise, and no fiber root is solved: phi(s_u) = 0 turns the
    slack J(m(u)) - (1/p - 1/theta) ||m(u)||^p into
    sum_k w_k (1/theta - 1/(2 q_j)) s_u^{e_k}, with w_k = (a_i/q_i) a_j B_ij
    the phi weight of the term pair (i, j) and e_k = q_i + q_j.  Every factor
    1/theta - 1/(2 q_j) is positive, as theta <= q_j, so w_k >= 0 gives the
    floor.  The weights are nonnegative for every u when the kernel table
    is, so the check fails on a table with a negative entry, and on a random
    u with a negative weight.  `margin` is the relative slack the identity
    guarantees for every u, p / (2 (theta - p)), which one term attains.
    """
    U = default_rng(seed).standard_normal((n, ctx.spec.site_count))
    w = fiber_coefficients(ctx, Field(ctx.spec, U)).phi_weights
    p, theta = ctx.model.p, ctx.model.nonlinearity.theta
    statement = "fields on the constraint manifold obey the (1/p - 1/theta)*norm^p energy floor"
    bad, margin = np.flatnonzero((w < 0).any(1)), p / (2.0 * (theta - p))
    return _termwise_report(ctx, bad, " fails termwise", "nehari_floor", statement, n, margin, seed)


def _difference_matrix(spec: LatticeSpec) -> np.ndarray:
    """The difference matrix in index form, shape (1 + 2N, sites): row 0 holds
    the index of each site x within distance 1 of the box (where |grad v| can
    be nonzero), row 1 + j that of x + e for the j-th unit step e, and a point
    outside the box gets site_count, where a zero-extended row holds 0."""
    near = LatticeSpec(spec.dim, spec.radius + 1).coordinate_array()
    unit = np.eye(spec.dim, dtype=int)
    pts = near + np.concatenate([0 * unit[:1], unit, -unit])[:, None] + spec.radius
    flat = np.ravel_multi_index(tuple(np.moveaxis(pts, -1, 0)), spec.shape, mode="clip")
    return np.where(np.all((pts >= 0) & (pts < spec.side), -1), flat, spec.site_count)


def _dense_norm_pow(ctx: EnergyContext, D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """norm^p(v) = sum_x |grad v|^p(x) + sum h |v|^p for each row v of V,
    with |grad v|^2(x) = 1/2 sum_e (v(x + e) - v(x))^2 per site (not a sum of
    |.|^p over edges), gathered from the zero-extended rows by D as one
    (rows, sites, 2N) array and summed on its last axis, as a row alone is."""
    p = ctx.model.p
    Vz = np.concatenate([V, np.zeros((len(V), 1))], 1)
    grad_sq = 0.5 * ((Vz.take(D[1:].T, 1) - Vz.take(D[0], 1)[:, :, None]) ** 2).sum(-1)
    pot = (ctx.h_flat * np.abs(V) ** p).sum(1)
    return (grad_sq ** (p / 2.0)).sum(1) + pot


def _direct_fiber_max(
    ctx: EnergyContext, K: np.ndarray, D: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """max_s J(s v) for each row v of the stack V, through the dense kernel
    and difference matrices; inf for a zero row.

    This is the oracle's own fiber evaluation, kept apart from
    `energy.fiber_coefficients` and `nehari` on purpose.  The fiber
    restriction of J is A s^p / p - sum_k w_k s^{e_k}, with A from one dense
    norm evaluation and the w_k from a handful of dense quadratic forms.
    Its maximum sits at the root of G(x) = log sum_k e_k w_k e^{(e_k - p) x}
    - log A in x = log s.  G is convex and increasing, and the smallest
    one-term root lies at or right of the root (it is the root for one
    term), so Newton's method started there descends monotonically onto it.
    The rows step together; each freezes once it has taken a step of at
    most _ORACLE_STEP_TOL.  Only elementwise products and last-axis sums
    touch the stack, so a row has the bits it has alone.
    """
    levels = np.full(len(V), np.inf)
    live = V.any(1)
    V = V[live]
    p, terms = ctx.model.p, ctx.model.nonlinearity.terms
    A = _dense_norm_pow(ctx, D, V)
    powers = [(a / q, q, np.abs(V) ** q) for a, q in terms]
    w, e = np.empty((len(V), len(terms) ** 2)), np.empty(len(terms) ** 2)
    for i, (ci, qi, gi) in enumerate(powers):
        image = (gi[:, None, :] * K).sum(-1)
        for col, (cj, qj, gj) in enumerate(powers, i * len(terms)):
            w[:, col], e[col] = 0.5 * ci * cj * (image * gj).sum(1), qi + qj
    log_a = np.log(A)
    c, d = e * w, e - p
    x = ((log_a[:, None] - np.log(c)) / d).min(1)
    moving = np.ones(len(V), bool)
    for _ in range(_ORACLE_NEWTON_STEPS):
        t = c * np.exp(d * x[:, None])
        step = (np.log(t.sum(1)) - log_a) * t.sum(1) / (d * t).sum(1)
        x = np.where(moving, x - step, x)
        moving &= np.abs(step) > _ORACLE_STEP_TOL
        if not moving.any():
            break
    else:
        raise ArithmeticError(
            f"oracle fiber maximum did not converge (last log step {max(abs(step[moving])):.3e})"
        )
    s = np.exp(x)
    levels[live] = A * s**p / p - (w * s[:, None] ** e).sum(1)
    return levels


def ground_state_oracle(
    ctx: EnergyContext,
    n_directions: int = 10_000,
    refine: int = 10,
    n_restarts: int = 60,
    seed: int = 0,
) -> float:
    """Brute-force the constrained infimum on a tiny box.

    Two independent searches share the dense-matrix fiber evaluation.  The
    scan draws `n_directions` random directions and maps each to its fiber
    maximum max_s J(su), a stack of directions at a time; the minimum over
    directions can never undercut the true infimum.  The dense multi-restart
    search then runs a derivative-free local minimization from each of the
    best `refine` scan directions, their absolute values (which never raise
    the level, since rectification shrinks every difference while leaving
    the interaction term unchanged), the flat direction, and `n_restarts`
    fresh random starts, all in lockstep.  The local objective pins the
    radius with a quadratic penalty because the raw level is constant along
    rays, which stalls simplex methods.  Returns the smallest level found.
    Restricted to site_count <= 9, where this start density is dense enough
    to trust.
    """
    n_sites = ctx.spec.site_count
    if n_sites > _ORACLE_SITE_LIMIT:
        raise DomainError(f"brute-force oracle is limited to site_count <= 9; got {n_sites}")
    rng = default_rng(seed)
    K = dense_operator(ctx.table)
    D = _difference_matrix(ctx.spec)

    dirs = rng.standard_normal((n_directions, n_sites))
    size = max(1, _STACK_BYTES // (8 * D[1:].size))  # rows of differences per stack
    levels = np.concatenate(
        [_direct_fiber_max(ctx, K, D, dirs[i : i + size]) for i in range(0, n_directions, size)]
    )

    def pinned(V):
        return _direct_fiber_max(ctx, K, D, V) + (np.sqrt((V * V).sum(1)) - 1.0) ** 2

    best = dirs[np.argsort(levels)[:refine]]
    X = np.concatenate([best, abs(best), np.ones((1, n_sites)), rng.standard_normal((n_restarts, n_sites))])
    X /= np.linalg.norm(X, axis=1)[:, None]
    for _ in range(2):
        X, F = _nelder_mead(pinned, X, maxiter=4000, xatol=1e-10, fatol=1e-13)
    return float(min(levels.min(), F.min()))


def run_all_checks(ctx: EnergyContext, seed: int = 0) -> list[CheckReport]:
    """Run the full harness against one model context."""
    N = ctx.model.dim
    alpha = ctx.model.alpha
    r_bilinear = 2.0 * N / (N + alpha)
    r_operator = 0.5 * (1.0 + N / alpha)
    return [
        hls_sampler(ctx, r=r_bilinear, s=r_bilinear, n=1000, seed=seed),
        hls_sampler(ctx, r=r_operator, s=None, n=1000, seed=seed + 1),
        fiber_growth_check(ctx, n=32, seed=seed + 2),
        ar_condition_check(ctx.model.nonlinearity, seed=seed + 3),
        su_uniqueness_scan(ctx, n=32, seed=seed + 4),
        nehari_floor_check(ctx, n=32, seed=seed + 5),
    ]


def write_checks_json(reports: list[CheckReport], path) -> None:
    payload = {
        "all_passed": all(r.passed for r in reports),
        "checks": [asdict(r) for r in reports],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
