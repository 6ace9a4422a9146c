"""Reference implementations (oracles) that only the tests use.

The library computes these quantities on whole grids, or with faster
algorithms; the versions here follow the definitions site by site, or are
the slow and plainly safe algorithms they replaced, so tests can compare
the two.  The first section holds two test helpers, which are no oracles:
J(u) read from the library's one evaluation of u, and a Gaussian field.
The last section holds probes of the theory (summation by parts,
the sphere-to-manifold inverse, the fiber maximum by golden section, the
mountain-pass geometry and level) that check the library from outside and
that no library code calls.
"""

from dataclasses import dataclass
from functools import reduce
from math import comb, pi, sqrt

import numpy as np
from scipy.fft import next_fast_len

from lattice_choquard import (
    DomainError,
    Field,
    LatticeSpec,
    ModelViolationError,
    convolve,
    eval_F,
    fiber_coefficients,
    h_norm,
    pairing_field,
    project_su,
)
from lattice_choquard.lattice import _p_laplacian_parts
from lattice_choquard.nehari import _phi_root
from lattice_choquard.verify import _T_LADDER


# -- test helpers (not oracles) ----------------------------------------------


def energy_J(ctx, u: Field) -> float:
    """J(u) = norm^p(u)/p - D(u)/2, as the library evaluates it: a test
    helper, not an independent oracle."""
    return fiber_coefficients(ctx, u).energy(1.0)


def random_field(spec: LatticeSpec, rng: np.random.Generator) -> Field:
    """A field of independent standard normal values, drawn in index order."""
    return Field(spec, rng.standard_normal(spec.site_count))


# -- oracles -----------------------------------------------------------------


def canonical_representatives(dim: int, radius: int) -> list[tuple[int, ...]]:
    """Sorted nonnegative representatives of the kernel symmetry classes."""
    reps: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], lo: int) -> None:
        if len(prefix) == dim:
            reps.append(prefix)
            return
        for c in range(lo, 2 * radius + 1):
            rec(prefix + (c,), c)

    rec((), 0)
    return reps


def neighbors(x, spec: LatticeSpec) -> list[tuple[int, ...]]:
    """The 2N lattice neighbors of a box site, including points outside B."""
    if not spec.contains(x):
        raise DomainError(f"site {tuple(x)} outside box of radius {spec.radius}")
    pt = tuple(int(c) for c in x)
    out = []
    for j in range(spec.dim):
        for s in (1, -1):
            out.append(pt[:j] + (pt[j] + s,) + pt[j + 1 :])
    return out


def value_at(u: Field, x) -> float:
    """Zero-extended read: u(x) on the box, 0 outside it."""
    return float(u.values[u.spec.index_of(x)]) if u.spec.contains(x) else 0.0


def gradient_form(u: Field, v: Field, x) -> float:
    """Gamma(u, v)(x) = 1/2 sum over neighbors of the difference products."""
    if u.spec != v.spec:
        raise DomainError("fields live on different lattices")
    ux = value_at(u, x)
    vx = value_at(v, x)
    acc = 0.0
    for y in neighbors(x, u.spec):
        acc += (value_at(u, y) - ux) * (value_at(v, y) - vx)
    return 0.5 * acc


def grad_norm(u: Field, x) -> float:
    """|grad u|(x) = sqrt(Gamma(u, u)(x))."""
    return float(np.sqrt(gradient_form(u, u, x)))


def lp_norm(u: Field, p: float) -> float:
    """Oracle norm: the counting-measure l^p norm of a field over the whole
    lattice (exact, since the support lies in the box), p = inf included."""
    if np.isinf(p):
        return float(np.max(np.abs(u.values))) if u.values.size else 0.0
    if not p >= 1:
        raise ValueError("p must be >= 1 or infinity")
    return float(np.sum(np.abs(u.values) ** p) ** (1.0 / p))


def random_supported_by_sites(spec: LatticeSpec, corner, block: np.ndarray) -> Field:
    """The random supported field of `verify`: the cube `block` with its
    lowest site at the box point `corner` (counted from the box's lowest
    site), filled one site at a time."""
    vals = np.zeros(spec.site_count)
    for offset, v in np.ndenumerate(block):
        site = tuple(int(corner[j]) + offset[j] - spec.radius for j in range(spec.dim))
        vals[spec.index_of(site)] = v
    return Field(spec, vals)


def hls_ratios_by_sample(ctx, r: float, s: float | None, n: int, rng) -> np.ndarray:
    """Oracle for `verify._hls_ratios`: a per-sample loop over the same draws.

    The sub-box corners of u (then of v, in the bilinear form) are drawn up
    front, u's corners are sorted row by row, and each field's blocks come
    from its own spawned stream, one sample at a time.  Each sample is
    placed site by site and convolved alone, and its norms and pairing are
    taken with `lp_norm` and a BLAS dot."""
    spec = ctx.spec
    sub = max(1, spec.radius // 2)
    room = 2 * (spec.radius - sub) + 1
    k = 1 if s is None else 2
    draws = [rng.integers(0, room, (n, spec.dim)) for _ in range(k)]
    draws[0] = np.array(sorted(draws[0].tolist()))
    streams = rng.spawn(k)
    target = None
    if s is None:
        target = ctx.model.dim * r / (ctx.model.dim - ctx.model.alpha * r)
    ratios = np.empty(n)
    for i in range(n):
        shape = (2 * sub + 1,) * spec.dim
        u, *v = [
            random_supported_by_sites(spec, c[i], g.standard_normal(shape))
            for c, g in zip(draws, streams)
        ]
        conv = convolve(ctx.table, u)
        if s is None:
            ratios[i] = lp_norm(conv, target) / lp_norm(u, r)
        else:
            num = abs(float(np.dot(conv.values, v[0].values)))
            ratios[i] = num / (lp_norm(u, r) * lp_norm(v[0], s))
    return ratios


def kernel_matrix_by_differences(table) -> np.ndarray:
    """Oracle for kernel.dense_operator: M[i, j] = R(x_i - x_j), gathered
    from the table at the coordinate differences of every pair of sites."""
    coords = LatticeSpec(table.dim, table.radius).coordinate_array()
    diff = coords[:, None, :] - coords[None, :, :] + 2 * table.radius
    return table.values[tuple(diff[..., j] for j in range(table.dim))]


def dense_interaction(ctx, u: Field) -> float:
    """Oracle for the interaction sum D(u) = sum (R * F(u)) F(u): the kernel
    matrix gathered by differences applied to F(u), apart from the fiber
    polynomial."""
    F = eval_F(ctx.model.nonlinearity, u.values)
    return float(F @ (kernel_matrix_by_differences(ctx.table) @ F))


def fiber_growth_by_sample(ctx, n: int, seed: int) -> tuple[float, bool, str]:
    """Oracle for `verify.fiber_growth_check`: the sampled check it
    replaced, one dense interaction sum per field and ladder point t > 1,
    passing within 1e-10 relative slack.  The margin, the least
    D(t u) / (t^theta D(u)) - 1, is read one field at a time from its own
    fiber polynomial: dense sums differ from it in the last bits.
    Returns (margin, passed, detail)."""
    rng = np.random.default_rng(seed)
    theta = ctx.model.nonlinearity.theta
    ladder = np.array([t for t in _T_LADDER if t > 1])
    margin, worst, witness = np.inf, np.inf, ""
    for i in range(n):
        vals = rng.standard_normal(ctx.spec.site_count)
        u = Field(ctx.spec, vals / max(1.0, np.max(np.abs(vals))))
        base = dense_interaction(ctx, u)
        for t in ladder:
            lhs = dense_interaction(ctx, Field(ctx.spec, t * u.values))
            rel = (lhs - t**theta * base) / (t**theta * base)
            if rel < worst:
                worst, witness = rel, f"sample {i}, t={t}"
        coeffs = fiber_coefficients(ctx, u)
        w, e = np.array(coeffs.energy_weights), np.array(coeffs.exponents)
        grown = 2.0 * (w * ladder[:, None] ** e).sum(-1)
        floor = ladder**theta * 2.0 * w.sum()
        margin = min(margin, float(((grown - floor) / floor).min()))
    passed = worst >= -1e-10
    return margin, passed, "" if passed else f"violated at {witness}"


def ar_condition_by_sample(nl) -> tuple[float, bool, int]:
    """Oracle for `verify.ar_condition_check`: the sampled check it replaced.
    theta F(t) and 2 f(t) t = 2 sum a_i |t|^{q_i} are summed term by term,
    one point at a time, on the sign-symmetric grid of 41 points a sign over
    [1e-3, 1e2] and t = 0; the margin is the least relative slack
    min(theta F, 2 f t - theta F) / (2 f t) over t != 0.
    Returns (margin, passed, n_samples)."""
    pos = np.logspace(-3, 2, 41)
    grid = np.concatenate([-pos[::-1], [0.0], pos])
    theta = nl.theta
    lower = [theta * sum(a / q * abs(t) ** q for a, q in nl.terms) for t in grid]
    upper = [2.0 * sum(a * abs(t) ** q for a, q in nl.terms) for t in grid]
    slack = [min(f, u - f) / u for u, f in zip(upper, lower) if u != 0]
    margin = min(slack)
    return float(margin), margin >= 0.0, grid.size


def su_uniqueness_by_sample(ctx, n: int, seed: int) -> tuple[float, bool, str]:
    """Oracle for `verify.su_uniqueness_scan`: the sampled scan it replaced.
    Per field, bracket the root of phi, widen the bracket, and count the
    sign changes of phi on a 1024-point log grid; exactly one, from positive
    to negative, is expected."""
    rng = np.random.default_rng(seed)
    bad, witness = 0, ""
    for i in range(n):
        coeffs = fiber_coefficients(ctx, Field(ctx.spec, rng.standard_normal(ctx.spec.site_count)))
        lo, hi = 1.0, 1.0
        for _ in range(80):
            if coeffs.phi(lo) > 0:
                break
            lo *= 0.5
        for _ in range(80):
            if coeffs.phi(hi) < 0:
                break
            hi *= 2.0
        signs = np.sign(coeffs.phi(np.geomspace(lo / 2.0, hi * 2.0, 1024)))
        nz = signs[signs != 0]
        changes = int(np.sum(nz[1:] * nz[:-1] < 0))
        if changes != 1 or not (nz.size > 0 and nz[0] > 0 and nz[-1] < 0):
            bad += 1
            witness = witness or f"sample {i}: {changes} sign changes"
    return float(-bad), bad == 0, witness


def nehari_floor_by_sample(ctx, n: int, seed: int) -> tuple[float, bool, str]:
    """Oracle for `verify.nehari_floor_check`: the sampled check it replaced,
    one sample at a time, with J(m(u)) and ||m(u)|| read from the sample's
    own projection pair.  Its margin, the least relative slack
    J(m(u)) / ((1/p - 1/theta) ||m(u)||^p) - 1 over the samples, can never
    undercut the exact check's, the slack guaranteed for every u.
    Returns (margin, passed, detail)."""
    rng = np.random.default_rng(seed)
    p = ctx.model.p
    factor = 1.0 / p - 1.0 / ctx.model.nonlinearity.theta
    min_norm = worst = np.inf
    for _ in range(n):
        s, coeffs = project_su(ctx, Field(ctx.spec, rng.standard_normal(ctx.spec.site_count)))
        nrm = s * coeffs.norm_pow ** (1.0 / p)
        min_norm = min(min_norm, nrm)
        floor = factor * nrm**p
        worst = min(worst, (coeffs.energy(s) - floor) / max(floor, 1e-300))
    return float(worst), worst >= -1e-10 and min_norm > 0, f"min projected norm {min_norm:.6g}"


def padded_grid_by_np_pad(u: Field, margin: int) -> np.ndarray:
    """The zero-padded value grid of `lattice`, built with np.pad."""
    return np.pad(u.grid(), margin)


def bisection_phi_root(coeffs) -> float:
    """Oracle for the fiber root: bracket by doubling from s = 1, then bisect
    to a relative width of 1e-13.  Slow (40-50 evaluations of phi) but
    relies only on phi changing sign once, from positive to negative."""
    lo = hi = 1.0
    val = coeffs.phi(1.0)
    if val == 0:
        return 1.0
    if val > 0:
        while coeffs.phi(hi) > 0:
            hi *= 2.0
    else:
        while coeffs.phi(lo) < 0:
            lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * mid:
            break
        if coeffs.phi(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def k_alpha_midpoint(dim: int, alpha: float, quad_points: int) -> float:
    """Oracle for K_alpha = (2 pi)^{-N} int mu^{alpha/2} dk: the transformed
    product midpoint rule the library used before subordination.

    The integrand has a Lipschitz corner at k = 0.  Per axis the rule
    substitutes k = T(xi) with Jacobian T'(xi) = (2 - 2 cos xi)^m / C(2m, m),
    m = 3, which vanishes to order 2m at the corner and integrates to 2 pi:

        T(xi) = xi + 2 / C(2m, m) sum_{j=1}^{m} (-1)^j C(2m, m+j) sin(j xi) / j,

    so the nodes cluster near k = 0 and convergence is fast.  It holds
    quad_points^(N-1) values at a time (one slice of the first axis), so
    keep N <= 4.
    """
    order = 3
    c0 = comb(2 * order, order)
    xi = 2.0 * pi * (np.arange(quad_points) + 0.5) / quad_points
    k = xi.copy()
    for j in range(1, order + 1):
        k += (2.0 * (-1) ** j * comb(2 * order, order + j) / c0) * np.sin(j * xi) / j
    w = (2.0 - 2.0 * np.cos(xi)) ** order / c0
    sym = 4.0 * np.sin(k / 2.0) ** 2
    rest = reduce(np.add.outer, [sym] * (dim - 1), np.zeros(()))
    rest_w = reduce(np.multiply.outer, [w] * (dim - 1), np.ones(()))
    total = sum(
        wi * np.sum((si + rest) ** (alpha / 2.0) * rest_w) for si, wi in zip(sym, w)
    )
    return float(total / quad_points**dim)


def full_window_convolve(table, grids: np.ndarray) -> np.ndarray:
    """Oracle for kernel._fft_convolve: R * w for each box grid on the
    trailing N axes, by numpy's irfftn over the whole circular grid of side
    next_fast_len(4r+1), cut to the window [2r, 4r] per axis.  No pruning,
    and the whole stack in one transform."""
    dim, r = table.dim, table.radius
    fshape = (next_fast_len(4 * r + 1, True),) * dim
    axes = tuple(range(-dim, 0))
    spectra = np.fft.rfftn(grids, fshape, axes) * np.fft.rfftn(table.values, fshape, axes)
    out = np.fft.irfftn(spectra, fshape, axes)
    return out[(...,) + (slice(2 * r, 4 * r + 1),) * dim]


# -- probes of the theory ---------------------------------------------------


def support_radius(u: Field) -> int:
    """Largest sup-norm coordinate carrying a nonzero value; -1 if u = 0."""
    nz = np.flatnonzero(u.values)
    if nz.size == 0:
        return -1
    return int(np.max(np.abs(u.spec.coordinate_array()[nz])))


def gradient_form_grid(u: Field, v: Field, margin: int = 1) -> np.ndarray:
    """Gamma(u, v) on the box enlarged by `margin` sites per side."""
    if u.spec != v.spec:
        raise DomainError("fields live on different lattices")
    ubig = np.pad(u.grid(), margin + 1)
    vbig = np.pad(v.grid(), margin + 1)
    core = (slice(1, -1),) * ubig.ndim
    acc = np.zeros(ubig[core].shape)
    for ax in range(ubig.ndim):
        for step in (1, -1):
            du = np.roll(ubig, -step, ax) - ubig
            dv = np.roll(vbig, -step, ax) - vbig
            acc += du[core] * dv[core]
    return 0.5 * acc


def ibp_check(u: Field, v: Field, p: float) -> tuple[float, float]:
    """Summation-by-parts identity, both sides.

    Returns (lhs, rhs) with

        lhs = sum_x |grad u|^{p-2}(x) Gamma(u, v)(x)
        rhs = -sum_x (Delta_p u)(x) v(x).

    The identity is exact on the whole lattice for finitely supported fields;
    under truncation it stays exact provided v vanishes within distance 2 of
    the box boundary, which is enforced here.
    """
    if not np.isfinite(p) or p < 2:
        raise ValueError("p must be >= 2")
    if u.spec != v.spec:
        raise DomainError("fields live on different lattices")
    if support_radius(v) > v.spec.radius - 2:
        raise ValueError(
            "v must vanish within distance 2 of the box boundary for the "
            "truncated identity to be exact"
        )
    w = gradient_form_grid(u, u) ** ((p - 2.0) / 2.0)
    lhs = float(np.sum(w * gradient_form_grid(u, v)))
    rhs = -float(np.sum(_p_laplacian_parts(u, p)[0] * v.values))
    return lhs, rhs


def fiber_phi(ctx, u: Field, s: float) -> float:
    """phi(s) = <J'(su), su>, evaluated directly at the scaled field."""
    if s <= 0:
        raise ValueError("the fiber parameter s must be positive")
    if not np.any(u.values):
        raise DomainError("the zero field has no fiber map")
    return fiber_coefficients(ctx, Field(u.spec, s * u.values)).phi(1.0)


def m_inverse(ctx, u: Field) -> Field:
    """Inverse of the sphere-to-manifold homeomorphism: u -> u / ||u||."""
    coeffs = fiber_coefficients(ctx, u)
    if coeffs.norm_pow == 0.0:
        raise DomainError("the zero field is not on the constraint manifold")
    defect = abs(coeffs.phi(1.0))
    if defect > 1e-6 * coeffs.norm_pow:
        raise DomainError(
            f"field is not on the constraint manifold: |<J'(u), u>| = "
            f"{defect:.3e} vs norm^p = {coeffs.norm_pow:.3e}"
        )
    return Field(u.spec, u.values / coeffs.norm_pow ** (1.0 / ctx.model.p))


def psi_grad_pairing(ctx, w: Field, z: Field) -> float:
    """Directional derivative of Psi at w along a tangent direction z.

    Computed as ||m(w)|| <grad J(m(w)), z>; requires ||w|| = 1 and z tangent
    at w, i.e. (w, z) = 0 under the norm pairing.
    """
    norm = h_norm(ctx, w)
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(f"psi requires a unit-norm field, got norm {norm!r}")
    kappa = pairing_field(ctx, w)
    tangency = float(np.dot(kappa.values, z.values))
    scale = float(np.linalg.norm(kappa.values) * np.linalg.norm(z.values))
    if abs(tangency) > 1e-6 * max(scale, 1e-300):
        raise DomainError(
            f"direction is not tangent: |(w, z)| = {abs(tangency):.3e}"
        )
    coeffs = fiber_coefficients(ctx, w)
    s = _phi_root(coeffs)
    return s * float(np.dot(coeffs.gradient(s, kappa), z.values))


@dataclass(frozen=True)
class GeometryProbe:
    """Witnesses for the minimax geometry: a positive floor on a small
    sphere, and a far point with negative energy."""

    rho: float
    sigma: float
    witness: Field


def mountain_pass_geometry_probe(
    ctx, n_samples: int = 64, seed: int = 0
) -> GeometryProbe:
    """Find rho > 0 with min J >= sigma > 0 on the norm sphere of radius rho,
    plus a witness e beyond it with J(e) < 0.

    Scans dyadic radii down to 1e-4, sampling `n_samples` random directions
    per radius; raises when no radius yields a positive floor.
    """
    rng = np.random.default_rng(seed)
    spec = ctx.spec
    dirs = []
    for _ in range(n_samples):
        v = Field(spec, rng.standard_normal(spec.site_count))
        dirs.append(Field(spec, v.values / h_norm(ctx, v)))

    best_rho = 0.0
    best_sigma = -np.inf
    rho = 1.0
    while rho >= 1e-4:
        sigma = min(
            energy_J(ctx, Field(spec, rho * d.values)) for d in dirs
        )
        if sigma > best_sigma:
            best_rho, best_sigma = rho, sigma
        rho *= 0.5
    if best_sigma <= 0:
        raise ModelViolationError(
            "no radius down to 1e-4 gives a positive energy floor"
        )

    e_dir = dirs[0]
    t = max(2.0 * best_rho, 1.0)
    for _ in range(60):
        witness = Field(spec, t * e_dir.values)
        if energy_J(ctx, witness) < 0 and t > best_rho:
            break
        t *= 2.0
    else:
        raise ModelViolationError("energy never turns negative along a ray")
    return GeometryProbe(rho=best_rho, sigma=best_sigma, witness=witness)


_GOLDEN = (sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITERS = 200


def golden_max(
    fn, lo: float, hi: float, rel_tol: float = 1e-10
) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_MAX_ITERS):
        if b - a <= rel_tol * max(abs(a), abs(b), 1e-30):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    s = c if fc >= fd else d
    return float(s), float(max(fc, fd))


def fiber_max_golden(ctx, u: Field, rel_tol: float = 1e-10) -> tuple[float, float]:
    """Directly maximize s -> J(su) by golden section (independent of phi).

    Each probe evaluates the energy at the scaled field from scratch, so this
    serves as an optimization oracle for the root-based projection.
    """
    if not np.any(u.values):
        raise DomainError("the zero field has no fiber map")

    def val(s: float) -> float:
        return energy_J(ctx, Field(u.spec, s * u.values))

    hi = 1.0
    for _ in range(60):
        if val(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ModelViolationError("fiber energy never turns negative")
    return golden_max(val, 0.0, hi, rel_tol=rel_tol)


@dataclass(frozen=True)
class MountainPassLevel:
    """Path level along the ray through the candidate, and a sampled bound."""

    path_level: float
    direction_min: float
    t_negative: float


def mountain_pass_level(
    ctx, u_star: Field, n_dirs: int = 1000, seed: int = 0
) -> MountainPassLevel:
    """Cross-check the minimax characterization of the level c.

    Doubles t until J(t u*) < 0, maximizes J along the straight path from 0
    to t u* (the max should reproduce J(u*)), and returns the minimum over
    `n_dirs` random directions of the fiber maximum max_s J(su), which can
    never undercut c.
    """
    t = 1.0
    for _ in range(60):
        t *= 2.0
        if energy_J(ctx, Field(u_star.spec, t * u_star.values)) < 0:
            break
    else:
        raise ModelViolationError("energy never turns negative along the ray")

    _, path_level = golden_max(
        lambda s: energy_J(ctx, Field(u_star.spec, s * t * u_star.values)),
        0.0,
        1.0,
        rel_tol=1e-12,
    )

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_dirs):
        v = Field(ctx.spec, rng.standard_normal(ctx.spec.site_count))
        coeffs = fiber_coefficients(ctx, v)
        s_v = _phi_root(coeffs)
        best = min(best, float(coeffs.energy(s_v)))
    return MountainPassLevel(
        path_level=float(path_level), direction_min=float(best), t_negative=t
    )
