"""Ground-state search by preconditioned descent on the unit sphere.

The scaling degree of freedom is eliminated through the fiber projection:
minimizing J over the constraint manifold is the same as minimizing
Psi(w) = J(m(w)) over the unit sphere S of the space norm.  Each iterate

    w_{k+1} = normalize(w_k + t_k z_k),
    z_k     = -(P^{-1} g_k - lambda_k P^{-1} kappa_k),
    lambda_k = <kappa_k, P^{-1} g_k> / <kappa_k, P^{-1} kappa_k>,

steps along the gradient g_k = grad J(m(w_k)) taken in the metric of P
(a Sobolev gradient, Neuberger 1997) and projected in that metric onto the
tangent hyperplane {z : <kappa_k, z> = 0} of the norm pairing (kappa_k is
the pairing field of w_k), then retracts radially.  The directional
derivative of Psi along z is s_k <g_k, z> <= 0, by Cauchy-Schwarz in the
P^{-1} inner product.

P^{-1} = S L^{-1} S, after Huang, Li & Liu (J. Sci. Comput. 32, 2007):
L = -Delta + h0 on the box with zero extension (h0 the potential's floor) is
diagonalized by the orthonormal DST-I, applied per axis as a dense sine
matrix (symmetric and its own inverse), and the diagonal S rescales it to the
linearized weighted p-Laplacian at w_k, whose diagonal is

    a(x) = h(x) (|w|^{p-2}(x) + eps)
           + sum_{y ~ x} [1/2 (|grad w|^{p-2}(x) + |grad w|^{p-2}(y)) + eps],

with S = sqrt((2N + h0) / a).  For p = 2 and constant h, P = (1 + eps) L.
Steps start from a Barzilai-Borwein estimate on differences of the
direction and backtrack under an Armijo test, which allows Psi a few ulps of
roundoff.  Multi-start guards against
nonglobal minima; the best converged start wins.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import default_rng

from .energy import (
    EnergyContext,
    energy_J,
    h_norm,
    nehari_functional,
    pairing_field,
    pointwise_residual,
)
from .lattice import Field, p_laplacian_diagonal, random_field
from .nehari import fiber_coefficients, _phi_root

__all__ = [
    "SolverConfig",
    "SolveReport",
    "StartDiagnostics",
    "NonconvergenceError",
    "minimize_ground_state",
    "center_normalize",
]

logger = logging.getLogger(__name__)

_STEP_FLOOR = 1e-14
# Armijo line search: first step (before any Barzilai-Borwein estimate),
# backtracking factor, and sufficient-decrease fraction of the slope
_STEP0 = 1.0
_BACKTRACK = 0.5
_SUFFICIENT_DECREASE = 1e-4
# a trial that raises Psi by roundoff alone still passes: near a minimum the
# slope term falls below Psi's last bits, and rejecting such steps stalls
_ROUNDOFF = 4.0 * np.finfo(float).eps
_METRIC_EPS = 1e-3  # keeps the metric's weights positive where w or grad w is 0
# a start converges once, besides the residual test, Psi fell by at most this
# fraction of max(1, |Psi|) in its last step
_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Descent parameters; the defaults suit desk-scale boxes."""

    max_iters: int = 5000
    grad_tol: float = 1e-8
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True)
class StartDiagnostics:
    """How one start ended; `stop` is "converged", "zero_direction",
    "step_floor" or "max_iters".  Every trial solves one fiber root, and the
    start itself one more."""

    start: int
    converged: bool
    iterations: int
    energy: float
    residual: float
    trials: int
    roots: int
    stop: str

    def log_line(self) -> str:
        return (
            f"start {self.start}: {self.iterations} iterations, {self.trials} "
            f"trials, {self.roots} fiber roots, residual={self.residual:.3e}, "
            f"converged={self.converged}, stop={self.stop}"
        )


class NonconvergenceError(RuntimeError):
    """No start met the residual and stall criteria."""

    def __init__(self, diagnostics: list[StartDiagnostics]):
        self.diagnostics = diagnostics
        lines = ", ".join(
            f"start {d.start}: iters={d.iterations} energy={d.energy:.6g} "
            f"residual={d.residual:.3e} stop={d.stop}"
            for d in diagnostics
        )
        super().__init__(f"no start converged ({lines})")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a ground-state search.

    The candidate u is on the constraint manifold by construction; `energy`
    is J(u), the reported level c.  Histories cover the winning start only.
    """

    u: Field
    energy: float
    nehari_residual: float
    pointwise_residual: float
    s_history: tuple[float, ...]
    psi_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    iterations: int
    winner_start: int
    start_energies: tuple[float, ...]
    diagnostics: tuple[StartDiagnostics, ...] = field(default=())

    def scalars(self) -> dict:
        return {
            "c": self.energy,
            "nehari_residual": self.nehari_residual,
            "pointwise_residual": self.pointwise_residual,
            "iterations": self.iterations,
            "winner_start": self.winner_start,
            "start_energies": list(self.start_energies),
            "s_history": list(self.s_history),
            "starts": [asdict(d) for d in self.diagnostics],
        }


@dataclass
class _StartResult:
    w: Field
    s: float
    diag: StartDiagnostics
    s_history: list
    psi_history: list
    residual_history: list

    @property
    def iterations(self) -> int:
        return self.diag.iterations


def initial_fields(ctx: EnergyContext, cfg: SolverConfig) -> list[Field]:
    """Start 0 is a centered bump; the rest are seeded noise with decay."""
    spec = ctx.spec
    unit = np.eye(spec.dim, dtype=int)
    bump = Field.delta(spec).values + 0.5 * sum(
        Field.delta(spec, e).values for e in np.vstack([unit, -unit])
    )
    fields = [Field(spec, bump)]
    for k in range(1, cfg.n_starts):
        fields.append(random_field(spec, default_rng([cfg.seed, k]), decay=0.5))
    return fields


def _dirichlet_basis(ctx: EnergyContext) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal DST-I matrix of one box side, symmetric and its own
    inverse, and the eigenvalues of L = -Delta + h0 on the box with zero
    extension on the grid of the transform that diagonalizes L; cached on
    the context."""
    cached = getattr(ctx, "_dirichlet", None)
    if cached is None:
        n = ctx.spec.side
        k = np.arange(1, n + 1)
        phase = np.outer(k, k) % (2 * n + 2)  # exact reduction by the period
        sine = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
        axis = 2.0 - 2.0 * np.cos(np.pi * k / (n + 1))
        eig = ctx.model.potential.floor + sum(np.ix_(*[axis] * ctx.spec.dim))
        cached = (sine, eig)
        object.__setattr__(ctx, "_dirichlet", cached)
    return cached


def _sine_transform(grids: np.ndarray, sine: np.ndarray, dim: int) -> np.ndarray:
    """The DST-I over the trailing `dim` axes, one axis at a time: each
    pass transforms the last axis and moves it in front of the others."""
    for _ in range(dim):
        grids = np.moveaxis(grids @ sine, -1, -dim)
    return grids


def _metric_inverse(ctx: EnergyContext, w: Field, v: np.ndarray) -> np.ndarray:
    """P^{-1} v = S L^{-1} S v at the unit-norm iterate w, for a flat field v
    or a stack of them (the last axis runs over sites)."""
    p, dim = ctx.model.p, ctx.spec.dim
    h0 = ctx.model.potential.floor
    a = (
        ctx.h_flat * (np.abs(w.values) ** (p - 2.0) + _METRIC_EPS)
        + p_laplacian_diagonal(w, p).reshape(-1)
        + 2 * dim * _METRIC_EPS
    )
    scale = np.sqrt((2 * dim + h0) / a)
    sine, eig = _dirichlet_basis(ctx)
    grid = (scale * v).reshape(v.shape[:-1] + ctx.spec.shape)
    spec = _sine_transform(grid, sine, dim) / eig
    return scale * _sine_transform(spec, sine, dim).reshape(v.shape)


def _tangent_direction(
    ctx: EnergyContext, w: Field, g: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """d = P^{-1} g - lambda P^{-1} kappa, so that <kappa, d> = 0 and the
    descent direction z = -d has slope s <g, z> <= 0."""
    pg, pk = _metric_inverse(ctx, w, np.stack((g, kappa)))
    lam = float(np.dot(kappa, pg)) / float(np.dot(kappa, pk))
    return pg - lam * pk


def _descend(ctx: EnergyContext, cfg: SolverConfig, w0: Field, start: int) -> _StartResult:
    norm0 = h_norm(ctx, w0)
    if norm0 == 0.0:
        raise ValueError("initial field must be nonzero")
    w = Field(ctx.spec, w0.values / norm0)
    coeffs = fiber_coefficients(ctx, w, norm_pow=1.0)
    s = _phi_root(coeffs)
    trials = 0
    roots = 1
    stop = "max_iters"
    psi_val = float(coeffs.energy(s))

    s_hist: list[float] = []
    psi_hist: list[float] = []
    res_hist: list[float] = []

    prev_w = None
    prev_d = None
    step = _STEP0
    converged = False
    it = 0

    for it in range(cfg.max_iters):
        kappa = pairing_field(ctx, w)
        g = coeffs.gradient(s, kappa)
        resid = float(np.max(np.abs(g)))

        s_hist.append(s)
        psi_hist.append(psi_val)
        res_hist.append(resid)

        scale = max(1.0, s ** (ctx.model.p - 1.0))
        if resid <= cfg.grad_tol * scale and it > 0 and (
            psi_hist[-2] - psi_val <= _ENERGY_TOL * max(1.0, abs(psi_val))
        ):
            converged = True
            stop = "converged"
            break

        d = _tangent_direction(ctx, w, g, kappa.values)
        slope = -s * float(np.dot(g, d))  # d/dt Psi(retract(w - t d)) at t = 0
        if not slope < 0:
            converged = resid <= cfg.grad_tol * scale
            stop = "zero_direction"
            break

        if prev_w is not None:
            dw = w.values - prev_w
            denom = float(np.dot(dw, d - prev_d))
            num = float(np.dot(dw, dw))
            if denom > 0 and np.isfinite(denom) and num > 0:
                step = min(max(num / denom, 1e-12), 1e6)
        prev_w = w.values.copy()
        prev_d = d

        t = step
        accepted = False
        while t >= _STEP_FLOOR:
            trial_vals = w.values - t * d
            trial = Field(ctx.spec, trial_vals)
            tnorm = h_norm(ctx, trial)
            trials += 1
            if tnorm > 0:
                # unit norm by construction: the norm is not computed again
                w_try = Field(ctx.spec, trial_vals / tnorm)
                coeffs_try = fiber_coefficients(ctx, w_try, norm_pow=1.0)
                s_try = _phi_root(coeffs_try)
                roots += 1
                psi_try = float(coeffs_try.energy(s_try))
                bound = psi_val + _SUFFICIENT_DECREASE * t * slope
                if psi_try <= bound + _ROUNDOFF * abs(psi_val):
                    w, coeffs, s, psi_val = w_try, coeffs_try, s_try, psi_try
                    accepted = True
                    break
            t *= _BACKTRACK
        if not accepted:
            # finite-precision stall: w did not move, so the residual from
            # the top of the loop is current; accept iff it already meets
            # the stationarity criterion
            converged = resid <= cfg.grad_tol * scale
            stop = "step_floor"
            break

    diag = StartDiagnostics(
        start=start,
        converged=converged,
        iterations=it + 1,
        energy=psi_val,
        residual=res_hist[-1] if res_hist else float("inf"),
        trials=trials,
        roots=roots,
        stop=stop,
    )
    logger.info(diag.log_line())
    return _StartResult(
        w=w,
        s=s,
        diag=diag,
        s_history=s_hist,
        psi_history=psi_hist,
        residual_history=res_hist,
    )


def minimize_ground_state(
    ctx: EnergyContext, cfg: SolverConfig | None = None, threads: int = 1
) -> SolveReport:
    """Search for the ground-state level c = inf of J over the manifold.

    Runs `cfg.n_starts` independent descents and returns the lowest converged
    one.  Raises NonconvergenceError with per-start diagnostics when no start
    meets the residual criterion, and propagates model violations.
    """
    cfg = cfg or SolverConfig()
    starts = initial_fields(ctx, cfg)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda kw: _descend(ctx, cfg, kw[1], kw[0]), enumerate(starts))
            )
    else:
        results = [_descend(ctx, cfg, w0, k) for k, w0 in enumerate(starts)]

    diags = tuple(r.diag for r in results)
    converged = [(k, r) for k, r in enumerate(results) if r.diag.converged]
    if not converged:
        raise NonconvergenceError(list(diags))
    winner_idx, winner = min(converged, key=lambda kr: (kr[1].diag.energy, kr[0]))

    u_star = Field(ctx.spec, winner.s * winner.w.values)
    energy = energy_J(ctx, u_star)
    report = SolveReport(
        u=u_star,
        energy=float(energy),
        nehari_residual=abs(nehari_functional(ctx, u_star)),
        pointwise_residual=pointwise_residual(ctx, u_star),
        s_history=tuple(winner.s_history),
        psi_history=tuple(winner.psi_history),
        residual_history=tuple(winner.residual_history),
        iterations=winner.iterations,
        winner_start=winner_idx,
        start_energies=tuple(d.energy for d in diags),
        diagnostics=diags,
    )
    logger.info(
        "ground-state candidate: c=%.12g nehari=%.3e pointwise=%.3e "
        "(start %d, %d iterations)",
        report.energy,
        report.nehari_residual,
        report.pointwise_residual,
        winner_idx,
        winner.iterations,
    )
    return report


def center_normalize(ctx: EnergyContext, u: Field) -> Field:
    """Translate by potential periods so the sup-norm argmax lies in the
    fundamental cell at the box center.

    Valid for periodic potentials (constant counts with period 1).  The
    translation is skipped, with a log flag, when the support would leave the
    box or the energy check disagrees; coercive potentials admit no valid
    translation and pass through unchanged.
    """
    T = ctx.model.potential.period
    if T is None:
        logger.info("center_normalize: coercive potential, no translation applied")
        return u
    if not np.any(u.values):
        return u
    argmax = int(np.argmax(np.abs(u.values)))
    peak = ctx.spec.point_of(argmax)
    shift = tuple(-T * (c // T) for c in peak)
    if all(s == 0 for s in shift):
        return u
    r = ctx.spec.radius
    coords = ctx.spec.coordinate_array()[np.flatnonzero(u.values)]
    lo = coords.min(axis=0) + np.asarray(shift)
    hi = coords.max(axis=0) + np.asarray(shift)
    if np.any(lo < -r) or np.any(hi > r):
        logger.warning(
            "center_normalize skipped: translated support would leave the box"
        )
        return u
    moved = u.translated(shift)
    j0 = energy_J(ctx, u)
    j1 = energy_J(ctx, moved)
    if abs(j1 - j0) > 1e-12 * max(1.0, abs(j0)):
        logger.warning(
            "center_normalize skipped: energy moved by %.3e under translation",
            abs(j1 - j0),
        )
        return u
    return moved
