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

with S = sqrt((2N + h0) / a), its weights summed in the stencil pass that
gives kappa_k.  For p = 2 and constant h, P = (1 + eps) L.
Steps start from a Barzilai-Borwein estimate on differences of the
direction and backtrack under an Armijo test, which allows Psi a few ulps of
roundoff.  Multi-start guards against nonglobal minima; the best converged
start wins.  The starts descend in lockstep stacks that share each round's
transforms, gradients, metric solve and dots (one `np.vecdot` per quantity,
equal to `np.dot` per row); roots, steps and tests stay plain floats per
start, so a start has the bits it has alone.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.random import default_rng

from .energy import (
    EnergyContext,
    FiberCoefficients,
    _pairing_parts,
    _stacked_gradient,
    energy_J,
    h_norm,
    pairing_field,
)
from .kernel import _STACK_BYTES
from .lattice import Field, random_field
from .nehari import fiber_coefficients, project_su

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
    "step_floor" or "max_iters".  `roots` is trials + 1: every trial
    projects through one certified fiber root, and the start itself one
    more."""

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


@dataclass(eq=False)
class _Start:
    """One start in its stack: the fiber evaluation of its unit-norm iterate
    (`coeffs.u`) and its certified root and level, as `project_su` returned
    them, the current slope and trial step, counts and histories.  A stopped
    start keeps them and its `diag`, but drops its convolved fields, which
    would stay alive, a stack's worth each, while the other stacks run."""

    start: int
    coeffs: FiberCoefficients
    s: float
    psi: float
    trials: int = 0
    step: float = _STEP0
    t: float = 0.0
    slope: float = 0.0
    stationary: bool = False  # the residual test of the current iteration
    diag: StartDiagnostics | None = None
    s_history: list = field(default_factory=list)
    psi_history: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    def finish(self, stop: str, converged: bool) -> None:
        counts = (self.iterations, self.psi, self.residual_history[-1], self.trials, self.trials + 1)
        self.diag = StartDiagnostics(self.start, converged, *counts, stop)
        self.coeffs = replace(self.coeffs, conv_fields=())


class _Stack(list):
    """The starts of one stack, in order; `iterations` sums theirs."""

    iterations = property(lambda self: sum(r.iterations for r in self))


def initial_fields(ctx: EnergyContext, cfg: SolverConfig) -> Field:
    """The stack of starts: start 0 is a centered bump, the rest are seeded
    noise with decay."""
    spec = ctx.spec
    unit = np.eye(spec.dim, dtype=int)
    bump = Field.delta(spec).values + 0.5 * sum(
        Field.delta(spec, e).values for e in np.vstack([unit, -unit])
    )
    rngs = [default_rng([cfg.seed, k]) for k in range(1, cfg.n_starts)]
    noise = [random_field(spec, rng, decay=0.5).values for rng in rngs]
    return Field(spec, np.stack([bump, *noise]))


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
    lead = grids.ndim - dim
    order = [*range(lead), grids.ndim - 1, *range(lead, grids.ndim - 1)]
    for _ in range(dim):
        grids = (grids @ sine).transpose(order)
    return grids


def _metric_inverse(ctx: EnergyContext, w, lap_diag, v: np.ndarray) -> np.ndarray:
    """P^{-1} v = S L^{-1} S v at the values w of the unit-norm iterate, given
    its frozen p-Laplacian diagonal (from the pass that gave its kappa), for
    a flat field v or a stack of them (the last axis runs over sites); a
    stack of iterates w acts row by row on the leading axis of v."""
    p, dim = ctx.model.p, ctx.spec.dim
    h0 = ctx.model.potential.floor
    a = ctx.h_flat * (np.abs(w) ** (p - 2.0) + _METRIC_EPS) + lap_diag + 2 * dim * _METRIC_EPS
    scale = np.sqrt((2 * dim + h0) / a)
    scale = scale.reshape(a.shape[:-1] + (1,) * (v.ndim - a.ndim) + a.shape[-1:])
    sine, eig = _dirichlet_basis(ctx)
    grid = (scale * v).reshape(v.shape[:-1] + ctx.spec.shape)
    spec = _sine_transform(grid, sine, dim) / eig
    return scale * _sine_transform(spec, sine, dim).reshape(v.shape)


def _tangent_direction(
    ctx: EnergyContext, w, lap_diag, g: np.ndarray, kappa: np.ndarray
) -> np.ndarray:
    """d = P^{-1} g - lambda P^{-1} kappa, so that <kappa, d> = 0 and the
    descent direction z = -d has slope s <g, z> <= 0; row by row for a
    stack, with one `np.vecdot` per dot over the rows."""
    # (g, kappa) pairs per iterate keep a 1D sine transform's matrix shapes
    pd = _metric_inverse(ctx, w, lap_diag, np.stack((g, kappa), axis=-2))
    pg, pk = pd[..., 0, :], pd[..., 1, :]
    lam = np.vecdot(kappa, pg) / np.vecdot(kappa, pk)
    return pg - lam[..., None] * pk


def _rows(a: np.ndarray, rows: list[int]) -> np.ndarray:
    """a[rows] for increasing rows, without a copy when they are all rows."""
    return a if len(rows) == len(a) else a[rows]


def _turn(ctx: EnergyContext, cfg: SolverConfig, runs: _Stack, w, d, dw, rows: list) -> None:
    """Begin an iteration on the `rows` of the stack: the gradient and the
    stopping tests, then the direction (into `d`) and first trial step."""
    wr = _rows(w, rows)
    kappa, lap_diag = _pairing_parts(ctx, Field(ctx.spec, wr))
    g = _stacked_gradient([runs[i].coeffs for i in rows], [runs[i].s for i in rows], kappa)
    for j, resid in enumerate(np.abs(g).max(axis=1).tolist()):
        r = runs[rows[j]]
        r.s_history.append(r.s)
        r.psi_history.append(r.psi)
        r.residual_history.append(resid)
        r.stationary = resid <= cfg.grad_tol * max(1.0, r.s ** (ctx.model.p - 1.0))
        if r.stationary and r.iterations > 1 and (
            r.psi_history[-2] - r.psi <= _ENERGY_TOL * max(1.0, abs(r.psi))
        ):
            r.finish("converged", True)
    go = [j for j, i in enumerate(rows) if runs[i].diag is None]
    if not go:  # else the stopped rows get a direction too: no second stack
        return
    dr = _tangent_direction(ctx, wr, lap_diag, g, kappa)
    dwr = _rows(dw, rows)  # moves of w; a zero one (no move yet) fails the BB test
    pairs = ((g, dr), (dwr, dr - _rows(d, rows)), (dwr, dwr))
    gd, denoms, nums = [np.vecdot(a, b).tolist() for a, b in pairs]
    turned = []
    for j in go:
        r = runs[rows[j]]
        slope = -r.s * gd[j]  # d/dt Psi(retract(w - t d)) at t = 0
        if not slope < 0:
            r.finish("zero_direction", r.stationary)
            continue
        if denoms[j] > 0 and np.isfinite(denoms[j]) and nums[j] > 0:
            r.step = min(max(nums[j] / denoms[j], 1e-12), 1e6)
        r.slope, r.t = slope, r.step
        turned.append(j)
    d[[rows[j] for j in turned]] = dr[turned]


def _trial_round(ctx: EnergyContext, cfg: SolverConfig, runs: _Stack, w, d, dw, rows: list) -> list:
    """One Armijo trial w - t d on each of the `rows`, retracted to the unit
    sphere and projected by `project_su` in one stacked fiber evaluation.
    Rows whose trial passes move there (in `w`, their moves in `dw`) in one
    assignment each; one that fails halves t, down to the step floor.
    Returns the rows that moved and go on."""
    t = np.array([runs[i].t for i in rows])[:, None]
    trial = _rows(w, rows) - t * _rows(d, rows)
    # <kappa, trial> = <kappa, w> = 1, so no trial is the zero field; the
    # retracted trial has unit norm by construction
    w_try = trial / np.array(h_norm(ctx, Field(ctx.spec, trial)))[:, None]
    passed = []
    for j, (s, c) in enumerate(project_su(ctx, Field(ctx.spec, w_try), norm_pow=1.0)):
        r = runs[rows[j]]
        r.trials += 1
        psi = float(c.energy(s))
        bound = r.psi + _SUFFICIENT_DECREASE * r.t * r.slope
        if psi <= bound + _ROUNDOFF * abs(r.psi):
            r.coeffs, r.s, r.psi = c, s, psi
            passed.append(j)
            if r.iterations == cfg.max_iters:
                r.finish("max_iters", False)
            continue
        r.t *= _BACKTRACK
        if r.t < _STEP_FLOOR:
            # finite-precision stall: w did not move, so the residual test
            # of this iteration is current
            r.finish("step_floor", r.stationary)
    moved = [rows[j] for j in passed]
    dw[moved] = w_try[passed] - w[moved]
    w[moved] = w_try[passed]
    return [i for i in moved if runs[i].diag is None]


def _descend(ctx: EnergyContext, cfg: SolverConfig, w0: Field, starts: list[int]) -> _Stack:
    """Descend from each row of the stack w0, numbered `starts`, in lockstep:
    each round, the rows that moved (all at first) begin an iteration, then
    every running row makes one trial.  Iterates, directions and last moves
    are rows of w, d and dw."""
    norms = h_norm(ctx, w0)
    if 0.0 in norms:
        raise ValueError("initial field must be nonzero")
    w = w0.values / np.array(norms)[:, None]
    d, dw = np.zeros_like(w), np.zeros_like(w)
    projected = project_su(ctx, Field(ctx.spec, w), norm_pow=1.0)
    runs = _Stack(_Start(k, c, s, float(c.energy(s))) for k, (s, c) in zip(starts, projected))
    turning = list(range(len(runs)))
    while True:
        if turning:
            _turn(ctx, cfg, runs, w, d, dw, turning)
        live = [i for i, r in enumerate(runs) if r.diag is None]
        if not live:
            break
        turning = _trial_round(ctx, cfg, runs, w, d, dw, live)
    for r in runs:
        logger.info(r.diag.log_line())
    return runs


def _stack_rows(ctx: EnergyContext) -> int:
    """Starts per lockstep stack: as many as keep one (g, kappa) pair per
    row, the largest stacked array of the metric solve, within _STACK_BYTES,
    and at least one.  The kernel splits a stack's transforms by its own
    rule."""
    return max(1, _STACK_BYTES // (16 * ctx.spec.site_count))


def minimize_ground_state(
    ctx: EnergyContext, cfg: SolverConfig | None = None, threads: int = 1
) -> SolveReport:
    """Search for the ground-state level c = inf of J over the manifold.

    Runs `cfg.n_starts` independent descents and returns the lowest
    converged one.  The starts run in lockstep stacks, at least one per
    thread and none above `_stack_rows(ctx)` starts (all 8 on a 2D r=6 box,
    3 on a 3D r=6 box).  Raises NonconvergenceError with per-start
    diagnostics when no start meets the residual criterion, and propagates
    model violations.
    """
    cfg = cfg or SolverConfig()
    starts = initial_fields(ctx, cfg)
    count = max(threads, -(-cfg.n_starts // _stack_rows(ctx)))
    stacks = np.array_split(np.arange(cfg.n_starts), min(count, cfg.n_starts))

    def run(rows: np.ndarray) -> _Stack:
        return _descend(ctx, cfg, Field(ctx.spec, starts.values[rows]), rows.tolist())

    with ThreadPoolExecutor(max_workers=threads) as pool:  # starts no thread unless used
        mapped = pool.map(run, stacks) if threads > 1 else map(run, stacks)
        results = [r for stack in mapped for r in stack]

    diags = tuple(r.diag for r in results)
    converged = [(k, r) for k, r in enumerate(results) if r.diag.converged]
    if not converged:
        raise NonconvergenceError(list(diags))
    winner_idx, winner = min(converged, key=lambda kr: (kr[1].diag.energy, kr[0]))

    u_star = Field(ctx.spec, winner.s * winner.coeffs.u)
    coeffs = fiber_coefficients(ctx, u_star)
    residual = coeffs.gradient(1.0, pairing_field(ctx, u_star))
    report = SolveReport(
        u=u_star,
        energy=float(coeffs.energy(1.0)),
        nehari_residual=abs(coeffs.phi(1.0)),
        pointwise_residual=float(np.max(np.abs(residual))),
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
