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
start wins.  The starts descend in lockstep stacks held as arrays with a row
per running start: a round's transforms, gradients, metric solve, dots (one
`np.vecdot` per quantity, equal to `np.dot` per row), fiber roots, steps and
tests each run once over the rows, elementwise, so a start has the bits it
has alone.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.random import default_rng

from .energy import (
    EnergyContext,
    _pairing_parts,
    _stacked_gradient,
    energy_J,
    h_norm,
    pairing_field,
)
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
# bytes of a lockstep stack's (g, kappa) pairs, the largest stacked array of
# the metric solve: up to 7 starts to a stack on a 3D r=6 box, 9 on a 2D r=20
# box.  A larger budget runs fewer rounds, but on the 3D r=6 box one stack of
# 8 raised the peak memory by 2.3 MB over stacks of 3, against 0.6 MB for
# stacks of 4 (budget table in BENCH_29.json)
_LOCKSTEP_BYTES = 1 << 18
# a lockstep stack's row arrays, and those a start keeps when it stops
_KEPT = ("w", "s", "psi", "trials", "its", "resid", "stationary", "stop")
_ROWS = ("ids", "d", "dw", "psi_turn", "t", "slope", "step", *_KEPT)


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
class _Lockstep:
    """A lockstep stack as arrays with a row or entry per running start (`ids`
    numbers them in `starts`): the unit-norm iterates w, directions d, last
    moves dw and convolved powers `conv` of w (an array per term); each
    start's root s, level psi, level at its last turn, trial step t and
    slope, Barzilai-Borwein step, counts, residual, residual test and stop
    ("" while it runs).  Per turn, `history` holds the ids that turned with
    their s, psi and residual; per start, `final` the _KEPT rows it left."""

    starts: list
    w: np.ndarray
    conv: tuple
    s: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.w)
        self.ids, self.d, self.dw = np.arange(n), np.zeros_like(self.w), np.zeros_like(self.w)
        self.psi_turn = np.full(n, np.inf)  # no turn yet: no energy test
        self.t, self.slope, self.step = np.zeros(n), np.zeros(n), np.full(n, _STEP0)
        self.trials, self.its = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        self.resid, self.stationary = np.zeros(n), np.zeros(n, dtype=bool)
        self.stop, self.history = np.full(n, "", dtype="<U14"), []
        self.final = {k: np.empty_like(getattr(self, k)) for k in _KEPT}

    @property
    def iterations(self) -> int:
        return int(self.final["its"].sum())

    def retire(self) -> np.ndarray:
        """Move stopped rows into `final`, out of the row arrays; returns the mask kept."""
        keep = self.stop == ""
        if not keep.all():
            for k, out in self.final.items():
                out[self.ids[~keep]] = getattr(self, k)[~keep]
            for k in _ROWS:
                setattr(self, k, getattr(self, k)[keep])
            self.conv = tuple(c[keep] for c in self.conv)
        return keep

    def diagnostics(self) -> list[StartDiagnostics]:
        """Per start: converged if it stopped on a passed residual test before max_iters."""
        f = self.final
        ok = f["stationary"] & (f["stop"] != "max_iters")
        cols = (ok, f["its"], f["psi"], f["resid"], f["trials"], f["trials"] + 1, f["stop"])
        return [StartDiagnostics(*row) for row in zip(self.starts, *(c.tolist() for c in cols))]


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


def _tangent_direction(ctx: EnergyContext, w, lap_diag, g: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """d = P^{-1} g - lambda P^{-1} kappa, so that <kappa, d> = 0 and the
    descent direction z = -d has slope s <g, z> <= 0; row by row for a
    stack, with one `np.vecdot` per dot over the rows."""
    # (g, kappa) pairs per iterate keep a 1D sine transform's matrix shapes
    pd = _metric_inverse(ctx, w, lap_diag, np.concatenate((g[..., None, :], kappa[..., None, :]), -2))
    pg, pk = pd[..., 0, :], pd[..., 1, :]
    lam = np.vecdot(kappa, pg) / np.vecdot(kappa, pk)
    return pg - lam[..., None] * pk


def _turn(ctx: EnergyContext, cfg: SolverConfig, st: _Lockstep, sel) -> None:
    """Begin an iteration on the rows `sel` (a mask, or all) of the stack: the
    gradient and stopping tests, then the direction (into `d`) and first step."""
    p, w, s, psi = ctx.model.p, st.w[sel], st.s[sel], st.psi[sel]
    kappa, lap_diag = _pairing_parts(ctx, Field._unchecked(ctx.spec, w))
    g = _stacked_gradient(ctx.model.nonlinearity, p, s, w, [c[sel] for c in st.conv], kappa)
    resid = np.maximum.reduce(np.abs(g), axis=1)
    st.history.append((st.ids[sel], s, psi, resid))  # no s or psi is written in place
    st.its[sel] += 1
    st.resid[sel] = resid
    st.stationary[sel] = stationary = resid <= cfg.grad_tol * np.maximum(1.0, np.power(s, p - 1.0))
    fell, st.psi_turn[sel] = st.psi_turn[sel] - psi, psi
    done = stationary & (fell <= _ENERGY_TOL * np.maximum(1.0, np.abs(psi)))
    if done.all():  # else the stopped rows get a direction too: no second stack
        st.stop[sel] = "converged"
        return
    dr = _tangent_direction(ctx, w, lap_diag, g, kappa)
    dw = st.dw[sel]  # moves of w; a zero one (no move yet) fails the BB test
    gd, denoms, nums = np.vecdot(g, dr), np.vecdot(dw, dr - st.d[sel]), np.vecdot(dw, dw)
    slope = -s * gd  # d/dt Psi(retract(w - t d)) at t = 0
    go = ~done & (slope < 0)
    st.stop[sel] = np.where(done, "converged", np.where(go, "", "zero_direction"))
    bb = go & (denoms > 0) & np.isfinite(denoms) & (nums > 0)
    step = st.step[sel]  # a view when all rows turn
    step[bb] = np.minimum(np.maximum(nums[bb] / denoms[bb], 1e-12), 1e6)
    st.step[sel], st.slope[sel], st.t[sel], st.d[sel] = step, slope, step, dr


def _retract(ctx: EnergyContext, x: np.ndarray):
    """The rows w of x scaled to unit norm and projected: (w, s, coeffs, J(m(w))).
    The rounds build fields unchecked, so a zero or non-finite row stops here."""
    norms = h_norm(ctx, Field._unchecked(ctx.spec, x))
    if not ((norms > 0) & (norms < np.inf)).all():
        raise ValueError(f"descent fields must be nonzero and finite; norms {norms}")
    w = x / norms[:, None]
    s, coeffs = project_su(ctx, Field._unchecked(ctx.spec, w), norm_pow=1.0)
    return w, s, coeffs, coeffs.energy(s)


def _trial_round(ctx: EnergyContext, cfg: SolverConfig, st: _Lockstep) -> np.ndarray:
    """One Armijo trial w - t d on every row (<kappa, w - t d> = 1: not zero),
    retracted and projected.  A row whose trial passes moves there (when all
    do, the trial's arrays become the state without a copy); one that fails
    halves t, down to the step floor.  Returns the mask of the rows that moved."""
    w_try, s, coeffs, psi_try = _retract(ctx, st.w - st.t[:, None] * st.d)
    st.trials += 1
    bound = st.psi + _SUFFICIENT_DECREASE * st.t * st.slope
    ok = psi_try <= bound + _ROUNDOFF * np.abs(st.psi)
    if ok.all():
        st.dw, st.w, st.conv, st.s, st.psi = w_try - st.w, w_try, coeffs.conv_fields, s, psi_try
    else:
        st.s, st.psi = np.where(ok, s, st.s), np.where(ok, psi_try, st.psi)
        for conv, new in zip(st.conv, coeffs.conv_fields):
            conv[ok] = new[ok]
        st.dw[ok] = w_try[ok] - st.w[ok]
        st.w[ok] = w_try[ok]
        st.t[~ok] *= _BACKTRACK
    st.stop[ok & (st.its == cfg.max_iters)] = "max_iters"
    # finite-precision stall: w did not move, so the residual test of this
    # iteration is current
    st.stop[~ok & (st.t < _STEP_FLOOR)] = "step_floor"
    return ok[st.retire()]


def _descend(ctx: EnergyContext, cfg: SolverConfig, w0: Field, starts: list[int]) -> _Lockstep:
    """Descend from the rows of w0, numbered `starts`, in lockstep: each round, the
    rows that moved (all at first) begin an iteration, then every running row tries a step."""
    w, s, coeffs, psi = _retract(ctx, w0.values)
    st = _Lockstep(starts, w, coeffs.conv_fields, s, psi)
    moved = np.ones(len(w), dtype=bool)
    while True:
        if moved.any():
            _turn(ctx, cfg, st, slice(None) if moved.all() else moved)
            st.retire()
        if not st.ids.size:
            return st
        moved = _trial_round(ctx, cfg, st)


def _stack_rows(ctx: EnergyContext) -> int:
    """Starts per lockstep stack: as many as keep one (g, kappa) pair per
    row within _LOCKSTEP_BYTES, and at least one.  The kernel splits a
    stack's transforms by its own rule."""
    return max(1, _LOCKSTEP_BYTES // (16 * ctx.spec.site_count))


def minimize_ground_state(
    ctx: EnergyContext, cfg: SolverConfig | None = None, threads: int = 1
) -> SolveReport:
    """Search for the ground-state level c = inf of J over the manifold.

    Runs `cfg.n_starts` independent descents and returns the lowest
    converged one.  The starts run in lockstep stacks, at least one per
    thread and none above `_stack_rows(ctx)` starts (all 8 on a 2D r=6 box,
    7 on a 3D r=6 box, whose 8 starts run as two stacks of 4).  Raises
    NonconvergenceError with per-start diagnostics when no start meets the
    residual criterion, and propagates model violations.
    """
    cfg = cfg or SolverConfig()
    starts = initial_fields(ctx, cfg)
    count = max(threads, -(-cfg.n_starts // _stack_rows(ctx)))
    stacks = np.array_split(np.arange(cfg.n_starts), min(count, cfg.n_starts))

    def run(rows: np.ndarray) -> _Lockstep:
        return _descend(ctx, cfg, Field(ctx.spec, starts.values[rows]), rows.tolist())

    if threads == 1:
        runs = list(map(run, stacks))
    else:  # imported here, so that a run on one thread loads no executor
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run, stacks))

    diags = tuple(d for st in runs for d in st.diagnostics())
    for d in diags:
        logger.info(d.log_line())
    converged = [k for k, d in enumerate(diags) if d.converged]
    if not converged:
        raise NonconvergenceError(list(diags))
    winner_idx = min(converged, key=lambda k: (diags[k].energy, k))
    st = next(st for st in runs if winner_idx in st.starts)
    j = st.starts.index(winner_idx)
    turned, *cols = (np.concatenate(col) for col in zip(*st.history))
    s_hist, psi_hist, res_hist = (col[turned == j].tolist() for col in cols)

    u_star = Field(ctx.spec, st.final["s"][j] * st.final["w"][j])
    coeffs = fiber_coefficients(ctx, u_star)
    residual = coeffs.gradient(1.0, pairing_field(ctx, u_star))
    report = SolveReport(
        u=u_star, energy=float(coeffs.energy(1.0)), nehari_residual=float(abs(coeffs.phi(1.0))),
        pointwise_residual=float(np.max(np.abs(residual))), s_history=tuple(s_hist),
        psi_history=tuple(psi_hist), residual_history=tuple(res_hist),
        iterations=diags[winner_idx].iterations, winner_start=winner_idx,
        start_energies=tuple(d.energy for d in diags), diagnostics=diags,
    )
    logger.info(
        "ground-state candidate: c=%.12g nehari=%.3e pointwise=%.3e (start %d, %d iterations)",
        report.energy, report.nehari_residual, report.pointwise_residual, winner_idx, report.iterations,
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
