"""Lattice Green's kernel of fractional order by heat-semigroup subordination.

The kernel on Z^N is R_alpha = K_alpha G_s with s = alpha / 2, where

    G_s(d)  = (2 pi)^{-N} int_{T^N} cos(d . k) mu(k)^{-s} dk,
    K_alpha = (2 pi)^{-N} int_{T^N} mu(k)^{alpha/2} dk,

and mu(k) = 2N - 2 sum_j cos k_j.  Writing mu^{-s} as Gamma(s)^{-1} times
int_0^inf t^{s-1} e^{-t mu} dt, with the heat kernel of Z^N factorised per
axis as e^{-2t} I_d(2t) = ive(d, 2t) (Ciaurri, Roncal, Stinga, Torrea and
Varona, Adv. Math. 330, 2018), gives

    G_s(d) = delta_d + Gamma(s)^{-1} int_0^inf t^{s-1}
                 (prod_j ive(d_j, 2t) - delta_d e^{-t}) dt.

Subtracting delta_d e^{-t} (integral Gamma(s)) removes the t^{s-1}
singularity at the origin; the integrand decays like t^{s-1-N/2}, so G_s
exists for 0 < alpha < N.  The integral runs in x = log t over
[-40, log t_max] on 20-point Gauss-Legendre panels; beyond t_max the
six-term Hankel expansion of ive, multiplied across axes, is integrated
term by term.  t_max grows with the reach but stays capped, because ive
returns NaN for arguments beyond about 1.2e9.  A single value and a whole
table share this one evaluation; a coarser rule (wider panels, a smaller
t_max) gives the table's error estimate.

K_alpha has a bounded integrand with a Lipschitz corner at k = 0.  Its
product midpoint rule substitutes k_j = T(xi_j) per axis, with Jacobian
T'(xi) = (2 - 2 cos xi)^m / C(2m, m), which vanishes to order 2m at the
corner and integrates to 2 pi over the period:

    T(xi) = xi + 2 / C(2m, m) * sum_{j=1}^{m} (-1)^j C(2m, m+j) sin(j xi) / j.

The nodes cluster near k = 0 and restore fast convergence.  `quad_points`
and `transform_order` (m) set this rule and nothing else.  Symbol values
are computed as 4 sin^2(k/2), accurate where 2 - 2 cos k underflows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from math import ceil, comb, gamma, log, pi, sqrt
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import ive

from .lattice import DomainError, Field, LatticeSpec

__all__ = [
    "KernelTable",
    "mu",
    "fractional_degree",
    "riesz_kernel",
    "build_table",
    "convolve",
    "dense_operator",
    "CACHE_ENV_VAR",
]

DEFAULT_QUAD_POINTS = {1: 4096, 2: 512, 3: 64}
DEFAULT_TRANSFORM_ORDER = 3
CACHE_ENV_VAR = "LATTICE_CHOQUARD_KERNEL_CACHE"
METHOD = "subordination"
_CACHE_NAME = (
    "kernel_dim{dim}_r{radius}_alpha{alpha!r}_M{quad_points}_T{transform_order}.npz"
)

_GL_NODES, _GL_WEIGHTS = leggauss(20)
_LOG_T_MIN = -40.0
_PANEL = 3.0  # panel width in log t; the error estimate uses 3.5
_HANKEL_TERMS = 6


def mu(k: Sequence[float]) -> float:
    """Lattice symbol mu(k) = 2N - 2 sum_j cos k_j, evaluated stably."""
    arr = np.asarray(k, dtype=float)
    return float(np.sum(4.0 * np.sin(arr / 2.0) ** 2))


@lru_cache(maxsize=32)
def _nodes(quad_points: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Transformed midpoint nodes and weights on one axis of the torus."""
    xi = 2.0 * pi * (np.arange(quad_points) + 0.5) / quad_points
    if order == 0:
        k, w = xi, np.ones(quad_points)
    else:
        c0 = comb(2 * order, order)
        k = xi.copy()
        for j in range(1, order + 1):
            k += (2.0 * (-1) ** j * comb(2 * order, order + j) / c0) * np.sin(
                j * xi
            ) / j
        w = (2.0 - 2.0 * np.cos(xi)) ** order / c0
    k.setflags(write=False)
    w.setflags(write=False)
    return k, w


def _validate_quad(quad_points: int, transform_order: int) -> None:
    if not isinstance(quad_points, (int, np.integer)) or quad_points < 8:
        raise ValueError("quad_points must be an integer >= 8")
    if not isinstance(transform_order, (int, np.integer)) or transform_order < 0:
        raise ValueError("transform_order must be a nonnegative integer")


@lru_cache(maxsize=64)
def _k_alpha(dim: int, alpha: float, quad_points: int, order: int) -> float:
    k, w = _nodes(quad_points, order)
    s = 4.0 * np.sin(k / 2.0) ** 2
    grid = reduce(np.add.outer, [s] * dim)
    weight = reduce(np.multiply.outer, [w] * dim)
    return float(np.sum(grid ** (alpha / 2.0) * weight) / quad_points**dim)


def fractional_degree(
    dim: int,
    alpha: float,
    quad_points: int | None = None,
    transform_order: int = DEFAULT_TRANSFORM_ORDER,
) -> float:
    """Normalization constant K_alpha = (2 pi)^{-N} int mu^{alpha/2} dk.

    The integrand is bounded for every alpha > 0, so the constant exists
    beyond the kernel's own range (0, N); alpha <= 0 is rejected.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be positive")
    if quad_points is None:
        quad_points = DEFAULT_QUAD_POINTS.get(dim, 32)
    _validate_quad(quad_points, transform_order)
    return _k_alpha(int(dim), float(alpha), int(quad_points), int(transform_order))


def _t_max(reach: int) -> float:
    """Where the Hankel tail takes over: far past reach^2, below ive's limit."""
    return min(max(100.0 * reach**2, 1e6), 1e8)


def _hankel(nu: np.ndarray) -> np.ndarray:
    """Rows h_k(nu) of the expansion ive(nu, 2t) ~ sum_k h_k(nu) t^{-k-1/2}."""
    h = np.ones((_HANKEL_TERMS, nu.size))
    for k in range(1, _HANKEL_TERMS):
        h[k] = h[k - 1] * ((2 * k - 1) ** 2 - 4.0 * nu**2) / (16.0 * k)
    return h / sqrt(4.0 * pi)


def _green(
    axes: Sequence[np.ndarray], alpha: float, t_max: float, panel: float
) -> np.ndarray:
    """G_s on the outer product of per-axis |d| values (module docstring)."""
    dim, s = len(axes), alpha / 2.0
    panels = ceil((log(t_max) - _LOG_T_MIN) / panel)
    edges = np.linspace(_LOG_T_MIN, log(t_max), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    t = np.exp((edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel())
    weights = (half * _GL_WEIGHTS).ravel() * t**s  # t^{s-1} dt = t^s dx
    bessel, hankel = [], []
    for j, a in enumerate(axes):
        bessel += [ive(a, 2.0 * t[:, None]), [dim, j]]
        hankel += [_hankel(a), [dim + 1 + j, j]]
    out = list(range(dim))
    heat = np.einsum(weights, [dim], *bessel, out, optimize=True)
    # int_{t_max}^inf t^{s-1} t^{-m-N/2} dt for the total Hankel order m
    power = sum(np.ix_(*[np.arange(_HANKEL_TERMS)] * dim)) + dim / 2.0 - s
    tail_axes = list(range(dim + 1, 2 * dim + 1))
    tail = np.einsum(t_max**-power / power, tail_axes, *hankel, out, optimize=True)
    delta = reduce(np.multiply.outer, [(a == 0).astype(float) for a in axes])
    return delta + (heat + tail - delta * np.dot(weights, np.exp(-t))) / gamma(s)


def _check_kernel_params(dim: int, alpha: float) -> None:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not np.isfinite(alpha) or not 0 < alpha < dim:
        raise ValueError(
            "alpha must lie in (0, N); the kernel integrand is not integrable "
            "otherwise"
        )


def riesz_kernel(
    d: Sequence[int],
    dim: int,
    alpha: float,
    quad_points: int | None = None,
    transform_order: int = DEFAULT_TRANSFORM_ORDER,
) -> float:
    """Kernel value R_alpha(d) for a single vector difference d.

    The one-entry case of the table's subordination integral;
    `quad_points` and `transform_order` set the quadrature of K_alpha.
    Requires 0 < alpha < N.
    """
    _check_kernel_params(dim, alpha)
    if len(d) != dim:
        raise ValueError(f"difference vector must have {dim} components")
    ka = fractional_degree(dim, alpha, quad_points, transform_order)
    axes = [np.array([abs(int(c))]) for c in d]
    return ka * _green(axes, alpha, _t_max(max(a[0] for a in axes)), _PANEL).item()


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Precomputed kernel over all differences d in {-2r, ..., 2r}^N.

    `values` has shape (4r+1,)^N and is indexed by d + 2r per axis, so the
    table covers every difference of two sites of a radius-r box.  The table
    carries the quadrature of its normalization constant k_alpha and
    `error_estimate`, the largest relative change of an entry under a
    coarser subordination rule (NaN when the values were not built here).
    """

    dim: int
    radius: int
    alpha: float
    quad_points: int
    transform_order: int
    k_alpha: float
    values: np.ndarray
    error_estimate: float = float("nan")

    def __post_init__(self) -> None:
        expected = (4 * self.radius + 1,) * self.dim
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        self.values.setflags(write=False)

    def value(self, d: Sequence[int]) -> float:
        if len(d) != self.dim:
            raise DomainError(f"difference vector must have {self.dim} components")
        idx = tuple(int(c) + 2 * self.radius for c in d)
        if any(not 0 <= i <= 4 * self.radius for i in idx):
            raise DomainError(f"difference {tuple(d)} outside table range")
        return float(self.values[idx])

    def _meta(self) -> dict:
        meta = {f.name: getattr(self, f.name) for f in fields(self)}
        del meta["values"]
        return {**meta, "method": METHOD}

    def save(self, path) -> None:
        np.savez(
            path,
            values=self.values,
            meta=np.array(json.dumps(self._meta(), sort_keys=True)),
        )

    @staticmethod
    def load(path) -> "KernelTable":
        """Read a saved table; files of another kernel method are refused."""
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            values = np.array(data["values"])
        if meta.pop("method", None) != METHOD:
            raise ValueError(f"{path} does not hold a {METHOD} kernel table")
        return KernelTable(**meta, values=values)

    def write_csv(self, path) -> None:
        """Dump rows "d_1,...,d_N,value" over the full difference range."""
        lines = ["# " + json.dumps(self._meta(), sort_keys=True)]
        for multi in np.ndindex(*self.values.shape):
            d = tuple(m - 2 * self.radius for m in multi)
            lines.append(
                ",".join(str(c) for c in d) + "," + repr(float(self.values[multi]))
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def build_table(
    spec: LatticeSpec,
    alpha: float,
    quad_points: int | None = None,
    transform_order: int | None = None,
    cache_dir: str | None = None,
) -> KernelTable:
    """Build (or load from cache) the kernel table for a box.

    All (4r+1)^N entries come from one subordination integral over the
    nonnegative orthant of differences; sign symmetry fills the rest, so
    reflection invariance holds exactly.  `quad_points` and
    `transform_order` set the quadrature of K_alpha only.

    The cache location is `cache_dir`, or the LATTICE_CHOQUARD_KERNEL_CACHE
    environment variable when unset; with neither present nothing touches
    disk.  A cached file is used only when all of its metadata, the method
    included, matches this build.
    """
    _check_kernel_params(spec.dim, alpha)
    if quad_points is None:
        quad_points = DEFAULT_QUAD_POINTS.get(spec.dim, 32)
    if transform_order is None:
        transform_order = DEFAULT_TRANSFORM_ORDER
    ka = fractional_degree(spec.dim, alpha, quad_points, transform_order)
    meta = {
        "dim": spec.dim,
        "radius": spec.radius,
        "alpha": float(alpha),
        "quad_points": int(quad_points),
        "transform_order": int(transform_order),
        "k_alpha": ka,
    }

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    path = None
    if cache_dir:
        path = os.path.join(cache_dir, _CACHE_NAME.format(**meta))
        if os.path.exists(path):
            try:
                cached = KernelTable.load(path)
            except ValueError:  # another method's table: rebuild it
                cached = None
            if cached is not None and meta.items() <= cached._meta().items():
                return cached

    reach = 2 * spec.radius
    axes = [np.arange(reach + 1)] * spec.dim
    nonneg = ka * _green(axes, alpha, _t_max(reach), _PANEL)
    if not np.all(np.isfinite(nonneg)) or not np.all(nonneg > 0):
        raise ArithmeticError(
            f"kernel table for N={spec.dim}, r={spec.radius}, alpha={alpha} is "
            "not finite and positive; this is a fault in the kernel evaluation"
        )
    coarse = ka * _green(axes, alpha, _t_max(reach) / 10.0, _PANEL + 0.5)
    mirror = np.abs(np.arange(-reach, reach + 1))
    table = KernelTable(
        **meta,
        values=nonneg[np.ix_(*[mirror] * spec.dim)],
        error_estimate=float(np.max(np.abs(coarse - nonneg) / nonneg)),
    )
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        table.save(path)
    return table


def dense_operator(table: KernelTable) -> np.ndarray:
    """Dense (site_count x site_count) convolution matrix K[i, j] = R(x_i - x_j)."""
    cached = getattr(table, "_dense", None)
    if cached is not None:
        return cached
    spec = LatticeSpec(table.dim, table.radius)
    coords = spec.coordinate_array()
    diff = coords[:, None, :] - coords[None, :, :] + 2 * table.radius
    mat = table.values[tuple(diff[..., j] for j in range(table.dim))]
    object.__setattr__(table, "_dense", mat)
    return mat


def convolve(table: KernelTable, w: Field, method: str = "fft") -> Field:
    """Nonlocal convolution (R_alpha * w)(x) = sum_y R_alpha(x - y) w(y).

    Parameters
    ----------
    table : KernelTable
        Must match the field's lattice (dimension and radius).
    w : Field
    method : str
        "fft" transforms at circular length L = next_fast_len(4r+1) per axis:
        the linear convolution of the (4r+1)^N table with the (2r+1)^N box
        has support [0, 6r], and the aliases n +- L of an output index
        n in [2r, 4r] fall outside it, so the window read back is exact.
        "direct" is the quadratic-cost reference sum.
    """
    if table.dim != w.spec.dim or table.radius != w.spec.radius:
        raise DomainError("kernel table and field lattice disagree")
    if method == "fft":
        # the transform shape and the kernel's spectrum are cached on the table
        cached = getattr(table, "_spectrum", None)
        if cached is None:
            fshape = (next_fast_len(4 * table.radius + 1, True),) * table.dim
            cached = (fshape, rfftn(table.values, fshape))
            object.__setattr__(table, "_spectrum", cached)
        fshape, spectrum = cached
        out = irfftn(rfftn(w.grid(), fshape) * spectrum, fshape)
        start = 2 * table.radius
        window = tuple(slice(start, start + n) for n in w.spec.shape)
        return Field(w.spec, out[window].reshape(-1))
    if method == "direct":
        mat = dense_operator(table)
        return Field(w.spec, mat @ w.values)
    raise ValueError(f"unknown convolution method {method!r}")
