"""Lattice Green's kernel of fractional order via torus quadrature.

The kernel on Z^N is the Fourier integral

    R_alpha(d) = K_alpha (2 pi)^{-N} int_{T^N} cos(d . k) mu(k)^{-alpha/2} dk,
    K_alpha    = (2 pi)^{-N} int_{T^N} mu(k)^{alpha/2} dk,

with symbol mu(k) = 2N - 2 sum_j cos k_j.  The negative-power integrand has an
integrable singularity at k = 0 and the positive-power one a Lipschitz corner,
so a plain product midpoint rule converges only at low algebraic order.  The
quadrature therefore substitutes k_j = T(xi_j) per axis, where T is the
periodic map with Jacobian

    T'(xi) = (2 - 2 cos xi)^m / C(2m, m),

a trigonometric polynomial that vanishes to order 2m at the singular corner
and integrates to 2 pi over the period.  Expanding the binomial gives the
closed form

    T(xi) = xi + 2 / C(2m, m) * sum_{j=1}^{m} (-1)^j C(2m, m+j) sin(j xi) / j.

Midpoint nodes in xi then cluster near k = 0 (without ever hitting it) and
restore fast convergence; m = 1 is the classic xi - sin(xi) substitution.
Per-axis symbol values are computed as 4 sin^2(k/2), which stays accurate for
the tiny transformed nodes where 2 - 2 cos k underflows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, pi
from typing import Sequence

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

from .lattice import DomainError, Field, LatticeSpec

__all__ = [
    "KernelTable",
    "mu",
    "fractional_degree",
    "riesz_kernel",
    "build_table",
    "convolve",
    "dense_operator",
    "default_quad_points",
    "CACHE_ENV_VAR",
]

DEFAULT_QUAD_POINTS = {1: 4096, 2: 512, 3: 64}
DEFAULT_TRANSFORM_ORDER = 3
CACHE_ENV_VAR = "LATTICE_CHOQUARD_KERNEL_CACHE"


def default_quad_points(dim: int) -> int:
    """Default number of quadrature nodes per axis."""
    return DEFAULT_QUAD_POINTS.get(dim, 32)


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
        quad_points = default_quad_points(dim)
    _validate_quad(quad_points, transform_order)
    return _k_alpha(int(dim), float(alpha), int(quad_points), int(transform_order))


@lru_cache(maxsize=8)
def _weighted_grid(
    dim: int, alpha: float, quad_points: int, order: int
) -> np.ndarray:
    """mu^{-alpha/2} times the product quadrature weight, on the node grid."""
    k, w = _nodes(quad_points, order)
    s = 4.0 * np.sin(k / 2.0) ** 2
    grid = reduce(np.add.outer, [s] * dim)
    weight = reduce(np.multiply.outer, [w] * dim)
    out = grid ** (-alpha / 2.0) * weight
    out.setflags(write=False)
    return out


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

    Evaluates K_alpha (2 pi)^{-N} int cos(d . k) mu^{-alpha/2} dk by the
    transformed midpoint rule; the sine part vanishes by symmetry and is
    never formed.  Requires 0 < alpha < N.
    """
    _check_kernel_params(dim, alpha)
    if len(d) != dim:
        raise ValueError(f"difference vector must have {dim} components")
    if quad_points is None:
        quad_points = default_quad_points(dim)
    _validate_quad(quad_points, transform_order)
    k, _ = _nodes(quad_points, transform_order)
    g = _weighted_grid(int(dim), float(alpha), int(quad_points), int(transform_order))
    acc: np.ndarray = g
    for dj in d:
        e = np.exp(1j * int(dj) * k)
        acc = np.tensordot(acc, e, axes=([0], [0]))
    ka = fractional_degree(dim, alpha, quad_points, transform_order)
    return float(np.real(acc) * ka / quad_points**dim)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Precomputed kernel over all differences d in {-2r, ..., 2r}^N.

    `values` has shape (4r+1,)^N and is indexed by d + 2r per axis, so the
    table covers every difference of two sites of a radius-r box.  The table
    carries the quadrature resolution it was built with and the normalization
    constant k_alpha.
    """

    dim: int
    radius: int
    alpha: float
    quad_points: int
    transform_order: int
    k_alpha: float
    values: np.ndarray

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
        return {
            "dim": self.dim,
            "radius": self.radius,
            "alpha": self.alpha,
            "quad_points": self.quad_points,
            "transform_order": self.transform_order,
            "k_alpha": self.k_alpha,
        }

    def save(self, path) -> None:
        np.savez(
            path,
            values=self.values,
            meta=np.array(json.dumps(self._meta(), sort_keys=True)),
        )

    @staticmethod
    def load(path) -> "KernelTable":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            values = np.array(data["values"])
        return KernelTable(
            dim=int(meta["dim"]),
            radius=int(meta["radius"]),
            alpha=float(meta["alpha"]),
            quad_points=int(meta["quad_points"]),
            transform_order=int(meta["transform_order"]),
            k_alpha=float(meta["k_alpha"]),
            values=values,
        )

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


def _cache_path(
    cache_dir: str, dim: int, radius: int, alpha: float, quad_points: int, order: int
) -> str:
    name = (
        f"kernel_dim{dim}_r{radius}_alpha{repr(float(alpha))}"
        f"_M{quad_points}_T{order}.npz"
    )
    return os.path.join(cache_dir, name)


def build_table(
    spec: LatticeSpec,
    alpha: float,
    quad_points: int | None = None,
    transform_order: int | None = None,
    cache_dir: str | None = None,
) -> KernelTable:
    """Build (or load from cache) the kernel table for a box.

    All (4r+1)^N entries are produced from one tensor contraction of the
    weighted symbol grid against per-axis complex exponentials over the
    nonnegative orthant; sign symmetry fills the rest, so permutation and
    reflection invariance hold exactly by construction.

    The cache location is `cache_dir`, or the LATTICE_CHOQUARD_KERNEL_CACHE
    environment variable when unset; with neither present nothing touches
    disk.
    """
    _check_kernel_params(spec.dim, alpha)
    if quad_points is None:
        quad_points = default_quad_points(spec.dim)
    if transform_order is None:
        transform_order = DEFAULT_TRANSFORM_ORDER
    _validate_quad(quad_points, transform_order)

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    path = None
    if cache_dir:
        path = _cache_path(
            cache_dir, spec.dim, spec.radius, alpha, quad_points, transform_order
        )
        if os.path.exists(path):
            table = KernelTable.load(path)
            if (
                table.dim == spec.dim
                and table.radius == spec.radius
                and table.alpha == float(alpha)
                and table.quad_points == quad_points
                and table.transform_order == transform_order
            ):
                return table

    k, _ = _nodes(quad_points, transform_order)
    g = _weighted_grid(spec.dim, float(alpha), int(quad_points), int(transform_order))
    reach = 2 * spec.radius
    exps = np.exp(1j * np.outer(np.arange(reach + 1), k))  # (2r+1, M)
    acc: np.ndarray = g.astype(complex)
    for _ in range(spec.dim):
        # Contract the leading node axis; finished axes rotate to the back,
        # so coordinate order is preserved after dim passes.
        acc = np.tensordot(acc, exps, axes=([0], [1]))
    ka = fractional_degree(spec.dim, alpha, quad_points, transform_order)
    nonneg = np.real(acc) * (ka / quad_points**spec.dim)

    mirror = np.abs(np.arange(-reach, reach + 1))
    values = nonneg[np.ix_(*[mirror] * spec.dim)].copy()
    if not np.all(np.isfinite(values)) or not np.all(values > 0):
        raise ArithmeticError(
            "kernel table failed positivity; increase quad_points or the "
            "transform order"
        )
    table = KernelTable(
        dim=spec.dim,
        radius=spec.radius,
        alpha=float(alpha),
        quad_points=int(quad_points),
        transform_order=int(transform_order),
        k_alpha=ka,
        values=values,
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
