"""Truncated lattice boxes, fields on them, and the discrete difference calculus.

The domain is the box B = {x in Z^N : max_j |x_j| <= r}.  Fields are stored on
B and read as zero outside (Dirichlet truncation), so every sum below equals
its whole-lattice value for functions supported in B.  The calculus follows
the edge-based conventions of graph analysis:

    Gamma(u, v)(x) = 1/2 sum_{y ~ x} (u(y) - u(x)) (v(y) - v(x))
    |grad u|(x)    = sqrt(Gamma(u, u)(x))
    Delta_p u(x)   = 1/2 sum_{y ~ x} (|grad u|^{p-2}(y) + |grad u|^{p-2}(x))
                                     (u(y) - u(x))

with y ~ x meaning |x - y|_{l1} = 1.  For p = 2 the operator reduces to the
ordinary graph Laplacian.  The pass that evaluates Delta_p u also sums its
edge weights at each site (the solver's metric reads that diagonal); at
p = 2 they are all 1 and |grad u| is not formed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "LatticeSpec",
    "Field",
    "random_field",
    "write_field_csv",
    "read_field_csv",
]


class DomainError(ValueError):
    """A lattice point outside the box, or mismatched lattice specs."""


@dataclass(frozen=True)
class LatticeSpec:
    """Box truncation of Z^N.

    Parameters
    ----------
    dim : int
        Spatial dimension N >= 1.
    radius : int
        Box radius r >= 1; the box holds (2r+1)^N sites.
    """

    dim: int
    radius: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        if not isinstance(self.radius, (int, np.integer)) or self.radius < 1:
            raise ValueError(f"radius must be an integer >= 1, got {self.radius!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "radius", int(self.radius))

    @cached_property
    def side(self) -> int:
        return 2 * self.radius + 1

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.side,) * self.dim

    @cached_property
    def site_count(self) -> int:
        return self.side**self.dim

    def contains(self, x: Sequence[int]) -> bool:
        return len(x) == self.dim and all(abs(int(c)) <= self.radius for c in x)

    def index_of(self, x: Sequence[int]) -> int:
        """Row-major index of a site, coordinates shifted by +radius."""
        if not self.contains(x):
            raise DomainError(f"site {tuple(x)} outside box of radius {self.radius}")
        idx = 0
        for c in x:
            idx = idx * self.side + int(c) + self.radius
        return idx

    def point_of(self, index: int) -> tuple[int, ...]:
        """Inverse of index_of."""
        if not 0 <= index < self.site_count:
            raise DomainError(f"index {index} out of range")
        coords = []
        for _ in range(self.dim):
            coords.append(index % self.side - self.radius)
            index //= self.side
        return tuple(reversed(coords))

    def coordinate_array(self) -> np.ndarray:
        """Integer array of shape (site_count, dim) listing sites in index order."""
        grids = np.meshgrid(
            *[np.arange(-self.radius, self.radius + 1)] * self.dim, indexing="ij"
        )
        return np.stack([g.reshape(-1) for g in grids], axis=1)


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued function on the box sites, implicitly zero outside.

    Values are stored flat in the index order of ``spec`` and must be finite.
    A 2-D array of ``site_count`` columns is a stack of fields, one per row,
    which the stencils, norms and convolutions treat as each field alone.
    """

    spec: LatticeSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        n = self.spec.site_count
        if vals.ndim != 2 or vals.shape[1] != n:
            vals = vals.reshape(-1)
            if vals.size != n:
                raise ValueError(f"expected {n} values, got {vals.size}")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def _unchecked(cls, spec: LatticeSpec, values: np.ndarray) -> "Field":
        """A field around float rows of site_count values the library just computed: no checks."""
        u = object.__new__(cls)
        vars(u).update(spec=spec, values=values)
        return u

    @staticmethod
    def delta(spec: LatticeSpec, x: Sequence[int] | None = None) -> "Field":
        """Indicator of a single site (the origin by default)."""
        vals = np.zeros(spec.site_count)
        site = (0,) * spec.dim if x is None else tuple(x)
        vals[spec.index_of(site)] = 1.0
        return Field(spec, vals)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.values.shape[:-1] + self.spec.shape)

    def translated(self, shift: Sequence[int]) -> "Field":
        """Field x -> u(x - shift); values pushed outside the box are dropped."""
        if len(shift) != self.spec.dim:
            raise ValueError("shift length must equal the lattice dimension")
        out = np.zeros(self.spec.shape)
        src = []
        dst = []
        for s in (int(c) for c in shift):
            n = self.spec.side
            lo, hi = max(0, -s), min(n, n - s)
            src.append(slice(lo, hi))
            dst.append(slice(lo + s, hi + s))
        out[tuple(dst)] = self.grid()[tuple(src)]
        return Field(self.spec, out.reshape(-1))


def _padded_grid(u: Field, margin: int) -> np.ndarray:
    """Zero-padded value grid covering the box enlarged by `margin`."""
    out = np.zeros(u.values.shape[:-1] + (u.spec.side + 2 * margin,) * u.spec.dim)
    out[(..., *[slice(margin, -margin)] * u.spec.dim)] = u.grid()
    return out


@cache
def _axis_slices(dim: int) -> tuple:
    """Per trailing axis j of a grid: the windows (hi, lo), core (one site in
    from each side) on the other axes and dropping the first or last site
    along j, so grid[hi] - grid[lo] is the forward difference along j; and
    the parts (up, down) of such an array that hold, at a core site x, the
    terms toward x + e_j and from x - e_j."""
    ends, others = (slice(1, None), slice(None, -1)), (slice(1, -1), slice(None))
    return tuple(
        tuple((..., *[end if k == j else other for k in range(dim)]) for other in others for end in ends)
        for j in range(dim)
    )


def grad_sq_grid(u: Field) -> np.ndarray:
    """|grad u|^2 on the box enlarged by one ring of sites.

    With zero extension, sites at sup-distance >= r+2 from the origin have
    zero gradient, so the one-ring margin captures every nonzero value.
    """
    grid, acc = _padded_grid(u, 2), 0.0
    for hi, lo, up, down in _axis_slices(u.spec.dim):
        d = grid[hi] - grid[lo]
        d *= d
        acc = acc + d[up]
        acc += d[down]
    return 0.5 * acc


def _edge_weights(u: Field, p: float) -> np.ndarray:
    """|grad u|^{p-2} on the box enlarged by one site per side."""
    if not math.isfinite(p) or p < 2:
        raise ValueError("p must be >= 2")
    if p == 2:  # unit weights, as np.power(x, 0.0) = 1 for every finite x
        return np.ones(u.values.shape[:-1] + (u.spec.side + 2,) * u.spec.dim)
    return np.power(grad_sq_grid(u), (p - 2.0) / 2.0)


def _p_laplacian_parts(u: Field, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Delta_p u and the sum over y ~ x of its edge weights
    1/2 (|grad u|^{p-2}(x) + |grad u|^{p-2}(y)), both from one pass over the
    neighbours and shaped like u.values.  The second is minus the diagonal of
    Delta_p with its weights frozen at u; exterior neighbours count in both.
    Both sums start from 0.0, as an exact -0.0 flux must leave +0.0."""
    weights, grid = _edge_weights(u, p), _padded_grid(u, 1)
    acc = diag = 0.0
    for hi, lo, up, down in _axis_slices(u.spec.dim):
        edge = weights[hi] + weights[lo]
        flux = (grid[hi] - grid[lo]) * edge
        acc = acc + flux[up]
        acc -= flux[down]
        diag = diag + edge[up]
        diag += edge[down]
    return (0.5 * acc).reshape(u.values.shape), (0.5 * diag).reshape(u.values.shape)


def random_field(
    spec: LatticeSpec, rng: np.random.Generator, decay: float = 0.0
) -> Field:
    """Gaussian field, optionally damped by exp(-decay * |x|_l2)."""
    vals = rng.standard_normal(spec.site_count)
    if decay > 0.0:
        dist = np.sqrt(np.sum(spec.coordinate_array() ** 2, axis=1))
        vals = vals * np.exp(-decay * dist)
    return Field(spec, vals)


def _write_rows(path, header: dict, reach: int, dim: int, values: np.ndarray) -> None:
    """Write a JSON header line, then one row "i_1,...,i_N,value" per label
    in {-reach, ..., reach}^N, in index order, for the flat values.  Values
    use repr, so reading them back is bit exact."""
    labels = [f"{i}," for i in range(-reach, reach + 1)]
    sites = itertools.product(labels, repeat=dim)  # in index order
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines += ["".join(x) + repr(v) for x, v in zip(sites, values.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_csv(u: Field, path) -> None:
    """Serialize a field: a JSON header line, then one row per site, as
    "i_1,...,i_N,value" in index order; read_field_csv inverts it bit exactly.
    Refuses a stack of fields, which the format cannot hold."""
    spec = u.spec
    if u.values.ndim != 1:
        raise ValueError(f"write_field_csv takes one field, not a stack of shape {u.values.shape}")
    _write_rows(path, {"dim": spec.dim, "radius": spec.radius}, spec.radius, spec.dim, u.values)


def read_field_csv(path) -> Field:
    """Inverse of write_field_csv.  Refuses a header without "dim" or
    "radius", and rows that do not name every site exactly once."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing JSON header line")
    meta = json.loads(lines[0].lstrip("#").strip())
    if not isinstance(meta, dict) or not {"dim", "radius"} <= meta.keys():
        raise ValueError('field header must hold "dim" and "radius"')
    spec = LatticeSpec(int(meta["dim"]), int(meta["radius"]))
    if len(lines) - 1 != spec.site_count:
        raise ValueError(f"expected {spec.site_count} rows, found {len(lines) - 1}")
    vals = np.zeros(spec.site_count)
    seen = set()
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != spec.dim + 1:
            raise ValueError(f"malformed row: {ln!r}")
        site = tuple(int(c) for c in parts[: spec.dim])
        index = spec.index_of(site)
        if index in seen:
            raise ValueError(f"site {site} appears twice")
        seen.add(index)
        vals[index] = float(parts[-1])
    return Field(spec, vals)
