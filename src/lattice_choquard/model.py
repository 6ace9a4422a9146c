"""Model data: potentials, power-sum nonlinearities, and the admissibility rule.

A model couples a lattice box with exponents (p, alpha), a potential h that is
bounded below by a positive constant, and a nonlinearity given as a finite sum
of odd power terms

    f(t) = sum_i a_i |t|^{q_i - 2} t,      F(t) = sum_i (a_i / q_i) |t|^{q_i},

so F is the exact antiderivative of f with F(0) = 0.  The constructors refuse
a nonpositive potential, alpha outside (0, N) and p < 2; `validate_model` adds
the one remaining condition, min q_i > p, and the command-line driver refuses
a model that fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .lattice import LatticeSpec

__all__ = [
    "ConstantPotential",
    "PeriodicPotential",
    "CoercivePotential",
    "Potential",
    "SumOfPowers",
    "ModelSpec",
    "ModelRejectedError",
    "ModelViolationError",
    "eval_f",
    "eval_F",
    "validate_model",
]


class ModelRejectedError(ValueError):
    """The model fails one of the standing admissibility hypotheses."""

    def __init__(self, failures: Sequence[str]):
        self.failures = list(failures)
        super().__init__("model rejected: " + "; ".join(self.failures))


class ModelViolationError(RuntimeError):
    """A runtime observation contradicts an accepted model's guarantees."""


@dataclass(frozen=True)
class ConstantPotential:
    """h(x) = value everywhere; value > 0."""

    value: float

    period = 1  # every translation leaves h unchanged

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value <= 0:
            raise ValueError("constant potential must be positive")

    def grid(self, spec: LatticeSpec) -> np.ndarray:
        return np.full(spec.shape, self.value)

    @property
    def floor(self) -> float:
        return self.value


@dataclass(frozen=True, eq=False)
class PeriodicPotential:
    """h repeats a positive cell of shape (period,)^N over the lattice."""

    period: int
    cell: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.period, (int, np.integer)) or self.period < 1:
            raise ValueError("period must be an integer >= 1")
        arr = np.asarray(self.cell, dtype=float)
        if arr.shape != (self.period,) * arr.ndim or arr.ndim < 1:
            raise ValueError(
                f"cell shape {arr.shape} must be ({self.period},)^N"
            )
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
            raise ValueError("cell values must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "cell", arr)
        object.__setattr__(self, "period", int(self.period))

    def grid(self, spec: LatticeSpec) -> np.ndarray:
        if self.cell.ndim != spec.dim:
            raise ValueError("potential cell dimension does not match lattice")
        coords = np.arange(-spec.radius, spec.radius + 1) % self.period
        return self.cell[np.ix_(*[coords] * spec.dim)].astype(float)

    @property
    def floor(self) -> float:
        return float(np.min(self.cell))


@dataclass(frozen=True)
class CoercivePotential:
    """h(x) = floor + scale * |x - center|_{l1}^exponent, growing along rays."""

    floor: float
    center: tuple[int, ...]
    scale: float
    exponent: float

    period = None  # no translation leaves h unchanged

    def __post_init__(self) -> None:
        if not np.isfinite(self.floor) or self.floor <= 0:
            raise ValueError("floor must be positive")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValueError("scale must be positive")
        if not np.isfinite(self.exponent) or self.exponent <= 0:
            raise ValueError("exponent must be positive")
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))

    def grid(self, spec: LatticeSpec) -> np.ndarray:
        if len(self.center) != spec.dim:
            raise ValueError("potential center dimension does not match lattice")
        dist = np.abs(spec.coordinate_array() - self.center).sum(axis=1)
        h = self.floor + self.scale * dist.astype(float) ** self.exponent
        return h.reshape(spec.shape)


# A potential has `grid(spec)` (h over the box, shaped like the box grid),
# `floor` (its infimum over Z^N, positive) and `period` (1 for constant h,
# None when no translation preserves h).
Potential = Union[ConstantPotential, PeriodicPotential, CoercivePotential]


@dataclass(frozen=True)
class SumOfPowers:
    """Nonlinearity f(t) = sum_i a_i |t|^{q_i - 2} t with a_i > 0, q_i > 1."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        terms = tuple((float(a), float(q)) for a, q in self.terms)
        if not terms:
            raise ValueError("at least one power term is required")
        for a, q in terms:
            if not np.isfinite(a) or a <= 0:
                raise ValueError("term amplitudes must be positive")
            if not np.isfinite(q) or q <= 1:
                raise ValueError("term exponents must exceed 1")
        object.__setattr__(self, "terms", terms)

    @property
    def theta(self) -> float:
        """Superlinearity exponent: the smallest power in the sum."""
        return min(q for _, q in self.terms)


def eval_f(nl: SumOfPowers, t) -> np.ndarray | float:
    """f(t); odd in t, vectorized over arrays."""
    arr = np.asarray(t, dtype=float)
    out = np.zeros_like(arr)
    at = np.abs(arr)
    for a, q in nl.terms:
        out = out + a * np.sign(arr) * at ** (q - 1.0)
    return out if arr.ndim else float(out)


def eval_F(nl: SumOfPowers, t) -> np.ndarray | float:
    """F(t) = integral of f from 0 to t; even in t, vectorized over arrays."""
    arr = np.asarray(t, dtype=float)
    out = np.zeros_like(arr)
    at = np.abs(arr)
    for a, q in nl.terms:
        out = out + (a / q) * at**q
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class ModelSpec:
    """Full problem data: box, exponents, potential, nonlinearity."""

    lattice: LatticeSpec
    p: float
    alpha: float
    potential: Potential
    nonlinearity: SumOfPowers

    def __post_init__(self) -> None:
        if not np.isfinite(self.p) or self.p < 2:
            raise ValueError("p must be >= 2")
        if not np.isfinite(self.alpha) or not 0 < self.alpha < self.lattice.dim:
            raise ValueError("alpha must lie in (0, N)")
        self.potential.grid(self.lattice)  # raises on a dimension mismatch
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def dim(self) -> int:
        return self.lattice.dim


def validate_model(spec: ModelSpec) -> None:
    """Raise ModelRejectedError unless every exponent q_i exceeds p.

    The constructors already guarantee h >= floor > 0, 0 < alpha < N and
    a_i > 0.  Given those, min q_i > p is the whole of the paper's hypotheses
    for a power sum: f(t) = o(|t|^{p-1}) at 0, theta F(t) <= 2 f(t) t term by
    term, 2 theta - 1 > p, and q_i above the coupling threshold
    (N + alpha) p / (2N), which alpha < N puts below p.
    """
    theta = spec.nonlinearity.theta
    if theta <= spec.p:
        raise ModelRejectedError(
            [
                f"exponent_thresholds (smallest exponent {theta:.6g} must "
                f"exceed p = {spec.p:.6g})"
            ]
        )
