"""Model data: potentials, power-sum nonlinearities, and admissibility checks.

A model couples a lattice box with exponents (p, alpha), a potential h that is
bounded below by a positive constant, and a nonlinearity given as a finite sum
of odd power terms

    f(t) = sum_i a_i |t|^{q_i - 2} t,      F(t) = sum_i (a_i / q_i) |t|^{q_i},

so F is the exact antiderivative of f with F(0) = 0.  The admissibility report
turns the standing structural assumptions into named machine checks; a model
whose report fails is rejected by the command-line driver and flagged by the
verification harness.
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
    "HypothesisVerdict",
    "HypothesisReport",
    "check_hypotheses",
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

    @property
    def growth_exponent(self) -> float:
        """Polynomial growth order: the largest power in the sum."""
        return max(q for _, q in self.terms)


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

    @property
    def critical_threshold(self) -> float:
        """Lower exponent bound (N + alpha) p / (2N) for the nonlocal coupling."""
        n = self.lattice.dim
        return (n + self.alpha) * self.p / (2.0 * n)


@dataclass(frozen=True)
class HypothesisVerdict:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    verdicts: tuple[HypothesisVerdict, ...]

    @property
    def accepted(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing(self) -> list[str]:
        return [v.name for v in self.verdicts if not v.passed]


def exponent_margins(spec: ModelSpec) -> tuple[float, float]:
    """(min q_i - p, min q_i - critical threshold); both must be positive."""
    qs = [q for _, q in spec.nonlinearity.terms]
    return min(qs) - spec.p, min(qs) - spec.critical_threshold


def check_hypotheses(spec: ModelSpec) -> HypothesisReport:
    """Machine-checkable admissibility report for a model.

    Arithmetic verdicts (the potential floor, periodicity and coercivity,
    exponent thresholds, the superlinearity inequality for power sums) are
    exact.  Behavioral verdicts sample: the vanishing ratio f(t)/t^{p-1} on a
    decade grid and the growth envelope constant.  Monotonicity of the scaled
    nonlocal pairing t -> t^{-p} sum (R * F(tu)) f(tu) u follows from the
    exponent argument valid for power sums.
    """
    grid = np.logspace(-4, 2, 61)
    nl = spec.nonlinearity
    p = spec.p
    pot = spec.potential
    verdicts: list[HypothesisVerdict] = [
        HypothesisVerdict(
            name="potential_floor",
            passed=pot.floor > 0,
            margin=pot.floor,
            detail=f"inf of h over Z^N = {pot.floor:.6g}",
        )
    ]
    if isinstance(pot, PeriodicPotential):
        verdicts.append(
            HypothesisVerdict(
                name="potential_periodicity",
                passed=True,
                margin=0.0,
                detail=f"h(x) = cell[x mod {pot.period}], so h(x + T e_j) = h(x)",
            )
        )
    if isinstance(pot, CoercivePotential):
        # floor + scale * d^exponent grows without bound along every ray
        # exactly when scale > 0 and exponent > 0
        margin = min(pot.scale, pot.exponent)
        verdicts.append(
            HypothesisVerdict(
                name="potential_coercivity",
                passed=margin > 0,
                margin=margin,
                detail="nondecreasing in the l1 distance from the center",
            )
        )

    # Vanishing at zero: f(t)/t^{p-1} -> 0, equivalent to min q_i > p.
    gap_p, gap_crit = exponent_margins(spec)
    small = grid[grid <= 1.0]
    # the ratio is sum_i a_i t^{q_i - p}: it drains to 0 as t -> 0+
    # exactly when every q_i > p, and is constant or growing otherwise
    ratios = np.asarray(eval_f(nl, small)) / small ** (p - 1.0)
    sampled_ok = bool(ratios[0] < 0.5 * ratios[-1])
    verdicts.append(
        HypothesisVerdict(
            name="vanishing_at_zero",
            passed=gap_p > 0 and sampled_ok,
            margin=gap_p,
            detail=f"min exponent {nl.theta:.6g} vs p = {p:.6g}",
        )
    )

    tau = nl.growth_exponent
    env = np.max(np.abs(np.asarray(eval_f(nl, grid))) / (1.0 + grid ** (tau - 1.0)))
    verdicts.append(
        HypothesisVerdict(
            name="growth_bound",
            passed=bool(np.isfinite(env)),
            margin=float(env),
            detail=f"measured envelope constant {env:.6g} at order {tau:.6g}",
        )
    )

    theta = nl.theta
    tgrid = np.concatenate([-grid[::-1], [0.0], grid])
    slack = 2.0 * np.asarray(eval_f(nl, tgrid)) * tgrid - theta * np.asarray(
        eval_F(nl, tgrid)
    )
    # exact for power sums: theta <= q_i <= 2 q_i termwise
    verdicts.append(
        HypothesisVerdict(
            name="superlinearity",
            passed=bool(np.all(slack >= 0)) and theta > p,
            margin=float(min(np.min(slack), theta - p)),
            detail=f"theta = {theta:.6g}; theta F(t) <= 2 f(t) t on the grid",
        )
    )

    margin = 2.0 * theta - 1.0 - p
    verdicts.append(
        HypothesisVerdict(
            name="fiber_monotonicity",
            passed=margin > 0,
            margin=margin,
            detail="exponent argument: smallest pairing power is "
            f"2 theta - 1 = {2 * theta - 1:.6g} > p",
        )
    )

    verdicts.append(
        HypothesisVerdict(
            name="exponent_thresholds",
            passed=gap_p > 0 and gap_crit > 0,
            margin=min(gap_p, gap_crit),
            detail=(
                f"every exponent must exceed p = {p:.6g} and the coupling "
                f"threshold {spec.critical_threshold:.6g}"
            ),
        )
    )
    return HypothesisReport(tuple(verdicts))


def validate_model(spec: ModelSpec) -> HypothesisReport:
    """check_hypotheses, raising ModelRejectedError when any verdict fails."""
    report = check_hypotheses(spec)
    if not report.accepted:
        details = {v.name: v.detail for v in report.verdicts if not v.passed}
        raise ModelRejectedError(
            [f"{name} ({details[name]})" for name in report.failing()]
        )
    return report
