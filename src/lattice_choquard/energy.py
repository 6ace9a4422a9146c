"""The variational energy, its gradient, and the constraint functional.

Everything is built from three pieces on the truncated box:

    norm^p(u) = sum |grad u|^p + sum h |u|^p          (the space norm)
    D(u)      = sum (R_alpha * F(u)) F(u)             (nonlocal interaction)
    J(u)      = norm^p(u) / p - D(u) / 2

The gradient component at a site x is read off the weak form by summation by
parts:

    grad J(u)(x) = -Delta_p u(x) + h(x) |u|^{p-2} u(x)
                   - (R_alpha * F(u))(x) f(u(x)),

which is simultaneously the pointwise residual of the Euler-Lagrange equation.
The gradient sum in the norm runs over the box enlarged by one ring of sites;
with zero extension that captures every nonzero term, so all values equal
their whole-lattice counterparts for supported fields.

For power sums F(su) = sum_i (a_i/q_i) s^{q_i} |u|^{q_i}, so one evaluation
of u (`fiber_coefficients`: the norm power and one convolution R * |u|^{q_i}
per term) gives all of these along the ray s -> s u, grad J(su) included:

    phi(s) = <J'(su), su> = s^p norm^p(u) - sum_{ij} (a_i/q_i) a_j B_ij s^{q_i+q_j}
    J(su)  = s^p norm^p(u)/p - 1/2 sum_{ij} (a_i/q_i)(a_j/q_j) B_ij s^{q_i+q_j}
    B_ij   = sum (R * |u|^{q_i}) |u|^{q_j}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import KernelTable, build_table, convolve
from .lattice import Field, _p_laplacian_parts, grad_sq_grid
from .model import ModelSpec, SumOfPowers, eval_f

__all__ = [
    "EnergyContext",
    "FiberCoefficients",
    "fiber_coefficients",
    "make_context",
    "h_norm",
    "h_norm_pow",
    "energy_J",
    "pairing_field",
]


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """Immutable bundle of a model, its kernel table, and cached potential."""

    model: ModelSpec
    table: KernelTable
    h_grid: np.ndarray

    def __post_init__(self) -> None:
        if self.table.dim != self.model.lattice.dim:
            raise ValueError("kernel table dimension does not match the model")
        if self.table.radius != self.model.lattice.radius:
            raise ValueError("kernel table radius does not match the model")
        if self.table.alpha != self.model.alpha:
            raise ValueError("kernel table alpha does not match the model")
        if self.h_grid.shape != self.model.lattice.shape:
            raise ValueError("potential grid shape does not match the lattice")
        self.h_grid.setflags(write=False)

    @cached_property
    def spec(self):
        return self.model.lattice

    @cached_property
    def h_flat(self) -> np.ndarray:
        return self.h_grid.reshape(-1)

    @cached_property
    def _fiber_pairs(self) -> tuple:
        """The pairs (i, j) of terms stably sorted by q_i + q_j: those exponents, the pairs,
        and the factors (a_i / q_i) a_j and 1/2 (a_i / q_i)(a_j / q_j) of their weights."""
        terms = self.model.nonlinearity.terms
        ranked = sorted((x + y, i, j) for i, (_, x) in enumerate(terms) for j, (_, y) in enumerate(terms))
        (e, i, j), (a, q) = map(list, zip(*ranked)), np.array(terms).T
        return tuple(e), list(zip(i, j)), a[i] / q[i] * a[j], 0.5 * (a[i] / q[i]) * (a[j] / q[j])


def make_context(model: ModelSpec, table: KernelTable | None = None) -> EnergyContext:
    """Build the evaluation context, constructing the kernel table if needed."""
    if table is None:
        table = build_table(model.lattice, model.alpha)
    h = model.potential.grid(model.lattice)
    return EnergyContext(model=model, table=table, h_grid=h)


def h_norm_pow(ctx: EnergyContext, u: Field) -> float | np.ndarray:
    """The p-th power of the space norm: sum |grad u|^p + sum h |u|^p; for a
    stack of fields, an array with one value per row."""
    p = ctx.model.p
    gsq = grad_sq_grid(u).reshape(u.values.shape[:-1] + (-1,))
    grad_part = (gsq ** (p / 2.0)).sum(axis=-1)
    pot_part = (ctx.h_flat * np.abs(u.values) ** p).sum(axis=-1)
    return grad_part + pot_part


def h_norm(ctx: EnergyContext, u: Field) -> float | np.ndarray:
    """Space norm (sum |grad u|^p + sum h |u|^p)^{1/p}; zero iff u = 0.  The
    root is one `np.power` over a stack's rows, which rounds each row as it
    does that row alone."""
    return np.power(h_norm_pow(ctx, u), 1.0 / ctx.model.p)


@dataclass(frozen=True, eq=False)
class FiberCoefficients:
    """One evaluation of a field u, or of a stack of fields (one per row), and
    the fiber maps along s -> s u:

    phi(s) = s^p * norm_pow - sum_k phi_weights[..., k] * s^exponents[k]
    energy(s) = s^p * norm_pow / p - sum_k energy_weights[..., k] * s^exponents[k]

    `norm_pow` holds one value per row (a scalar for one field) and each
    weight array one row of terms per row; the sorted exponents are the same
    for every row.  `conv_fields` holds R * |u|^{q_i} per nonlinearity term,
    shaped like `u`.  An s broadcasts against `norm_pow`, and every step is
    elementwise, so a row of a stack has the bits it has alone.
    """

    p: float
    norm_pow: np.ndarray
    exponents: tuple[float, ...]
    phi_weights: np.ndarray
    energy_weights: np.ndarray
    nonlinearity: SumOfPowers
    u: np.ndarray
    conv_fields: tuple[np.ndarray, ...]

    def _poly(self, s, norm_divisor: float, weights: np.ndarray):
        s = np.asarray(s, dtype=float)
        powers = np.power(s[..., None], (self.p, *self.exponents))
        # as numpy's ** squares for an exponent of 2
        lead = s * s if self.p == 2.0 else powers[..., 0]
        tail = 0.0
        for k in range(len(self.exponents)):
            tail = tail + weights[..., k] * powers[..., k + 1]
        return lead * self.norm_pow / norm_divisor - tail

    def phi(self, s):
        return self._poly(s, 1.0, self.phi_weights)

    def energy(self, s):
        return self._poly(s, self.p, self.energy_weights)

    def gradient(self, s, kappa: Field) -> np.ndarray:
        """grad J(s u), given the pairing field kappa of u, row by row for a
        stack."""
        nl, u, convs = self.nonlinearity, self.u, self.conv_fields
        return _stacked_gradient(nl, self.p, s, u, convs, kappa.values)


def _stacked_gradient(nl: SumOfPowers, p: float, s, u, convs, kappa: np.ndarray) -> np.ndarray:
    """grad J(s_k u_k) for each row u_k of `u` and its s_k, given the
    convolved powers `convs` (R * |u|^{q_i} per term) and pairing fields
    kappa of the u_k: the norm part rescales from kappa, being
    (p-1)-homogeneous, and R * F(su) termwise from the convolved powers."""
    s, conv_F = np.asarray(s, dtype=float)[..., None], 0.0
    for (a, q), conv in zip(nl.terms, convs):
        conv_F = conv_F + (a / q) * np.power(s, q) * conv
    return np.power(s, p - 1.0) * kappa - conv_F * eval_f(nl, s * u)


def fiber_coefficients(
    ctx: EnergyContext, u: Field, norm_pow: float | np.ndarray | None = None
) -> FiberCoefficients:
    """Evaluate a field, or a stack of fields, once: its norm power, one
    convolution per nonlinearity term, and the fiber polynomials built from
    them, with one `np.vecdot` per pair of terms.  A caller that knows
    norm^p(u) already (a unit-norm trial) passes it as `norm_pow`."""
    norm_pow = h_norm_pow(ctx, u) if norm_pow is None else norm_pow
    norm_pow = np.full(u.values.shape[:-1], norm_pow, dtype=float)
    nl, size = ctx.model.nonlinearity, np.abs(u.values)
    powers = [size**q for _, q in nl.terms]
    convs = tuple(convolve(ctx.table, Field._unchecked(ctx.spec, w)).values for w in powers)
    exps, order, phi, half = ctx._fiber_pairs
    dots = [np.vecdot(convs[i], powers[j]) for i, j in order]  # B_ij per row
    b = dots[0][..., None] if len(dots) == 1 else np.stack(dots, axis=-1)
    return FiberCoefficients(ctx.model.p, norm_pow, exps, phi * b, half * b, nl, u.values, convs)


def energy_J(ctx: EnergyContext, u: Field) -> float:
    """J(u) = norm^p(u)/p - D(u)/2; J(0) = 0."""
    return fiber_coefficients(ctx, u).energy(1.0)


def _pairing_parts(ctx: EnergyContext, u: Field) -> tuple[np.ndarray, np.ndarray]:
    """The values of pairing_field(ctx, u), and minus the diagonal of Delta_p
    with its edge weights frozen at u, from one stencil pass."""
    p = ctx.model.p
    lap, diag = _p_laplacian_parts(u, p)
    loc = ctx.h_flat * np.sign(u.values) * np.abs(u.values) ** (p - 1.0)
    return -lap + loc, diag


def pairing_field(ctx: EnergyContext, u: Field) -> Field:
    """The local part of the gradient: -Delta_p u + h |u|^{p-2} u, row by
    row for a stack.

    Pairing this field against v in the counting measure realizes the weak
    form of the norm term; against u itself it returns norm^p(u) exactly.
    """
    return Field(ctx.spec, _pairing_parts(ctx, u)[0])

