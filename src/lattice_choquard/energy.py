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

import math
from dataclasses import dataclass

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

    @property
    def spec(self):
        return self.model.lattice

    @property
    def h_flat(self) -> np.ndarray:
        return self.h_grid.reshape(-1)


def make_context(model: ModelSpec, table: KernelTable | None = None) -> EnergyContext:
    """Build the evaluation context, constructing the kernel table if needed."""
    if table is None:
        table = build_table(model.lattice, model.alpha)
    h = model.potential.grid(model.lattice)
    return EnergyContext(model=model, table=table, h_grid=h)


def h_norm_pow(ctx: EnergyContext, u: Field) -> float | list[float]:
    """The p-th power of the space norm: sum |grad u|^p + sum h |u|^p; for a
    stack of fields, a list with one value per row."""
    p = ctx.model.p
    gsq = grad_sq_grid(u).reshape(u.values.shape[:-1] + (-1,))
    grad_part = (gsq ** (p / 2.0)).sum(axis=-1)
    pot_part = (ctx.h_flat * np.abs(u.values) ** p).sum(axis=-1)
    return (grad_part + pot_part).tolist()


def h_norm(ctx: EnergyContext, u: Field) -> float | list[float]:
    """Space norm (sum |grad u|^p + sum h |u|^p)^{1/p}; zero iff u = 0.  A
    stack's roots are plain floats, as numpy's vector pow rounds otherwise."""
    pows, root = h_norm_pow(ctx, u), 1.0 / ctx.model.p
    return [x**root for x in pows] if isinstance(pows, list) else pows**root


@dataclass(frozen=True, eq=False)
class FiberCoefficients:
    """One evaluation of a field u, and the fiber maps along s -> s u.

    phi(s) = s^p * norm_pow - sum_k phi_weights[k] * s^exponents[k]
    energy(s) = s^p * norm_pow / p - sum_k energy_weights[k] * s^exponents[k]

    `conv_fields` holds R * |u|^{q_i} per nonlinearity term.
    """

    p: float
    norm_pow: float
    exponents: tuple[float, ...]
    phi_weights: tuple[float, ...]
    energy_weights: tuple[float, ...]
    nonlinearity: SumOfPowers
    u: np.ndarray
    conv_fields: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_powers", np.array((self.p, *self.exponents)))

    def _poly(self, s, norm_divisor: float, weights: tuple[float, ...]):
        # np.power even for a float: numpy's AVX-512 power rounds unlike **
        if isinstance(s, float):
            lead, *terms = np.power(s, self._powers).tolist()
        else:
            s = np.asarray(s, dtype=float)
            lead, *terms = np.moveaxis(np.power.outer(s, self._powers), -1, 0)
        if self.p == 2.0:
            lead = s * s  # as numpy's ** squares for an exponent of 2
        tail = 0.0
        for w, power in zip(weights, terms):
            tail = tail + w * power
        return lead * self.norm_pow / norm_divisor - tail

    def phi(self, s):
        return self._poly(s, 1.0, self.phi_weights)

    def energy(self, s):
        return self._poly(s, self.p, self.energy_weights)

    def tail_log_slope(self, s: float) -> float:
        """d log T / d log s for the tail T(s) = sum_k w_k s^{e_k} of phi: the
        mean exponent under the weights w_k s^{e_k}, each divided by the
        largest (log-sum-exp), so no term overflows."""
        x = math.log(s)
        pairs = zip(self.exponents, self.phi_weights)
        logs = [(e, math.log(w) + e * x) for e, w in pairs if w > 0]
        top = max(lw for _, lw in logs)
        mass = [(e, math.exp(lw - top)) for e, lw in logs]
        return sum(e * m for e, m in mass) / sum(m for _, m in mass)

    def gradient(self, s: float, kappa: Field) -> np.ndarray:
        """grad J(s u), given the pairing field kappa of u: a stack of one."""
        return _stacked_gradient([self], [s], kappa.values[None])[0]


def _stacked_gradient(stack: list, s: list, kappa: np.ndarray) -> np.ndarray:
    """grad J(s_k u_k) for each record of `stack` and its float s_k, given the
    pairing fields kappa (rows) of the u_k: the norm part rescales from kappa,
    being (p-1)-homogeneous, and R * F(su) termwise from the convolved powers.
    Coefficients are plain floats per row, so a row has the bits it has alone."""
    p, nl = stack[0].p, stack[0].nonlinearity
    conv_F = np.zeros(kappa.shape)
    for i, (a, q) in enumerate(nl.terms):
        coef = np.array([(a / q) * x**q for x in s])[:, None]
        conv_F += coef * np.array([c.conv_fields[i] for c in stack])
    f_su = eval_f(nl, np.array(s)[:, None] * np.array([c.u for c in stack]))
    return np.array([x ** (p - 1.0) for x in s])[:, None] * kappa - conv_F * f_su


def fiber_coefficients(
    ctx: EnergyContext, u: Field, norm_pow: float | None = None
) -> FiberCoefficients | list[FiberCoefficients]:
    """Evaluate a field once: its norm power, one convolution per
    nonlinearity term, and the fiber polynomials built from them.  A caller
    that knows norm^p(u) already (a unit-norm trial) passes it as `norm_pow`.
    A stack gets one convolution per term and one `np.vecdot` per pair of
    terms, and a list with each row's coefficients, with the bits it has alone."""
    if norm_pow is None:
        norm_pow = h_norm_pow(ctx, u)
    nl = ctx.model.nonlinearity
    stack = u.values.reshape(-1, ctx.spec.site_count)
    absu = np.abs(stack)
    powers = [absu**q for _, q in nl.terms]
    convs = [convolve(ctx.table, Field(ctx.spec, w)).values for w in powers]
    pairs = [  # (exponent, a_i / q_i, a_j, a_j / q_j, B_ij per row)
        (q_i + q_j, a_i / q_i, a_j, a_j / q_j, np.vecdot(conv, power).tolist())
        for (a_i, q_i), conv in zip(nl.terms, convs)
        for (a_j, q_j), power in zip(nl.terms, powers)
    ]
    out = []
    for k, a in enumerate(norm_pow if isinstance(norm_pow, list) else [norm_pow] * len(stack)):
        rows = [(e, c * a_j * b[k], 0.5 * c * f_j * b[k]) for e, c, a_j, f_j, b in pairs]
        exps, wphi, wen = zip(*sorted(rows, key=lambda row: row[0]))
        conv_k = tuple(conv[k] for conv in convs)
        out.append(FiberCoefficients(ctx.model.p, a, exps, wphi, wen, nl, stack[k], conv_k))
    return out if u.values.ndim == 2 else out[0]


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

