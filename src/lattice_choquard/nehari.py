"""Fiber maps along rays, the constraint projection, and the sphere functional.

For u != 0 the fiber map s -> J(su) rises from 0, peaks once, and decreases to
-infinity for admissible models.  Its stationarity equation is

    phi(s) = <J'(su), su> = s^p norm^p(u) - sum (R * F(su)) f(su) su = 0,

whose unique positive root s_u defines the projection m_hat(u) = s_u u onto
the constraint manifold.  Restricted to the unit sphere S of the space norm,
m = m_hat is a homeomorphism onto the manifold with inverse u -> u / ||u||,
and the reduced functional Psi(w) = J(m(w)) turns the constrained ground-state
problem into unconstrained minimization over S.

For power-sum nonlinearities every fiber quantity is a polynomial in s (see
`energy.fiber_coefficients`): a projection costs one norm, one convolution
per term and a few evaluations of phi, for one field or, row by row, for a
stack.  The root finder runs Newton's method in log s from a closed-form
start, which the sign and curvature structure of phi makes monotone; one
term needs one evaluation.  It refuses, with a ModelViolationError and a
witness, a phi whose one root Descartes' rule of signs does not certify
(`verify.su_uniqueness_scan`).
"""

from __future__ import annotations

import numpy as np

from .energy import EnergyContext, FiberCoefficients, fiber_coefficients
from .lattice import DomainError, Field
from .model import ModelViolationError

__all__ = ["project_su"]

_NEWTON_MAX_STEPS = 60
# below this log step the next one is O(step^2): the root has full precision
_NEWTON_STEP_TOL = 1e-9
# a projection's |phi(s_u)| may be at most this fraction of s_u^p norm^p(u)
_ROOT_TOL = 1e-10


def _descartes_witness(coeffs: FiberCoefficients) -> tuple[np.ndarray, str]:
    """The rows (flat indices; [0] or [] for one field) whose phi is not
    certified to have one positive root, and the witness of the first.

    A row is certified when phi's coefficients change sign exactly once, so
    that by Descartes' rule of signs (which holds for real exponents) phi has
    exactly one positive root, where it turns from positive to negative:
    norm^p(u) > 0, every weight w_k >= 0, some w_k > 0 and every e_k > p.
    The witness is the row's least exponent and least weight."""
    e, weights = min(coeffs.exponents), coeffs.phi_weights
    w, max_w = np.minimum.reduce(weights, axis=-1), np.maximum.reduce(weights, axis=-1)
    bad = (~((coeffs.norm_pow > 0) & (w >= 0) & (max_w > 0) & (e > coeffs.p))).ravel().nonzero()[0]
    witness = f"least exponent {e:g}, least weight {w.flat[bad[0]]:.6g}" if bad.size else ""
    return bad, witness


def _phi_root(coeffs: FiberCoefficients):
    """Unique positive root of the fiber stationarity polynomial of each row,
    once `_descartes_witness` certifies it.

    Newton's method in x = log s on g(x) = log(A s^p) - log T(s), with A the
    norm power and T(s) = sum_k w_k s^{e_k} the tail of phi.  With all e_k > p,
    g is strictly decreasing and concave, so Newton started at or right of the
    root descends monotonically onto it.  The smallest one-term root
    (A / w_k)^{1/(e_k - p)} is such a start (the root itself for one term),
    and from there on no term exceeds A s^p.  The slope d log T / d log s is
    the mean exponent under the weights w_k s^{e_k}, each divided by the
    largest (log-sum-exp), so no term overflows; one term's is its exponent.
    All rows step together; a row stops after its first log step <= _NEWTON_STEP_TOL.
    """
    bad, witness = _descartes_witness(coeffs)
    if bad.size:
        raise ModelViolationError(f"fiber polynomial not certified to have one root: {witness}")
    p, norm_pow, e = coeffs.p, coeffs.norm_pow, np.array(coeffs.exponents)
    with np.errstate(divide="ignore"):  # a zero weight has log -inf: no start, no mass
        log_w = np.log(coeffs.phi_weights)
    x = np.minimum.reduce((np.log(norm_pow)[..., None] - log_w) / (e - p), axis=-1)
    done = np.zeros(norm_pow.shape, dtype=bool)
    slope = e[0] - p  # the mean over one term's own weight, which is 1 exactly
    for _ in range(_NEWTON_MAX_STEPS):
        s = np.exp(x)
        g = -np.log1p(-coeffs.phi(s) / (norm_pow * np.power(s, p)))
        if e.size > 1:
            logs = log_w + e * np.log(s)[..., None]
            mass = np.exp(logs - np.maximum.reduce(logs, axis=-1)[..., None])
            num = den = 0.0
            for k, e_k in enumerate(coeffs.exponents):
                num, den = num + e_k * mass[..., k], den + mass[..., k]
            slope = num / den - p
        step = g / slope
        x = np.where(done, x, x + step)
        done |= np.abs(step) <= _NEWTON_STEP_TOL
        if done.all():
            return np.exp(x)
    last = np.abs(step)[~done].max()
    raise ArithmeticError(f"fiber root did not converge (last log step {last:.3e})")


def project_su(ctx: EnergyContext, u: Field, norm_pow: float | np.ndarray | None = None):
    """Projection m(u) = s_u u onto the constraint manifold: returns the root
    s_u, with |phi(s_u)| <= 1e-10 * s_u^p * norm^p(u), and the one evaluation
    `coeffs` of u it came from, so J(m(u)) = coeffs.energy(s_u) and
    norm^p(m(u)) = s_u^p * coeffs.norm_pow.  Rays through u and t u (t > 0)
    land on the same point.  One field gets a float s_u; a stack of fields
    gets an array of roots, one per row, from one stacked evaluation, and is
    refused if any row is.  A caller that knows norm^p(u) (the solver's
    unit-norm rows) passes it as `norm_pow`, as to `fiber_coefficients`; the
    solver projects every start and trial here."""
    coeffs = fiber_coefficients(ctx, u, norm_pow)
    if (coeffs.norm_pow == 0.0).any():
        raise DomainError("the zero field has no fiber projection")
    s = _phi_root(coeffs)
    defect = np.abs(coeffs.phi(s))
    scale = np.power(s, coeffs.p) * coeffs.norm_pow
    over = (defect > _ROOT_TOL * scale).ravel().nonzero()[0]
    if over.size:
        k = over[0]
        raise ArithmeticError(
            f"fiber root residual {defect.flat[k]:.3e} exceeds {_ROOT_TOL:.1e} * {scale.flat[k]:.3e}"
        )
    return (s if np.ndim(s) else float(s)), coeffs
