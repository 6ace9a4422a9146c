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
per term and a few plain-float evaluations of phi.  The root finder runs
Newton's method in log s from a closed-form start, which the sign and
curvature structure of phi makes monotone; one term needs one evaluation.
It refuses, with a ModelViolationError and a witness, a phi whose one
root Descartes' rule of signs does not certify (`verify.su_uniqueness_scan`).
"""

from __future__ import annotations

import math

from .energy import EnergyContext, FiberCoefficients, fiber_coefficients
from .lattice import DomainError, Field
from .model import ModelViolationError

__all__ = ["project_su"]

_NEWTON_MAX_STEPS = 60
# below this log step the next one is O(step^2): the root has full precision
_NEWTON_STEP_TOL = 1e-9
# a projection's |phi(s_u)| may be at most this fraction of s_u^p norm^p(u)
_ROOT_TOL = 1e-10


def _descartes_witness(coeffs: FiberCoefficients) -> str:
    """"" when phi's coefficients change sign exactly once, so that by
    Descartes' rule of signs (which holds for real exponents) phi has exactly
    one positive root, where it turns from positive to negative: norm^p(u) > 0,
    every weight w_k >= 0, some w_k > 0 and every e_k > p.  Otherwise the
    witness, phi's least exponent and least weight."""
    e, w = min(coeffs.exponents), min(coeffs.phi_weights)
    if coeffs.norm_pow > 0 and w >= 0 and max(coeffs.phi_weights) > 0 and e > coeffs.p:
        return ""
    return f"least exponent {e:g}, least weight {w:.6g}"


def _phi_root(coeffs: FiberCoefficients) -> float:
    """Unique positive root of the fiber stationarity polynomial, once
    `_descartes_witness` certifies it.

    Newton's method in x = log s on g(x) = log(A s^p) - log T(s), with A the
    norm power and T(s) = sum_k w_k s^{e_k} the tail of phi.  With all e_k > p,
    g is strictly decreasing and concave, so Newton started at or right of the
    root descends monotonically onto it.  The smallest one-term root
    (A / w_k)^{1/(e_k - p)} is such a start (the root itself for one term),
    and from there on no term exceeds A s^p.
    """
    if witness := _descartes_witness(coeffs):
        raise ModelViolationError(f"fiber polynomial not certified to have one root: {witness}")
    p, norm_pow = coeffs.p, coeffs.norm_pow
    pairs = zip(coeffs.exponents, coeffs.phi_weights)
    x = min((math.log(norm_pow) - math.log(w)) / (e - p) for e, w in pairs if w > 0)
    for _ in range(_NEWTON_MAX_STEPS):
        s = math.exp(x)
        g = -math.log1p(-coeffs.phi(s) / (norm_pow * s**p))
        step = g / (coeffs.tail_log_slope(s) - p)
        x += step
        if abs(step) <= _NEWTON_STEP_TOL:
            return math.exp(x)
    raise ArithmeticError(f"fiber root did not converge (last log step {step:.3e})")


def project_su(
    ctx: EnergyContext, u: Field, norm_pow: float | None = None
) -> tuple[float, FiberCoefficients] | list:
    """Projection m(u) = s_u u onto the constraint manifold: returns the root
    s_u, with |phi(s_u)| <= 1e-10 * s_u^p * norm^p(u), and the one evaluation
    `coeffs` of u it came from, so J(m(u)) = coeffs.energy(s_u) and
    norm^p(m(u)) = s_u^p * coeffs.norm_pow.  Rays through u and t u (t > 0)
    land on the same point.  A stack of fields gets a list with the pair of
    each row, from one stacked evaluation.  A caller that knows norm^p(u)
    (the solver's unit-norm rows) passes it as `norm_pow`, as to
    `fiber_coefficients`; the solver projects every start and trial here."""
    stack = fiber_coefficients(ctx, u, norm_pow)
    out = []
    for coeffs in stack if isinstance(stack, list) else [stack]:
        if coeffs.norm_pow == 0.0:
            raise DomainError("the zero field has no fiber projection")
        s = _phi_root(coeffs)
        defect = abs(coeffs.phi(s))
        scale = s**coeffs.p * coeffs.norm_pow
        if defect > _ROOT_TOL * scale:
            raise ArithmeticError(
                f"fiber root residual {defect:.3e} exceeds {_ROOT_TOL:.1e} * {scale:.3e}"
            )
        out.append((s, coeffs))
    return out if isinstance(stack, list) else out[0]
