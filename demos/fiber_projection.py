"""Fiber maps: the constraint polynomial, projection, and the value functional.

Run from the repository root:

    python3 demos/fiber_projection.py
"""

import numpy as np

from lattice_choquard import (
    ConstantPotential,
    Field,
    LatticeSpec,
    ModelSpec,
    SumOfPowers,
    h_norm,
    make_context,
    project_su,
)


def main():
    model = ModelSpec(
        lattice=LatticeSpec(1, 5),
        p=2.0,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 4.0),)),
    )
    ctx = make_context(model)
    rng = np.random.default_rng(42)
    u = Field(ctx.spec, rng.standard_normal(ctx.spec.site_count))

    # the root comes with the evaluation of u it was found from: the fiber
    # maps along the whole ray are read from it
    s_u, coeffs = project_su(ctx, u)
    w = Field(ctx.spec, s_u * u.values)
    print(f"projection scale s_u = {s_u:.9f}")
    print(f"||m(u)|| = {h_norm(ctx, w):.6f}")

    print("\nfiber profile along the ray (phi changes sign at s_u):")
    grid = np.geomspace(s_u / 4.0, 4.0 * s_u, 13)
    energies = coeffs.energy(grid)
    print(f"  {'s':>12s} {'J(su)':>14s} {'phi(s)':>14s}")
    for s, en, ph in zip(grid, energies, coeffs.phi(grid)):
        marker = " <- maximum" if abs(s - s_u) == min(abs(grid - s_u)) else ""
        print(f"  {s:12.6f} {en:14.8f} {ph:+14.6f}{marker}")

    # the fiber maximum does not care about the scale of the representative:
    # u and u/||u|| project to the same point, J(m(u)) = J(s_u u) on each ray
    unit = Field(ctx.spec, u.values / h_norm(ctx, u))
    s_unit, unit_coeffs = project_su(ctx, unit)
    print(f"\nJ(m(u/||u||)) = {unit_coeffs.energy(s_unit):.10f}")
    print(f"J(m(u))       = {coeffs.energy(s_u):.10f}")
    print(f"max over grid = {energies.max():.10f} (grid approximation)")


if __name__ == "__main__":
    main()
