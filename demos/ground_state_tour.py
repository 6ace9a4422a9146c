"""End-to-end tour: build a model, solve it, inspect the ground state.

Run from the repository root:

    python3 demos/ground_state_tour.py
"""

import numpy as np

from lattice_choquard import (
    ConstantPotential,
    Field,
    LatticeSpec,
    ModelSpec,
    SumOfPowers,
    energy_J,
    h_norm,
    make_context,
    minimize_ground_state,
    project_su,
    random_field,
    validate_model,
)


def main():
    model = ModelSpec(
        lattice=LatticeSpec(1, 8),
        p=2.0,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 4.0),)),
    )
    validate_model(model)  # raises ModelRejectedError unless min q_i > p
    print("admissibility: accepted")

    ctx = make_context(model)
    result = minimize_ground_state(ctx)
    u = result.u
    print(f"\nground-state level c = {result.energy:.12f}")
    print(f"iterations (winning start) = {result.iterations}")
    print(f"constraint residual  = {result.nehari_residual:.3e}")
    print(f"pointwise residual   = {result.pointwise_residual:.3e}")
    print(f"norm ||u*||          = {h_norm(ctx, u):.6f}")

    print("\nprofile (site : value):")
    for x, val in zip(ctx.spec.coordinate_array(), u.values):
        bar = "#" * int(40 * abs(val) / np.max(np.abs(u.values)))
        print(f"  {x[0]:+3d} : {val:+.6f} {bar}")

    # the solution is the fiber maximum of its own ray: it projects to itself
    s_u, _ = project_su(ctx, u)
    print(f"\nprojection scale of u*       = {s_u:.12f} (equals 1)")

    # every other ray peaks at or above c, and far out J turns negative
    rng = np.random.default_rng(0)
    # J(m(u)) is the fiber energy at the root, from the projection's own
    # evaluation of u
    peaks = []
    for _ in range(200):
        s, coeffs = project_su(ctx, random_field(ctx.spec, rng))
        peaks.append(coeffs.energy(s))
    print(f"min over 200 random-ray maxima = {min(peaks):.6f} (>= c)")
    end = energy_J(ctx, Field(ctx.spec, 2.0 * u.values))
    print(f"J(2 u*)                        = {end:.3f} (< 0)")


if __name__ == "__main__":
    main()
