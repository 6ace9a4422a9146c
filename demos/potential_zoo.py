"""How the potential class shapes the ground state.

Solves the same nonlinearity under a constant, a periodic, and a coercive
potential, and shows the level ordering and where each ground state peaks.

Run from the repository root:

    python3 demos/potential_zoo.py
"""

import numpy as np

from lattice_choquard import (
    CoercivePotential,
    ConstantPotential,
    LatticeSpec,
    ModelSpec,
    PeriodicPotential,
    SumOfPowers,
    make_context,
    minimize_ground_state,
)


def solve(potential):
    model = ModelSpec(
        lattice=LatticeSpec(1, 10),
        p=2.0,
        alpha=0.5,
        potential=potential,
        nonlinearity=SumOfPowers(((1.0, 4.0),)),
    )
    ctx = make_context(model)
    return ctx, minimize_ground_state(ctx)


def main():
    cases = [
        ("constant h = 1", ConstantPotential(1.0)),
        ("periodic T = 2, cell (1, 3)", PeriodicPotential(2, np.array([1.0, 3.0]))),
        (
            "coercive 1 + |x|/2",
            CoercivePotential(floor=1.0, center=(0,), scale=0.5, exponent=1.0),
        ),
    ]
    for label, pot in cases:
        ctx, report = solve(pot)
        peak = int(np.argmax(np.abs(report.u.values))) - ctx.spec.radius
        print(f"{label}:")
        print(f"  level c      = {report.energy:.9f}")
        print(f"  peak site    = {peak:+d}")
        print(f"  iterations   = {report.iterations}")
    print("\nwhat sets the level is the potential mass under the bump: the "
          "constant case pays h = 1 everywhere, the coercive case is also 1 "
          "at the center and grows only away from it, while the periodic "
          "cell forces h = 3 right next to the peak, so here "
          "constant < coercive < periodic.")


if __name__ == "__main__":
    main()
