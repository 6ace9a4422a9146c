"""Admissibility and the inequality harness, on good and bad models.

Run from the repository root:

    python3 demos/model_checks.py
"""

from lattice_choquard import (
    ConstantPotential,
    LatticeSpec,
    ModelRejectedError,
    ModelSpec,
    SumOfPowers,
    make_context,
    run_all_checks,
    validate_model,
)


def main():
    good = ModelSpec(
        lattice=LatticeSpec(1, 8),
        p=2.0,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 4.0),)),
    )
    validate_model(good)
    print("quartic term at p = 2: accepted (min q_i = 4 > p)")

    # q = p fails the one admissibility rule, min q_i > p, and is rejected
    # with the rule named rather than a generic error
    bad = ModelSpec(
        lattice=LatticeSpec(1, 8),
        p=2.0,
        alpha=0.5,
        potential=ConstantPotential(1.0),
        nonlinearity=SumOfPowers(((1.0, 2.0),)),
    )
    try:
        validate_model(bad)
    except ModelRejectedError as err:
        print(f"quadratic term at p = 2: {err}")

    print("\ninequality harness on the accepted model:")
    ctx = make_context(good)
    for rep in run_all_checks(ctx, seed=0):
        status = "PASS" if rep.passed else "FAIL"
        print(f"  {status} {rep.name:14s} margin={rep.margin:+.3e} "
              f"samples={rep.n_samples}")
        if rep.name.startswith("hls_"):
            print(f"       {rep.detail}")


if __name__ == "__main__":
    main()
