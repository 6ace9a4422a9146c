"""The lattice kernel: normalization, decay, and the convolution identity.

The kernel values and the normalization constant come from one
heat-semigroup subordination quadrature; the constant is checked here
against its one-dimensional closed form.

Run from the repository root:

    python3 demos/kernel_tour.py
"""

from math import gamma

import numpy as np

from lattice_choquard import (
    Field,
    LatticeSpec,
    build_table,
    convolve,
    dense_operator,
    fractional_degree,
)


def main():
    # in one dimension the normalization constant has a closed form:
    # (1/2pi) int (2 - 2 cos k)^{alpha/2} dk = Gamma(1+alpha)/Gamma(1+alpha/2)^2
    print("\nnormalization constant vs closed form (dim 1):")
    for alpha in (0.25, 0.5, 1.0):
        exact = gamma(1.0 + alpha) / gamma(1.0 + alpha / 2.0) ** 2
        got = fractional_degree(1, alpha)
        print(f"  alpha={alpha:4.2f}: computed={got:.12f} exact={exact:.12f}")

    # a table of radius r holds R(d) at index d + 2r per axis
    wide = build_table(LatticeSpec(2, 15), 1.0)
    print("\nkernel decay along an axis (dim 2, alpha 1):")
    print("  t * R((t, 0)) is roughly constant once t >> 1:")
    for t in (2, 5, 10, 20, 30):
        val = wide.values[30 + t, 30]
        print(f"  t={t:3d}: R={val:.6e}  t*R={t * val:.6f}")

    spec = LatticeSpec(1, 6)
    table = build_table(spec, 0.5)
    print(f"\ntable built: k_alpha={table.k_alpha:.9f}, "
          f"{table.values.size} entries over the difference range, "
          f"error estimate {table.error_estimate:.1e}")

    # convolving a point mass reproduces the kernel itself
    conv = convolve(table, Field.delta(spec))
    print("convolution identity R * delta = R:")
    for d in (0, 2, 5):
        print(f"  d={d}: (R*delta)({d})={conv.values[6 + d]:.9f} "
              f"R({d})={table.values[12 + d]:.9f}")

    # this 13-site box convolves by its dense matrix; a box of more than
    # 362 sites takes the pruned FFT, checked here against that matrix
    big = LatticeSpec(1, 200)
    big_table = build_table(big, 0.5)
    rng = np.random.default_rng(0)
    w = Field(big, rng.standard_normal(big.site_count))
    fast = convolve(big_table, w).values
    slow = dense_operator(big_table) @ w.values
    print(f"\nfft vs dense-matrix convolution on {big.site_count} sites, "
          f"max abs diff: {np.max(np.abs(fast - slow)):.3e}")


if __name__ == "__main__":
    main()
