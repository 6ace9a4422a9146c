"""Reference implementations (oracles) that only the tests use.

The library computes these quantities on whole grids, or with faster
algorithms; the versions here follow the definitions site by site, or are
the slow and plainly safe algorithms they replaced, so tests can compare
the two.
"""

import numpy as np

from lattice_choquard import DomainError, Field, LatticeSpec


def canonical_representatives(dim: int, radius: int) -> list[tuple[int, ...]]:
    """Sorted nonnegative representatives of the kernel symmetry classes."""
    reps: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], lo: int) -> None:
        if len(prefix) == dim:
            reps.append(prefix)
            return
        for c in range(lo, 2 * radius + 1):
            rec(prefix + (c,), c)

    rec((), 0)
    return reps


def neighbors(x, spec: LatticeSpec) -> list[tuple[int, ...]]:
    """The 2N lattice neighbors of a box site, including points outside B."""
    if not spec.contains(x):
        raise DomainError(f"site {tuple(x)} outside box of radius {spec.radius}")
    pt = tuple(int(c) for c in x)
    out = []
    for j in range(spec.dim):
        for s in (1, -1):
            out.append(pt[:j] + (pt[j] + s,) + pt[j + 1 :])
    return out


def gradient_form(u: Field, v: Field, x) -> float:
    """Gamma(u, v)(x) = 1/2 sum over neighbors of the difference products."""
    if u.spec != v.spec:
        raise DomainError("fields live on different lattices")
    ux = u.value_at(x)
    vx = v.value_at(x)
    acc = 0.0
    for y in neighbors(x, u.spec):
        acc += (u.value_at(y) - ux) * (v.value_at(y) - vx)
    return 0.5 * acc


def grad_norm(u: Field, x) -> float:
    """|grad u|(x) = sqrt(Gamma(u, u)(x))."""
    return float(np.sqrt(gradient_form(u, u, x)))


def random_supported_by_sites(spec: LatticeSpec, rng, scale: float) -> Field:
    """The random supported field of `verify`, filled one site at a time."""
    sub = max(1, spec.radius // 2)
    room = spec.radius - sub
    center = rng.integers(-room, room + 1, size=spec.dim) if room > 0 else np.zeros(spec.dim, dtype=int)
    vals = np.zeros(spec.site_count)
    side = 2 * sub + 1
    block = rng.standard_normal(side**spec.dim).reshape((side,) * spec.dim)
    for offset, v in np.ndenumerate(block):
        site = tuple(int(center[j]) + offset[j] - sub for j in range(spec.dim))
        vals[spec.index_of(site)] = v * scale
    return Field(spec, vals)


def padded_grid_by_np_pad(u: Field, margin: int) -> np.ndarray:
    """The zero-padded value grid of `lattice`, built with np.pad."""
    return np.pad(u.grid(), margin)


def bisection_phi_root(coeffs) -> float:
    """Oracle for the fiber root: bracket by doubling from s = 1, then bisect
    to a relative width of 1e-13.  Slow (40-50 evaluations of phi) but
    relies only on phi changing sign once, from positive to negative."""
    lo = hi = 1.0
    val = coeffs.phi(1.0)
    if val == 0:
        return 1.0
    if val > 0:
        while coeffs.phi(hi) > 0:
            hi *= 2.0
    else:
        while coeffs.phi(lo) < 0:
            lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-13 * mid:
            break
        if coeffs.phi(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
