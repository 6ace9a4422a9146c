"""Lattice Green's kernel of fractional order by heat-semigroup subordination.

The kernel on Z^N is R_alpha = K_alpha G_s with s = alpha / 2, where

    G_s(d)  = (2 pi)^{-N} int_{T^N} cos(d . k) mu(k)^{-s} dk,
    K_alpha = (2 pi)^{-N} int_{T^N} mu(k)^{alpha/2} dk,

and mu(k) = 2N - 2 sum_j cos k_j.  Writing mu^{-s} as Gamma(s)^{-1} times
int_0^inf t^{s-1} e^{-t mu} dt, with the heat kernel of Z^N factorised per
axis as p_t(d) = e^{-2t} I_d(2t) (Ciaurri, Roncal, Stinga, Torrea and
Varona, Adv. Math. 330, 2018), gives

    G_s(d) = delta_d + Gamma(s)^{-1} int_0^inf t^{s-1}
                 (prod_j p_t(d_j) - delta_d e^{-t}) dt.

Subtracting delta_d e^{-t} (integral Gamma(s)) removes the t^{s-1}
singularity at the origin; the integrand decays like t^{s-1-N/2}, so G_s
exists for 0 < alpha < N.

K_alpha takes the same route with m = ceil(s) and sigma = m - s, writing
mu^s = mu^m mu^{-sigma}:

    K_alpha = Gamma(sigma)^{-1} int_0^inf t^{sigma-1} E_m(t) dt,
    E_m(t)  = (2 pi)^{-N} int mu^m e^{-t mu} dk = (-d/dt)^m p_t(0)^N
            = sum_{|beta|=m} (m! / beta!) prod_j a_{beta_j}(t),

where a_b(t) = (-d/dt)^b p_t(0) is the stencil (2 - z - 1/z)^b applied
to p_t.  Below t_0 = e^{-40} the integrand is E_m(0) t^{sigma-1},
which gives the head term E_m(0) t_0^sigma / sigma; at integer s,
K_alpha = E_m(0) exactly.

The rows p_t(0..M) come from the method of images: on Z/LZ the heat kernel
is the inverse real FFT of e^{-t 4 sin^2(pi k / L)}, and it equals
sum_j p_t(n + jL).  With L - M >= 14 sqrt(t) + 40 every image lies so far
out that its weight is below roundoff of p_t(0), and nodes that share a
power-of-two L go through one transform.  The transform is exact to
roundoff of p_t(0), not of p_t(n), so where a row falls steeply
(t < M^2 / 16, where p_t(M) / p_t(0) is below about e^-4) only p_t(0) is
kept from it.  The ratios p_t(n) / p_t(n-1) = r_n there follow from the
backward recurrence r_n = 1 / (n / t + r_{n+1}) (Gautschi, SIAM Rev. 9,
1967), started from r = 0 at K with K^2 >= M^2 + 74 t: an error at K has
shrunk by e^{-(K^2 - M^2) / 2t} <= e^{-37} by the time it reaches M.

Both integrals run in x = log t over [-40, log t_max] on 20-point
Gauss-Legendre panels; beyond t_max the six-term Hankel expansion of p_t,
multiplied across axes, is integrated term by term.  t_max = 100 reach^2
leaves that expansion exact to roundoff; its cap of 1e8 bounds the
transform length L.  K_alpha has no reach and a short t_max, where the
cancellation in a_b costs least.  A coarser rule (wider panels, a smaller
t_max) gives the table's error estimate, K_alpha included.

`convolve` sums R_alpha * w exactly by one of two routes, chosen by the
box: a small box multiplies by the dense matrix M[i, j] = R(x_i - x_j),
cached on the table, and a large one runs a pruned FFT against the
table's cached spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from math import ceil, exp, factorial, gamma, log, pi, sqrt
from typing import Sequence

import numpy as np
from numpy.fft import ifft, irfft, rfftn
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import DomainError, Field, LatticeSpec, _write_rows

__all__ = [
    "KernelTable",
    "fractional_degree",
    "build_table",
    "convolve",
    "dense_operator",
]

METHOD = "subordination"

# the 20-point Gauss-Legendre rule, numpy.polynomial.legendre.leggauss(20)
# to the bit: that rule is symmetrized exactly, so its positive half and a
# mirror give it without importing numpy.polynomial
_GL_HALF_NODES = [
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095,
]
_GL_HALF_WEIGHTS = [
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
    0.017614007139150893,
]
_GL_NODES = np.array([-x for x in _GL_HALF_NODES[::-1]] + _GL_HALF_NODES)
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
_LOG_T_MIN = -40.0
_PANEL = 3.0  # panel width in log t; the error estimate uses 3.5
_HANKEL_TERMS = 6
_K_T_MAX = 1e4  # where K_alpha's Hankel tail takes over (no reach to cover)
# bytes of one stack, each user counting what it stacks: a transform's
# spectra (25 fields of a 2D r=6 box, one of a 3D r=6 box, where two or more
# ran slower) and one oracle scan stack's differences
_STACK_BYTES = 1 << 17
# a box whose dense matrix fits in this many bytes (at most 362 sites: 1D
# r <= 180, 2D r <= 9, 3D r <= 3) convolves by the matrix product, a larger
# one by the pruned FFT.  Microseconds per call, pruned FFT / dense, for a
# stack of 8 fields and for one field (best of 7 x 200 calls; 2-vCPU Xeon
# VM, numpy 2.4.6, OpenBLAS 0.3.31):
#   box        sites  8 fields    1 field
#   2D r=6      169    83 / 33     34 / 5
#   2D r=9      361   150 / 138    42 / 18
#   2D r=10     441   227 / 213    48 / 28
#   2D r=12     625   274 / 805    53 / 117
#   3D r=3      343   406 / 126    77 / 16
#   3D r=4      729   821 / 474   120 / 60
#   1D r=128    257    53 / 76     21 / 11
#   1D r=180    361    73 / 143    63 / 38
# The product grows with sites^2 and the transform about linearly, so past
# about 1 MiB of matrix the FFT wins in 2D; 1D stacks cross earlier
_DENSE_BYTES = 1 << 20


def _t_max(reach: int) -> float:
    """Where the Hankel tail takes over: far past reach^2, capped so that
    the transform length of the heat rows stays bounded."""
    return min(100.0 * reach**2, 1e8)


def _fast_len(n: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= n, a fast real-FFT length."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest odd * 2^a >= n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _heat(t: np.ndarray, top: int) -> np.ndarray:
    """Rows p_t(0..top) of the heat kernel of Z, one per node t (module
    docstring): one inverse real FFT per group of nodes sharing L, and the
    ratios of the steep rows by backward recurrence."""
    rows = np.empty((t.size, top + 1))
    need = top + 14.0 * np.sqrt(t) + 40.0
    lengths = np.exp2(np.ceil(np.log2(need))).astype(int)
    for n in sorted(set(lengths.tolist())):
        group = lengths == n
        symbol = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
        rows[group] = irfft(np.exp(-t[group, None] * symbol), n)[:, : top + 1]
    steep = t < top**2 / 16.0
    if np.any(steep):
        ts = t[steep]
        ratio = np.zeros(ts.size)
        ratios = np.empty((ts.size, top))
        for n in range(int(sqrt(top**2 + 74.0 * ts.max())) + 20, 0, -1):
            ratio = 1.0 / (n / ts + ratio)
            if n <= top:
                ratios[:, n - 1] = ratio
        rows[steep, 1:] = rows[steep, :1] * np.cumprod(ratios, axis=1)
    # entries this small add nothing, and as subnormals they slow the
    # products across axes
    rows[np.abs(rows) < 1e-100] = 0.0
    return rows


def _panels(t_max: float, panel: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights of dx, x = log t, over [-40, log t_max]."""
    panels = ceil((log(t_max) - _LOG_T_MIN) / panel)
    edges = np.linspace(_LOG_T_MIN, log(t_max), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    t = np.exp((edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel())
    return t, (half * _GL_WEIGHTS).ravel()


def _hankel(nu: np.ndarray) -> np.ndarray:
    """Rows h_k(nu) of the expansion p_t(nu) ~ sum_k h_k(nu) t^{-k-1/2}."""
    h = np.ones((_HANKEL_TERMS, nu.size))
    for k in range(1, _HANKEL_TERMS):
        h[k] = h[k - 1] * ((2 * k - 1) ** 2 - 4.0 * nu**2) / (16.0 * k)
    return h / sqrt(4.0 * pi)


def _green(
    axes: Sequence[np.ndarray], alpha: float, t_max: float, panel: float
) -> np.ndarray:
    """G_s on the outer product of per-axis |d| values (module docstring)."""
    dim, s = len(axes), alpha / 2.0
    t, dx = _panels(t_max, panel)
    weights = dx * t**s  # t^{s-1} dt = t^s dx
    rows = _heat(t, max(int(a.max()) for a in axes))
    bessel, hankel = [], []
    for j, a in enumerate(axes):
        bessel += [rows[:, a], [dim, j]]
        hankel += [_hankel(a), [dim + 1 + j, j]]
    out = list(range(dim))
    heat = np.einsum(weights, [dim], *bessel, out, optimize=True)
    # int_{t_max}^inf t^{s-1} t^{-m-N/2} dt for the total Hankel order m
    power = sum(np.ix_(*[np.arange(_HANKEL_TERMS)] * dim)) + dim / 2.0 - s
    tail_axes = list(range(dim + 1, 2 * dim + 1))
    tail = np.einsum(t_max**-power / power, tail_axes, *hankel, out, optimize=True)
    delta = reduce(np.multiply.outer, [(a == 0).astype(float) for a in axes])
    return delta + (heat + tail - delta * np.dot(weights, np.exp(-t))) / gamma(s)


def _k_alpha(dim: int, alpha: float, t_max: float, panel: float) -> float:
    """K_alpha by subordination of mu^{s-m} (module docstring)."""
    s = alpha / 2.0
    m = ceil(s)
    sigma = m - s
    t, dx = _panels(t_max, panel)
    # a_b(t) at n = 0 from p_t(n) at n = -m..m, one second difference
    # 2 - z - 1/z at a time; row 0 is t = 0, where p_0(n) = delta_n
    v = np.vstack([np.eye(1, m + 1), _heat(t, m)])[:, np.abs(np.arange(-m, m + 1))]
    series = []
    for b in range(m + 1):
        series.append(v[:, m - b] / factorial(b))
        v = 2.0 * v[:, 1:-1] - v[:, :-2] - v[:, 2:]
    # E_m = m! [x^m] (sum_b a_b x^b / b!)^N, the sum over beta above
    power = series
    for _ in range(dim - 1):
        power = [
            sum(power[i] * series[k - i] for i in range(k + 1)) for k in range(m + 1)
        ]
    moment = factorial(m) * power[m]  # E_m at t = 0, then at the nodes
    if sigma == 0.0:
        return float(moment[0])
    # p_t(0)^N ~ sum_k g_k t^{-q}, q = k + N/2, so E_m ~ sum_k g_k (q)_m
    # t^{-q-m}, and t^{sigma-1} t^{-q-m} integrates to t_max^{-q-s} / (q+s)
    g = reduce(np.convolve, [_hankel(np.zeros(1))[:, 0]] * dim)
    q = np.arange(g.size) + dim / 2.0
    rising = np.prod([q + i for i in range(m)], axis=0)  # (q)_m
    tail = np.sum(g * rising * t_max ** -(q + s) / (q + s))
    head = moment[0] * exp(_LOG_T_MIN * sigma) / sigma
    heat = np.dot(dx * t**sigma, moment[1:])
    return float((head + heat + tail) / gamma(sigma))


def fractional_degree(dim: int, alpha: float) -> float:
    """Normalization constant K_alpha = (2 pi)^{-N} int mu^{alpha/2} dk.

    The integrand is bounded for every alpha > 0, so the constant exists
    beyond the kernel's own range (0, N); alpha <= 0 is rejected.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError("alpha must be positive")
    return _k_alpha(int(dim), float(alpha), _K_T_MAX, _PANEL)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Precomputed kernel over all differences d in {-2r, ..., 2r}^N.

    `values` has shape (4r+1,)^N and is indexed by d + 2r per axis, so the
    table covers every difference of two sites of a radius-r box.  The table
    carries its normalization constant k_alpha and `error_estimate`, the
    largest relative change of an entry, K_alpha included, under a coarser
    subordination rule (NaN when the values were not built here).
    """

    dim: int
    radius: int
    alpha: float
    k_alpha: float
    values: np.ndarray
    error_estimate: float = float("nan")

    def __post_init__(self) -> None:
        expected = (4 * self.radius + 1,) * self.dim
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        self.values.setflags(write=False)

    def _meta(self) -> dict:
        meta = {f.name: getattr(self, f.name) for f in fields(self)}
        del meta["values"]
        return {**meta, "method": METHOD}

    def write_csv(self, path) -> None:
        """Dump rows "d_1,...,d_N,value" over the full difference range."""
        _write_rows(path, self._meta(), 2 * self.radius, self.dim, self.values.reshape(-1))


def build_table(spec: LatticeSpec, alpha: float) -> KernelTable:
    """Build the kernel table for a box.

    All (4r+1)^N entries come from one subordination integral over the
    nonnegative orthant of differences; sign symmetry fills the rest, so
    reflection invariance holds exactly.
    """
    if not np.isfinite(alpha) or not 0 < alpha < spec.dim:
        raise ValueError(
            "alpha must lie in (0, N); the kernel integrand is not integrable "
            "otherwise"
        )
    ka = fractional_degree(spec.dim, alpha)
    reach = 2 * spec.radius
    axes = [np.arange(reach + 1)] * spec.dim
    nonneg = ka * _green(axes, alpha, _t_max(reach), _PANEL)
    if not np.all(np.isfinite(nonneg)) or not np.all(nonneg > 0):
        raise ArithmeticError(
            f"kernel table for N={spec.dim}, r={spec.radius}, alpha={alpha} is "
            "not finite and positive; this is a fault in the kernel evaluation"
        )
    # the error estimate's rule: tails ten times earlier, wider panels
    coarse = _k_alpha(spec.dim, alpha, _K_T_MAX / 10.0, _PANEL + 0.5) * _green(
        axes, alpha, _t_max(reach) / 10.0, _PANEL + 0.5
    )
    mirror = np.abs(np.arange(-reach, reach + 1))
    return KernelTable(
        dim=spec.dim,
        radius=spec.radius,
        alpha=float(alpha),
        k_alpha=ka,
        values=nonneg[np.ix_(*[mirror] * spec.dim)],
        error_estimate=float(np.max(np.abs(coarse - nonneg) / nonneg)),
    )


def dense_operator(table: KernelTable) -> np.ndarray:
    """The (site_count x site_count) matrix M[i, j] = R(x_i - x_j), cached
    read-only on the table; `convolve` multiplies by it on small boxes.

    Row i, as a box grid, is the table's window at offset 2r - x_i read
    backwards, so the windows of the reversed table give every row at once.
    """
    cached = getattr(table, "_dense", None)
    if cached is None:
        side, dim = 2 * table.radius + 1, table.dim
        windows = sliding_window_view(np.flip(table.values), (side,) * dim)
        cached = np.ascontiguousarray(np.flip(windows, tuple(range(dim))))
        cached = cached.reshape(side**dim, side**dim)
        cached.setflags(write=False)
        object.__setattr__(table, "_dense", cached)
    return cached


def _spectrum(table: KernelTable) -> tuple[tuple[int, ...], np.ndarray]:
    """The transform shape and the kernel's spectrum, cached on the table.

    The spectrum has the shape of one field's transform, so its size is
    the memory one field adds to a stacked transform.
    """
    cached = getattr(table, "_spectrum", None)
    if cached is None:
        fshape = (_fast_len(4 * table.radius + 1),) * table.dim
        axes = tuple(range(table.dim))
        cached = (fshape, rfftn(table.values, fshape, axes))
        object.__setattr__(table, "_spectrum", cached)
    return cached


def _stack_size(table: KernelTable) -> int:
    """Fields per stacked transform: as many as keep the stack's spectrum
    within _STACK_BYTES, and at least one."""
    return max(1, _STACK_BYTES // _spectrum(table)[1].nbytes)


def _fft_convolve(table: KernelTable, grids: np.ndarray) -> np.ndarray:
    """R_alpha * w for each box grid w on the trailing N axes of `grids`.

    Takes one field (shape `spec.shape`) or a stack of any height (shape
    `(m, *spec.shape)`), transformed `_stack_size(table)` fields at a time.
    The transform runs at circular length L per axis, the smallest 5-smooth
    number >= 4r+1: the linear convolution of the (4r+1)^N table with the
    (2r+1)^N box has support [0, 6r], and the aliases n +- L of an output
    index n in [2r, 4r] fall outside it, so the window read back is exact.
    The kernel's spectrum is cached on the table.  The inverse is pruned
    (Markel, IEEE Trans. Audio Electroacoust. 19, 1971): irfftn's ifft
    passes run axis by axis, each keeping only the window's rows, and the
    last axis's irfft runs on the kept lines alone, so every row comes out
    with the bits a single field would get from irfftn cut to the window.
    """
    dim, size = table.dim, _stack_size(table)
    if grids.ndim > dim and len(grids) > size:
        chunks = [_fft_convolve(table, grids[i : i + size]) for i in range(0, len(grids), size)]
        return np.concatenate(chunks)
    fshape, spectrum = _spectrum(table)
    axes = tuple(range(-dim, 0))
    window = slice(2 * table.radius, 4 * table.radius + 1)
    spectra = rfftn(grids, fshape, axes)
    spectra *= spectrum
    for axis in axes[:-1]:
        spectra = ifft(spectra, axis=axis)[(..., window) + (slice(None),) * (-axis - 1)]
    return irfft(spectra, fshape[-1])[..., window]


def convolve(table: KernelTable, w: Field) -> Field:
    """Nonlocal convolution (R_alpha * w)(x) = sum_y R_alpha(x - y) w(y).

    The table must match the field's lattice.  `w` is one field or a stack
    of fields (values of shape (m, site_count)).  If `dense_operator(table)`
    fits in _DENSE_BYTES, the sum is the product with that matrix, one
    matrix-vector product per row, so each row of a stack gets the bits it
    has alone; otherwise it is `_fft_convolve`.
    """
    if table.dim != w.spec.dim or table.radius != w.spec.radius:
        raise DomainError("kernel table and field lattice disagree")
    if table.values.itemsize * w.spec.site_count**2 <= _DENSE_BYTES:
        return Field(w.spec, np.matmul(dense_operator(table), w.values[..., None])[..., 0])
    return Field(w.spec, _fft_convolve(table, w.grid()).reshape(w.values.shape))
