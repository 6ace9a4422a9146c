"""Output checks, computed apart from the program.

Nothing here imports `lattice_choquard`.  The checks read the artifacts a
workload wrote and recompute what they claim with independent code: the
p-Laplacian from its edge definition, the convolution as a dense direct
sum, fiber maxima by golden section, and the 1D kernel from its closed
form.  Each check returns a `Check(name, ok, detail)`; none compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

EL_ALLOWANCE = 1e-8  # criticality allowance of acceptance criterion C8
LEVEL_REL_TOL = 1e-8
DIRECTION_SLACK = 1e-8
ORACLE_REL_TOL = 1e-6
CLOSED_FORM_REL_TOL = 1e-6
FFT_REL_TOL = 1e-10
CHECK_SAMPLES = {
    "hls_bilinear": 2000,
    "hls_operator": 2000,
    "fiber_growth": 160,
    "ar_condition": 83,
    "su_uniqueness": 32,
    "nehari_floor": 32,
}


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# -- reading artifacts -----------------------------------------------------


def _rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    meta = json.loads(lines[0].lstrip("#"))
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        rows.append((tuple(int(c) for c in parts[:-1]), float(parts[-1])))
    return meta, rows


def read_solution(path) -> dict:
    """solution.csv as {site: value}, plus dim and radius."""
    meta, rows = _rows(path)
    return {"dim": meta["dim"], "radius": meta["radius"], "u": dict(rows)}


def read_kernel(path) -> dict:
    """kernel.csv as {difference: value}."""
    return dict(_rows(path)[1])


class Model:
    """Exponents, potential and power terms of a config (constant h only).

    Sites are listed in the program's row-major order.  `nbr` lists, for
    every site of the box enlarged by one ring, the indices of its 2N
    neighbours in that enlarged list; index `len(big)` is a zero slot for
    neighbours beyond it.
    """

    def __init__(self, config: dict):
        self.dim = config["dim"]
        self.radius = config["radius"]
        self.p = float(config["p"])
        self.alpha = float(config["alpha"])
        pot = config["potential"]
        if pot["kind"] != "constant":
            raise ValueError("the output checks support constant potentials")
        self.h = float(pot.get("value", 1.0))
        self.terms = [(float(a), float(q)) for a, q in config["nonlinearity"]["terms"]]
        r = self.radius
        self.sites = list(product(range(-r, r + 1), repeat=self.dim))
        big = list(product(range(-r - 1, r + 2), repeat=self.dim))
        where = {x: i for i, x in enumerate(big)}
        self.nbr = np.array(
            [[where.get(y, len(big)) for y in _neighbors(x)] for x in big]
        )
        self.inner = np.array([where[x] for x in self.sites])
        self.n_big = len(big)

    def F(self, t: np.ndarray) -> np.ndarray:
        return sum((a / q) * np.abs(t) ** q for a, q in self.terms)

    def f(self, t: np.ndarray) -> np.ndarray:
        return sum(a * np.abs(t) ** (q - 2.0) * t for a, q in self.terms)

    def extend(self, vals: np.ndarray) -> np.ndarray:
        """Zero extension onto the enlarged box, plus the zero slot."""
        out = np.zeros(self.n_big + 1)
        out[self.inner] = vals
        return out


def _neighbors(x):
    for j in range(len(x)):
        for step in (1, -1):
            yield x[:j] + (x[j] + step,) + x[j + 1 :]


def dense_matrix(model: Model, R: dict) -> np.ndarray:
    """K[i, j] = R(x_i - x_j) over the box sites, from the table's rows."""
    r2 = 2 * model.radius
    side = 2 * r2 + 1
    flat = np.empty(side**model.dim)
    for d, value in R.items():
        flat[np.ravel_multi_index(tuple(c + r2 for c in d), (side,) * model.dim)] = value
    coords = np.array(model.sites, dtype=np.int32)
    index = np.zeros((len(coords), len(coords)), dtype=np.int32)
    for j in range(model.dim):
        index = index * side + (coords[:, None, j] - coords[None, :, j] + r2)
    return flat[index]


# -- the p-Laplacian and the norm from their edge definitions ---------------


def _grad_sq(model: Model, v: np.ndarray) -> np.ndarray:
    """|grad u|^2(x) = 1/2 sum_{y~x} (u(y) - u(x))^2 on the enlarged box."""
    core = v[: model.n_big]
    return 0.5 * np.sum((v[model.nbr] - core[:, None]) ** 2, axis=1)


def norm_pow(model: Model, vals: np.ndarray) -> float:
    """sum |grad u|^p over every site with a nonzero gradient + sum h |u|^p."""
    g = _grad_sq(model, model.extend(vals))
    return float(np.sum(g ** (model.p / 2.0)) + np.sum(model.h * np.abs(vals) ** model.p))


def p_laplacian(model: Model, vals: np.ndarray) -> np.ndarray:
    """Delta_p u(x) = 1/2 sum_{y~x} (|grad u|^{p-2}(y) + |grad u|^{p-2}(x)) (u(y) - u(x))."""
    v = model.extend(vals)
    w = np.append(_grad_sq(model, v) ** ((model.p - 2.0) / 2.0), 0.0)
    nb = model.nbr[model.inner]
    ui = v[model.inner]
    wi = w[model.inner]
    return 0.5 * np.sum((w[nb] + wi[:, None]) * (v[nb] - ui[:, None]), axis=1)


# -- fiber maps ---------------------------------------------------------------


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, rel_tol: float = 1e-12):
    a, b = lo, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > rel_tol * max(abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def fiber(model: Model, K: np.ndarray, vals: np.ndarray):
    """s -> J(s v) as a scalar function, from one norm and dense sums."""
    A = norm_pow(model, vals)
    absv = np.abs(vals)
    powers = [absv**q for _, q in model.terms]
    images = [K @ g for g in powers]
    weights, exponents = [], []
    for (ai, qi), img in zip(model.terms, images):
        for (aj, qj), g in zip(model.terms, powers):
            weights.append(0.5 * (ai / qi) * (aj / qj) * float(img @ g))
            exponents.append(qi + qj)
    p = model.p

    def J(s: float) -> float:
        return A * s**p / p - sum(w * s**e for w, e in zip(weights, exponents))

    return J


def fiber_max(model: Model, K: np.ndarray, vals: np.ndarray) -> float:
    J = fiber(model, K, vals)
    hi = 1.0
    while J(hi) >= 0.0:
        hi *= 2.0
    return golden_max(J, 0.0, hi)[1]


# -- solve checks -------------------------------------------------------------


def solution_values(model: Model, sol: dict) -> np.ndarray:
    if (sol["dim"], sol["radius"]) != (model.dim, model.radius):
        raise ValueError("solution.csv does not match the config's lattice")
    return np.array([sol["u"][x] for x in model.sites])


def euler_lagrange(model: Model, K: np.ndarray, sol: dict) -> Check:
    """Pointwise and paired residual of the equation, within C8's allowance."""
    vals = solution_values(model, sol)
    local = -p_laplacian(model, vals) + model.h * np.abs(vals) ** (model.p - 2.0) * vals
    g = local - (K @ model.F(vals)) * model.f(vals)
    npow = norm_pow(model, vals)
    point = float(np.max(np.abs(g))) / (
        EL_ALLOWANCE * max(1.0, npow ** ((model.p - 1.0) / model.p))
    )
    pair = abs(float(g @ vals)) / (EL_ALLOWANCE * npow)
    worst = max(point, pair)
    return Check(
        "euler_lagrange",
        worst <= 1.0,
        f"residual at {worst:.3f} of the {EL_ALLOWANCE:g} allowance "
        f"(pointwise {point:.3f}, paired {pair:.3f})",
    )


def level_is_fiber_max(model: Model, K: np.ndarray, sol: dict, c: float) -> Check:
    """c equals the golden-section maximum of s -> J(s u*)."""
    best = fiber_max(model, K, solution_values(model, sol))
    rel = abs(best - c) / abs(c)
    return Check(
        "level_is_fiber_max",
        rel <= LEVEL_REL_TOL,
        f"max_s J(s u*) = {best!r}, c = {c!r}, rel {rel:.2e} (tol {LEVEL_REL_TOL:g})",
    )


def level_below_directions(
    model: Model, K: np.ndarray, sol: dict, c: float, seed: int, n: int = 100
) -> Check:
    """c is at most the fiber maximum along seeded random directions.

    Half the directions are decaying Gaussian fields; the other half perturb
    u* at scales from 1e-6 to 1e-1, where the fiber maximum comes within
    O(scale^2) of c, so a level that is too high shows.
    """
    rng = np.random.default_rng([seed, 7])
    sites = np.array(model.sites, dtype=float)
    envelope = np.exp(-0.5 * np.sqrt(np.sum(sites**2, axis=1)))
    ustar = solution_values(model, sol)
    peak = float(np.max(np.abs(ustar)))
    worst = math.inf
    for k in range(n):
        noise = rng.standard_normal(len(model.sites))
        if k % 2 == 0:
            v = noise * envelope
        else:
            v = ustar + peak * 10.0 ** rng.uniform(-6.0, -1.0) * noise * envelope
        worst = min(worst, fiber_max(model, K, v) - c)
    return Check(
        "level_below_directions",
        worst >= -DIRECTION_SLACK,
        f"min over {n} directions of (fiber max - c) = {worst:.3e} "
        f"(floor -{DIRECTION_SLACK:g})",
    )


def _strip_wall_time(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "wall_time_s" not in ln)


def identical_outputs(runs: list[dict], names: list[str]) -> Check:
    """Every run wrote the same files, apart from report.json's wall time."""
    first = runs[0]
    bad = []
    for k, run in enumerate(runs[1:], start=1):
        for name in names:
            a, b = first[name], run[name]
            if name == "report.json":
                a, b = _strip_wall_time(a), _strip_wall_time(b)
            if a != b:
                bad.append(f"{name} of run {k}")
    return Check(
        "identical_outputs",
        not bad,
        f"{len(runs)} runs agree on {', '.join(names)}"
        if not bad
        else "differs from run 0: " + ", ".join(bad),
    )


def solution_checks(model: Model, R: dict, sol: dict, c: float, seed: int) -> list[Check]:
    """The equation and the level, given the program's kernel table."""
    K = dense_matrix(model, R)
    return [
        euler_lagrange(model, K, sol),
        level_is_fiber_max(model, K, sol, c),
        level_below_directions(model, K, sol, c, seed),
    ]


# -- check-command checks -----------------------------------------------------


def checks_report(payload: dict) -> Check:
    """All six checks ran with the requested sample counts and passed."""
    got = {c["name"]: c for c in payload["checks"]}
    problems = []
    if set(got) != set(CHECK_SAMPLES):
        problems.append(f"checks {sorted(got)}")
    for name, n in CHECK_SAMPLES.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry["n_samples"] != n:
            problems.append(f"{name} ran {entry['n_samples']} samples, not {n}")
        if entry["passed"] is not True:
            problems.append(f"{name} failed")
    if payload.get("all_passed") is not True:
        problems.append("all_passed is not true")
    return Check(
        "checks_all_passed",
        not problems,
        "six checks passed with the requested sample counts"
        if not problems
        else "; ".join(problems),
    )


def fft_matches_dense(
    model: Model, R: dict, fields: np.ndarray, conv: np.ndarray
) -> Check:
    """The program's convolution of seeded fields equals a dense direct sum."""
    K = dense_matrix(model, R)
    absK = np.abs(K)
    worst = 0.0
    for w, got in zip(fields, conv):
        scale = float(np.max(absK @ np.abs(w)))
        worst = max(worst, float(np.max(np.abs(got - K @ w))) / scale)
    return Check(
        "fft_matches_dense",
        worst <= FFT_REL_TOL,
        f"{len(fields)} seeded fields, worst rel {worst:.2e} (tol {FFT_REL_TOL:g})",
    )


def probe_fields(model: Model, seed: int) -> np.ndarray:
    """Seeded fields for the convolution check: dense, supported, and single sites."""
    rng = np.random.default_rng([seed, 11])
    n = len(model.sites)
    out = [rng.standard_normal(n) for _ in range(4)]
    sites = np.array(model.sites)
    for _ in range(2):
        centre = rng.integers(-model.radius, model.radius + 1, size=model.dim)
        near = np.max(np.abs(sites - centre), axis=1) <= max(1, model.radius // 2)
        out.append(np.where(near, rng.standard_normal(n), 0.0))
    for _ in range(2):
        delta = np.zeros(n)
        delta[rng.integers(n)] = 10.0 ** rng.uniform(-2, 2)
        out.append(delta)
    return np.asarray(out)


# -- oracle checks ------------------------------------------------------------


def closed_form_1d(alpha: float, n: int) -> float:
    """R(n) = K Gamma(1-a) Gamma(n+a/2) / (Gamma(a/2) Gamma(1-a/2) Gamma(n+1-a/2)).

    With K = Gamma(1+a) / Gamma(1+a/2)^2; the exact 1D lattice kernel for
    0 < alpha < 1, evaluated through log-gamma.
    """
    a = alpha
    log_k = math.lgamma(1 + a) - 2 * math.lgamma(1 + a / 2)
    return math.exp(
        log_k
        + math.lgamma(1 - a)
        + math.lgamma(n + a / 2)
        - math.lgamma(a / 2)
        - math.lgamma(1 - a / 2)
        - math.lgamma(n + 1 - a / 2)
    )


def kernel_closed_form(alpha: float, radius: int, table) -> Check:
    """A 1D table over d = -2r..2r against the closed form."""
    worst = 0.0
    for i, value in enumerate(table):
        exact = closed_form_1d(alpha, abs(i - 2 * radius))
        worst = max(worst, abs(value - exact) / exact)
    return Check(
        "kernel_closed_form",
        worst <= CLOSED_FORM_REL_TOL,
        f"alpha={alpha}, r={radius}: worst rel {worst:.2e} "
        f"(tol {CLOSED_FORM_REL_TOL:g})",
    )


def solver_matches_oracle(c: float, oracle: float) -> Check:
    rel = abs(c - oracle) / abs(oracle)
    return Check(
        "solver_matches_oracle",
        rel <= ORACLE_REL_TOL,
        f"solver {c!r} vs oracle {oracle!r}, rel {rel:.2e} (tol {ORACLE_REL_TOL:g})",
    )
