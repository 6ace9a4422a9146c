"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantity and its
tolerance, then asserts.  Tolerances are the release gates; the measured
margins are recorded in the line for the log.
"""

import os
import shutil
import subprocess
import sys
import time

import numpy as np

import lattice_choquard
from lattice_choquard import (
    Field,
    build_table,
    convolve,
    fiber_coefficients,
    fiber_growth_check,
    fractional_degree,
    ground_state_oracle,
    h_norm,
    h_norm_pow,
    LatticeSpec,
    make_context,
    minimize_ground_state,
    pairing_field,
    project_su,
)
from conftest import make_model
from reference import (
    energy_J,
    fiber_max_golden,
    ibp_check,
    mountain_pass_geometry_probe,
    mountain_pass_level,
    random_field,
)


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def inner_trim(u, margin=2):
    coords = u.spec.coordinate_array()
    keep = np.max(np.abs(coords), axis=1) <= u.spec.radius - margin
    return Field(u.spec, np.where(keep, u.values, 0.0))


def test_c01_kernel_normalization():
    t0 = time.perf_counter()
    got = fractional_degree(1, 1.0)
    elapsed = time.perf_counter() - t0
    rel = abs(got - 4.0 / np.pi) / (4.0 / np.pi)
    ok = rel <= 1e-8 and elapsed < 1.0
    report("C1", ok, f"normalization vs 4/pi rel={rel:.3e} (tol 1e-8), {elapsed:.3f}s")
    assert ok


def test_c02_kernel_asymptotics():
    t0 = time.perf_counter()
    ts = np.arange(10, 31)
    # the radius-15 table reaches differences up to 30 along each axis
    vals = build_table(LatticeSpec(2, 15), 1.0).values[30 + ts, 30] * ts
    elapsed = time.perf_counter() - t0
    spread = float((vals.max() - vals.min()) / vals.mean())
    ok = spread <= 0.10 and elapsed < 30.0
    report(
        "C2",
        ok,
        f"kernel*distance spread={spread:.3e} over l1 range [10,30] "
        f"(tol 0.10), {elapsed:.1f}s",
    )
    assert ok


def test_c03_summation_by_parts():
    worst = 0.0
    for dim in (1, 2):
        spec = LatticeSpec(dim, 6 if dim == 1 else 4)
        for p in (2.0, 2.5, 3.0, 4.0):
            rng = np.random.default_rng(100 * dim + int(10 * p))
            for _ in range(20):
                u = random_field(spec, rng)
                v = inner_trim(random_field(spec, rng))
                lhs, rhs = ibp_check(u, v, p)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst <= 1e-10
    report("C3", ok, f"summation-by-parts worst rel={worst:.3e} (tol 1e-10)")
    assert ok


def test_c04_gradient_correctness(ctx_b):
    # sup-norm-scaled comparison: per-component relative error is dominated
    # by the finite-difference roundoff floor on tiny components
    eps = 1e-6
    worst = 0.0
    p2_model = make_model(2, 6, 2.0, 1.0, 4.0)
    ctx_p2 = make_context(p2_model, table=ctx_b.table)
    for ctx in (ctx_p2, ctx_b):
        rng = np.random.default_rng(int(ctx.model.p))
        for _ in range(10):
            u = random_field(ctx.spec, rng)
            g = fiber_coefficients(ctx, u).gradient(1.0, pairing_field(ctx, u))
            fd = np.zeros_like(g)
            for i in range(u.values.size):
                up = u.values.copy()
                dn = u.values.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (
                    energy_J(ctx, Field(ctx.spec, up))
                    - energy_J(ctx, Field(ctx.spec, dn))
                ) / (2.0 * eps)
            worst = max(worst, float(np.max(np.abs(fd - g)) / np.max(np.abs(g))))
    ok = worst <= 1e-5
    report("C4", ok, f"gradient vs central differences worst rel={worst:.3e} (tol 1e-5)")
    assert ok


def test_c05_fiber_growth(ctx_a, ctx_b):
    worst = np.inf
    for ctx in (ctx_a, ctx_b):
        rep = fiber_growth_check(ctx, n=50, seed=0)
        worst = min(worst, rep.margin)
    ok = worst >= -1e-10
    report("C5", ok, f"fiber growth slack worst={worst:.3e} (floor -1e-10)")
    assert ok


def test_c06_projection_correctness(ctx_a):
    ((a, q),) = ctx_a.model.nonlinearity.terms
    p = ctx_a.model.p
    rng = np.random.default_rng(6)
    worst_root, worst_gold = 0.0, 0.0
    for _ in range(50):
        u = random_field(ctx_a.spec, rng)
        s, _ = project_su(ctx_a, u)
        pow_q = Field(ctx_a.spec, np.abs(u.values) ** q)
        B = float(np.dot(convolve(ctx_a.table, pow_q).values, pow_q.values))
        closed = (q * h_norm_pow(ctx_a, u) / (a**2 * B)) ** (1.0 / (2.0 * q - p))
        worst_root = max(worst_root, abs(s - closed) / closed)
        s_gold, _ = fiber_max_golden(ctx_a, u, rel_tol=1e-10)
        worst_gold = max(worst_gold, abs(s_gold - s) / s)
    ok = worst_root <= 1e-10 and worst_gold <= 1e-6
    report(
        "C6",
        ok,
        f"projection vs closed form rel={worst_root:.3e} (tol 1e-10), "
        f"vs golden section rel={worst_gold:.3e} (tol 1e-6)",
    )
    assert ok


def test_c07_oracle_equivalence(ctx_tiny):
    t0 = time.perf_counter()
    solved = minimize_ground_state(ctx_tiny).energy
    oracle = ground_state_oracle(ctx_tiny)
    elapsed = time.perf_counter() - t0
    rel = abs(solved - oracle) / abs(oracle)
    ok = rel <= 1e-6 and elapsed < 120.0
    report(
        "C7",
        ok,
        f"solver {solved:.12g} vs oracle {oracle:.12g}, rel={rel:.3e} "
        f"(tol 1e-6), {elapsed:.1f}s",
    )
    assert ok


def test_c08_criticality(ctx_a, report_a, ctx_b, report_b):
    worst_ratio = 0.0
    for ctx, rep in ((ctx_a, report_a), (ctx_b, report_b)):
        u = rep.u
        p = ctx.model.p
        norm = h_norm(ctx, u)
        limit_point = 1e-8 * max(1.0, norm ** (p - 1.0))
        limit_pair = 1e-8 * norm**p
        coeffs = fiber_coefficients(ctx, u)
        point = float(np.max(np.abs(coeffs.gradient(1.0, pairing_field(ctx, u)))))
        pair = abs(coeffs.phi(1.0))
        worst_ratio = max(worst_ratio, point / limit_point, pair / limit_pair)
    ok = worst_ratio <= 1.0
    report(
        "C8",
        ok,
        f"criticality residual worst fraction of allowance={worst_ratio:.3f} "
        "(residual <= 1e-8 norm scale, both models)",
    )
    assert ok


def test_c09_level_consistency(ctx_a, report_a, ctx_b, report_b):
    worst_rel, worst_gap = 0.0, np.inf
    for ctx, rep in ((ctx_a, report_a), (ctx_b, report_b)):
        _, fiber_val = fiber_max_golden(ctx, rep.u, rel_tol=1e-12)
        worst_rel = max(worst_rel, abs(fiber_val - rep.energy) / abs(rep.energy))
        mp = mountain_pass_level(ctx, rep.u, n_dirs=1000, seed=0)
        worst_gap = min(worst_gap, mp.direction_min - (rep.energy - 1e-8))
    ok = worst_rel <= 1e-8 and worst_gap >= 0.0
    report(
        "C9",
        ok,
        f"fiber max vs level rel={worst_rel:.3e} (tol 1e-8), 1000-direction "
        f"min clears level floor by {worst_gap:.3e}",
    )
    assert ok


def test_c10_mountain_pass_geometry(ctx_a, ctx_b):
    ok = True
    details = []
    for ctx in (ctx_a, ctx_b):
        probe = mountain_pass_geometry_probe(ctx, n_samples=64, seed=0)
        norm_e = h_norm(ctx, probe.witness)
        j_e = energy_J(ctx, probe.witness)
        ok = ok and probe.sigma > 0 and probe.rho > 0 and norm_e > probe.rho and j_e < 0
        details.append(
            f"dim{ctx.model.dim}: rho={probe.rho:.3g} sigma={probe.sigma:.3g} "
            f"||e||={norm_e:.3g} J(e)={j_e:.3g}"
        )
    report("C10", ok, "; ".join(details))
    assert ok


def test_c11_periodic_invariance():
    from lattice_choquard import PeriodicPotential

    model = make_model(
        1, 12, 2.0, 0.5, 4.0, potential=PeriodicPotential(2, np.array([1.0, 3.0]))
    )
    ctx = make_context(model)
    rng = np.random.default_rng(11)
    coords = ctx.spec.coordinate_array()
    inner = np.max(np.abs(coords), axis=1) <= 8
    worst = 0.0
    for _ in range(10):
        u = Field(
            ctx.spec, np.where(inner, rng.standard_normal(ctx.spec.site_count), 0.0)
        )
        # the roll translates u by one period: no mass reaches the box boundary
        diff = abs(energy_J(ctx, Field(ctx.spec, np.roll(u.values, 2))) - energy_J(ctx, u))
        worst = max(worst, diff)
    ok = worst <= 1e-12
    report("C11", ok, f"period-shift energy drift worst={worst:.3e} (tol 1e-12)")
    assert ok


def test_c12_determinism(tmp_path):
    exe = shutil.which("lattice-choquard")
    cmd = [exe] if exe else [sys.executable, "-m", "lattice_choquard.cli"]
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    config = tmp_path / "config.json"
    config.write_text(
        '{"dim": 1, "radius": 6, "p": 2, "alpha": 0.5,\n'
        ' "potential": {"kind": "constant", "value": 1.0},\n'
        ' "nonlinearity": {"terms": [[1.0, 4.0]]}}\n'
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run(
            cmd + ["solve", "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    stripped = []
    for out in outs:
        lines = (out / "report.json").read_text().splitlines()
        stripped.append([ln for ln in lines if "wall_time_s" not in ln])
    same_report = stripped[0] == stripped[1]
    same_solution = (outs[0] / "solution.csv").read_bytes() == (
        outs[1] / "solution.csv"
    ).read_bytes()
    same_trace = (outs[0] / "trace.csv").read_bytes() == (
        outs[1] / "trace.csv"
    ).read_bytes()
    ok = same_report and same_solution and same_trace
    report(
        "C12",
        ok,
        f"identical-seed artifacts byte-identical modulo wall time: "
        f"report={same_report} solution={same_solution} trace={same_trace}",
    )
    assert ok
