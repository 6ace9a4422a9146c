"""Config parsing, subcommands, artifacts, exit codes."""

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lattice_choquard
from lattice_choquard import ModelRejectedError, read_field_csv
from lattice_choquard.cli import ConfigError, main, parse_config

BASE = {
    "dim": 1,
    "radius": 6,
    "p": 2,
    "alpha": 0.5,
    "potential": {"kind": "constant", "value": 1.0},
    "nonlinearity": {"terms": [[1.0, 4.0]]},
}

# level frozen from a converged run at radius 6 (box truncation shifts the
# radius-8 level in the seventh digit)
LEVEL_R6 = 1.5885540216824978


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def base_config(**overrides):
    data = json.loads(json.dumps(BASE))
    data.update(overrides)
    return data


def test_parse_minimal_config():
    cfg = parse_config(json.dumps(BASE))
    assert cfg.model.lattice.radius == 6
    assert cfg.model.p == 2.0
    assert cfg.solver.seed == 0  # inherits the top-level default


def test_parse_solver_seed_inheritance():
    cfg = parse_config(json.dumps(base_config(seed=9)))
    assert cfg.solver.seed == 9
    # the top-level seed is the only one: a solver seed is refused by name
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(base_config(seed=9, solver={"seed": 3})))
    (message,) = err.value.errors
    assert "'solver.seed' is no longer a setting" in message
    assert "top-level" in message


def test_parse_rejects_invalid_json(tmp_path, capsys):
    with pytest.raises(ConfigError):
        parse_config("{not json")
    # the command line reports it as any other config error
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")


def test_parse_applies_seed_and_radius_overrides():
    cfg = parse_config(json.dumps(base_config(seed=9)), seed=5, radius=4)
    assert (cfg.solver.seed, cfg.model.lattice.radius) == (5, 4)
    assert (cfg.raw["seed"], cfg.raw["radius"]) == (5, 4)
    assert parse_config(json.dumps(base_config(seed=9))).solver.seed == 9


def test_parse_collects_all_structural_errors():
    data = base_config(radiu=6, solver={"max_iter": 1})
    data["potential"] = {"kind": "constant", "value": 1.0, "vallue": 2.0}
    del data["radiu"]  # keep one clean copy
    data["bogus"] = True
    data.pop("dim")
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(data))
    text = str(err.value)
    assert "bogus" in text
    assert "max_iter" in text
    assert "vallue" in text
    assert "dim" in text  # missing required key also reported


RETIRED_KEYS = [
    ("quad_points", 512, "quadrature"),
    ("transform_order", 3, "quadrature"),
    ("cache_dir", "kernels", "no longer cached"),
    ("solver.step0", 1.0, "Armijo"),
    ("solver.backtrack_factor", 0.5, "Armijo"),
    ("solver.sufficient_decrease", 1e-4, "Armijo"),
    ("solver.energy_tol", 1e-12, "energy tolerance is fixed"),
]


@pytest.mark.parametrize(
    "key, value, reason", RETIRED_KEYS, ids=[key for key, *_ in RETIRED_KEYS]
)
def test_parse_refuses_removed_quadrature_keys(key, value, reason):
    # a retired setting is refused with its reason and the advice to delete
    # it, not reported as an unknown key
    data = base_config()
    section, _, name = key.rpartition(".")
    (data.setdefault(section, {}) if section else data)[name] = value
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(data))
    (message,) = err.value.errors
    assert f"'{key}'" in message
    assert reason in message
    assert "delete" in message
    assert "unknown key" not in message


def test_parse_rejects_wrong_types():
    with pytest.raises(ConfigError):
        parse_config(json.dumps(base_config(p="2")))
    with pytest.raises(ConfigError):
        parse_config(json.dumps(base_config(radius=6.5)))


def test_parse_rejects_alpha_at_dimension():
    with pytest.raises(ModelRejectedError, match="alpha must lie in"):
        parse_config(json.dumps(base_config(alpha=1.0)))


def test_parse_rejects_subcritical_exponent():
    data = base_config()
    data["nonlinearity"] = {"terms": [[1.0, 2.0]]}
    with pytest.raises(ModelRejectedError) as err:
        parse_config(json.dumps(data))
    joined = " ".join(err.value.failures)
    assert "exponent_thresholds" in joined


@pytest.mark.parametrize(
    "potential, key",
    [
        ({"kind": "periodic", "period": 2.5, "cell": [1.0, 3.0]}, "potential.period"),
        ({"kind": "coercive", "center": [0.7]}, "potential.center"),
        ({"kind": "constant", "value": "abc"}, "potential.value"),
    ],
    ids=["fractional_period", "fractional_center", "string_value"],
)
def test_malformed_potential_field_exits_one(tmp_path, capsys, potential, key):
    # each was truncated and solved, or refused as a model, before potential
    # fields were type-checked with the rest of the config
    path = write_config(tmp_path, base_config(potential=potential))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: '{key}' must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "potential,message",
    [
        ({"kind": "periodic", "period": 2}, "a periodic 'potential' needs 'period' and 'cell'"),
        (
            {"kind": "periodic", "period": 2, "cell": [[1.0], [3.0, 2.0]]},
            "'potential.cell' must be a rectangular (nested) list of numbers",
        ),
        (
            {"kind": "periodic", "period": 2, "cell": [1.0, 3.0, 2.0]},
            "'potential.cell' must hold period**dim = 4 numbers",
        ),
    ],
    ids=["missing_cell", "ragged_cell", "cell_size"],
)
def test_malformed_periodic_potential_exits_one(tmp_path, capsys, potential, message):
    # each was refused as a model (exit 2), the last two with numpy's
    # message, though a malformed config exits 1
    path = write_config(tmp_path, base_config(dim=2, potential=potential))
    assert main(["kernel", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_periodic_potential_cell_any_nesting():
    # a cell of period**dim numbers is read in row-major order, however nested
    cells = []
    for cell in ([1.0, 3.0, 2.0, 4.0], [[1.0, 3.0], [2.0, 4.0]], [[1.0, 3.0, 2.0, 4.0]]):
        data = base_config(dim=2, potential={"kind": "periodic", "period": 2, "cell": cell})
        cells.append(parse_config(json.dumps(data)).model.potential.cell)
    for cell in cells:
        assert np.array_equal(cell, [[1.0, 3.0], [2.0, 4.0]])


def test_parse_periodic_potential_cell():
    data = base_config()
    data["potential"] = {"kind": "periodic", "period": 2, "cell": [1.0, 3.0]}
    cfg = parse_config(json.dumps(data))
    assert cfg.model.potential.period == 2


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate", "--config", "x.json"]) == 1
    assert main(["solve"]) == 1  # --config is required
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_model_rejection_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, base_config(alpha=1.0))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "alpha must lie in" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    path = write_config(tmp_path, BASE)
    argv = ["solve", "--config", path, "--out", str(tmp_path / "out")]
    assert main(argv + ["--threads", threads]) == 1
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nonconvergence_exits_three(tmp_path, capsys):
    data = base_config(solver={"max_iters": 1})
    path = write_config(tmp_path, data)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "stop=max_iters" in err
    assert "advice: every start stopped at solver.max_iters = 1" in err
    # following the advice: the default limit converges
    data["solver"]["max_iters"] = 5000
    path = write_config(tmp_path, data)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_solve_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "c=" in stdout

    report = json.loads((out / "report.json").read_text())
    assert report["c"] == pytest.approx(LEVEL_R6, rel=1e-8)
    assert set(report) >= {
        "c",
        "nehari_residual",
        "pointwise_residual",
        "iterations",
        "winner_start",
        "start_energies",
        "s_history",
        "starts",
        "config",
        "kernel",
        "wall_time_s",
    }
    assert report["config"]["radius"] == 6
    kernel = report["kernel"]
    assert kernel["method"] == "subordination"
    assert 0.0 <= kernel["error_estimate"] <= 1e-12
    starts = report["starts"]
    assert [d["start"] for d in starts] == list(range(len(report["start_energies"])))
    assert [d["energy"] for d in starts] == report["start_energies"]
    winner = starts[report["winner_start"]]
    assert (winner["iterations"], winner["stop"]) == (report["iterations"], "converged")
    assert all(d["roots"] == d["trials"] + 1 for d in starts)

    u = read_field_csv(out / "solution.csv")
    assert u.spec.radius == 6
    # constant potential counts as period 1: output is center normalized
    peak = u.spec.point_of(int(np.argmax(np.abs(u.values))))
    assert peak == (0,)

    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iter,psi,residual"
    assert len(trace) == 1 + len(report["s_history"])
    for line in trace[1:]:
        it, psi_val, res = line.split(",")
        float(psi_val), float(res)  # plain parseable floats


def test_solve_deterministic_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    reports = []
    for out in outs:
        lines = (out / "report.json").read_text().splitlines()
        reports.append([ln for ln in lines if "wall_time_s" not in ln])
    assert reports[0] == reports[1]
    assert (outs[0] / "solution.csv").read_bytes() == (
        outs[1] / "solution.csv"
    ).read_bytes()


def test_solve_writes_only_into_out(tmp_path, capsys, monkeypatch):
    # solve writes its artifacts into --out and nowhere else, also with
    # LATTICE_CHOQUARD_KERNEL_CACHE naming a directory
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("LATTICE_CHOQUARD_KERNEL_CACHE", str(cache))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert list(cache.iterdir()) == [] and list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cache",
        "config.json",
        "out",
        "work",
    ]
    assert sorted(p.name for p in out.iterdir()) == [
        "report.json",
        "solution.csv",
        "trace.csv",
    ]


def test_solve_radius_and_seed_overrides(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    code = main(
        [
            "solve",
            "--config",
            path,
            "--out",
            str(out),
            "--radius",
            "4",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["radius"] == 4
    assert report["config"]["seed"] == 7
    assert read_field_csv(out / "solution.csv").spec.radius == 4


def test_sweep_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", path, "--out", str(out), "--key", "radius",
         "--values", "4,6"]
    )
    assert code == 0
    capsys.readouterr()
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "value,c,nehari_residual,pointwise_residual,iterations"
    assert len(lines) == 3
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert float(rows["6"][1]) == pytest.approx(LEVEL_R6, rel=1e-8)
    assert float(rows["4"][1]) > 0


def test_sweep_keeps_rows_finished_before_a_failure(tmp_path, capsys):
    # model B: N=2, r=6, p=3, alpha=1, F = |t|^4 / 4
    path = write_config(tmp_path, base_config(dim=2, p=3, alpha=1.0))
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", path, "--out", str(out), "--key",
         "solver.max_iters", "--values", "5000,1"]
    )
    assert code == 3
    assert "sweep stopped at solver.max_iters=1" in capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("5000,")


def test_sweep_max_iters_advice_names_the_sweep_value(tmp_path, capsys):
    # the failing limit came from --values, not from the config
    path = write_config(tmp_path, base_config())
    argv = ["sweep", "--config", path, "--out", str(tmp_path / "out")]
    assert main(argv + ["--key", "solver.max_iters", "--values", "1"]) == 3
    err = capsys.readouterr().err
    assert "advice: every start stopped at solver.max_iters = 1; raise that " in err
    assert "sweep value in --values" in err and "in the config" not in err
    # a sweep over another key still points at the config
    data = base_config(solver={"max_iters": 1})
    path = write_config(tmp_path, data)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out"),
                 "--key", "radius", "--values", "6"]) == 3
    assert "raise solver.max_iters in the config" in capsys.readouterr().err


def test_sweep_over_seed_ignores_the_seed_flag(tmp_path, capsys, monkeypatch):
    # model A: the swept top-level seed reaches the solver whatever --seed says
    from lattice_choquard import cli

    seeds, solve = [], cli.minimize_ground_state

    def recording(ctx, cfg, **kwargs):
        seeds.append(cfg.seed)
        return solve(ctx, cfg, **kwargs)

    monkeypatch.setattr(cli, "minimize_ground_state", recording)
    path = write_config(tmp_path, base_config(radius=8))
    argv = ["sweep", "--config", path, "--key", "seed", "--values", "1,2,3"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    assert seeds == [1, 2, 3]
    assert main(argv + ["--out", str(tmp_path / "flag"), "--seed", "5"]) == 0
    assert seeds == [1, 2, 3, 1, 2, 3]
    capsys.readouterr()
    plain = (tmp_path / "plain" / "sweep.csv").read_text()
    assert (tmp_path / "flag" / "sweep.csv").read_text() == plain
    rows = plain.strip().splitlines()[1:]
    assert len({row.split(",", 1)[1] for row in rows}) == 3


def test_kernel_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["kernel", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "k_alpha=" in stdout
    lines = (out / "kernel.csv").read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 1 + (4 * 6 + 1)
    meta = json.loads(lines[0][1:])
    assert meta["method"] == "subordination"
    assert meta["error_estimate"] <= 1e-12


def test_cli_closes_the_config_file(tmp_path):
    # development mode reports every file left for the garbage collector
    path = write_config(tmp_path, BASE)
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cmd = [sys.executable, "-X", "dev", "-m", "lattice_choquard.cli", "kernel",
           "--config", path, "--out", str(tmp_path / "out")]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ResourceWarning" not in out.stderr


def test_solve_3d_radius_8_alpha_1(tmp_path, capsys):
    # this model passed admissibility but crashed the node-transform kernel
    # table with an uncaught ArithmeticError (exit 1)
    data = base_config(dim=3, radius=8, p=2, alpha=1.0, solver={"n_starts": 2})
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    # box levels do not increase with r; 6.11805791207 is the r = 6 level
    assert 6.1 < report["c"] <= 6.11805791207


def test_fiber_artifacts(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    code = main(
        [
            "fiber",
            "--config",
            path,
            "--out",
            str(out),
            "--field",
            str(out / "solution.csv"),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "s_u=" in stdout
    lines = (out / "fiber.csv").read_text().strip().splitlines()
    assert lines[0] == "s,energy,phi"
    assert len(lines) == 1 + 81
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    phis = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert phis[0] > 0 > phis[-1]  # grid brackets the fiber maximum
    # the energy peaks mid-grid, where phi changes sign
    assert int(np.argmax(energies)) == 40
    assert phis[39] > 0 > phis[41]
    # solved field projects to s_u = 1
    s_mid = float(lines[41].split(",")[0])
    assert s_mid == pytest.approx(1.0, rel=1e-6)


def test_fiber_rejects_mismatched_field(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out), "--radius", "4"]) == 0
    code = main(
        [
            "fiber",
            "--config",
            path,
            "--out",
            str(out),
            "--field",
            str(out / "solution.csv"),
        ]
    )
    assert code == 1
    capsys.readouterr()


_ROWS = "\n".join(f"{i},{i + 3.0}" for i in range(-2, 3)) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # site -2 twice and -1 never: the missing site must not be read as 0
        ('# {"dim": 1, "radius": 2}\n' + _ROWS.replace("-1,", "-2,"), "(-2,) appears twice"),
        ('# {"dim": 1}\n' + _ROWS, '"radius"'),
        (None, "cannot read field"),
    ],
    ids=["repeated_site", "no_radius", "missing_file"],
)
def test_fiber_refuses_a_malformed_field_file(tmp_path, capsys, text, message):
    config = write_config(tmp_path, base_config(radius=2))
    field = tmp_path / "field.csv"
    if text is not None:
        field.write_text(text)
    out = str(tmp_path / "out")
    assert main(["fiber", "--config", config, "--out", out, "--field", str(field)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_check_artifacts(tmp_path, capsys):
    # model B, the reference 2D model: six passing entries with their
    # sample counts
    path = write_config(tmp_path, base_config(dim=2, radius=6, p=3, alpha=1.0))
    out = tmp_path / "out"
    assert main(["check", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 6
    data = json.loads((out / "checks.json").read_text())
    assert data["all_passed"] is True
    assert {c["name"]: c["n_samples"] for c in data["checks"]} == {
        "hls_bilinear": 2000,
        "hls_operator": 2000,
        "fiber_growth": 160,
        "ar_condition": 83,
        "su_uniqueness": 32,
        "nehari_floor": 32,
    }


def test_run_dispatcher(tmp_path, capsys):
    # main dispatches to the subcommand and creates a missing --out
    path = write_config(tmp_path, BASE)
    out = tmp_path / "nested" / "dir"
    assert main(["kernel", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "kernel.csv").exists()


def test_threads_default_to_one():
    from lattice_choquard.cli import _build_parser

    args = _build_parser().parse_args(["solve", "--config", "c.json"])
    assert args.threads == 1


def test_module_entry_point_imports_cleanly():
    # the package must not import cli itself, or runpy warns that
    # lattice_choquard.cli is already in sys.modules
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    flags = ["-W", "error::RuntimeWarning", "-m", "lattice_choquard.cli", "--help"]
    out = subprocess.run([sys.executable, *flags], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr


def test_runs_load_no_scipy():
    # importing scipy.fft or scipy.special alone costs about 0.25 s, more
    # than a whole solve: neither the imports nor a solve or the oracle may
    # load any scipy module, and a solve loads no module at all
    code = """
import json, sys
import lattice_choquard as lc
from lattice_choquard import cli

def model(radius):
    return lc.ModelSpec(
        lattice=lc.LatticeSpec(1, radius), p=2.0, alpha=0.5,
        potential=lc.ConstantPotential(1.0),
        nonlinearity=lc.SumOfPowers(((1.0, 4.0),)),
    )

before = set(sys.modules)
lc.minimize_ground_state(lc.make_context(model(8)))
added = sorted(set(sys.modules) - before)
lc.ground_state_oracle(lc.make_context(model(3)), 50, 1, 2)
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"added": added, "scipy": scipy}))
"""
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"added": [], "scipy": []}


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt")
@pytest.mark.parametrize("pad", [0, 1 << 12, 1 << 16])
def test_cli_solve_keeps_its_heap(tmp_path, pad):
    # a lockstep round on the 3D r=6 box frees a few hundred KB; with glibc's
    # default heap policy the next round faults it back in, about 3200 minor
    # faults per solve, against about 570 with the CLI's policy.  The
    # padding moves the stack and environment, as a caller's environment
    # size does
    path = write_config(tmp_path, base_config(dim=3, radius=6, p=2, alpha=1.0))
    code = f"""
import resource
from lattice_choquard import cli

before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
status = cli.main(["solve", "--config", {path!r}, "--out", {str(tmp_path / "out")!r},
                   "--threads", "1"])
print(status, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.dirname(os.path.dirname(lattice_choquard.__file__))
    env = {**os.environ, "PYTHONPATH": src, "ENV_PAD": "x" * pad}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    status, faults = map(int, out.stdout.split()[-2:])
    assert status == 0
    assert faults <= 1500
