"""Self-test of the output checks: each must pass on the program's answer
and fail on a wrong one.

    python3 bench/selftest.py

One child process solves, checks and dumps the kernel of the 1D reference
model (N=1, r=8, p=2, alpha=0.5), which takes a few seconds.  The wrong
answers are the solution scaled by 1.01, the level raised by 1e-6, one
kernel entry perturbed by 1e-4 (relative), and a flipped `passed` flag.
The solver-versus-oracle comparison has a tolerance of 1e-6 relative, so
its wrong level is raised by twice that.  Exits 1 if any check misjudges.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from run import BENCH, OUT, ROOT, _child_env

CONFIG = {
    "dim": 1,
    "radius": 8,
    "p": 2,
    "alpha": 0.5,
    "potential": {"kind": "constant", "value": 1.0},
    "nonlinearity": {"terms": [[1.0, 4.0]]},
}
SEED = 0


def program_outputs(tmp: Path) -> Path:
    model = checks.Model(CONFIG)
    (tmp / "config.json").write_text(json.dumps(CONFIG))
    np.save(tmp / "probe_fields.npy", checks.probe_fields(model, SEED))
    cfg = str(tmp / "config.json")
    spec = {
        "kind": "cli",
        "config": cfg,
        "out": str(tmp),
        "trace": False,
        "commands": [
            ["solve", "--config", cfg, "--out", str(tmp)],
            ["check", "--config", cfg, "--out", str(tmp)],
        ],
        "dump_kernel": True,
        "probe_fields": str(tmp / "probe_fields.npy"),
    }
    (tmp / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(tmp / "spec.json")],
        env=_child_env(),
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return tmp


def main() -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as name:
        out = program_outputs(Path(name))
        model = checks.Model(CONFIG)
        sol = checks.read_solution(out / "solution.csv")
        R = checks.read_kernel(out / "kernel.csv")
        K = checks.dense_matrix(model, R)
        run = {n: (out / n).read_text() for n in ("report.json", "solution.csv", "trace.csv")}
        c = float(json.loads(run["report.json"])["c"])
        payload = json.loads((out / "checks.json").read_text())
        fields = np.load(out / "probe_fields.npy")
        conv = np.load(out / "probe_conv.npy")
        r2 = 2 * model.radius
        table = [R[(d,)] for d in range(-r2, r2 + 1)]

    scaled = {**sol, "u": {x: 1.01 * v for x, v in sol["u"].items()}}
    header = run["solution.csv"].splitlines()[0]
    rows = [f"{x[0]},{v!r}" for x, v in scaled["u"].items()]
    scaled_run = {**run, "solution.csv": "\n".join([header, *rows]) + "\n"}
    perturbed = dict(R)
    perturbed[(1,)] *= 1.0 + 1e-4
    perturbed_table = list(table)
    perturbed_table[r2 + 1] *= 1.0 + 1e-4
    flipped = copy.deepcopy(payload)
    flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
    texts = {"checks.json": json.dumps(payload)}
    flipped_texts = {"checks.json": json.dumps(flipped)}
    names = ["report.json", "solution.csv", "trace.csv"]
    oracle_tol = checks.ORACLE_REL_TOL

    cases = [
        # (what, right, wrong)
        (
            "solution scaled by 1.01",
            lambda: checks.euler_lagrange(model, K, sol),
            lambda: checks.euler_lagrange(model, K, scaled),
        ),
        (
            "solution file changed in one run",
            lambda: checks.identical_outputs([run, run], names),
            lambda: checks.identical_outputs([run, scaled_run], names),
        ),
        (
            "level raised by 1e-6",
            lambda: checks.level_is_fiber_max(model, K, sol, c),
            lambda: checks.level_is_fiber_max(model, K, sol, c + 1e-6),
        ),
        (
            "level raised by 1e-6",
            lambda: checks.level_below_directions(model, K, sol, c, SEED),
            lambda: checks.level_below_directions(model, K, sol, c + 1e-6, SEED),
        ),
        (
            f"level raised by {2 * oracle_tol:g} relative",
            lambda: checks.solver_matches_oracle(c, c),
            lambda: checks.solver_matches_oracle(c * (1 + 2 * oracle_tol), c),
        ),
        (
            "kernel entry perturbed by 1e-4",
            lambda: checks.kernel_closed_form(model.alpha, model.radius, table),
            lambda: checks.kernel_closed_form(model.alpha, model.radius, perturbed_table),
        ),
        (
            "kernel entry perturbed by 1e-4",
            lambda: checks.fft_matches_dense(model, R, fields, conv),
            lambda: checks.fft_matches_dense(model, perturbed, fields, conv),
        ),
        (
            "flipped passed flag",
            lambda: checks.checks_report(payload),
            lambda: checks.checks_report(flipped),
        ),
        (
            "flipped passed flag in one run",
            lambda: checks.identical_outputs([texts, texts], ["checks.json"]),
            lambda: checks.identical_outputs([texts, flipped_texts], ["checks.json"]),
        ),
    ]
    bad = 0
    for what, right, wrong in cases:
        ok, caught = right(), wrong()
        good = ok.ok and not caught.ok
        bad += not good
        print(
            f"{'PASS' if good else 'FAIL'} {ok.name}: right answer "
            f"{'passes' if ok.ok else 'FAILS'} ({ok.detail}); {what} "
            f"{'is caught' if not caught.ok else 'is NOT caught'} ({caught.detail})"
        )
    print(f"{len(cases) - bad} of {len(cases)} checks judged right and wrong answers correctly")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
