"""Command-line front end: config parsing, run orchestration, artifacts.

Configs are JSON.  A minimal solve config:

    {
      "dim": 1, "radius": 8, "p": 2, "alpha": 0.5,
      "potential": {"kind": "constant", "value": 1.0},
      "nonlinearity": {"terms": [[1.0, 4.0]]}
    }

Parsing collects every structural error, including the type of every
potential field, before failing; a model that parses is then held to the
admissibility rule min q_i > p (`model.validate_model`).  Exit codes: 0
success, 1 usage or configuration error, 2 model rejection (including failed
checks), 3 nonconvergence.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .energy import make_context
from .kernel import METHOD
from .lattice import DomainError, LatticeSpec, read_field_csv, write_field_csv
from .model import (
    CoercivePotential,
    ConstantPotential,
    ModelRejectedError,
    ModelSpec,
    ModelViolationError,
    PeriodicPotential,
    SumOfPowers,
    validate_model,
)
from .nehari import project_su
from .solver import (
    NonconvergenceError,
    SolverConfig,
    center_normalize,
    minimize_ground_state,
)
from .verify import run_all_checks, write_checks_json

__all__ = ["ConfigError", "RunConfig", "parse_config", "main"]

logger = logging.getLogger(__name__)

_TOP_KEYS = {
    "dim",
    "radius",
    "p",
    "alpha",
    "seed",
    "potential",
    "nonlinearity",
    "solver",
}
# retired settings, each refused with the reason it went
_QUADRATURE = "the kernel's normalization constant needs no quadrature points"
_ARMIJO = "the line search's Armijo constants are fixed"
_REMOVED_KEYS = {
    "quad_points": _QUADRATURE,
    "transform_order": _QUADRATURE,
    "cache_dir": "kernel tables are no longer cached",
    "solver.step0": _ARMIJO,
    "solver.backtrack_factor": _ARMIJO,
    "solver.sufficient_decrease": _ARMIJO,
    "solver.energy_tol": "the stall test's energy tolerance is fixed at 1e-12",
    "solver.seed": "the solver takes the top-level `seed`",
}
_POTENTIAL_KEYS = {
    "constant": {"kind", "value"},
    "periodic": {"kind", "period", "cell"},
    "coercive": {"kind", "floor", "scale", "exponent", "center"},
}
_SOLVER_KEYS = {"max_iters", "grad_tol", "n_starts"}
# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


class ConfigError(ValueError):
    """Structural configuration problems, all collected before raising."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration: " + "; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: model and solver knobs, the top-level seed
    among them."""

    model: ModelSpec
    solver: SolverConfig
    raw: dict


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_shape(v):
    """The shape of a number, () , or of a rectangular nonempty nested list
    of numbers; None for anything else, ragged lists included."""
    if _is_num(v):
        return ()
    shapes = {_list_shape(x) for x in v} if isinstance(v, list) else set()
    if len(shapes) != 1 or None in shapes:
        return None
    return (len(v), *shapes.pop())


def _key_errors(keys, allowed: set, prefix: str = "") -> list[str]:
    """One error per key outside `allowed`; a retired key says why it went."""
    errors = []
    for key in sorted(set(keys) - allowed):
        name = prefix + key
        if name in _REMOVED_KEYS:
            errors.append(
                f"'{name}' is no longer a setting ({_REMOVED_KEYS[name]}); "
                "delete the key"
            )
        else:
            errors.append(f"unknown key '{name}'")
    return errors


def _structural_errors(data) -> list[str]:
    if not isinstance(data, dict):
        return ["config root must be an object"]
    errors = _key_errors(data, _TOP_KEYS)
    for key in ("dim", "radius"):
        if key not in data:
            errors.append(f"missing required key '{key}'")
        elif not _is_int(data[key]) or data[key] < 1:
            errors.append(f"'{key}' must be a positive integer")
    for key in ("p", "alpha"):
        if key not in data:
            errors.append(f"missing required key '{key}'")
        elif not _is_num(data[key]):
            errors.append(f"'{key}' must be a number")
    if "seed" in data and not _is_int(data["seed"]):
        errors.append("'seed' must be an integer")

    pot = data.get("potential")
    if pot is None:
        errors.append("missing required key 'potential'")
    elif not isinstance(pot, dict) or "kind" not in pot:
        errors.append("'potential' must be an object with a 'kind'")
    elif pot["kind"] not in _POTENTIAL_KEYS:
        errors.append(
            "'potential.kind' must be one of: " + ", ".join(sorted(_POTENTIAL_KEYS))
        )
    else:
        errors += _key_errors(pot, _POTENTIAL_KEYS[pot["kind"]], "potential.")
        for key in ("value", "floor", "scale", "exponent"):
            if key in pot and not _is_num(pot[key]):
                errors.append(f"'potential.{key}' must be a number")
        if "period" in pot and (not _is_int(pot["period"]) or pot["period"] < 1):
            errors.append("'potential.period' must be a positive integer")
        if "center" in pot and not (
            isinstance(pot["center"], list)
            and all(_is_int(c) for c in pot["center"])
            and len(pot["center"]) == data.get("dim", len(pot["center"]))
        ):
            errors.append("'potential.center' must be a list of 'dim' integers")
        shape = _list_shape(pot.get("cell"))
        if pot["kind"] == "periodic" and not {"period", "cell"} <= pot.keys():
            errors.append("a periodic 'potential' needs 'period' and 'cell'")
        elif "cell" in pot and not shape:
            errors.append("'potential.cell' must be a rectangular (nested) list of numbers")
        elif "cell" in pot and not errors:  # so 'period' and 'dim' are valid
            size = pot["period"] ** data["dim"]
            if math.prod(shape) != size:
                errors.append(f"'potential.cell' must hold period**dim = {size} numbers")

    nl = data.get("nonlinearity")
    if nl is None:
        errors.append("missing required key 'nonlinearity'")
    elif not isinstance(nl, dict):
        errors.append("'nonlinearity' must be an object")
    else:
        errors += _key_errors(nl, {"terms"}, "nonlinearity.")
        terms = nl.get("terms")
        if (
            not isinstance(terms, list)
            or not terms
            or not all(
                isinstance(t, list) and len(t) == 2 and all(_is_num(v) for v in t)
                for t in terms
            )
        ):
            errors.append(
                "'nonlinearity.terms' must be a nonempty list of [amplitude, "
                "exponent] pairs"
            )

    sol = data.get("solver", {})
    if not isinstance(sol, dict):
        errors.append("'solver' must be an object")
    else:
        errors += _key_errors(sol, _SOLVER_KEYS, "solver.")
        for key in ("max_iters", "n_starts"):
            if key in sol and not _is_int(sol[key]):
                errors.append(f"'solver.{key}' must be an integer")
        for key in _SOLVER_KEYS - {"max_iters", "n_starts"}:
            if key in sol and not _is_num(sol[key]):
                errors.append(f"'solver.{key}' must be a number")
    return errors


def _build_potential(pot: dict, dim: int):
    kind = pot["kind"]
    if kind == "constant":
        return ConstantPotential(value=float(pot.get("value", 1.0)))
    if kind == "periodic":
        cell = np.reshape(pot["cell"], (pot["period"],) * dim)
        return PeriodicPotential(period=pot["period"], cell=cell)
    return CoercivePotential(
        floor=float(pot.get("floor", 1.0)),
        center=tuple(pot.get("center", (0,) * dim)),
        scale=float(pot.get("scale", 1.0)),
        exponent=float(pot.get("exponent", 1.0)),
    )


def _config_from_data(data: dict) -> RunConfig:
    errors = _structural_errors(data)
    if errors:
        raise ConfigError(errors)

    model_errors: list[str] = []
    lattice = LatticeSpec(dim=data["dim"], radius=data["radius"])
    potential = None
    nonlinearity = None
    try:
        potential = _build_potential(data["potential"], data["dim"])
    except ValueError as exc:
        model_errors.append(str(exc))
    try:
        nonlinearity = SumOfPowers(
            terms=tuple((t[0], t[1]) for t in data["nonlinearity"]["terms"])
        )
    except ValueError as exc:
        model_errors.append(str(exc))
    model = None
    if not model_errors:
        try:
            model = ModelSpec(
                lattice=lattice,
                p=float(data["p"]),
                alpha=float(data["alpha"]),
                potential=potential,
                nonlinearity=nonlinearity,
            )
        except ValueError as exc:
            model_errors.append(str(exc))
    if model_errors:
        raise ModelRejectedError(model_errors)
    validate_model(model)

    solver = SolverConfig(seed=data.get("seed", 0), **data.get("solver", {}))
    return RunConfig(model=model, solver=solver, raw=copy.deepcopy(data))


def parse_config(text: str, seed: int | None = None, radius: int | None = None) -> RunConfig:
    """Parse and validate a JSON config, collecting all structural errors;
    a `seed` or `radius` given replaces the config's."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if isinstance(data, dict):
        data |= {k: v for k, v in (("seed", seed), ("radius", radius)) if v is not None}
    return _config_from_data(data)


def _set_dotted(data: dict, key: str, value) -> None:
    parts = key.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def _json_dump(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_solve(cfg: RunConfig, out_dir: str, threads: int) -> int:
    t0 = time.perf_counter()
    ctx = make_context(cfg.model)
    report = minimize_ground_state(ctx, cfg.solver, threads=threads)
    u_out = center_normalize(ctx, report.u)
    wall = time.perf_counter() - t0

    payload = report.scalars()
    payload["config"] = cfg.raw
    err = ctx.table.error_estimate
    payload["kernel"] = {
        "method": METHOD,
        "error_estimate": err if np.isfinite(err) else None,
    }
    payload["wall_time_s"] = wall
    _json_dump(payload, os.path.join(out_dir, "report.json"))
    write_field_csv(u_out, os.path.join(out_dir, "solution.csv"))
    with open(os.path.join(out_dir, "trace.csv"), "w") as fh:
        fh.write("iter,psi,residual\n")
        for i, (ps, rs) in enumerate(
            zip(report.psi_history, report.residual_history)
        ):
            fh.write(f"{i},{ps!r},{rs!r}\n")
    print(
        f"c={report.energy:.12g} nehari_residual={report.nehari_residual:.3e} "
        f"pointwise_residual={report.pointwise_residual:.3e} "
        f"iterations={report.iterations} wall={wall:.2f}s"
    )
    return 0


def _cmd_sweep(cfg: RunConfig, out_dir: str, threads: int, key: str, values) -> int:
    t0 = time.perf_counter()
    rows = []
    path = os.path.join(out_dir, "sweep.csv")
    try:
        for value in values:
            data = copy.deepcopy(cfg.raw)
            _set_dotted(data, key, value)
            run_cfg = _config_from_data(data)
            ctx = make_context(run_cfg.model)
            report = minimize_ground_state(ctx, run_cfg.solver, threads=threads)
            rows.append(
                (
                    value,
                    report.energy,
                    report.nehari_residual,
                    report.pointwise_residual,
                    report.iterations,
                )
            )
    finally:
        # a failed value still leaves the rows finished before it
        with open(path, "w") as fh:
            fh.write("value,c,nehari_residual,pointwise_residual,iterations\n")
            for value, c, nr, pr, iters in rows:
                fh.write(f"{value},{c!r},{nr!r},{pr!r},{iters}\n")
        if len(rows) < len(values):
            print(f"sweep stopped at {key}={values[len(rows)]}", file=sys.stderr)
    wall = time.perf_counter() - t0
    print(f"sweep over {key}: {len(rows)} runs, wall={wall:.2f}s -> {path}")
    return 0


def _cmd_kernel(cfg: RunConfig, out_dir: str) -> int:
    t0 = time.perf_counter()
    table = make_context(cfg.model).table
    path = os.path.join(out_dir, "kernel.csv")
    table.write_csv(path)
    wall = time.perf_counter() - t0
    print(
        f"k_alpha={table.k_alpha!r} entries={table.values.size} "
        f"wall={wall:.2f}s -> {path}"
    )
    return 0


def _cmd_fiber(cfg: RunConfig, out_dir: str, field_path: str) -> int:
    try:
        u = read_field_csv(field_path)
    except OSError as exc:
        print(f"cannot read field: {exc}", file=sys.stderr)
        return 1
    if u.spec != cfg.model.lattice:
        raise DomainError(
            "field file lattice (dim "
            f"{u.spec.dim}, radius {u.spec.radius}) does not match the config"
        )
    s_u, coeffs = project_su(make_context(cfg.model), u)
    grid = np.geomspace(s_u / 4.0, 4.0 * s_u, 81)
    path = os.path.join(out_dir, "fiber.csv")
    with open(path, "w") as fh:
        fh.write("s,energy,phi\n")
        for s, e, ph in zip(grid, coeffs.energy(grid), coeffs.phi(grid)):
            fh.write(f"{float(s)!r},{float(e)!r},{float(ph)!r}\n")
    print(f"s_u={s_u!r} -> {path}")
    return 0


def _cmd_check(cfg: RunConfig, out_dir: str) -> int:
    ctx = make_context(cfg.model)
    reports = run_all_checks(ctx, seed=cfg.solver.seed)
    write_checks_json(reports, os.path.join(out_dir, "checks.json"))
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        line = f"{status} {rep.name}: margin={rep.margin:.3e} n={rep.n_samples}"
        if rep.detail:
            line += f" ({rep.detail})"
        print(line)
    failed = [rep.name for rep in reports if not rep.passed]
    if failed:
        print(f"{len(failed)} of {len(reports)} checks failed: " + ", ".join(failed))
        return 2
    print(f"all {len(reports)} checks passed")
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that to our own
    # usage handling so exit code 2 stays reserved for model rejection
    def error(self, message):
        raise _UsageError(message)


def _parse_values(text: str) -> list:
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return values


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lattice-choquard",
        description="Ground states of a nonlocal lattice field equation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, desc in (
        ("solve", "run the ground-state search"),
        ("sweep", "re-solve while varying one config key"),
        ("kernel", "build and dump the convolution kernel table"),
        ("fiber", "dump the fiber maps for a stored field"),
        ("check", "run the verification harness"),
    ):
        p = sub.add_parser(name, description=desc, help=desc)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="parallel solver starts, at least 1",
        )
        p.add_argument("--radius", type=int, default=None, help="override radius")
        p.add_argument("--verbose", action="store_true", help="log progress")
        if name == "sweep":
            p.add_argument("--key", required=True, help="dotted config key to vary")
            p.add_argument(
                "--values", required=True, help="comma-separated values for the key"
            )
        if name == "fiber":
            p.add_argument("--field", required=True, help="field CSV to probe")
    return parser


def _keep_heap() -> None:
    """Keep freed memory in the process: a lockstep round on a large box
    frees a few hundred KB of temporaries, which glibc would hand back to
    the kernel (the heap's top, and every array above 128 KiB, which it
    maps apart) only for the next round to fault them in again.  Sets
    glibc's trim threshold to 64 MiB and its mmap threshold to 32 MiB, its
    largest; does nothing where there is no `mallopt`.  Only the CLI calls
    it: the library leaves its host's allocator alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _keep_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.threads < 1:
        message = f"--threads must be >= 1, got {args.threads}"
        print(f"usage error: {message}", file=sys.stderr)
        return 1

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text, args.seed, args.radius)
        os.makedirs(args.out, exist_ok=True)
        if args.subcommand == "solve":
            return _cmd_solve(cfg, args.out, args.threads)
        if args.subcommand == "sweep":
            values = _parse_values(args.values)
            return _cmd_sweep(cfg, args.out, args.threads, args.key, values)
        if args.subcommand == "kernel":
            return _cmd_kernel(cfg, args.out)
        if args.subcommand == "fiber":
            return _cmd_fiber(cfg, args.out, args.field)
        return _cmd_check(cfg, args.out)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except ModelRejectedError as exc:
        for failure in exc.failures:
            print(f"model rejected: {failure}", file=sys.stderr)
        return 2
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        if all(d.stop == "max_iters" for d in exc.diagnostics):
            swept = getattr(args, "key", None) == "solver.max_iters"
            print(
                "advice: every start stopped at solver.max_iters = "
                f"{exc.diagnostics[0].iterations}; raise "
                + ("that sweep value in --values" if swept else "solver.max_iters in the config"),
                file=sys.stderr,
            )
        return 3
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
