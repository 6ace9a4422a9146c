"""Per-layer metrics from the traced rounds' spans and counters.

A layer's time is the summed duration of its outermost spans (a span whose
ancestors carry the same layer name is not counted twice); its self time
subtracts the spans directly below it.  Threads each keep their own span
stack, so with `--threads` above 1 a layer's time is summed over threads
and includes time spent waiting for the interpreter lock.

`trace.coverage` is the share of the traced round's wall-clock `run_s`
covered by the spans with no parent on the main thread, the top-level
layers; counts times unit cost over those layers explain that share of the
run.  `trace.overhead_s`
is the traced rounds' median `run_ref_s` minus the untraced rounds'
median, both scaled to the reference CPU speed.
"""

from __future__ import annotations

import json
import re
import statistics

# name -> unit of every per-layer metric, in BENCHMARK.json's order
PER_LAYER = {
    "setup.import_s": "s",
    "setup.import.scipy_signal_s": "s",
    "setup.import.scipy_optimize_s": "s",
    "kernel.build_table.calls": "count",
    "kernel.build_table.s": "s",
    "kernel.convolve.calls": "count",
    "kernel.convolve.s": "s",
    "kernel.convolve.fft_points": "count",
    "kernel.dense_operator.calls": "count",
    "kernel.dense_operator.s": "s",
    "energy.pairing_field.calls": "count",
    "energy.pairing_field.s": "s",
    "energy.h_norm.calls": "count",
    "energy.h_norm.s": "s",
    "nehari.fiber_coefficients.calls": "count",
    "nehari.fiber_coefficients.self_s": "s",
    "nehari.fiber_root.calls": "count",
    "nehari.fiber_root.s": "s",
    "nehari.phi_evals": "count",
    "solver.iterations": "count",
    "solver.trials": "count",
    "solver.descend.s": "s",
    "solver.threads": "count",
    "verify.hls.self_s": "s",
    "verify.random_fields.calls": "count",
    "verify.random_fields.s": "s",
    "lattice.index_of.calls": "count",
    "verify.other_checks.s": "s",
    "verify.oracle.scan_s": "s",
    "verify.oracle.polish_s": "s",
    "verify.oracle.fiber_evals": "count",
    "cli.artifacts.s": "s",
    "trace.coverage": "1",
    "trace.overhead_s": "s",
    "trace.missing_names": "count",
}

# layers whose calls and summed time are reported as <layer>.calls / <layer>.s
_TIMED = (
    "kernel.build_table",
    "kernel.convolve",
    "kernel.dense_operator",
    "energy.pairing_field",
    "energy.h_norm",
    "nehari.fiber_root",
    "verify.random_fields",
)
_COUNTERS = (
    "kernel.convolve.fft_points",
    "nehari.phi_evals",
    "solver.iterations",
    "lattice.index_of.calls",
    "verify.oracle.fiber_evals",
)


class Spans:
    def __init__(self, path):
        with open(path) as fh:
            data = json.load(fh)
        self.main = data["main_thread"]
        self.missing = data["missing"]
        self.counts = data["counts"]
        self.spans = {s[0]: s for s in data["spans"]}
        self.children: dict = {}
        for s in self.spans.values():
            self.children.setdefault(s[4], []).append(s)

    def _outermost(self, layer: str) -> list:
        out = []
        for s in self.spans.values():
            if s[1] != layer:
                continue
            parent = s[4]
            while parent is not None and self.spans[parent][1] != layer:
                parent = self.spans[parent][4]
            if parent is None:
                out.append(s)
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for s in self.spans.values() if s[1] == layer)

    def seconds(self, layer: str) -> float:
        return sum(s[3] - s[2] for s in self._outermost(layer))

    def self_seconds(self, layer: str) -> float:
        total = 0.0
        for s in self._outermost(layer):
            below = sum(c[3] - c[2] for c in self.children.get(s[0], []))
            total += s[3] - s[2] - below
        return total

    def outside(self, layer: str, excluded: tuple) -> float:
        """Time of `layer` minus its descendants in the `excluded` layers."""
        total = 0.0
        for s in self._outermost(layer):
            total += s[3] - s[2]
            todo = list(self.children.get(s[0], []))
            while todo:
                c = todo.pop()
                if c[1] in excluded:
                    total -= c[3] - c[2]
                else:
                    todo.extend(self.children.get(c[0], []))
        return total

    def children_of(self, layer: str, child: str) -> int:
        return sum(
            1
            for s in self.spans.values()
            if s[1] == child and s[4] is not None and self.spans[s[4]][1] == layer
        )

    def top_level_seconds(self) -> float:
        return sum(
            s[3] - s[2] for s in self.spans.values() if s[4] is None and s[5] == self.main
        )


def _import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `python -X importtime` output."""
    pat = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|(\s*)" + re.escape(module) + r"\s*$")
    found = [m for m in (pat.match(ln) for ln in stderr.splitlines()) if m]
    if not found:
        return 0.0
    # the least indented line is the outermost import of the module
    return int(min(found, key=lambda m: len(m.group(2))).group(1)) * 1e-6


def layer_values(sp: Spans, stderr: str, run_s: float) -> dict:
    v = {}
    for layer in _TIMED:
        v[f"{layer}.calls"] = sp.calls(layer)
        v[f"{layer}.s"] = sp.seconds(layer)
    for name in _COUNTERS:
        v[name] = sp.counts.get(name, 0)
    v["setup.import.scipy_signal_s"] = _import_seconds(stderr, "scipy.signal")
    v["setup.import.scipy_optimize_s"] = _import_seconds(stderr, "scipy.optimize")
    v["nehari.fiber_coefficients.calls"] = sp.calls("nehari.fiber_coefficients")
    v["nehari.fiber_coefficients.self_s"] = sp.self_seconds("nehari.fiber_coefficients")
    v["solver.trials"] = sp.children_of(
        "solver.descend", "nehari.fiber_coefficients"
    ) - sp.calls("solver.descend")
    v["solver.descend.s"] = sp.seconds("solver.descend")
    v["solver.threads"] = len({s[5] for s in sp.spans.values() if s[1] == "solver.descend"})
    v["verify.hls.self_s"] = sp.outside("verify.hls", ("kernel.convolve",))
    v["verify.other_checks.s"] = sp.seconds("verify.other_checks")
    v["verify.oracle.polish_s"] = sp.seconds("verify.oracle.polish")
    v["verify.oracle.scan_s"] = sp.outside(
        "verify.oracle", ("verify.oracle.polish", "kernel.dense_operator")
    )
    v["cli.artifacts.s"] = sp.seconds("cli.artifacts")
    v["trace.coverage"] = sp.top_level_seconds() / run_s
    v["trace.missing_names"] = len(sp.missing)
    return v


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Medians over the traced rounds; counts repeat exactly between them."""
    rows = []
    for r in traced:
        sp = Spans(r["dir"] / "spans.json")
        for name in sp.missing:
            print(f"trace: layer boundary {name} not found; its layer reads 0")
        stderr = (r["dir"] / "stderr.txt").read_text()
        rows.append(layer_values(sp, stderr, r["run_s"]))
    values = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    values["setup.import_s"] = statistics.median(r["import_s"] for r in plain)
    values["trace.overhead_s"] = statistics.median(
        r["e2e"]["run_ref_s"] for r in traced
    ) - statistics.median(r["e2e"]["run_ref_s"] for r in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
