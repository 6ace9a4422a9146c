"""One measured process of the benchmark: set up, run the workload, report.

Usage: python3 bench/child.py <spec.json>

`spec.json` (written by run.py) names the workload kind, its config file,
the output directory and whether to trace.  The timed window covers the
workload's commands only; set-up is timed from the parent's spawn stamp,
which shares this process's monotonic clock.  After the window the process
records its peak resident memory, writes `result.json`, and only then does
the untimed extras the output checks need (the kernel table dump and the
probe convolutions).
"""

import json
import os
import resource
import sys
import threading
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """This process's own peak resident memory.

    `ru_maxrss` is not used when /proc is there: across exec it keeps the
    high-water mark of the parent's address space, so a parent that once
    held more memory than the child would be reported instead.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    out = spec["out"]

    t0 = _clock()
    import lattice_choquard as lc
    from lattice_choquard import cli

    t_imported = _clock()
    with open(spec["config"]) as fh:
        cfg = cli.parse_config(fh.read())
    t_ready = _clock()

    tracer = None
    if spec["trace"]:
        import tracer as tracing  # bench/ is sys.path[0]

        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes = []
    extra = {}
    run_start = _clock()
    if spec["kind"] == "cli":
        for argv in spec["commands"]:
            codes.append(cli.main(argv))
    else:
        budget = spec["oracle_budget"]
        ctx = lc.make_context(cfg.model)
        report = lc.minimize_ground_state(ctx, cfg.solver)
        level = lc.ground_state_oracle(ctx, **budget)
        codes.append(0)
        extra = {
            "c": report.energy,
            "u": report.u.values.tolist(),
            "oracle_level": level,
            "alpha": ctx.table.alpha,
            "radius": ctx.table.radius,
            "table": ctx.table.values.tolist(),
        }
    run_end = _clock()
    peak_rss_kb = _peak_rss_kb()

    if tracer is not None:
        tracer.restore()
        tracer.write(os.path.join(out, "spans.json"), threading.get_ident())

    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(
            {
                "import_s": t_imported - t0,
                "ready": t_ready,
                "run_s": run_end - run_start,
                "codes": codes,
                "peak_rss_kb": peak_rss_kb,
                **extra,
            },
            fh,
        )

    # untimed extras for the output checks
    if spec.get("dump_kernel"):
        cli.main(["kernel", "--config", spec["config"], "--out", out])
    if spec.get("probe_fields"):
        import numpy as np

        fields = np.load(spec["probe_fields"])
        table = lc.build_table(cfg.model.lattice, cfg.model.alpha)
        conv = [
            lc.convolve(table, lc.Field(cfg.model.lattice, f)).values for f in fields
        ]
        np.save(os.path.join(out, "probe_conv.npy"), np.asarray(conv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
