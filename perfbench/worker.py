"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH.  It imports caplora, writes
the workload's scenario files, then calls ``caplora.cli.main(argv)`` for
the workload's calls in whole rounds until ``--seconds`` have passed, so
the last round may end up to one round later.  Only the ``main`` calls
are timed.  Afterwards it checks the first round's answers, and that every
later round printed the same, and writes one JSON result to ``--out``.

With ``--trace 1`` the layer functions are wrapped (tracer.py) for the
rounds and the per-layer metrics are reported instead of the timed ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def invoke(argv) -> tuple[int, str]:
    """Call ``caplora.cli.main`` in-process; returns (exit code, stdout).

    ``main`` is looked up on every call, so the traced run sees its wrapper.
    """
    import caplora.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = caplora.cli.main(list(argv))
        except SystemExit as exc:          # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here (csv.gz)")
    args = parser.parse_args()

    import caplora.cli  # noqa: F401  (imported before the tracer wraps it)

    import workloads
    from checks import run_checks
    from tracer import Tracer, layer_metrics

    workload = workloads.build(args.workload, args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    first: list[tuple[int, str]] = []
    round_wall: list[float] = []
    round_cpu: list[float] = []
    differing = 0
    t_begin = time.perf_counter()
    while True:
        wall = 0.0
        cpu0 = cpu_seconds()
        if tracer:
            tracer.enabled = True
        for i, inv in enumerate(workload.invocations):
            t0 = time.perf_counter()
            result = invoke(inv.argv)
            wall += time.perf_counter() - t0
            if len(first) < len(workload.invocations):
                first.append(result)
            elif result != first[i]:
                differing += 1
        if tracer:
            tracer.enabled = False
        round_cpu.append(cpu_seconds() - cpu0)
        round_wall.append(wall)
        if time.perf_counter() - t_begin >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(round_wall)

    t_checks = time.perf_counter()
    report = run_checks(workload, first, invoke, want_residual=bool(args.trace))
    checks_s = time.perf_counter() - t_checks
    if differing:
        report.problems.append(f"{differing} calls printed differently in later rounds")

    rows = workload.rows_per_round
    result = {
        "correct": not report.problems,
        "attempted": rows * rounds,
        "failed": report.failed_ops * rounds,
        "rounds": rounds,
        "rows_per_round": rows,
        "problems": report.problems[:20],
        "notes": report.notes,
        "rows_per_s": rows * rounds / sum(round_wall),
        "cpu_s": sum(round_cpu) / rounds,
        "peak_rss_mb": peak_rss_mb,
        "round_wall_s": round_wall,
        "checks_s": checks_s,
    }
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer, rounds)
        residual = report.notes.get("residual_max", 0.0)
        if residual is not None:
            layers["markov.residual_max"] = residual
        result["layers"] = layers
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
