"""Benchmark of caplora's three engines, driven through its command line.

Run from the root of a caplora checkout (the package is imported from
``src``; it need not be installed):

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --quick

One run spawns fresh interpreters: several set-up probes (probe.py) for
``setup_s``, then one worker (worker.py) that runs the workload's CLI
calls in whole rounds for at least ``--seconds`` and checks every answer.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced worker.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  The whole
record, with the Python, numpy and scipy versions, the CPU count and the
git commit, also goes to ``.bench_out/<workload>-trace<t>.json``.

``--quick`` runs one round of every workload, untraced and traced, with
all checks, and exits 0 only when every run is correct and complete.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_sweep", "chain_grid", "sizing")
DEADLINE_S = 175.0        # a run must end within 180 s
SETUP_PROBES = 5          # measured set-up probes per run; one more warms the byte-code cache
AIRTIME_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.caplora_s": "s",
    "import.modules": "count",
    "cli.airtime_s": "s",
    "cli.self_s": "s",
    "config.load_scenario_ms": "ms",
    "timing.class_a_schedule.calls": "count",
    "energy.voltage_after.calls": "count",
    "energy.time_to_voltage.calls": "count",
    "energy.voltage_after.us_per_call": "us",
    "energy.time_to_voltage.us_per_call": "us",
    "energy.calls_per_uplink": "count",
    "simulator.run_simulation.self_s": "s",
    "simulator.uplinks_per_s": "uplinks/s",
    "simulator.single_cycle_trace.calls": "count",
    "simulator.single_cycle_trace.us_per_call": "us",
    "markov.build_s": "s",
    "markov.solve_det_s": "s",
    "markov.solve_stoch_s": "s",
    "markov.metrics_s": "s",
    "markov.states_max": "count",
    "markov.nnz_sum": "count",
    "markov.residual_max": "prob",
    "characterize.threshold_sweep.self_s": "s",
    "characterize.min_capacitance.self_s": "s",
    "characterize.min_tx_interval.self_s": "s",
    "characterize.wakeup_time.self_s": "s",
    "characterize.cycle_traces_per_min_cap": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def airtime_reference(sf=7, payload=16, bw=125e3, preamble=8, ih=1, de=0, cr=1) -> str:
    """Time on air from the LoRa equations, printed as the CLI prints it."""
    numerator = 8 * payload - 4 * sf + 28 + 16 - 20 * ih
    ceil_term = -(-numerator // (4 * (sf - 2 * de)))
    symbols = preamble + 4.25 + 8 + max(ceil_term * (cr + 4), 0)
    return f"{symbols * (1 << sf) / bw:.9g}"


def environment(root: str) -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit,
    }


def _spawn_timed(argv, env, deadline) -> tuple[float, str]:
    """Seconds from spawn to the first output line, and that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise BenchError(f"{' '.join(argv[1:])} exited {code}")
    return elapsed, line.strip()


def _spawn_until_exit(argv, env, deadline) -> tuple[float, str]:
    """Seconds from spawn to exit, and the standard output."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=env, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stdout


def run_once(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Probes plus one worker; returns the full record of the run."""
    deadline = time.monotonic() + DEADLINE_S
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    python = sys.executable

    probes = [_spawn_timed([python, os.path.join(HERE, "probe.py")], env, deadline)
              for _ in range(SETUP_PROBES + 1)][1:]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(root),
              "setup_s": statistics.median(t for t, _ in probes)}
    problems = []
    if trace:
        inner = [json.loads(line) for _, line in probes]
        airtime = [_spawn_until_exit([python, "-m", "caplora.cli", "airtime", "--sf", "7",
                                      "--pl", "16"], env, deadline)
                   for _ in range(AIRTIME_PROBES)]
        want = airtime_reference()
        if any(text.strip() != want for _, text in airtime):
            problems.append(f"airtime printed {airtime[0][1].strip()!r}, not {want}")
        record["probe_layers"] = {
            "import.caplora_s": statistics.median(p["import_s"] for p in inner),
            "import.modules": statistics.median(p["modules"] for p in inner),
            "cli.airtime_s": statistics.median(t for t, _ in airtime),
        }

    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        result_path = os.path.join(workdir, "result.json")
        argv = [python, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
                "--workdir", workdir, "--out", result_path]
        if trace:
            argv += ["--spans", os.path.join(out_dir, f"{workload}.spans.csv.gz")]
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} exited {proc.returncode}")
        with open(result_path, encoding="utf-8") as handle:
            record.update(json.load(handle))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["problems"] = problems + record["problems"]
    record["correct"] = record["correct"] and not problems

    if trace:
        values = dict(record.pop("probe_layers"), **record.pop("layers"))
        specs = PER_LAYER
    else:
        values = {name: record[name] for name in END_TO_END}
        specs = END_TO_END
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in specs.items() if name in values}
    record["missing_metrics"] = [name for name in specs if name not in values]
    with open(os.path.join(out_dir, f"{workload}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def _summary(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def quick(root: str) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            record = run_once(root, workload, seed=1, seconds=1, trace=trace)
            complete = not record["missing_metrics"] and all(
                math.isfinite(m["value"]) for m in record["metrics"].values())
            ok = ok and record["correct"] and complete
            print(json.dumps({"workload": workload, "trace": int(trace),
                              "problems": record["problems"],
                              "missing": record["missing_metrics"], **_summary(record)}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round of every workload, untraced and traced")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "caplora", "cli.py")):
        print("error: src/caplora not found; run from the root of a caplora checkout",
              file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(root)
        if args.workload is None:
            parser.error("--workload is required unless --quick is given")
        record = run_once(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in record["missing_metrics"]:
        print(f"metric missing: {name}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "rounds": record["rounds"],
                      "rows_per_s": record["rows_per_s"], "notes": record["notes"]}))
    print(json.dumps(_summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
