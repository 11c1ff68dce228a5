"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``
from the repository root.  ``test_quick_mode`` runs every workload once,
untraced and traced, and takes a few minutes."""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import long_run_distribution, printed_tolerance  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def fake_package(monkeypatch):
    """A stand-in package with three layers, one of them re-bound elsewhere."""
    def voltage_after(x):
        return x + 1

    def run_simulation(n):
        return [types.SimpleNamespace(n_scheduled=n)] + [energy.voltage_after(i) for i in range(n)]

    def main(n):
        return sim.run_simulation(n)

    pkg = types.ModuleType("fakepkg")
    energy = types.ModuleType("fakepkg.energy")
    energy.voltage_after = voltage_after
    sim = types.ModuleType("fakepkg.simulator")
    sim.run_simulation = run_simulation
    sim.voltage_after = voltage_after          # a `from .energy import` binding
    cli = types.ModuleType("fakepkg.cli")
    cli.main = main
    for module in (pkg, energy, sim, cli):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return types.SimpleNamespace(energy=energy, sim=sim, cli=cli, original=voltage_after)


def test_missing_targets_are_reported_not_fatal(fake_package):
    tracer = Tracer()
    tracer.install("fakepkg")
    assert "markov.solve_chain" in tracer.missing
    assert "energy.time_to_voltage" in tracer.missing
    assert "energy.voltage_after" not in tracer.missing
    tracer.enabled = True
    fake_package.cli.main(4)
    tracer.enabled = False
    metrics = layer_metrics(tracer, rounds=2)
    assert "markov.build_s" not in metrics
    assert "energy.calls_per_uplink" not in metrics      # needs both energy targets
    assert metrics["energy.voltage_after.calls"] == 2   # 4 calls over 2 rounds
    assert metrics["simulator.uplinks_per_s"] > 0
    tracer.uninstall()


def test_wrapping_by_identity_and_self_times(fake_package):
    tracer = Tracer()
    tracer.install("fakepkg")
    assert fake_package.sim.voltage_after is fake_package.energy.voltage_after
    assert fake_package.sim.voltage_after is not fake_package.original
    tracer.enabled = True
    fake_package.cli.main(10)
    tracer.enabled = False
    fake_package.cli.main(10)                   # not counted
    metrics = layer_metrics(tracer, rounds=1)
    assert metrics["energy.voltage_after.calls"] == 10
    spans = {tracer.names[s[1]]: s for s in tracer.spans}
    main, sim = spans["cli.main"], spans["simulator.run_simulation"]
    assert sim[4] == main[0]                    # parent link
    assert main[5] == pytest.approx(sim[3] - sim[2])
    assert sim[6] == 10 and sim[7] == 10        # energy calls and uplinks noted
    assert 0.0 <= metrics["cli.self_s"] <= main[3] - main[2]
    tracer.uninstall()
    assert fake_package.energy.voltage_after is fake_package.original


def test_long_run_distribution():
    # A periodic two-cycle reached through a transient state.
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.allclose(long_run_distribution(p, 0), [0.0, 0.5, 0.5])
    # Two absorbing states reached with probability 0.25 and 0.75.
    p = np.array([[0.0, 0.25, 0.75], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(long_run_distribution(p, 0), [0.0, 0.25, 0.75])


def test_printed_tolerance():
    assert printed_tolerance(0.331593, 6) == pytest.approx(5e-7)
    assert printed_tolerance(31.5963688, 9) == pytest.approx(5e-8)


def test_benchmark_file_matches_the_program():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_airtime_reference_matches_readme():
    assert run.airtime_reference() == "0.046336"


MARKOV = ("markov.build_s", "markov.solve_det_s", "markov.solve_stoch_s", "markov.metrics_s",
          "markov.states_max", "markov.nnz_sum", "markov.residual_max")
SIMULATOR = ("energy.calls_per_uplink", "simulator.run_simulation.self_s",
             "simulator.uplinks_per_s")
SIZING = ("simulator.single_cycle_trace.calls", "characterize.min_capacitance.self_s",
          "characterize.min_tx_interval.self_s", "characterize.wakeup_time.self_s",
          "characterize.cycle_traces_per_min_cap")
IDLE = {   # layers predicted idle in each workload's timed part
    "sim_sweep": MARKOV + SIZING,
    "chain_grid": SIMULATOR + SIZING,
    "sizing": SIMULATOR + MARKOV + ("characterize.threshold_sweep.self_s",),
}


def test_quick_mode():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == 2 * len(run.WORKLOADS)
    for line in lines:
        assert line["correct"] and not line["missing"]
        expected = run.PER_LAYER if line["trace"] else run.END_TO_END
        assert set(line["metrics"]) == set(expected)
        if line["trace"]:
            for name in IDLE[line["workload"]]:
                assert line["metrics"][name]["value"] == 0, (line["workload"], name)
