"""The benchmark's workloads: scenario files plus a fixed list of CLI calls.

Every scenario file is the stock scenario (``caplora.dump_scenario`` of an
empty file) with a few keys edited, written to the run's work directory.
The program receives only those files and command-line arguments.  The
workload seed picks the simulator seeds; the chain and sizing calls do
not depend on it.

Why these three:

* ``sim_sweep`` spends nearly all its time in the simulator's walk
  through the energy phase functions.  Four of its five operating points
  have p1, p2 in {0, 1}, so they do not depend on the seed, and one does.
* ``chain_grid`` spends all its time in chain build, stationary solve and
  metrics: deterministic combos take cycle detection, stochastic ones
  power iteration, g = 5000 the largest state spaces.  Its parasitic
  slice carries the known ESR/EPR fault (see checks.py).
* ``sizing`` runs neither engine; its time goes to the characterization
  bisections over single_cycle_trace, and its parasitic rows to the
  numeric inverse in energy.
"""

from __future__ import annotations

import configparser
import os
import random
from dataclasses import dataclass

THRESHOLDS = "0.55:0.98:0.01"     # 44 turn-on thresholds
N_THRESHOLDS = 44
N_UPLINKS = 1000
N_SEEDS = 5

# Criteria 5a-5d of the acceptance suite plus one stochastic point.
SIM_POINTS = (
    {"id": "5a", "m": 8.0, "p1": 1.0, "p2": 0.0, "c": 4.7e-3},
    {"id": "5b", "m": 9.0, "p1": 0.0, "p2": 0.0, "c": 4.7e-3},
    {"id": "5c", "m": 9.0, "p1": 0.0, "p2": 1.0, "c": 4.7e-3},
    {"id": "5d", "m": 60.0, "p1": 0.0, "p2": 1.0, "c": 47e-3},
    {"id": "stochastic", "m": 40.0, "p1": 0.3, "p2": 0.5, "c": 4.7e-3},
)

# The accuracy grid of caplora.characterize.ACCURACY_CASES, written out
# here so the workload does not change if the package's table does.
CHAIN_CASES = {
    "A": {"sf": 7, "ul_pl": 8, "power": 1e-3, "m": (5.0, 10.0, 35.0, 40.0)},
    "B": {"sf": 7, "ul_pl": 48, "power": 1e-3, "m": (15.0, 20.0, 60.0, 65.0)},
    "C": {"sf": 9, "ul_pl": 48, "power": 1e-2, "m": (5.0, 10.0, 35.0, 40.0)},
    "D": {"sf": 7, "ul_pl": 16, "power": 1e-3, "m": (5.0, 10.0, 40.0, 45.0)},
    "E": {"sf": 9, "ul_pl": 16, "power": 1e-3, "m": (15.0, 30.0, 100.0, 250.0)},
}
CHAIN_P = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.7))
GRANULARITIES = (750, 2000, 5000)
CHAIN_THRESHOLD = 0.70
PARASITIC_CHAIN = {"esr": 20.0, "epr": 50e3, "m": (9.0, 20.0), "thresholds": (0.6, 0.7)}

SIZING_SF = (7, 8, 9, 10, 11, 12)
SIZING_PL = (8, 16, 32, 48)
SIZING_DL = ("none", "rx1", "rx2")
SIZING_POWER = (1e-3, 3e-3, 10e-3)
SIZING_DL_PL = 48
PARASITIC_SIZING = {"esr": 5.0, "epr": 50e3, "sf": (7, 9, 11), "dl": ("none", "rx2"),
                    "power": 1e-3, "ul_pl": 48}
INTERVAL_CAPS = (20e-3, 47e-3, 100e-3)
INTERVAL_DL = ("none", "rx2")
WAKEUP_CAPS = (4.7e-3, 1.0)
WAKEUP_POWER = 0.1

WORKLOADS = ("sim_sweep", "chain_grid", "sizing")


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a round; ``rows`` is the CSV row count it must answer."""

    argv: tuple[str, ...]
    rows: int
    info: dict


@dataclass
class Workload:
    name: str
    workdir: str
    invocations: list[Invocation]
    scenarios: dict[str, configparser.ConfigParser]   # file path -> its contents
    rng: random.Random                                 # for the checks' sampling

    @property
    def rows_per_round(self) -> int:
        return sum(inv.rows for inv in self.invocations)


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class _ScenarioWriter:
    """Writes edited copies of the stock scenario into the work directory."""

    def __init__(self, workdir: str):
        from caplora import dump_scenario, parse_scenario

        self.workdir = workdir
        self.stock = dump_scenario(parse_scenario(""))
        self.written: dict[str, configparser.ConfigParser] = {}

    def write(self, name: str, **edits) -> str:
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(self.stock)
        for dotted, value in edits.items():
            section, key = dotted.split("__")
            parser.set(section, key, repr(value) if isinstance(value, float) else str(value))
        path = os.path.join(self.workdir, f"{name}.ini")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            parser.write(handle)
        self.written[path] = parser
        return path


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the workload's scenario files and return its call list."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    writer = _ScenarioWriter(workdir)
    invocations = {"sim_sweep": _sim_sweep, "chain_grid": _chain_grid,
                   "sizing": _sizing}[name](writer, rng)
    return Workload(name=name, workdir=workdir, invocations=invocations,
                    scenarios=writer.written, rng=rng)


def _sim_sweep(writer: _ScenarioWriter, rng: random.Random) -> list[Invocation]:
    seeds = rng.sample(range(1, 1_000_000), N_SEEDS)
    calls = []
    for point in SIM_POINTS:
        path = writer.write(f"sim_{point['id']}", traffic__p1=point["p1"],
                            traffic__p2=point["p2"], capacitor__c_farads=point["c"])
        argv = ("sweep", "--scenario", path, "--axis", "threshold", "--values", THRESHOLDS,
                "--m", repr(point["m"]), "--engine", "simulator", "--n", str(N_UPLINKS),
                "--seeds", ",".join(map(str, seeds)))
        calls.append(Invocation(argv, N_THRESHOLDS, dict(point, path=path, seeds=seeds)))
    return calls


def _chain_call(path: str, ms, info: dict) -> Invocation:
    argv = ("sweep", "--scenario", path, "--axis", "granularity",
            "--values", ",".join(map(str, GRANULARITIES)), "--m", _join(ms),
            "--engine", "chain")
    return Invocation(argv, len(GRANULARITIES) * len(ms), dict(info, path=path, m=ms))


def _chain_grid(writer: _ScenarioWriter, rng: random.Random) -> list[Invocation]:
    calls = []
    for case_id, case in CHAIN_CASES.items():
        for p1, p2 in CHAIN_P:
            path = writer.write(
                f"chain_{case_id}_{p1}_{p2}", harvester__power_watts=case["power"],
                capacitor__c_farads=4.7e-3, radio__sf=case["sf"],
                traffic__ul_payload_bytes=case["ul_pl"], traffic__dl_payload_bytes=1,
                traffic__p1=p1, traffic__p2=p2, device__turn_on_fraction=CHAIN_THRESHOLD)
            calls.append(_chain_call(path, case["m"], {"case": case_id, "p1": p1, "p2": p2,
                                                       "parasitic": False}))
    for threshold in PARASITIC_CHAIN["thresholds"]:
        path = writer.write(
            f"chain_parasitic_{threshold}", capacitor__esr_ohms=PARASITIC_CHAIN["esr"],
            capacitor__epr_ohms=PARASITIC_CHAIN["epr"], device__turn_on_fraction=threshold)
        calls.append(_chain_call(path, PARASITIC_CHAIN["m"],
                                 {"case": "parasitic", "p1": 0.0, "p2": 0.0,
                                  "threshold": threshold, "parasitic": True}))
    return calls


def _sizing(writer: _ScenarioWriter, rng: random.Random) -> list[Invocation]:
    calls = []
    ideal = writer.write("sizing_ideal", traffic__interval_s=600.0)
    for pl in SIZING_PL:
        for dl in SIZING_DL:
            argv = ("min-cap", "--scenario", ideal, "--sf", ",".join(map(str, SIZING_SF)),
                    "--ul-pl", str(pl), "--dl-pl", str(SIZING_DL_PL), "--dl-case", dl,
                    "--power", _join(SIZING_POWER))
            calls.append(Invocation(argv, len(SIZING_SF) * len(SIZING_POWER),
                                    {"kind": "min-cap", "parasitic": False, "path": ideal}))
    par = PARASITIC_SIZING
    parasitic = writer.write("sizing_parasitic", traffic__interval_s=600.0,
                             capacitor__esr_ohms=par["esr"], capacitor__epr_ohms=par["epr"])
    for dl in par["dl"]:
        argv = ("min-cap", "--scenario", parasitic, "--sf", ",".join(map(str, par["sf"])),
                "--ul-pl", str(par["ul_pl"]), "--dl-pl", str(SIZING_DL_PL), "--dl-case", dl,
                "--power", repr(par["power"]))
        calls.append(Invocation(argv, len(par["sf"]),
                                {"kind": "min-cap", "parasitic": True, "path": parasitic}))
    interval = writer.write("sizing_interval", traffic__interval_s=600.0,
                            traffic__ul_payload_bytes=48, traffic__dl_payload_bytes=1)
    for dl in INTERVAL_DL:
        argv = ("min-interval", "--scenario", interval, "--capacitance", _join(INTERVAL_CAPS),
                "--power", _join(SIZING_POWER), "--dl-case", dl)
        calls.append(Invocation(argv, len(INTERVAL_CAPS) * len(SIZING_POWER),
                                {"kind": "min-interval", "path": interval}))
    wakeup = writer.write("sizing_wakeup")
    argv = ("wakeup", "--scenario", wakeup, "--thresholds", THRESHOLDS,
            "--capacitance", _join(WAKEUP_CAPS), "--power", repr(WAKEUP_POWER))
    calls.append(Invocation(argv, N_THRESHOLDS * len(WAKEUP_CAPS),
                            {"kind": "wakeup", "path": wakeup}))
    return calls
