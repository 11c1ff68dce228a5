"""Experiment drivers: minimum capacitance, feasible transmission interval,
wake-up time, turn-on-threshold sweeps and the chain-vs-simulator accuracy
grid.  Each driver returns figure-ready rows; CSV rendering lives in the
CLI layer.

The capacitance/interval analyses run the analytic uplink/downlink cycle
(simulator.cycle_table and the trace-free simulator.run_cycle, the walk
behind single_cycle_trace) and search its feasibility boundary by
bisection.  min_capacitance asks only "does the cycle complete from the
charging ceiling", one cycle per trial capacitance, bisected to 0.01 mF by
default; min_tx_interval also needs the start voltage, bisected to 0.1 mV.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import defaults
from .energy import CircuitConfig, DeviceState, DeviceThresholds, time_to_voltage
from .errors import InfeasibleScenario, NoFeasibleCapacitance, ScenarioError
from .markov import solve_chain
from .simulator import Scenario, cycle_phases, cycle_table, run_cycle, run_simulation

DL_CASES = ("none", "rx1", "rx2")


# -- scenario editing -------------------------------------------------------

def with_threshold_fraction(scenario: Scenario, fraction: float) -> Scenario:
    thresholds = DeviceThresholds(
        v_min=scenario.circuit.v_min,
        v_sl=fraction * scenario.circuit.operating_voltage,
    )
    return dataclasses.replace(
        scenario, circuit=dataclasses.replace(scenario.circuit, thresholds=thresholds))


def with_capacitance(scenario: Scenario, c_farads: float) -> Scenario:
    capacitor = dataclasses.replace(scenario.circuit.capacitor, capacitance=c_farads)
    return dataclasses.replace(
        scenario, circuit=dataclasses.replace(scenario.circuit, capacitor=capacitor))


def with_harvest_power(scenario: Scenario, power_w: float) -> Scenario:
    harvester = dataclasses.replace(scenario.circuit.harvester, harvest_power=power_w)
    return dataclasses.replace(
        scenario, circuit=dataclasses.replace(scenario.circuit, harvester=harvester))


def apply_axis(scenario: Scenario, axis: str, value) -> tuple[Scenario, int | None]:
    """Return the scenario with one swept quantity replaced.

    The granularity axis has no scenario field; it is returned separately.
    Raises ScenarioError for a value the scenario cannot take.
    """
    if axis in ("ul_pl", "dl_pl", "granularity") and not (value >= 1 and value == int(value)):
        raise ScenarioError(f"{axis} values must be whole numbers >= 1, got {value!r}")
    if axis == "threshold":
        return with_threshold_fraction(scenario, float(value)), None
    if axis == "capacitance":
        return with_capacitance(scenario, float(value)), None
    if axis == "power":
        return with_harvest_power(scenario, float(value)), None
    if axis == "interval_m":
        return dataclasses.replace(scenario, interval_m=float(value)), None
    if axis == "ul_pl":
        return dataclasses.replace(scenario, ul_pl=int(value)), None
    if axis == "dl_pl":
        return dataclasses.replace(scenario, dl_pl=int(value)), None
    if axis == "granularity":
        return scenario, int(value)
    raise ScenarioError(f"unknown sweep axis {axis!r}")


# -- feasibility searches ---------------------------------------------------

def _ceiling_start(circuit: CircuitConfig) -> float:
    """The highest start voltage the searches try: just under the charging
    ceiling, and never below the turn-off voltage."""
    return max(circuit.charge_ceiling() - 1e-9, circuit.v_min)


def required_cycle_voltage(scenario: Scenario, dl_case: str = "none",
                           tol_v: float = defaults.CYCLE_VOLTAGE_TOL_V) -> float | None:
    """Minimal start voltage completing one uplink/downlink cycle.

    Bisects between the turn-off voltage and the charging ceiling; None
    when even a capacitor charged to the ceiling cannot fund the cycle.
    """
    circuit = scenario.circuit
    phases = cycle_table(circuit, scenario.schedule, dl_case)
    lo = circuit.v_min
    hi = _ceiling_start(circuit)

    def completes(v: float) -> bool:
        return run_cycle(circuit, phases, v)[1]

    if not completes(hi):
        return None
    if completes(lo):
        return lo
    while hi - lo > tol_v:
        mid = 0.5 * (lo + hi)
        if completes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_capacitance(scenario: Scenario, dl_case: str = "none",
                    lo_f: float = defaults.CAPACITANCE_SEARCH_LO_F,
                    hi_f: float = defaults.CAPACITANCE_SEARCH_HI_F,
                    tol_f: float = defaults.CAPACITANCE_TOL_F) -> float:
    """Smallest capacitance whose cycle is feasible from some start voltage.

    A cycle is feasible from some start voltage exactly when it completes
    from the charging ceiling (the top of required_cycle_voltage's
    bracket), so each trial capacitance costs one trace-free cycle there.
    A trial replaces only the circuit's capacitor and compiles only the
    cycle's phases against the scenario's schedule.
    """
    circuit, sched = scenario.circuit, scenario.schedule
    v_start = _ceiling_start(circuit)  # the ceiling does not depend on C

    def feasible(c: float) -> bool:
        trial = dataclasses.replace(
            circuit, capacitor=dataclasses.replace(circuit.capacitor, capacitance=c))
        return run_cycle(trial, cycle_table(trial, sched, dl_case), v_start)[1]

    if not feasible(hi_f):
        raise NoFeasibleCapacitance(
            f"even {hi_f} F cannot complete the {dl_case} cycle at "
            f"{scenario.circuit.harvester.harvest_power} W"
        )
    if feasible(lo_f):
        return lo_f
    lo, hi = lo_f, hi_f
    while hi - lo > tol_f:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_tx_interval(scenario: Scenario, dl_case: str = "none") -> float:
    """Fastest sustainable schedule when the device wakes only to run one
    cycle and turns off right after: charge time from the turn-off voltage
    to the cycle's required start voltage, plus the cycle itself."""
    v_star = required_cycle_voltage(scenario, dl_case)
    if v_star is None:
        raise InfeasibleScenario(
            f"C = {scenario.circuit.capacitor.capacitance} F cannot complete "
            f"the {dl_case} cycle at {scenario.circuit.harvester.harvest_power} W"
        )
    t_charge = time_to_voltage(scenario.circuit, DeviceState.OFF,
                               scenario.circuit.v_min, v_star)
    return t_charge + sum(d for _, d in cycle_phases(scenario.schedule, dl_case))


def wakeup_time(circuit: CircuitConfig, threshold_fraction: float) -> float:
    """Off-state charge time from the turn-off voltage to the threshold.

    The threshold is a load voltage; the Off-state load map turns it into
    the capacitor voltage the charge must reach.  math.inf when the
    threshold exceeds what the harvester can ever reach.
    """
    target = threshold_fraction * circuit.operating_voltage
    if target < circuit.v_min:
        raise ScenarioError(
            f"threshold {threshold_fraction:.3f} * {circuit.operating_voltage} V "
            f"is below the turn-off voltage {circuit.v_min} V"
        )
    p = circuit.state_params(DeviceState.OFF)
    v_on = max((target - p.b) / p.a, circuit.v_min)
    return time_to_voltage(circuit, DeviceState.OFF, circuit.v_min, v_on)


# -- threshold sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A one-axis parameter sweep around a base scenario."""

    scenario: Scenario
    axis: str
    values: tuple
    m_values: tuple = ()          # extra interval grid for threshold sweeps
    dl_case: str = "none"
    granularity: int = defaults.GRANULARITY
    n_scheduled: int = 1000
    seeds: tuple = (1, 2, 3, 4, 5)

    def __post_init__(self):
        if list(self.values) != sorted(self.values):
            raise ScenarioError("sweep values must be sorted ascending")
        if self.dl_case not in DL_CASES:
            raise ScenarioError(f"dl_case must be one of {DL_CASES}")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    m_s: float
    engine: str
    pdr: float
    pdl1: float
    pdl2: float
    feasible: bool


def _simulate_mean(scenario: Scenario, seeds: Sequence[int],
                   n_scheduled: int) -> tuple[float, float, float]:
    """Mean delivery ratios over one simulator run per seed.

    With p1, p2 in {0, 1} every `random() < p` test has a fixed outcome,
    so all seeds give the same run: it is simulated once and counted once
    per seed, with the same summation.
    """
    if scenario.p1 in (0.0, 1.0) and scenario.p2 in (0.0, 1.0):
        stats, _ = run_simulation(scenario, seed=seeds[0], n_scheduled=n_scheduled)
        runs = [stats] * len(seeds)
    else:
        runs = [run_simulation(scenario, seed=seed, n_scheduled=n_scheduled)[0]
                for seed in seeds]
    pdr = pdl1 = pdl2 = 0.0
    for stats in runs:
        pdr += stats.pdr
        pdl1 += stats.pdl1
        pdl2 += stats.pdl2
    n = len(seeds)
    return pdr / n, pdl1 / n, pdl2 / n


def _map_cells(cell_fn: Callable, cells: list, jobs: int) -> list:
    """cell_fn over cells, in order; with jobs > 1 in a process pool of at
    most os.cpu_count() workers."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            return list(pool.map(cell_fn, cells))
    return [cell_fn(cell) for cell in cells]


def _cell_scenario(spec: SweepSpec, value, m) -> tuple[Scenario, int]:
    """The scenario and granularity of one grid cell; ScenarioError if invalid."""
    scenario, g_override = apply_axis(spec.scenario, spec.axis, value)
    if m is not None:
        scenario = dataclasses.replace(scenario, interval_m=float(m))
    return scenario, g_override if g_override is not None else spec.granularity


def _sweep_cell(args: tuple) -> list[SweepRow]:
    spec, value, m, engines = args
    scenario, g = _cell_scenario(spec, value, m)
    beyond_ceiling = scenario.circuit.v_on >= scenario.circuit.asymptote(DeviceState.OFF)
    rows = []
    for engine in engines:
        try:
            if beyond_ceiling:
                raise InfeasibleScenario("turn-on threshold beyond the charging ceiling")
            if engine == "simulator":
                pdr, pdl1, pdl2 = _simulate_mean(scenario, spec.seeds, spec.n_scheduled)
            else:
                result = solve_chain(scenario, g)
                pdr, pdl1, pdl2 = result.pdr, result.pdl1, result.pdl2
            rows.append(SweepRow(spec.axis, float(value), scenario.interval_m,
                                 engine, pdr, pdl1, pdl2, feasible=True))
        except InfeasibleScenario:
            rows.append(SweepRow(spec.axis, float(value), scenario.interval_m,
                                 engine, 0.0, 0.0, 0.0, feasible=False))
    return rows


def threshold_sweep(spec: SweepSpec, engine: str = "simulator",
                    jobs: int = 1) -> list[SweepRow]:
    """Evaluate the sweep grid; one row per (value, M, engine).

    An invalid value raises ScenarioError before any cell runs.  Cells are
    independent; with jobs > 1 they run in a process pool, and results come
    back in grid order.  Physically infeasible cells are kept as pdr = 0
    rows with the feasible flag cleared.
    """
    if engine not in ("simulator", "chain", "both"):
        raise ScenarioError(f"engine must be simulator, chain or both, got {engine!r}")
    engines = ("simulator", "chain") if engine == "both" else (engine,)
    if "simulator" in engines and not spec.seeds:
        raise ScenarioError("a simulator sweep needs at least one seed")
    m_grid: tuple = spec.m_values or (None,)
    cells = [(spec, value, m, engines) for value in spec.values for m in m_grid]
    for cell in cells:
        _cell_scenario(*cell[:3])
    return [row for rows in _map_cells(_sweep_cell, cells, jobs) for row in rows]


# -- accuracy study ---------------------------------------------------------

# Evaluated scenario grid: spreading factor, uplink payload, harvest power,
# and the four interval classes (seconds).  All use C = 4.7 mF and a 1-byte
# downlink.
ACCURACY_CASES: dict[str, dict] = {
    "A": {"sf": 7, "ul_pl": 8, "power_w": 1e-3,
          "m": {"small": 5.0, "medium": 10.0, "high": 35.0, "very_high": 40.0}},
    "B": {"sf": 7, "ul_pl": 48, "power_w": 1e-3,
          "m": {"small": 15.0, "medium": 20.0, "high": 60.0, "very_high": 65.0}},
    "C": {"sf": 9, "ul_pl": 48, "power_w": 1e-2,
          "m": {"small": 5.0, "medium": 10.0, "high": 35.0, "very_high": 40.0}},
    "D": {"sf": 7, "ul_pl": 16, "power_w": 1e-3,
          "m": {"small": 5.0, "medium": 10.0, "high": 40.0, "very_high": 45.0}},
    "E": {"sf": 9, "ul_pl": 16, "power_w": 1e-3,
          "m": {"small": 15.0, "medium": 30.0, "high": 100.0, "very_high": 250.0}},
}
M_CLASSES = ("small", "medium", "high", "very_high")
P_COMBOS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


@dataclass(frozen=True)
class AccuracyRow:
    case_id: str
    m_class: str
    m_s: float
    p1: float
    p2: float
    threshold: float
    granularity: int
    pdr_sim: float
    pdr_mc: float
    abs_error: float
    chain_seconds: float


def accuracy_case_scenario(base: Scenario, case_id: str, m_class: str,
                           p1: float, p2: float, threshold: float) -> Scenario:
    case = ACCURACY_CASES[case_id]
    scenario = dataclasses.replace(
        base,
        radio=dataclasses.replace(base.radio, sf=case["sf"]),
        ul_pl=case["ul_pl"],
        dl_pl=1,
        interval_m=case["m"][m_class],
        p1=p1,
        p2=p2,
    )
    scenario = with_harvest_power(scenario, case["power_w"])
    scenario = with_capacitance(scenario, 4.7e-3)
    return with_threshold_fraction(scenario, threshold)


def _accuracy_cell(args: tuple) -> AccuracyRow:
    base, case_id, m_class, p1, p2, threshold, g, n_scheduled, seeds = args
    scenario = accuracy_case_scenario(base, case_id, m_class, p1, p2, threshold)
    pdr_sim, _, _ = _simulate_mean(scenario, seeds, n_scheduled)
    t0 = time.perf_counter()
    result = solve_chain(scenario, g)
    elapsed = time.perf_counter() - t0
    return AccuracyRow(
        case_id=case_id, m_class=m_class, m_s=scenario.interval_m,
        p1=p1, p2=p2, threshold=threshold, granularity=g,
        pdr_sim=pdr_sim, pdr_mc=result.pdr,
        abs_error=abs(pdr_sim - result.pdr), chain_seconds=elapsed,
    )


def accuracy_study(base: Scenario,
                   cases: Sequence[str] = tuple(ACCURACY_CASES),
                   m_classes: Sequence[str] = M_CLASSES,
                   p_combos: Sequence[tuple[float, float]] = P_COMBOS,
                   thresholds: Sequence[float] = (0.70,),
                   granularities: Sequence[int] = (100, 500, 750),
                   n_scheduled: int = 1000,
                   seeds: Sequence[int] = (1, 2, 3, 4, 5),
                   jobs: int = 1) -> list[AccuracyRow]:
    """Chain-vs-simulator absolute UL PDR error over the scenario grid."""
    if not seeds:
        raise ScenarioError("the accuracy study needs at least one seed")
    cells = [(base, case_id, m_class, p1, p2, threshold, g, n_scheduled, tuple(seeds))
             for g in granularities
             for threshold in thresholds
             for case_id in cases
             for m_class in m_classes
             for (p1, p2) in p_combos]
    return _map_cells(_accuracy_cell, cells, jobs)


@dataclass(frozen=True)
class AccuracySummary:
    threshold: float
    granularity: int
    n_cells: int
    p50: float
    p90: float
    max: float


def accuracy_summary(rows: Iterable[AccuracyRow]) -> list[AccuracySummary]:
    """Error percentiles per (threshold, granularity) bucket."""
    buckets: dict[tuple[float, int], list[float]] = {}
    for row in rows:
        buckets.setdefault((row.threshold, row.granularity), []).append(row.abs_error)
    out = []
    for (threshold, g), errors in sorted(buckets.items()):
        errors.sort()
        n = len(errors)
        out.append(AccuracySummary(
            threshold=threshold, granularity=g, n_cells=n,
            p50=errors[(n - 1) // 2],
            p90=errors[min(n - 1, (9 * n - 1) // 10)],
            max=errors[-1],
        ))
    return out
