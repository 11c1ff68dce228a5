"""Experiment drivers: minimum capacitance, feasible transmission interval,
wake-up time, turn-on-threshold sweeps and the chain-vs-simulator accuracy
grid.  The sweep and the accuracy study return figure-ready rows: plain
dicts keyed by the column names that caplora.cli.COLUMNS declares, with
unformatted values.  Formatting and CSV/JSON rendering live in the CLI.

Every grid (the sweep, the accuracy study and the CLI's sizing tables) is
one evaluate_grid call: the product of named axes around a base scenario,
each cell built by edit_scenario's rules and validated before any cell
is measured, then one measure per cell, in a process pool only when
jobs > 1.  A grid builds each of its distinct parts once: cells with
equal circuit edits (capacitance, power) share a circuit, cells with
equal sf a radio, cells with equal (sf, ul_pl, dl_pl) a schedule, cells
on one circuit and schedule a phase table (compiled on first use, so a
grid that reads none, such as wakeup's, compiles none), cells with equal
(p1, p2) their branch odds, and cells with equal edits one scenario.
The threshold edits the scenario's v_sl, so a threshold sweep runs on
one circuit and one table.  cycle.seeded_scenario puts a cell's shared
parts in its Scenario.  The chain's cells on one table share its
quantized constants per granularity, whatever their thresholds, which
the table keeps (cycle.PhaseTable).  The simulator's cells share each
seed's tail where their runs settle before any draw (see simulator's
"Seed-free start"), from a store that lives for one call.
Sweep and accuracy cells share one engine-pair measure, _measure: the
simulator's mean ratios over the seeds, or the chain's metrics with the
solve's wall time.  It raises InfeasibleScenario for a cell whose
device never wakes (its threshold beyond the charging ceiling) or whose
chain has no feasible level.  A sweep turns that into a feasible = False
row; the accuracy study lets it propagate.

The capacitance/interval analyses run the analytic uplink/downlink cycle
of single_cycle_trace (cycle.analytic_slots) through CycleCheck and
search its feasibility boundary by bisection.  A capacitance changes
only each state's tau, so CycleCheck, compiled once per grid cell, fixes
everything else of the cycle (asymptotes, turn-off voltages, guards and
durations); a trial forms tau = (R_eq + ESR) * C * ratio in energy's
operation order and steps each phase by the simulator walk's rule,
trace free, so it answers exactly what single_cycle_trace answers on a
circuit rebuilt at that capacitance, with no circuit, schedule or Phase
built.  min_capacitance asks only "does the cycle complete from the
charging ceiling", bisected to 0.01 mF by default.  A search checks its
start voltage and the ends of its bracket once; the trials between them
run unchecked.  min_tx_interval also needs the start voltage, bisected
to 0.1 mV, and adds the Off phase's charge time to the cycle's
durations.  wakeup_time is the Off phase's charge time to the scenario's
wake target, the same helper the Markov chain wakes with.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import defaults
from .cycle import (Scenario, analytic_slots, check_start, cycle_length, seeded_scenario,
                    slot_timing)
from .energy import (CircuitConfig, DeviceState, compile_phase, decay_step, off_time,
                     time_constant, wake_time)
from .errors import InfeasibleScenario, NoFeasibleCapacitance, ScenarioError
from .markov import check_granularity, solve_chain
from .simulator import check_seeds, run_seeds
from .timing import TimingSchedule


# -- scenario editing -------------------------------------------------------

_WHOLE_EDITS = ("sf", "ul_pl", "dl_pl")
_SCENARIO_EDITS = ("ul_pl", "dl_pl", "interval_m", "p1", "p2")
_CIRCUIT_EDITS = ("capacitance", "power")
_EDITS = frozenset(_WHOLE_EDITS + _SCENARIO_EDITS + _CIRCUIT_EDITS + ("threshold",))


def _whole(name: str, value) -> int:
    if not (math.isfinite(value) and value >= 1 and value == int(value)):
        raise ScenarioError(f"{name} values must be whole numbers >= 1, got {value!r}")
    return int(value)


class _CellBuilder:
    """Edited scenarios around one base, each distinct part built once and
    shared as the module docstring says.  The base's own parts are the
    first of each, so an edit to a value the base already has reuses them.
    A part is validated when it is first built, in the order capacitor and
    harvester, radio, circuit (the charging states), scenario (thresholds,
    p, then the interval bound on the shared schedule), so each cell raises
    what it would raise built alone.
    The memo lives as long as the builder: one evaluate_grid or
    edit_scenario call.
    """

    def __init__(self, base: Scenario):
        self.base = base
        circuit_key = (None,) * len(_CIRCUIT_EDITS)
        schedule_key = (base.radio.sf, base.ul_pl, base.dl_pl)
        self.circuits = {circuit_key: base.circuit}
        self.radios = {base.radio.sf: base.radio}
        self.schedules = {schedule_key: base.schedule}
        # The phase table of each (circuit, schedule), and the first
        # scenario on each (p1, p2): the branch odds' owner.
        self.tables = {(circuit_key, schedule_key): base.table}
        self.odds = {(base.p1, base.p2): base}
        self.scenarios = {(circuit_key, base.radio.sf, base.v_sl,
                           *(getattr(base, name) for name in _SCENARIO_EDITS)): base}

    def __call__(self, edits: Mapping[str, float]) -> Scenario:
        unknown = sorted(set(edits) - _EDITS)
        if unknown:
            raise ScenarioError(f"unknown scenario edit {unknown[0]!r}")
        new = {name: _whole(name, value) if name in _WHOLE_EDITS else float(value)
               for name, value in edits.items()}
        base = self.base
        circuit_key = tuple(map(new.get, _CIRCUIT_EDITS))
        circuit = self.circuits.get(circuit_key)
        if circuit is None:
            parts = self._circuit_parts(new)
        sf = new.get("sf", base.radio.sf)
        radio = self.radios.get(sf)
        if radio is None:
            radio = self.radios[sf] = dataclasses.replace(base.radio, sf=sf)
        if circuit is None:
            circuit = self.circuits[circuit_key] = dataclasses.replace(base.circuit, **parts)
        v_sl = new["threshold"] * base.circuit.operating_voltage if "threshold" in new else base.v_sl
        fields = {name: new.get(name, getattr(base, name)) for name in _SCENARIO_EDITS}
        schedule_key = (sf, fields["ul_pl"], fields["dl_pl"])
        key = (circuit_key, sf, v_sl, *fields.values())
        scenario = self.scenarios.get(key)
        if scenario is None:
            shared = {}
            if schedule_key in self.schedules:
                shared["schedule"] = self.schedules[schedule_key]
            table_key, odds_key = (circuit_key, schedule_key), (fields["p1"], fields["p2"])
            if table_key in self.tables:
                shared["table"] = self.tables[table_key]
            owner = self.odds.get(odds_key)
            if owner is not None:
                shared["branch_odds"], shared["branches"] = owner.branch_odds, owner.branches
            scenario = seeded_scenario(dict(fields, circuit=circuit, radio=radio, v_sl=v_sl),
                                       shared)
            self.scenarios[key] = scenario
            self.schedules.setdefault(schedule_key, scenario.schedule)
            self.tables.setdefault(table_key, scenario.table)
            self.odds.setdefault(odds_key, scenario)
        return scenario

    def _circuit_parts(self, new: dict) -> dict:
        """The base circuit's parts that the edits replace, capacitor and
        harvester validated here."""
        circuit = self.base.circuit
        parts = {}
        if "capacitance" in new:
            parts["capacitor"] = dataclasses.replace(circuit.capacitor,
                                                     capacitance=new["capacitance"])
        if "power" in new:
            parts["harvester"] = dataclasses.replace(circuit.harvester, harvest_power=new["power"])
        return parts


def edit_scenario(scenario: Scenario, edits: Mapping[str, float]) -> Scenario:
    """Return the scenario with named quantities replaced, validated once.

    Names: threshold (turn-on fraction of E), capacitance (F), power (W),
    interval_m (s), p1, p2, and the whole numbers >= 1 sf, ul_pl and dl_pl.
    Raises ScenarioError for an unknown name or a value the scenario
    cannot take.  The result is a grid of one cell: it shares each part
    the edits leave as the source has it (circuit, radio, schedule, branch
    odds and, when the circuit and the schedule are the source's, the
    phase table), and it is the source itself when there are no edits.
    """
    return _CellBuilder(scenario)(edits)


# -- grid evaluation --------------------------------------------------------

class GridCell(NamedTuple):
    """One grid point: its scenario, chain granularity and axis values."""

    scenario: Scenario
    granularity: int
    point: tuple  # one value per axis, in axis order


def _axis_steps(axis: tuple) -> list[tuple[object, dict]]:
    """(value, edits) for every value of an axis: (name, values), where each
    value edits `name`, or a composite (name, values, edits), where the
    `edits` callable maps each value to the edits it stands for."""
    name, values, *to_edits = axis
    if not values:
        raise ScenarioError(f"grid axis {name!r} has no values")
    edits = to_edits[0] if to_edits else (lambda value: {name: value})
    return [(value, edits(value)) for value in values]


def evaluate_grid(base: Scenario, axes: Sequence[tuple], measure: Callable[[GridCell], object],
                  granularity: int = defaults.GRANULARITY, jobs: int = 1) -> list:
    """measure over the product of `axes` around `base`, first axis outermost.

    Axis names are edit_scenario's, plus 'granularity' for the chain's
    (default `granularity`); a later axis wins where two edit the same
    name.  Every cell is built and validated before any is measured, so
    an invalid value, or an axis without values, raises ScenarioError
    before any work.  Each distinct circuit, radio, schedule, phase table
    and scenario of the grid is built once and shared by its cells (see
    the module docstring); only the base's own parts outlive the call.
    Results come back in grid order; with jobs > 1 the cells run in a
    process pool of at most os.cpu_count() workers, and `measure` must
    then be picklable.
    """
    cells, build = [], _CellBuilder(base)
    for steps in itertools.product(*(_axis_steps(axis) for axis in axes)):
        edits = {}
        for _, step in steps:
            edits.update(step)
        g = _whole("granularity", edits.pop("granularity", granularity))
        check_granularity(g, base.circuit.operating_voltage)   # E is no grid axis
        cells.append(GridCell(build(edits), g, tuple(v for v, _ in steps)))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
            return list(pool.map(measure, cells))
    return [measure(cell) for cell in cells]


# -- feasibility searches ---------------------------------------------------

class CycleCheck:
    """single_cycle_trace's analytic cycle without the trace, at any capacitance.

    A downlink replaces its listening window: 'rx1' receives right after
    the first idle second (and the cycle ends there), 'rx2' receives in
    place of the second listening window, 'none' listens through both;
    `phases` lists the cycle's (state, duration) pairs in order.  Each
    step keeps the C-independent constants of its state (see the module
    docstring); run() checks its inputs and step() forms tau with
    energy.time_constant and applies the simulator walk's phase rule
    through energy's off_time and decay_step, so it gives
    single_cycle_trace's final voltage and completed flag bit for bit.
    """

    __slots__ = ("circuit", "phases", "_steps")

    def __init__(self, circuit: CircuitConfig, sched: TimingSchedule, dl_case: str):
        self.circuit = circuit
        self.phases = tuple(slot_timing(sched, slot) for slot in analytic_slots(dl_case))
        params = [circuit.state_params(state) for state, _ in self.phases]
        self._steps = tuple((duration, p.r_series, p.ratio, p.v_limit, p.v_off, p.v_guard)
                            for (_, duration), p in zip(self.phases, params))

    def run(self, v_start: float, capacitance: float | None = None) -> tuple[float, bool]:
        """(final_voltage, completed) of one cycle from v_start with the
        circuit's capacitor, or one of `capacitance` farads with the same
        ESR and EPR; completed is False when the capacitor touched the
        turn-off voltage anywhere in the cycle."""
        return self.step(v_start, self.check(v_start, capacitance))

    def check(self, v_start: float, capacitance: float | None = None) -> float:
        """Validate run's inputs, in run's order; the capacitance it takes."""
        check_start(self.circuit, v_start)
        c = self.circuit.capacitor.capacitance if capacitance is None else capacitance
        if not 0 < c < math.inf:
            raise ScenarioError(f"capacitance must be finite and > 0, got {c}")
        return c

    def step(self, v_start: float, c: float) -> tuple[float, bool]:
        """run at capacitance c without its checks, for a search whose
        bracket ends passed them: every trial between them is valid too."""
        v = v_start
        for duration, r_series, ratio, v_limit, v_off, v_guard in self._steps:
            tau = time_constant(r_series, c, ratio)
            if v <= v_guard and off_time(v_limit, tau, v_off, v) <= duration:
                return min(v, v_off), False
            v = decay_step(v_limit, math.exp(-duration / tau), v)
        return v, True


def _ceiling_start(circuit: CircuitConfig) -> float:
    """The highest start voltage the searches try: just under the charging
    ceiling, and never below the turn-off voltage."""
    return max(circuit.charge_ceiling() - 1e-9, circuit.v_min)


def required_cycle_voltage(scenario: Scenario, dl_case: str = "none") -> float | None:
    """Minimal start voltage completing one uplink/downlink cycle.

    Bisects between the turn-off voltage and the charging ceiling; None
    when even a capacitor charged to the ceiling cannot fund the cycle.
    """
    circuit = scenario.circuit
    cycle = CycleCheck(circuit, scenario.schedule, dl_case)
    c = circuit.capacitor.capacitance
    return _bisect(lambda v: cycle.step(v, c)[1], circuit.v_min, _ceiling_start(circuit),
                   defaults.CYCLE_VOLTAGE_TOL_V, cycle.check)


def _bisect(holds: Callable[[float], bool], lo: float, hi: float, tol: float,
            check: Callable[[float], object]) -> float | None:
    """The least x in [lo, hi] where the monotone test `holds` is true, to
    within tol from above: None when it fails at hi, lo when it holds there.
    `check` validates each end of the bracket just before it is tried; every
    trial between two valid ends is valid, so `holds` need not check."""
    check(hi)
    if not holds(hi):
        return None
    check(lo)
    if holds(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
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
    bracket), so each trial capacitance costs one trace-free cycle there,
    run by one CycleCheck at the trial capacitance.
    """
    cycle = CycleCheck(scenario.circuit, scenario.schedule, dl_case)
    v_start = _ceiling_start(scenario.circuit)  # the ceiling does not depend on C
    c = _bisect(lambda c: cycle.step(v_start, c)[1], lo_f, hi_f, tol_f,
                lambda c: cycle.check(v_start, c))
    if c is None:
        raise NoFeasibleCapacitance(
            f"even {hi_f} F cannot complete the {dl_case} cycle at "
            f"{scenario.circuit.harvester.harvest_power} W"
        )
    return c


def min_tx_interval(scenario: Scenario, dl_case: str = "none") -> float:
    """Fastest sustainable schedule when the device wakes only to run one
    cycle and turns off right after: charge time from the turn-off voltage
    to the cycle's required start voltage, plus the cycle (summed left to right)."""
    circuit = scenario.circuit
    v_star = required_cycle_voltage(scenario, dl_case)
    if v_star is None:
        raise InfeasibleScenario(
            f"C = {circuit.capacitor.capacitance} F cannot complete "
            f"the {dl_case} cycle at {circuit.harvester.harvest_power} W"
        )
    t_charge = compile_phase(circuit, DeviceState.OFF).cross(circuit.v_min, v_star)
    return t_charge + cycle_length(scenario.schedule, analytic_slots(dl_case))


def wakeup_time(scenario: Scenario) -> float:
    """Off-state charge time from the turn-off voltage to the wake target
    scenario.v_on, where the Off-state load reaches the turn-on threshold.
    0 when v_on lies at or below v_min; math.inf when the threshold exceeds
    what the harvester can ever reach."""
    circuit = scenario.circuit
    return wake_time(compile_phase(circuit, DeviceState.OFF), circuit.v_min, scenario.v_on)


# -- threshold sweep --------------------------------------------------------

def _simulate_mean(scenario: Scenario, seeds: Sequence[int], n_scheduled: int,
                   tails: dict | None = None) -> tuple[float, float, float]:
    """Mean delivery ratios over one simulator run per seed.

    The runs come from simulator.run_seeds, whose seeds share the settle
    test of their common start and, when every draw has a fixed outcome,
    one run; each seed is counted once.  `tails` is the grid's store of
    seed tails that run_seeds shares between cells.
    """
    runs = run_seeds(scenario, seeds, n_scheduled, tails)
    pdr = pdl1 = pdl2 = 0.0
    for stats in runs:
        pdr += stats.pdr
        pdl1 += stats.pdl1
        pdl2 += stats.pdl2
    n = len(seeds)
    return pdr / n, pdl1 / n, pdl2 / n


def _measure(engine: str, seeds: tuple, n_scheduled: int, cell: GridCell,
             tails: dict | None = None) -> tuple[float, float, float, float]:
    """One engine of the pair on one cell: (pdr, pdl1, pdl2, seconds).

    The simulator's ratios are means over `seeds`, with seconds 0; its
    runs share seed tails with the grid's other cells through `tails`.  The
    chain's are its long-run metrics, and seconds is the wall time of its
    solve; its chains share their quantized phase table with the grid's
    other cells on that table (cycle.PhaseTable).  A cell whose device can
    never wake (its wake target at or beyond the Off state's asymptote)
    raises InfeasibleScenario before either engine runs; the chain's
    InfeasibleScenario propagates too.
    """
    scenario = cell.scenario
    circuit = scenario.circuit
    if scenario.v_on >= circuit.asymptote(DeviceState.OFF):
        raise InfeasibleScenario(
            f"the turn-on threshold ({scenario.v_sl / circuit.operating_voltage:.6g} of E) is "
            f"beyond the Off state's charging ceiling; the device never wakes")
    if engine == "simulator":
        return (*_simulate_mean(scenario, seeds, n_scheduled, tails), 0.0)
    t0 = time.perf_counter()
    result = solve_chain(scenario, cell.granularity)
    return result.pdr, result.pdl1, result.pdl2, time.perf_counter() - t0


def _check_distinct(name: str, values: Sequence) -> None:
    """Each of `values` once: one given twice would run twice and count twice."""
    if len(set(values)) < len(values):
        raise ScenarioError(f"{name} must not repeat a value, got {list(values)}")


def _sweep_cell(axis: str, engines: tuple, seeds: tuple, n_scheduled: int, tails: dict,
                cell: GridCell) -> list[dict]:
    rows = []
    for engine in engines:
        pdr = pdl1 = pdl2 = 0.0
        feasible = True
        try:
            pdr, pdl1, pdl2, _ = _measure(engine, seeds, n_scheduled, cell, tails)
        except InfeasibleScenario:
            feasible = False
        rows.append({"axis": axis, "value": float(cell.point[0]), "m_s": cell.scenario.interval_m,
                     "engine": engine, "pdr": pdr, "pdl1": pdl1, "pdl2": pdl2,
                     "feasible": feasible})
    return rows


def threshold_sweep(scenario: Scenario, *, axis: str, values: Sequence[float],
                    m_values: Sequence[float] = (),
                    granularity: int = defaults.GRANULARITY,
                    n_scheduled: int = 1000,
                    seeds: Sequence[int] = (1, 2, 3, 4, 5),
                    engine: str = "simulator",
                    jobs: int = 1) -> list[dict]:
    """Evaluate a one-axis sweep around `scenario`; one row per (value, M,
    engine), keyed by the CLI's sweep columns.

    `values` edit `axis` and must be sorted ascending; `m_values`, an extra
    interval grid, is for axes other than interval_m.  An invalid value
    raises ScenarioError before any cell runs.  Cells are independent;
    with jobs > 1 they run in a process pool, and results come back in
    grid order.  Physically infeasible cells are kept as pdr = 0 rows with
    feasible False.
    """
    if list(values) != sorted(values):
        raise ScenarioError("sweep values must be sorted ascending")
    if axis == "interval_m" and m_values:
        raise ScenarioError("an interval_m sweep takes no extra interval grid: "
                            "its values are the intervals")
    if engine not in ("simulator", "chain", "both"):
        raise ScenarioError(f"engine must be simulator, chain or both, got {engine!r}")
    engines = ("simulator", "chain") if engine == "both" else (engine,)
    if "simulator" in engines and not seeds:
        raise ScenarioError("a simulator sweep needs at least one seed")
    check_seeds(seeds)
    axes = [(axis, values)] + ([("interval_m", m_values)] if m_values else [])
    # One store of seed tails per call; each pool task gets its own copy.
    measure = partial(_sweep_cell, axis, engines, tuple(seeds), n_scheduled, {})
    cells = evaluate_grid(scenario, axes, measure, granularity, jobs)
    return [row for rows in cells for row in rows]


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


def accuracy_case_edits(case: tuple[str, str]) -> dict:
    """edit_scenario edits of one (case id, M class) cell of the grid."""
    case_id, m_class = case
    try:
        spec = ACCURACY_CASES[case_id]
        return {"sf": spec["sf"], "ul_pl": spec["ul_pl"], "dl_pl": 1, "power": spec["power_w"],
                "capacitance": 4.7e-3, "interval_m": spec["m"][m_class]}
    except KeyError:
        raise ScenarioError(f"no accuracy case {case_id!r} with M class {m_class!r}: cases "
                            f"are {''.join(ACCURACY_CASES)}, M classes {M_CLASSES}") from None


def _accuracy_cell(n_scheduled: int, seeds: tuple, tails: dict, cell: GridCell) -> dict:
    _, threshold, (case_id, m_class), (p1, p2) = cell.point
    pdr_sim = _measure("simulator", seeds, n_scheduled, cell, tails)[0]
    pdr_mc, _, _, seconds = _measure("chain", seeds, n_scheduled, cell)
    return {"case": case_id, "m_class": m_class, "m_s": cell.scenario.interval_m,
            "p1": p1, "p2": p2, "threshold": threshold, "granularity": cell.granularity,
            "pdr_sim": pdr_sim, "pdr_mc": pdr_mc, "abs_error": abs(pdr_sim - pdr_mc),
            "chain_seconds": seconds}


def accuracy_study(base: Scenario,
                   cases: Sequence[str] = tuple(ACCURACY_CASES),
                   m_classes: Sequence[str] = M_CLASSES,
                   p_combos: Sequence[tuple[float, float]] = P_COMBOS,
                   thresholds: Sequence[float] = (0.70,),
                   granularities: Sequence[int] = (100, 500, 750),
                   n_scheduled: int = 1000,
                   seeds: Sequence[int] = (1, 2, 3, 4, 5),
                   jobs: int = 1) -> list[dict]:
    """Chain-vs-simulator absolute UL PDR error over the scenario grid; one
    row per cell, keyed by the CLI's accuracy columns.  A repeated seed or
    grid value raises ScenarioError before any cell runs: its cells would
    count twice in accuracy_summary."""
    if not seeds:
        raise ScenarioError("the accuracy study needs at least one seed")
    check_seeds(seeds)
    for name, values in (("cases", cases), ("m_classes", m_classes),
                         ("p_combos", [tuple(p) for p in p_combos]),
                         ("thresholds", thresholds), ("granularities", granularities)):
        _check_distinct(name, values)
    axes = [("granularity", granularities),
            ("threshold", thresholds),
            (("case", "m_class"), [(c, m) for c in cases for m in m_classes],
             accuracy_case_edits),
            (("p1", "p2"), p_combos, lambda p: {"p1": p[0], "p2": p[1]})]
    return evaluate_grid(base, axes, partial(_accuracy_cell, n_scheduled, tuple(seeds), {}),
                         jobs=jobs)


@dataclass(frozen=True)
class AccuracySummary:
    threshold: float
    granularity: int
    n_cells: int
    p50: float
    p90: float
    max: float


def accuracy_summary(rows: Iterable[Mapping]) -> list[AccuracySummary]:
    """Error percentiles per (threshold, granularity) bucket of accuracy rows."""
    buckets: dict[tuple[float, int], list[float]] = {}
    for row in rows:
        buckets.setdefault((row["threshold"], row["granularity"]), []).append(row["abs_error"])
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
