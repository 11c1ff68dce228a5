"""Event-based simulation of the intermittent Class A device.

The walk carries the capacitor voltage v_C and judges the thresholds on
the load voltage, through each state's turn-off voltage Phase.v_off and
the wake target CircuitConfig.v_on (v_min and v_sl for an ideal
capacitor).  The device starts Off at v_min and uplinks are scheduled
every `interval_m` seconds starting at t = 0.  Between cycles it charges
in Off until v_on, then sleeps.  A scheduled uplink is lost when the
device is Off (or still busy with the previous cycle), aborted when it
turns off mid-transmission, and successful otherwise.  A turn-off leaves
the capacitor at the phase's v_off, or where it was when the phase was
entered below that; a turn-off at or above v_on wakes the device at
once.  Every phase is advanced with the closed-form voltage expressions;
turn-off crossings are located analytically, never by time stepping.

Each scenario compiles one phase table (phase_table, cached as
Scenario.phases): the seven timed Class A phases of its schedule plus
the Off and Sleep recharge states, each an energy.Phase whose decay
factor is fixed up front, addressed by slot ('tx', 'idle1', 'listen1',
'rx1', 'idle2', 'listen2', 'rx2', 'off', 'sleep'); the Markov chain
quantizes the same table.  run_simulation, single_cycle_trace and its
trace-free twin run_cycle share one walk over compiled phases; its
results are bit-identical to stepping with voltage_after and
time_to_voltage, and the draw order below is unchanged by it.
cycle_table compiles just one analytic cycle's phases, in cycle order,
for the sizing searches; it is the one listing of that cycle.

Two downlink-cost conventions live here, mirroring how such devices are
analyzed versus simulated:

* run_simulation (and the Markov chain built on the same rules) treats a
  detected downlink as the full preamble window at the listening load
  followed by the whole packet airtime at the receiving load.
* single_cycle_trace implements the leaner analytic cycle used by the
  capacitance/interval characterization, where a downlink simply replaces
  the corresponding listening window with one packet reception.

Draw order of the seeded PRNG (Python's random.Random, MT19937): one
uniform draw when reception window 1 opens, one more when window 2 opens
(only reached if window 1 detected nothing and the device is still on).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .energy import CircuitConfig, DeviceState, Phase, compile_phase
from .errors import ScenarioError
from .timing import RadioConfig, TimingSchedule, class_a_schedule, min_interval_bound


@dataclass(frozen=True)
class Scenario:
    """One complete operating point: circuit, radio, traffic and downlink odds."""

    circuit: CircuitConfig
    radio: RadioConfig
    ul_pl: int
    dl_pl: int
    interval_m: float
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ScenarioError(f"p1/p2 must be probabilities, got {self.p1}, {self.p2}")
        bound = min_interval_bound(self.schedule)
        if not bound < self.interval_m < math.inf:
            raise ScenarioError(
                f"transmission interval {self.interval_m} s must be finite and exceed "
                f"the uplink/downlink sequence bound {bound:.6f} s"
            )

    @cached_property
    def schedule(self) -> TimingSchedule:
        return class_a_schedule(self.radio, self.ul_pl, self.dl_pl)

    @cached_property
    def phases(self) -> dict[str, Phase]:
        """The compiled phase table, built on first use (see phase_table)."""
        return phase_table(self.circuit, self.schedule)


@dataclass(frozen=True)
class TracePoint:
    time: float
    voltage: float
    device_state: DeviceState


@dataclass(frozen=True)
class SimStats:
    """Per-run outcome counters; every scheduled uplink lands in exactly
    one of success / lost-while-off / aborted."""

    n_scheduled: int
    n_tx_success: int
    n_tx_lost_off: int
    n_tx_aborted: int
    n_dl1_success: int
    n_dl1_aborted: int
    n_dl2_success: int
    n_dl2_aborted: int

    @property
    def pdr(self) -> float:
        return self.n_tx_success / self.n_scheduled

    @property
    def pdl1(self) -> float:
        return self.n_dl1_success / self.n_scheduled

    @property
    def pdl2(self) -> float:
        return self.n_dl2_success / self.n_scheduled


# Timed Class A phases: slot name -> (device state, TimingSchedule field).
_SLOTS = {
    "tx": (DeviceState.TX, "t_tx"),
    "idle1": (DeviceState.IDLE, "t_id1"),
    "listen1": (DeviceState.LISTEN, "t_l1"),
    "rx1": (DeviceState.RX, "t_rx1"),
    "idle2": (DeviceState.IDLE, "t_id2"),
    "listen2": (DeviceState.LISTEN, "t_l2"),
    "rx2": (DeviceState.RX, "t_rx2"),
}

# The analytic cycle per dl_case: a downlink replaces its listening window.
_CYCLES = {
    "none": ("tx", "idle1", "listen1", "idle2", "listen2"),
    "rx1": ("tx", "idle1", "rx1"),
    "rx2": ("tx", "idle1", "listen1", "idle2", "rx2"),
}


def _slot(sched: TimingSchedule, slot: str) -> tuple[DeviceState, float]:
    state, name = _SLOTS[slot]
    return state, getattr(sched, name)


def phase_table(circuit: CircuitConfig, sched: TimingSchedule) -> dict[str, Phase]:
    """Compile the seven timed phases of `sched` plus the Off and Sleep
    recharge states ('off', 'sleep') for one circuit."""
    table = {slot: compile_phase(circuit, *_slot(sched, slot)) for slot in _SLOTS}
    table["off"] = compile_phase(circuit, DeviceState.OFF)
    table["sleep"] = compile_phase(circuit, DeviceState.SLEEP)
    return table


class _Walk:
    """One device moving through compiled phases: capacitor voltage, on/off, clock."""

    __slots__ = ("v", "off", "t", "v_on", "points")

    def __init__(self, circuit: CircuitConfig, v: float, off: bool, trace: bool):
        self.v = v
        self.off = off
        self.t = 0.0
        self.v_on = circuit.v_on
        self.points: list[TracePoint] | None = [] if trace else None

    def record(self, t: float, state: DeviceState) -> None:
        points = self.points
        if points is None:
            return
        point = TracePoint(t, self.v, state)
        if points and points[-1].time == t and points[-1].device_state is not DeviceState.OFF:
            points[-1] = point  # zero-duration phase; keep the outcome
        else:
            points.append(point)  # a turn-off stays even when the device wakes at once

    def phase(self, phase: Phase) -> bool:
        """Spend the timed `phase`; False when the device turned off in it.

        A turn-off ends the phase at the crossing instant with the device
        Off and the capacitor at the phase's v_off, or at once, where it
        is, when the phase was entered at or below v_off.
        """
        v, t = self.v, self.t
        if self.points is not None:
            self.record(t, phase.state)
        if v <= phase.v_guard:
            t_cross = phase.cross(v)
            if t_cross <= phase.duration:
                self.v = min(v, phase.v_off)
                self.off = True
                self.t = t + t_cross
                self.record(self.t, DeviceState.OFF)
                return False
        self.v = phase.after(v)
        self.t = t + phase.duration
        return True

    def recharge_until(self, t_to: float, off: Phase, sleep: Phase) -> None:
        """Move through Off-charging / wake / Sleep up to time t_to."""
        t_from = self.t
        self.t = t_to
        if t_to <= t_from:
            return
        if self.off:
            v, v_on = self.v, self.v_on
            if v < v_on:
                t_wake = off.cross(v, v_on)
                if t_from + t_wake > t_to:
                    self.v = off.after(v, t_to - t_from)
                    return
                self.v = v_on
                t_from += t_wake
            self.off = False
            self.record(t_from, DeviceState.SLEEP)
        self.v = sleep.after(self.v, t_to - t_from)


def run_simulation(scenario: Scenario, seed: int, n_scheduled: int = 1000,
                   trace: bool = False) -> tuple[SimStats, list[TracePoint]]:
    """Simulate n_scheduled uplink opportunities at t = 0, M, 2M, ...

    Deterministic for a fixed (scenario, seed, n_scheduled).  Returns the
    outcome counters and, when trace is set, the state/voltage trajectory
    at phase boundaries.
    """
    if n_scheduled < 1:
        raise ScenarioError(f"n_scheduled must be >= 1, got {n_scheduled}")
    table = scenario.phases
    tx, idle1, listen1, rx1 = table["tx"], table["idle1"], table["listen1"], table["rx1"]
    idle2, listen2, rx2 = table["idle2"], table["listen2"], table["rx2"]
    off, sleep = table["off"], table["sleep"]
    p1, p2, interval = scenario.p1, scenario.p2, scenario.interval_m
    draw = random.Random(seed).random
    walk = _Walk(scenario.circuit, scenario.circuit.v_min, off=True, trace=trace)
    walk.record(0.0, DeviceState.OFF)

    tx_success = tx_lost = tx_aborted = 0
    dl1_success = dl1_aborted = dl2_success = dl2_aborted = 0

    for k in range(n_scheduled):
        t_k = k * interval
        if walk.t > t_k:
            tx_lost += 1  # previous cycle still occupying the radio
            continue
        walk.recharge_until(t_k, off, sleep)
        if walk.off:
            tx_lost += 1
            continue

        if not walk.phase(tx):
            tx_aborted += 1
            continue
        tx_success += 1

        if not walk.phase(idle1):
            continue

        # Reception window 1: preamble at the listening load, then the
        # packet itself at the receiving load when one was detected.
        detected1 = draw() < p1
        if not walk.phase(listen1):
            if detected1:
                dl1_aborted += 1
            continue
        if detected1:
            if walk.phase(rx1):
                dl1_success += 1
                walk.record(walk.t, DeviceState.SLEEP)
            else:
                dl1_aborted += 1
            continue  # window 2 only opens when window 1 stayed silent

        if not walk.phase(idle2):
            continue

        detected2 = draw() < p2
        if not walk.phase(listen2):
            if detected2:
                dl2_aborted += 1
            continue
        if detected2:
            if walk.phase(rx2):
                dl2_success += 1
                walk.record(walk.t, DeviceState.SLEEP)
            else:
                dl2_aborted += 1
        else:
            walk.record(walk.t, DeviceState.SLEEP)

    stats = SimStats(
        n_scheduled=n_scheduled,
        n_tx_success=tx_success,
        n_tx_lost_off=tx_lost,
        n_tx_aborted=tx_aborted,
        n_dl1_success=dl1_success,
        n_dl1_aborted=dl1_aborted,
        n_dl2_success=dl2_success,
        n_dl2_aborted=dl2_aborted,
    )
    return stats, (walk.points or [])


def cycle_table(circuit: CircuitConfig, sched: TimingSchedule,
                dl_case: str) -> tuple[Phase, ...]:
    """Compile only the phases of the analytic cycle for one dl_case, in
    cycle order, for `circuit` against an existing schedule.

    A downlink replaces its listening window: 'rx1' receives right after
    the first idle second (and the cycle ends there), 'rx2' receives in
    place of the second listening window, 'none' listens through both.
    """
    return tuple(compile_phase(circuit, *_slot(sched, slot)) for slot in _cycle(dl_case))


def _cycle(dl_case: str) -> tuple[str, ...]:
    try:
        return _CYCLES[dl_case]
    except KeyError:
        raise ScenarioError(
            f"dl_case must be 'none', 'rx1' or 'rx2', got {dl_case!r}") from None


def _cycle_walk(circuit: CircuitConfig, phases: Sequence[Phase], v_start: float,
                trace: bool) -> tuple[_Walk, bool]:
    """Walk the compiled cycle `phases` from v_start; (walk, completed)."""
    if not circuit.v_min <= v_start <= circuit.operating_voltage:
        raise ScenarioError(
            f"v_start must lie in [{circuit.v_min}, {circuit.operating_voltage}], got {v_start}"
        )
    walk = _Walk(circuit, v_start, off=False, trace=trace)
    return walk, all(walk.phase(phase) for phase in phases)


def run_cycle(circuit: CircuitConfig, phases: Sequence[Phase],
              v_start: float) -> tuple[float, bool]:
    """single_cycle_trace without the trace, over phases from cycle_table.

    Returns (final_voltage, completed); completed is False when the
    capacitor touched the turn-off voltage anywhere in the cycle.
    """
    walk, completed = _cycle_walk(circuit, phases, v_start, trace=False)
    return walk.v, completed


def single_cycle_trace(scenario: Scenario, v_start: float,
                       dl_case: str = "none") -> tuple[list[TracePoint], float, bool]:
    """Run exactly one deterministic uplink/downlink cycle from v_start.

    Returns (trace, final_voltage, completed); completed is False when the
    capacitor touched the turn-off voltage anywhere in the cycle.
    """
    table = scenario.phases
    walk, completed = _cycle_walk(scenario.circuit, [table[slot] for slot in _cycle(dl_case)],
                                  v_start, trace=True)
    if completed:
        walk.record(walk.t, DeviceState.SLEEP)
    return walk.points, walk.v, completed
