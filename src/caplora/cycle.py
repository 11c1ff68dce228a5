"""The Class A cycle: Scenario, its slots, branches and interval bound.

Each scenario reads one phase table (Scenario.table, a PhaseTable; its
phases are Scenario.phases): the seven timed Class A phases of its
schedule plus the Off and Sleep recharge states, each an energy.Phase
whose decay factor is fixed up front, addressed by slot ('tx', 'idle1',
'listen1', 'rx1', 'idle2', 'listen2', 'rx2', 'off', 'sleep'), compiled
on first read by phase_table.  The simulator walks that table and the
Markov chain quantizes it, keeping each quantization on the table, so
every scenario that shares a table shares them.  The turn-on threshold
v_sl is a scenario setting, not a circuit part: it fixes only the wake
target Scenario.v_on, which no phase reads, so scenarios that differ
only in their thresholds share one circuit and one table.

Two downlink-cost conventions read one branch table, BRANCHES, which
lists each branch's slots, the counters its window feeds and its draw's
odds; each branch's odds per on-slot (Scenario.branch_odds) and the fork
path (PATH) that every engine walks derive from it too:

* the simulator and the Markov chain walk a branch's slots, so a detected
  downlink costs the full preamble window at the listening load followed
  by the whole packet airtime at the receiving load;
* the analytic cycle of the capacitance/interval characterization
  (analytic_slots, one per DL_CASES entry) takes a branch's slots with
  the detected window's listening slot dropped, so the downlink simply
  replaces it with one packet reception ('none' runs silent's slots).

Scenario keeps its interval above min_interval_bound, the longest of the
analytic cycles and of its reachable branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, attrgetter
from typing import NamedTuple, Sequence

from .energy import CircuitConfig, DeviceState, Phase, compile_phase
from .errors import ScenarioError
from .timing import RadioConfig, TimingSchedule, class_a_schedule


@dataclass(frozen=True)
class Scenario:
    """One complete operating point: circuit, radio, traffic, turn-on
    threshold and downlink odds."""

    circuit: CircuitConfig
    radio: RadioConfig
    ul_pl: int
    dl_pl: int
    interval_m: float
    v_sl: float          # turn-on threshold, judged on the Off-state load, volts
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self):
        v_min, e = self.circuit.v_min, self.circuit.operating_voltage
        if not 0 < v_min < self.v_sl < e:
            raise ScenarioError(f"thresholds must satisfy 0 < v_min < v_sl < E, got "
                                f"v_min={v_min}, v_sl={self.v_sl}, E={e}")
        if not (0.0 <= self.p1 <= 1.0 and 0.0 <= self.p2 <= 1.0):
            raise ScenarioError(f"p1/p2 must be probabilities, got {self.p1}, {self.p2}")
        bound = min_interval_bound(self.schedule, self.branches)
        if not bound < self.interval_m < math.inf:
            raise ScenarioError(
                f"transmission interval {self.interval_m} s must be finite and exceed "
                f"the uplink/downlink sequence bound {bound:.6f} s"
            )

    @cached_property
    def branch_odds(self) -> dict[str, tuple[float, bool]]:
        """Each branch's odds per on-slot, in draw order, and whether a cycle
        can take it: a detected branch's draw times every earlier window's
        miss, silent all the misses.  Reachability goes factor by factor, so
        a product that underflows to 0 drops no branch the walk can draw."""
        odds, miss, reachable = {}, 1.0, True
        for branch, spec in BRANCHES.items():
            p = 1.0 if spec.odds is None else getattr(self, spec.odds)  # silent: certain
            odds[branch] = (miss * p, reachable and p > 0.0)
            miss, reachable = miss * (1.0 - p), reachable and p < 1.0
        return odds

    @cached_property
    def branches(self) -> tuple[str, ...]:
        """The downlink branches a cycle can take, in draw order: detected in
        window 1 (rx1), detected in window 2 (rx2), silent in both."""
        return tuple(branch for branch, (_, on) in self.branch_odds.items() if on)

    @cached_property
    def v_on(self) -> float:
        """The wake target: the capacitor voltage at which the Off-state load
        reaches v_sl.  No phase reads it."""
        p = self.circuit.state_params(DeviceState.OFF)
        return (self.v_sl - p.b) / p.a

    @cached_property
    def schedule(self) -> TimingSchedule:
        return class_a_schedule(self.radio, self.ul_pl, self.dl_pl)

    @cached_property
    def table(self) -> PhaseTable:
        """The scenario's phase table, its own or one it shares (seeded_scenario)."""
        return PhaseTable(self.circuit, self.schedule)

    @property
    def phases(self) -> dict[str, Phase]:
        return self.table.phases


class PhaseTable:
    """One circuit's phases on one schedule: `phases` is phase_table's,
    compiled on first read, so a table nobody reads compiles nothing;
    `quantized` holds the Markov chain's markov._Quantized per g, which
    no threshold changes, and `tails` the simulator's seed tails, which
    depend on no phase (see simulator's "Seed-free start").  Every
    scenario on the circuit and schedule can share one table
    (seeded_scenario), whatever its threshold, interval and odds."""

    def __init__(self, circuit: CircuitConfig, schedule: TimingSchedule):
        self.circuit, self.schedule = circuit, schedule
        self.quantized: dict = {}
        self.tails: dict = {}

    @cached_property
    def phases(self) -> dict[str, Phase]:
        return phase_table(self.circuit, self.schedule)


def seeded_scenario(fields: dict, shared: dict) -> Scenario:
    """Scenario(**fields) with its `shared` cached parts (schedule, table,
    branch_odds, branches) in place before __post_init__ validates it, so
    the interval bound is checked on the shared schedule and branches and
    none is recomputed."""
    scenario = object.__new__(Scenario)
    scenario.__dict__.update(fields, **shared)
    scenario.__post_init__()
    return scenario


def check_start(circuit: CircuitConfig, v_start: float) -> None:
    """A cycle starts between the turn-off voltage and the operating voltage."""
    if not circuit.v_min <= v_start <= circuit.operating_voltage:
        raise ScenarioError(
            f"v_start must lie in [{circuit.v_min}, {circuit.operating_voltage}], got {v_start}"
        )


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


class _Branch(NamedTuple):
    slots: tuple[str, ...]   # the slots walked; a detected window is the last two
    counter: str | None      # the SimStats counters that window feeds
    odds: str | None         # the Scenario probability of the draw that detects it


# The Class A branch rule, in draw order: a downlink detected in window 1,
# one detected in window 2, or silence in both.  A detected downlink's
# window is the last two slots of its branch, the preamble at the listening
# load and then the packet; the draw that detects it is taken as its
# listening slot opens.  A window-1 downlink ends the cycle, and window 2
# opens only after a silent window 1, so each detected branch follows
# silent's slots up to its listening slot.
BRANCHES = {
    "rx1": _Branch(("tx", "idle1", "listen1", "rx1"), "n_dl1", "p1"),
    "rx2": _Branch(("tx", "idle1", "listen1", "idle2", "listen2", "rx2"), "n_dl2", "p2"),
    "silent": _Branch(("tx", "idle1", "listen1", "idle2", "listen2"), None, None),
}

# The fork path: silent's slots, each paired with the detected branch whose
# draw is taken as that slot opens (its listening slot), else None.
_FORKS = {len(spec.slots) - 2: branch for branch, spec in BRANCHES.items() if spec.odds}
PATH = tuple((slot, _FORKS.get(i)) for i, slot in enumerate(BRANCHES["silent"].slots))

# The analytic cycle's downlink cases: none, or one detected in window 1 or 2.
DL_CASES = ("none", "rx1", "rx2")


def analytic_slots(dl_case: str) -> tuple[str, ...]:
    """The analytic cycle's slots: silent's for 'none', else the branch's
    with the downlink in place of its listening slot."""
    if dl_case not in DL_CASES:
        raise ScenarioError(f"dl_case must be 'none', 'rx1' or 'rx2', got {dl_case!r}")
    if dl_case == "none":
        return BRANCHES["silent"].slots
    slots = BRANCHES[dl_case].slots
    return slots[:-2] + slots[-1:]


# One TimingSchedule getter per cycle and per window's opening slots, in slot order.
_ANALYTIC = tuple(map(analytic_slots, DL_CASES))
_FIELDS = {slots: attrgetter(*(_SLOTS[slot][1] for slot in slots))
           for slots in (*_ANALYTIC, *(spec.slots for spec in BRANCHES.values()),
                         *(spec.slots[:-2] for spec in BRANCHES.values() if spec.odds))}


def cycle_length(sched: TimingSchedule, slots: tuple[str, ...]) -> float:
    """The slots' durations in `sched`, added left to right as a walk adds them."""
    return reduce(add, _FIELDS[slots](sched))


def min_interval_bound(sched: TimingSchedule, branches: Sequence[str] = ()) -> float:
    """Lower bound on the transmission interval M, which callers keep M strictly
    above: the longest Class A cycle, each analytic one and each of the given
    `branches` (Scenario.branches), its slots added left to right as the
    simulator and the chain add them."""
    return max([cycle_length(sched, slots) for slots in _ANALYTIC]
               + [cycle_length(sched, BRANCHES[branch].slots) for branch in branches])


def slot_timing(sched: TimingSchedule, slot: str) -> tuple[DeviceState, float]:
    """The timed slot's device state and its duration in `sched`."""
    state, name = _SLOTS[slot]
    return state, getattr(sched, name)


def phase_table(circuit: CircuitConfig, sched: TimingSchedule) -> dict[str, Phase]:
    """Compile the seven timed phases of `sched` plus the Off and Sleep
    recharge states ('off', 'sleep') for one circuit."""
    table = {slot: compile_phase(circuit, *slot_timing(sched, slot)) for slot in _SLOTS}
    table["off"] = compile_phase(circuit, DeviceState.OFF)
    table["sleep"] = compile_phase(circuit, DeviceState.SLEEP)
    return table
