"""Discrete-time, discrete-voltage Markov chain of the device.

The chain is embedded at the scheduled transmission instants (every
`interval_m` seconds).  Voltage is quantized to integer levels,
level = round(v_C * g) of the capacitor voltage v_C with g levels per
volt; time stays continuous within a cycle.  System states pair a coarse
kind with a voltage level:

    OFF  device below the wake target v_on, packet lost;
    SL0  awake but without the energy to finish an uplink (it starts and
         aborts at the turn-off voltage);
    SL1  awake with enough energy, the uplink succeeds.

Transitions step by slot through Scenario.phases, the compiled phase
table the simulator walks, quantizing after every phase:
level -> round(phase.after(level / g) * g).  Each chain compiles this
level map once from the phases' affine constants: a timed slot steps
min(max(round((offset + level / g * decay) * g), 0), v_max) with
offset = v_limit * (1 - decay), and each downlink branch's final sleep
takes the decay over what its cycle leaves of the interval.  These are
Phase.after's float operations in its order, so the map is bit-identical
to calling the phases; only the turn-off paths, whose recharge time
depends on the level, call them per level.  Turn-off levels are the
phases' v_off, the wake time is the Off phase's crossing.  Within
SL1 the downlink branches read the event simulator's branch table,
simulator._BRANCHES, for their slots: a window always costs its
preamble at the listening load, a
detected downlink additionally costs the packet airtime at the receiving
load, and any brush with the turn-off voltage lands the device Off at the
dying state's v_off, recharging for whatever remains of the interval.
Scenario keeps the interval above timing.min_interval_bound of its
reachable branches, so every branch's cycle ends within it.  A state
dies where its end level sits at or below the level of its own v_off.
The row builder also records each state's Rewards, read off the
levels it steps, and every delivery metric is pi . r.

The chain is built only over states reachable from (OFF, level(v_min)),
which keeps the matrix small.  That start state may still reach more than
one closed class; the long-run distribution then weighs each class's
stationary vector by the probability of being absorbed into it from the
start state.

numpy is imported by the functions that build or solve a matrix, so
importing this module (and so caplora) leaves it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .energy import Phase, wake_time
from .errors import InfeasibleScenario, ScenarioError
from .simulator import _BRANCHES, Scenario

if TYPE_CHECKING:
    import numpy as np

OFF, SL0, SL1 = "OFF", "SL0", "SL1"


class ChainState(NamedTuple):
    kind: str
    level: int


@dataclass(frozen=True)
class ThresholdLevels:
    """Quantized decision levels of the chain (all in capacitor voltage levels)."""

    v_min: int   # the chain's start: Off at the turn-off voltage
    v_on: int    # wake target: OFF levels lie below it
    v_tx: int    # minimal sleep level from which an uplink still finishes
    v_rx1: int   # minimal reception-start level surviving window 1 (v_max+1 if none)
    v_rx2: int   # minimal reception-start level surviving window 2 (v_max+1 if none)
    v_max: int
    v_off: dict  # DeviceState -> level of the state's turn-off voltage


def level_of(v: float, g: int) -> int:
    """round-to-nearest voltage level (ties to even, Python round)."""
    return round(v * g)


def _check_granularity(g: int) -> None:
    if not isinstance(g, int) or g < 1:
        raise ScenarioError(f"granularity must be an integer >= 1, got {g!r}")


def _level_step(phase: Phase, g: int, v_max: int, t: float | None = None) -> Callable[[int], int]:
    """The phase compiled into the chain's level map at a fixed time.

    level -> round(phase.after(level / g[, t]) * g), clipped to [0, v_max],
    walked as plain arithmetic on the phase's affine constants: the same
    float operations, in the same order, as Phase.after, so bit-identical
    to it.  A timed phase takes its own decay, a recharge phase the decay
    over the elapsed t.
    """
    decay = phase.decay if t is None else math.exp(-t / phase.tau)
    offset = phase.v_limit * (1.0 - decay)

    def step(level: int) -> int:
        nxt = round((offset + level / g * decay) * g)
        return 0 if nxt < 0 else v_max if nxt > v_max else nxt   # min and max cost calls
    return step


def _min_level_surviving(step: Callable[[int], int], lo: int, hi: int,
                         target: int) -> int | None:
    """Smallest start level in [lo, hi] whose end level reaches `target`.

    The end level is nondecreasing in the start level, so binary search.
    """
    if step(hi) < target:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if step(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _elapsed(phases: dict[str, Phase], slots: tuple[str, ...]) -> float:
    """The slots' durations added left to right."""
    return reduce(add, (phases[slot].duration for slot in slots))


def threshold_levels(scenario: Scenario, g: int) -> ThresholdLevels:
    """Quantized feasibility thresholds for transmit and both receptions.

    A phase survives when its end level lies above the level of its
    state's turn-off voltage.  Raises InfeasibleScenario when no level can
    fund a full transmission (the capacitor is simply too small); the
    reception thresholds use the sentinel v_max + 1 instead, because an
    unreceivable downlink still leaves a working uplink-only device.
    """
    _check_granularity(g)
    circuit, phases = scenario.circuit, scenario.phases
    v_min = level_of(circuit.v_min, g)
    v_max = level_of(circuit.operating_voltage, g)
    v_off = {phase.state: level_of(phase.v_off, g) for phase in phases.values()}
    tx = phases["tx"]
    rx1, rx2 = (phases[_BRANCHES[branch].slots[-1]] for branch in ("rx1", "rx2"))
    v_tx = _min_level_surviving(_level_step(tx, g, v_max), v_min, v_max, v_off[tx.state] + 1)
    if v_tx is None:
        raise InfeasibleScenario(
            f"no voltage level up to {circuit.operating_voltage} V can fund a "
            f"{tx.duration * 1e3:.1f} ms transmission with C = "
            f"{circuit.capacitor.capacitance * 1e3:.3g} mF"
        )
    rx_survive = v_off[rx1.state] + 1
    v_rx1 = _min_level_surviving(_level_step(rx1, g, v_max), v_min, v_max, rx_survive)
    v_rx2 = _min_level_surviving(_level_step(rx2, g, v_max), v_min, v_max, rx_survive)
    return ThresholdLevels(
        v_min=v_min,
        v_on=level_of(circuit.v_on, g),
        v_tx=v_tx,
        v_rx1=v_max + 1 if v_rx1 is None else v_rx1,
        v_rx2=v_max + 1 if v_rx2 is None else v_rx2,
        v_max=v_max,
        v_off=v_off,
    )


class Rewards(NamedTuple):
    """What one visit to a state delivers, per metric; the chain's metrics
    are the stationary expectations of these."""

    lost: float = 0.0         # 1 for OFF and SL0: the uplink is lost or aborted
    pdl1: float = 0.0         # p1 * [v1 >= v_rx1], v1 the level entering window 1
    pdl2: float = 0.0         # (1 - p1) * p2 * [v2 >= Listen v_off], v2 entering window 2
    pdl2_strict: float = 0.0  # (1 - p1) * p2 * [v2 >= v_rx2]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the reachable chain states.

    `matrix` is dense (under 700 states even at g = 5000); `successors`
    holds each row's destinations in the order the row builder emits them
    and `rewards` each state's rewards, both in state order.
    """

    states: tuple[ChainState, ...]
    index: dict
    matrix: np.ndarray
    successors: tuple[tuple[int, ...], ...]
    rewards: tuple[Rewards, ...]
    thresholds: ThresholdLevels

    def coordinate_lines(self) -> Iterable[str]:
        """Debug dump: one 'src_kind,src_level,dst_kind,dst_level,prob' per entry."""
        for i, row in enumerate(self.successors):
            src = self.states[i]
            for j in row:
                dst = self.states[j]
                yield f"{src.kind},{src.level},{dst.kind},{dst.level},{self.matrix[i, j]:.12g}"


class _RowBuilder:
    """Computes the outgoing distribution and the rewards of one chain state.

    The level map is compiled once per chain: a step per timed slot, and
    per reachable branch (Scenario.branches) the sleep over what is left
    of the interval after its cycle `ends`.  Each detected branch's window
    is the last two slots of simulator._BRANCHES, and it opens when the
    slots before them end; times add the slots' durations left to right.
    Die paths recharge from a level-dependent time, so they call the
    phases per level.
    """

    def __init__(self, scenario: Scenario, g: int, thr: ThresholdLevels):
        self.phases = phases = scenario.phases
        self.m, self.p1, self.p2 = scenario.interval_m, scenario.p1, scenario.p2
        self.g = g
        self.thr = thr
        self.v_on = scenario.circuit.v_on
        self.step = {phase: _level_step(phase, g, thr.v_max)
                     for phase in phases.values() if phase.duration is not None}
        # Each detected branch's window: (listen, rx, the level the packet
        # needs to start, the time the window opens).
        self.windows = {}
        for branch, v_rx in (("rx1", thr.v_rx1), ("rx2", thr.v_rx2)):
            *lead, listen, rx = _BRANCHES[branch].slots
            self.windows[branch] = (phases[listen], phases[rx], v_rx, _elapsed(phases, lead))
        self.ends = {branch: _elapsed(phases, _BRANCHES[branch].slots)
                     for branch in scenario.branches}
        self.sleep_out = {branch: _level_step(phases["sleep"], g, thr.v_max, self.m - end)
                          for branch, end in self.ends.items()}
        # A turn-off in each state leaves the capacitor at that state's
        # v_off: its level and its Off-state recharge time to the wake
        # target, constants of the circuit (inf if v_on is unreachable).
        self.off_start = {phase.state: (thr.v_off[phase.state], self._wake_time(phase.v_off))
                          for phase in map(phases.get, ("tx", "listen1", "rx1"))}

    def _wake_time(self, v: float) -> float:
        """Off-state charge time from capacitor voltage v to the wake target."""
        return wake_time(self.phases["off"], v, self.v_on)

    def _level(self, v: float) -> int:
        level, v_max = level_of(v, self.g), self.thr.v_max
        return 0 if level < 0 else v_max if level > v_max else level

    def _sleep_kind(self, level: int) -> str:
        return SL1 if level >= self.thr.v_tx else SL0

    def _to_sleep(self, branch: str, level: int) -> ChainState:
        """Finish the branch's cycle asleep and advance to the next instant."""
        nxt = self.sleep_out[branch](level)
        return ChainState(self._sleep_kind(nxt), nxt)

    def _recharge(self, level: int, t_wake: float, remaining: float) -> ChainState:
        """Charge Off from `level`, wake after t_wake, sleep out `remaining`."""
        if t_wake >= remaining:
            nxt = self._level(self.phases["off"].after(level / self.g, remaining))
            return ChainState(OFF, min(nxt, self.thr.v_on - 1))
        nxt = self._level(self.phases["sleep"].after(max(level, self.thr.v_on) / self.g,
                                                     remaining - t_wake))
        return ChainState(self._sleep_kind(nxt), nxt)

    def _die(self, phase: Phase, level: int, t_base: float, t_lead: float = 0.0) -> ChainState:
        """Turn off in the timed `phase`, entered at `level` at t_base + t_lead,
        and recharge for the rest of the interval.

        The device turns off at the continuous v_off crossing, capped at the
        phase length (the cap covers quantization edges where the rounded
        end level says "died" but the trajectory grazes just above v_off),
        and the capacitor stays at v_off.  A phase entered below the level
        of v_off turns off at once, with the capacitor where it was.
        """
        off_level, t_wake = self.off_start[phase.state]
        if level < off_level:
            t, off_level, t_wake = 0.0, level, self._wake_time(level / self.g)
        else:
            t = min(phase.cross(level / self.g), phase.duration)
        return self._recharge(off_level, t_wake, self.m - (t_base + (t_lead + t)))

    def _window(self, add, branch: str, level: int, p: float,
                reach: float) -> tuple[int, bool]:
        """The receive window of the detected `branch`, entered at `level`,
        reached with probability `reach`, a downlink coming with probability
        p.  Adds the detected branch, and the silent one if the device dies
        listening; returns the level after listening and whether the device
        died.
        """
        listen, rx, v_rx, t = self.windows[branch]
        end = self.step[listen](level)
        died = end <= self.thr.v_off[listen.state]
        detected, silent = reach * p, reach * (1.0 - p)
        if detected > 0.0:
            if died:
                add(self._die(listen, level, t), detected)
            elif end >= v_rx:
                add(self._to_sleep(branch, self.step[rx](end)), detected)
            else:
                add(self._die(rx, end, t, listen.duration), detected)
        if died and silent > 0.0:
            add(self._die(listen, level, t), silent)
        return end, died

    def row(self, state: ChainState) -> tuple[dict[ChainState, float], Rewards]:
        """The state's outgoing distribution and its rewards."""
        thr, step, phases = self.thr, self.step, self.phases
        dests: dict[ChainState, float] = {}

        def add(dest: ChainState, prob: float) -> None:
            if prob > 0.0:
                dests[dest] = dests.get(dest, 0.0) + prob

        if state.kind == OFF:
            add(self._recharge(state.level, self._wake_time(state.level / self.g), self.m), 1.0)
            return dests, Rewards(lost=1.0)

        tx = phases["tx"]
        if state.kind == SL0:
            # The uplink starts but runs out of energy mid-air.
            add(self._die(tx, state.level, 0.0), 1.0)
            return dests, Rewards(lost=1.0)

        # SL1: the uplink completes, then the two receive windows.  Window 2
        # opens only when window 1 stayed silent and the device is still on.
        p1, p2 = self.p1, self.p2
        v1 = step[phases["idle1"]](step[tx](state.level))
        w1, died = self._window(add, "rx1", v1, p1, 1.0)
        v2 = step[phases["idle2"]](w1)
        silent = 0.0 if died else 1.0 - p1
        w2, died = self._window(add, "rx2", v2, p2, silent)
        quiet = silent * (1.0 - p2)
        if not died and quiet > 0.0:
            add(self._to_sleep("silent", w2), quiet)
        pdl2 = (1.0 - p1) * p2
        return dests, Rewards(pdl1=p1 if v1 >= thr.v_rx1 else 0.0,
                              pdl2=pdl2 if v2 >= thr.v_off[phases["listen1"].state] else 0.0,
                              pdl2_strict=pdl2 if v2 >= thr.v_rx2 else 0.0)


def build_transition_matrix(scenario: Scenario, g: int) -> TransitionMatrix:
    """Build the chain over every state reachable from (OFF, level(v_min)).

    A breadth-first search numbers each state as a row first emits it and
    records the row's successors in the same pass; one scatter then fills
    the dense matrix.
    """
    thr = threshold_levels(scenario, g)
    row = _RowBuilder(scenario, g, thr).row
    initial = ChainState(OFF, thr.v_min)
    index: dict[ChainState, int] = {initial: 0}
    states: list[ChainState] = [initial]
    successors: list[tuple[int, ...]] = []
    rewards: list[Rewards] = []
    probs: list[float] = []
    for state in states:    # the list grows as rows emit new states
        dests, reward = row(state)
        cols = []
        for dest in dests:
            if dest not in index:
                index[dest] = len(states)
                states.append(dest)
            cols.append(index[dest])
        successors.append(tuple(cols))
        probs.extend(dests.values())
        rewards.append(reward)

    import numpy as np
    n = len(states)
    matrix = np.zeros((n, n))
    matrix[np.repeat(np.arange(n), [len(cols) for cols in successors]),
           [j for cols in successors for j in cols]] = probs
    return TransitionMatrix(states=tuple(states), index=index, matrix=matrix,
                            successors=tuple(successors), rewards=tuple(rewards),
                            thresholds=thr)


def _closed_classes(successors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Closed classes: the strongly connected components that no edge
    leaves, from an iterative Tarjan search."""
    n = len(successors)
    order, low, component = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    calls: list[tuple[int, Iterator[int]]] = []
    closed: list[list[int]] = []
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        calls.append((root, iter(successors[root])))
        order[root] = low[root] = count = count + 1
        stack.append(root)
        while calls:
            v, edges = calls[-1]
            for w in edges:
                if order[w] < 0:
                    calls.append((w, iter(successors[w])))
                    order[w] = low[w] = count = count + 1
                    stack.append(w)
                    break
                if component[w] < 0:    # w is on the stack
                    low[v] = min(low[v], order[w])
            else:
                calls.pop()
                if calls:
                    low[calls[-1][0]] = min(low[calls[-1][0]], low[v])
                if low[v] == order[v]:
                    members = stack[stack.index(v):]
                    del stack[len(stack) - len(members):]
                    for w in members:
                        component[w] = v
                    # Edges out of the component lead to components found earlier.
                    if all(component[w] == v for u in members for w in successors[u]):
                        closed.append(sorted(members))
    return closed


def _class_stationary(block: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible block: pi (P_C - I) = 0 with the
    last balance equation replaced by sum(pi) = 1."""
    import numpy as np
    k = block.shape[0]
    a = block.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, b), 0.0, None)
    return pi / pi.sum()


def stationary_distribution(tm: TransitionMatrix,
                            initial: ChainState | None = None) -> np.ndarray:
    """Long-run (Cesaro-limit) state distribution observed from `initial`.

    Exact for periodic and deterministic chains alike: each closed class
    reachable from `initial` gets its stationary vector from one linear
    solve, and when `initial` is transient the classes are weighed by
    their absorption probabilities, from one solve on the transient block.
    """
    import numpy as np
    p = tm.matrix
    start = tm.index[initial] if initial is not None else 0
    classes = _closed_classes(tm.successors)
    home = [members for members in classes if start in members]
    if home or len(classes) == 1:
        classes, weights = home or classes, [1.0]
    else:
        transient = np.ones(len(p), dtype=bool)
        for members in classes:
            transient[members] = False
        transient = np.flatnonzero(transient)
        # Expected visits to each transient state from `start`, times the
        # probability of stepping from there into each class.
        lhs = np.eye(len(transient)) - p[np.ix_(transient, transient)]
        visits = np.linalg.solve(lhs.T, (transient == start).astype(float))
        weights = [visits @ p[np.ix_(transient, members)].sum(axis=1) for members in classes]
    pi = np.zeros(len(p))
    for members, weight in zip(classes, weights):
        pi[members] += weight * _class_stationary(p[np.ix_(members, members)])
    return pi / pi.sum()


@dataclass(frozen=True)
class ChainResult:
    """Stationary distribution plus the three delivery metrics."""

    pi: np.ndarray
    states: tuple[ChainState, ...]
    pdr: float
    pdl1: float
    pdl2: float


def chain_metrics(pi: np.ndarray, tm: TransitionMatrix,
                  strict_rx2_threshold: bool = False) -> ChainResult:
    """Delivery metrics from a stationary vector: pi . r over the builder's
    Rewards, summed left to right in state order; pdr is one minus the lost
    mass.  strict_rx2_threshold gates pdl2 on v_rx2, the least level whose
    rx2 packet ends above the turn-off level."""
    def expect(metric: str) -> float:
        return reduce(add, (float(p) * getattr(r, metric) for p, r in zip(pi, tm.rewards)), 0.0)

    return ChainResult(pi=pi, states=tm.states, pdr=1.0 - expect("lost"), pdl1=expect("pdl1"),
                       pdl2=expect("pdl2_strict" if strict_rx2_threshold else "pdl2"))


def solve_chain(scenario: Scenario, g: int) -> ChainResult:
    """Build the chain, solve for the stationary vector, return the metrics."""
    tm = build_transition_matrix(scenario, g)
    return chain_metrics(stationary_distribution(tm), tm)
