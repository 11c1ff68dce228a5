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

Transitions compose the discrete voltage map V(state, level, duration)
phase by phase, re-quantizing after every phase exactly like the voltage
bookkeeping the metrics use; one step is energy's phase exponential on
the state's (tau, asymptote).  Within SL1 the downlink branches follow
the same window rules as the event simulator: a window always costs its
preamble at the listening load, a detected downlink additionally costs
the packet airtime at the receiving load, and any brush with the turn-off
voltage lands the device Off at the dying state's v_off, recharging for
whatever remains of the interval.  A state dies where its end level sits
at or below the level of its own v_off.

The chain is built only over states reachable from (OFF, level(v_min)),
which keeps the matrix small.  That start state may still reach more than
one closed class; the long-run distribution then weighs each class's
stationary vector by the probability of being absorbed into it from the
start state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .energy import CircuitConfig, DeviceState, time_to_voltage
from .errors import InfeasibleScenario, ScenarioError
from .simulator import Scenario

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


class _VoltageSteps:
    """Per-(state, duration) cached one-step discrete voltage maps.

    Each device phase has a fixed duration, so its exponential decay
    factor is a constant; one step is then level -> round of energy's
    phase step L * (1 - decay) + v * decay, with no exp() in the hot path.
    """

    def __init__(self, circuit: CircuitConfig, g: int):
        self.circuit = circuit
        self.g = g
        self.v_max = level_of(circuit.operating_voltage, g)
        self._decay: dict[tuple[DeviceState, float], tuple[float, float]] = {}

    def step(self, state: DeviceState, level0: int, duration: float) -> int:
        key = (state, duration)
        cached = self._decay.get(key)
        if cached is None:
            p = self.circuit.state_params(state)
            decay = math.exp(-duration / p.tau)
            cached = (p.v_limit * (1.0 - decay), decay)
            self._decay[key] = cached
        settled, decay = cached
        v = settled + level0 / self.g * decay
        return min(max(level_of(v, self.g), 0), self.v_max)


def _min_level_surviving(steps: _VoltageSteps, state: DeviceState, duration: float,
                         lo: int, hi: int, target: int) -> int | None:
    """Smallest start level in [lo, hi] whose end level reaches `target`.

    The end level is nondecreasing in the start level, so binary search.
    """
    if steps.step(state, hi, duration) < target:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if steps.step(state, mid, duration) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def threshold_levels(scenario: Scenario, g: int) -> ThresholdLevels:
    """Quantized feasibility thresholds for transmit and both receptions.

    A phase survives when its end level lies above the level of its
    state's turn-off voltage.  Raises InfeasibleScenario when no level can
    fund a full transmission (the capacitor is simply too small); the
    reception thresholds use the sentinel v_max + 1 instead, because an
    unreceivable downlink still leaves a working uplink-only device.
    """
    _check_granularity(g)
    circuit, sched = scenario.circuit, scenario.schedule
    steps = _VoltageSteps(circuit, g)
    v_min = level_of(circuit.v_min, g)
    v_max = steps.v_max
    v_off = {state: level_of(circuit.state_params(state).v_off, g) for state in DeviceState}
    v_tx = _min_level_surviving(steps, DeviceState.TX, sched.t_tx, v_min, v_max,
                                v_off[DeviceState.TX] + 1)
    if v_tx is None:
        raise InfeasibleScenario(
            f"no voltage level up to {circuit.operating_voltage} V can fund a "
            f"{sched.t_tx * 1e3:.1f} ms transmission with C = "
            f"{circuit.capacitor.capacitance * 1e3:.3g} mF"
        )
    rx_survive = v_off[DeviceState.RX] + 1
    v_rx1 = _min_level_surviving(steps, DeviceState.RX, sched.t_rx1, v_min, v_max, rx_survive)
    v_rx2 = _min_level_surviving(steps, DeviceState.RX, sched.t_rx2, v_min, v_max, rx_survive)
    return ThresholdLevels(
        v_min=v_min,
        v_on=level_of(circuit.v_on, g),
        v_tx=v_tx,
        v_rx1=v_max + 1 if v_rx1 is None else v_rx1,
        v_rx2=v_max + 1 if v_rx2 is None else v_rx2,
        v_max=v_max,
        v_off=v_off,
    )


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the reachable chain states.

    `matrix` is dense (under 700 states even at g = 5000); `successors`
    holds each row's destinations in the order the row builder emits them.
    """

    states: tuple[ChainState, ...]
    index: dict
    matrix: np.ndarray
    successors: tuple[tuple[int, ...], ...]
    thresholds: ThresholdLevels
    granularity: int

    def coordinate_lines(self) -> Iterable[str]:
        """Debug dump: one 'src_kind,src_level,dst_kind,dst_level,prob' per entry."""
        for i, row in enumerate(self.successors):
            src = self.states[i]
            for j in row:
                dst = self.states[j]
                yield f"{src.kind},{src.level},{dst.kind},{dst.level},{self.matrix[i, j]:.12g}"


class _RowBuilder:
    """Computes the outgoing distribution of one chain state."""

    def __init__(self, scenario: Scenario, g: int, thr: ThresholdLevels):
        self.scenario = scenario
        self.circuit = scenario.circuit
        self.sched = scenario.schedule
        self.g = g
        self.thr = thr
        self.steps = _VoltageSteps(self.circuit, g)
        self.v_on = self.circuit.v_on
        # A turn-off in each state leaves the capacitor at that state's
        # v_off: its level and its Off-state recharge time to the wake
        # target, constants of the circuit (inf if v_on is unreachable).
        self.off_start = {}
        for state in (DeviceState.TX, DeviceState.LISTEN, DeviceState.RX):
            v_off = self.circuit.state_params(state).v_off
            self.off_start[state] = (v_off, thr.v_off[state], self._wake_time(v_off))
        if scenario.p2 > 0:
            window2_total = (self.sched.t_tx + self.sched.t_id1 + self.sched.t_l1
                             + self.sched.t_id2 + self.sched.t_l2 + self.sched.t_rx2)
            if scenario.interval_m <= window2_total:
                raise InfeasibleScenario(
                    f"interval {scenario.interval_m} s cannot contain a "
                    f"detected window-2 reception ({window2_total:.3f} s)"
                )

    def _wake_time(self, v: float) -> float:
        """Off-state charge time from capacitor voltage v to the wake target."""
        if v >= self.v_on:
            return 0.0
        return time_to_voltage(self.circuit, DeviceState.OFF, v, self.v_on)

    def _sleep_kind(self, level: int) -> str:
        return SL1 if level >= self.thr.v_tx else SL0

    def _to_sleep(self, level: int, elapsed: float) -> ChainState:
        """Finish the cycle asleep and advance to the next instant."""
        nxt = self.steps.step(DeviceState.SLEEP, level, self.scenario.interval_m - elapsed)
        return ChainState(self._sleep_kind(nxt), nxt)

    def _recharge(self, level: int, t_wake: float, remaining: float) -> ChainState:
        """Charge Off from `level`, wake after t_wake, sleep out `remaining`."""
        if t_wake >= remaining:
            nxt = self.steps.step(DeviceState.OFF, level, remaining)
            return ChainState(OFF, min(nxt, self.thr.v_on - 1))
        nxt = self.steps.step(DeviceState.SLEEP, max(level, self.thr.v_on),
                              remaining - t_wake)
        return ChainState(self._sleep_kind(nxt), nxt)

    def _die(self, state: DeviceState, level: int, duration: float,
             t_base: float, t_lead: float = 0.0) -> ChainState:
        """Turn off in `state`, entered at `level` at t_base + t_lead, and
        recharge for the rest of the interval.

        The device turns off at the continuous v_off crossing, capped at the
        phase length (the cap covers quantization edges where the rounded
        end level says "died" but the trajectory grazes just above v_off),
        and the capacitor stays at v_off.  A phase entered below the level
        of v_off turns off at once, with the capacitor where it was.
        """
        v_off, off_level, t_wake = self.off_start[state]
        if level < off_level:
            t, off_level, t_wake = 0.0, level, self._wake_time(level / self.g)
        else:
            t = min(time_to_voltage(self.circuit, state, level / self.g, v_off), duration)
        return self._recharge(off_level, t_wake,
                              self.scenario.interval_m - (t_base + (t_lead + t)))

    def row(self, state: ChainState) -> dict[ChainState, float]:
        sched, thr, m = self.sched, self.thr, self.scenario.interval_m
        listen, rx = DeviceState.LISTEN, DeviceState.RX
        dests: dict[ChainState, float] = {}

        def add(dest: ChainState, prob: float) -> None:
            if prob > 0.0:
                dests[dest] = dests.get(dest, 0.0) + prob

        if state.kind == OFF:
            add(self._recharge(state.level, self._wake_time(state.level / self.g), m), 1.0)
            return dests

        if state.kind == SL0:
            # The uplink starts but runs out of energy mid-air.
            add(self._die(DeviceState.TX, state.level, sched.t_tx, 0.0), 1.0)
            return dests

        # SL1: the uplink completes, then the two receive windows.
        p1, p2 = self.scenario.p1, self.scenario.p2
        after_tx = self.steps.step(DeviceState.TX, state.level, sched.t_tx)
        v1 = self.steps.step(DeviceState.IDLE, after_tx, sched.t_id1)
        t_base = sched.t_tx + sched.t_id1

        w1 = self.steps.step(listen, v1, sched.t_l1)
        died1 = w1 <= thr.v_off[listen]
        if p1 > 0.0:
            if died1:
                add(self._die(listen, v1, sched.t_l1, t_base), p1)
            elif w1 >= thr.v_rx1:
                rx_end = self.steps.step(rx, w1, sched.t_rx1)
                add(self._to_sleep(rx_end, t_base + sched.t_l1 + sched.t_rx1), p1)
            else:
                add(self._die(rx, w1, sched.t_rx1, t_base, sched.t_l1), p1)
        if p1 < 1.0:
            silent = 1.0 - p1
            if died1:
                add(self._die(listen, v1, sched.t_l1, t_base), silent)
                return dests
            v2 = self.steps.step(DeviceState.IDLE, w1, sched.t_id2)
            t_win2 = t_base + sched.t_l1 + sched.t_id2
            w2 = self.steps.step(listen, v2, sched.t_l2)
            died2 = w2 <= thr.v_off[listen]
            if p2 > 0.0:
                if died2:
                    add(self._die(listen, v2, sched.t_l2, t_win2), silent * p2)
                elif w2 >= thr.v_rx2:
                    rx_end = self.steps.step(rx, w2, sched.t_rx2)
                    add(self._to_sleep(rx_end, t_win2 + sched.t_l2 + sched.t_rx2), silent * p2)
                else:
                    add(self._die(rx, w2, sched.t_rx2, t_win2, sched.t_l2), silent * p2)
            if p2 < 1.0:
                quiet = silent * (1.0 - p2)
                if died2:
                    add(self._die(listen, v2, sched.t_l2, t_win2), quiet)
                else:
                    add(self._to_sleep(w2, t_win2 + sched.t_l2), quiet)
        return dests


def build_transition_matrix(scenario: Scenario, g: int) -> TransitionMatrix:
    """Build the chain over every state reachable from (OFF, level(v_min))."""
    thr = threshold_levels(scenario, g)
    builder = _RowBuilder(scenario, g, thr)
    initial = ChainState(OFF, thr.v_min)
    index: dict[ChainState, int] = {initial: 0}
    states: list[ChainState] = [initial]
    rows: list[dict[ChainState, float]] = []
    frontier = 0
    while frontier < len(states):
        row = builder.row(states[frontier])
        rows.append(row)
        for dest in row:
            if dest not in index:
                index[dest] = len(states)
                states.append(dest)
        frontier += 1

    successors = tuple(tuple(index[dest] for dest in row) for row in rows)
    matrix = np.zeros((len(states), len(states)))
    for i, (row, cols) in enumerate(zip(rows, successors)):
        matrix[i, list(cols)] = list(row.values())
    return TransitionMatrix(states=tuple(states), index=index, matrix=matrix,
                            successors=successors, thresholds=thr, granularity=g)


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


def chain_metrics(pi: np.ndarray, tm: TransitionMatrix, scenario: Scenario,
                  strict_rx2_threshold: bool = False) -> ChainResult:
    """Delivery metrics from a stationary vector.

    pdr is one minus the OFF and SL0 mass.  pdl1 multiplies the SL1 mass
    by p1 and an indicator that the post-transmit, post-idle voltage can
    fund the window-1 packet.  pdl2 multiplies by (1 - p1) * p2 and, as
    the model defines it, only requires the pre-window-2 voltage to sit at
    or above the turn-off level; strict_rx2_threshold switches that
    indicator to the window-2 reception threshold instead.
    """
    thr, g = tm.thresholds, tm.granularity
    steps = _VoltageSteps(scenario.circuit, g)
    sched = scenario.schedule
    off_sl0 = sum(float(pi[i]) for i, s in enumerate(tm.states) if s.kind != SL1)
    pdr = 1.0 - off_sl0
    pdl1 = 0.0
    pdl2 = 0.0
    rx2_floor = thr.v_rx2 if strict_rx2_threshold else thr.v_off[DeviceState.LISTEN]
    for i, s in enumerate(tm.states):
        if s.kind != SL1 or pi[i] == 0.0:
            continue
        v1 = steps.step(DeviceState.IDLE,
                        steps.step(DeviceState.TX, s.level, sched.t_tx), sched.t_id1)
        if v1 >= thr.v_rx1:
            pdl1 += scenario.p1 * float(pi[i])
        v2 = steps.step(DeviceState.IDLE,
                        steps.step(DeviceState.LISTEN, v1, sched.t_l1), sched.t_id2)
        if v2 >= rx2_floor:
            pdl2 += (1.0 - scenario.p1) * scenario.p2 * float(pi[i])
    return ChainResult(pi=pi, states=tm.states, pdr=pdr, pdl1=pdl1, pdl2=pdl2)


def solve_chain(scenario: Scenario, g: int,
                strict_rx2_threshold: bool = False) -> ChainResult:
    """Build the chain, solve for the stationary vector, return the metrics."""
    tm = build_transition_matrix(scenario, g)
    pi = stationary_distribution(tm)
    return chain_metrics(pi, tm, scenario, strict_rx2_threshold=strict_rx2_threshold)
