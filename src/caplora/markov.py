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
level -> round(phase.after(level / g) * g).  Each chain compiles its
rows once (_RowBuilder) from the phases' affine constants: a timed slot
steps min(max(round((offset + level / g * decay) * g), 0), v_max) with
offset = v_limit * (1 - decay), and each downlink branch's final sleep
takes the decay over what its cycle leaves of the interval.  These are
Phase.after's float operations in its order, so the map is bit-identical
to calling the phases, and a row walks the slots inline; only the
turn-off paths, whose recharge time depends on the level, call the
phases per level.  Turn-off levels are the phases' v_off, the wake time
is the Off phase's crossing.  The feasibility thresholds are read in
closed form: a slot's step is monotone and affine before it rounds, so
inverting it guesses the least surviving level, and a walk with the
step itself from the guess finds the exact one.  Within SL1 the
downlink branches read the branch table the event simulator walks,
cycle.BRANCHES: their slots, and the SL1 fork path and the branch odds
derived from it (cycle.PATH, Scenario.branch_odds).  A window
always costs its preamble at the listening load, a detected downlink
additionally costs the packet airtime at the receiving load, and any
brush with the turn-off voltage lands the device Off at the dying
state's v_off, recharging for whatever remains of the interval.
Scenario keeps the interval above cycle.min_interval_bound, which
covers each reachable branch, so every branch's cycle ends within it.
A state dies where its end level sits at or below the level of its own
v_off.  The row builder also records each state's Rewards, and every
delivery metric is pi . r: a window's downlink counts on the transition
that survives listening, starts the packet at v_rx or above and sleeps.

The chain is built only over states reachable from (OFF, level(v_min)),
which keeps it small, and is kept as its rows: each state's successors
and their probabilities.  Rows name their successors as plain
(kind, level) tuples; the search makes each state a ChainState once.
That start state may still reach more than one closed class; the
long-run distribution then weighs each class's stationary vector by the
probability of being absorbed into it from the start state.  The solver
reads the rows: a closed class in which every state has one successor
is a cycle, uniform in the long run, and only the other blocks are
scattered into numpy for a linear solve.

numpy is imported only to solve a class that is not a single cycle or to
weigh classes by absorption, so importing this module (and so caplora),
and building and solving a deterministic chain, leave it unloaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .cycle import BRANCHES, PATH, Scenario, cycle_length
from .energy import Phase, wake_time
from .errors import InfeasibleScenario, ScenarioError

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


def check_granularity(g: int, e: float) -> int:
    """The level of the operating voltage e, for a whole g >= 1 that keeps it
    an exact float: past 2**53 the threshold search would walk levels one by one."""
    if not isinstance(g, int) or g < 1:
        raise ScenarioError(f"granularity must be an integer >= 1, got {g!r}")
    if level_of(e, g) > 2**53:
        raise ScenarioError(f"granularity {g} puts the level of {e} V past 2**53")
    return level_of(e, g)


def _affine(phase: Phase, t: float | None = None) -> tuple[float, float]:
    """The phase's level map as (offset, decay): v -> offset + v * decay,
    offset = v_limit * (1 - decay), the float operations of Phase.after.  A
    timed phase takes its own decay, a recharge phase the decay over the
    elapsed t."""
    decay = phase.decay if t is None else math.exp(-t / phase.tau)
    return phase.v_limit * (1.0 - decay), decay


def _level_step(phase: Phase, g: int, v_max: int, t: float | None = None) -> Callable[[int], int]:
    """The phase compiled into the chain's level map at a fixed time.

    level -> round(phase.after(level / g[, t]) * g), clipped to [0, v_max],
    walked as plain arithmetic on the phase's affine constants: the same
    float operations, in the same order, as Phase.after, so bit-identical
    to it.  The row builder inlines this expression.
    """
    offset, decay = _affine(phase, t)

    def step(level: int) -> int:
        nxt = round((offset + level / g * decay) * g)
        return 0 if nxt < 0 else v_max if nxt > v_max else nxt   # min and max cost calls
    return step


def _least_level(phase: Phase, g: int, v_min: int, v_max: int, target: int) -> int:
    """Least start level in [v_min, v_max] whose step through `phase` ends at
    or above `target`, v_max + 1 if none.  The step is monotone and affine
    before it rounds, so inverting offset + level / g * decay =
    (target - 1/2) / g guesses the boundary, and walking the step itself
    from the guess lands on it exactly."""
    step = _level_step(phase, g, v_max)
    offset, decay = _affine(phase)
    if decay > 0.0:
        guess = (target - 0.5 - offset * g) / decay
    else:   # the phase forgets where it started: every level steps alike
        guess = -math.inf if step(v_min) >= target else math.inf
    level = math.ceil(max(v_min, min(guess, v_max + 1)))
    while level > v_min and step(level - 1) >= target:
        level -= 1
    while level <= v_max and step(level) < target:
        level += 1
    return level


def threshold_levels(scenario: Scenario, g: int) -> ThresholdLevels:
    """Quantized feasibility thresholds for transmit and both receptions.

    A phase survives when its end level lies above the level of its
    state's turn-off voltage; _least_level reads each least surviving
    level in closed form.  Raises InfeasibleScenario when no level can
    fund a full transmission (the capacitor is simply too small); the
    reception thresholds use the sentinel v_max + 1 instead, because an
    unreceivable downlink still leaves a working uplink-only device.  The
    packet slot of each detected branch on the fork path sets its v_<branch>.
    """
    circuit, phases = scenario.circuit, scenario.phases
    v_max = check_granularity(g, circuit.operating_voltage)
    v_min = level_of(circuit.v_min, g)
    v_off = {phase.state: level_of(phase.v_off, g) for phase in phases.values()}

    def least(phase: Phase) -> int:
        return _least_level(phase, g, v_min, v_max, v_off[phase.state] + 1)

    tx = phases["tx"]
    v_tx = least(tx)
    if v_tx > v_max:
        raise InfeasibleScenario(
            f"no voltage level up to {circuit.operating_voltage} V can fund a "
            f"{tx.duration * 1e3:.1f} ms transmission with C = "
            f"{circuit.capacitor.capacitance * 1e3:.3g} mF"
        )
    v_rx = {f"v_{b}": least(phases[BRANCHES[b].slots[-1]]) for _, b in PATH if b}
    return ThresholdLevels(v_min=v_min, v_on=level_of(circuit.v_on, g), v_tx=v_tx,
                           v_max=v_max, v_off=v_off, **v_rx)


class Rewards(NamedTuple):
    """What one visit to a state delivers, per metric; the chain's metrics
    are the stationary expectations of these."""

    lost: float = 0.0   # 1 for OFF and SL0: the uplink is lost or aborted
    pdl1: float = 0.0   # q_rx1 if the rx1 branch's transition receives, else 0
    pdl2: float = 0.0   # q_rx2 likewise; q_b is Scenario.branch_odds


_LOST = Rewards(lost=1.0)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the reachable chain states.

    `successors` holds each row's destinations in the order the row
    builder emits them, `probabilities` their probabilities in the same
    order, and `rewards` each state's rewards, all in state order.
    """

    states: tuple[ChainState, ...]
    index: dict
    successors: tuple[tuple[int, ...], ...]
    probabilities: tuple[tuple[float, ...], ...]
    rewards: tuple[Rewards, ...]
    thresholds: ThresholdLevels

    def coordinate_lines(self) -> Iterable[str]:
        """Debug dump: one 'src_kind,src_level,dst_kind,dst_level,prob' per entry."""
        for src, row, probs in zip(self.states, self.successors, self.probabilities):
            for j, p in zip(row, probs):
                dst = self.states[j]
                yield f"{src.kind},{src.level},{dst.kind},{dst.level},{p:.12g}"


class _RowBuilder:
    """One chain's rows, compiled: `row((kind, level))` is the state's
    outgoing distribution, keyed by plain (kind, level) tuples, and its
    Rewards.

    Every per-chain constant is bound once into `row`: each timed slot's
    affine (offset, decay) in `steps`; per reachable branch
    (Scenario.branches) the sleep-out over what is left of the interval
    after its cycle `ends`, in `sleep_out`; per turn-off phase its state's
    v_off level, the Off-state wake time from that v_off, its crossing and
    its length; and the Off and Sleep phases' `after`.  A detected branch's
    window, the last two slots of cycle.BRANCHES, sits on the fork
    path at its listening slot and opens when the slots before them end;
    times are cycle.cycle_length of the slots on the schedule the phases
    were compiled from.  The SL1 row steps the fork path's timed slots
    inline with _level_step's expression.  A turn-off recharges from a
    level-dependent time, so it calls Phase.cross, Phase.after and
    wake_time per row; a window that dies listening turns off once for
    its detected and its silent mass.  The rewards are shared: one Rewards
    per set of windows whose transition receives.
    """

    def __init__(self, scenario: Scenario, g: int, thr: ThresholdLevels):
        phases, schedule, m = scenario.phases, scenario.schedule, scenario.interval_m
        v_max, v_on, v_tx = thr.v_max, thr.v_on, thr.v_tx
        off, wake_v = phases["off"], scenario.circuit.v_on
        off_after, sleep_after = off.after, phases["sleep"].after
        self.steps = steps = {phase: _affine(phase)
                              for phase in phases.values() if phase.duration is not None}
        self.ends = {branch: cycle_length(schedule, BRANCHES[branch].slots)
                     for branch in scenario.branches}
        self.sleep_out = sleep_out = {branch: _affine(phases["sleep"], m - end)
                                      for branch, end in self.ends.items()}
        def turn_off(phase: Phase) -> tuple:
            # A turn-off in the phase leaves the capacitor at its state's
            # v_off: that level, its Off-state recharge time to the wake
            # target (inf if v_on is unreachable), the crossing and the length.
            return (thr.v_off[phase.state], wake_time(off, phase.v_off, wake_v), phase.cross,
                    phase.duration)

        # (offset, decay, window) per slot of the fork path; a window is (p,
        # its opening time, listen's and rx's turn-offs, listen's length,
        # rx's step, the level rx needs, listen's v_off level, the branch's
        # sleep-out, its bit in the set of receiving windows).
        path, bits = [], 1
        for slot, branch in PATH:
            window = None
            if branch is not None:
                (*lead, listen, rx), odds = BRANCHES[branch].slots, BRANCHES[branch].odds
                listen, rx = phases[listen], phases[rx]
                window = (getattr(scenario, odds), cycle_length(schedule, tuple(lead)),
                          turn_off(listen), turn_off(rx), listen.duration, steps[rx],
                          getattr(thr, f"v_{branch}"), thr.v_off[listen.state],
                          sleep_out.get(branch), bits)
                bits *= 2
            path.append((*steps[phases[slot]], window))
        tx, quiet = turn_off(phases["tx"]), sleep_out.get("silent")
        q1, q2 = (scenario.branch_odds[b][0] for _, b in PATH if b)
        rewarded = [Rewards(0.0, q1 if r & 1 else 0.0, q2 if r & 2 else 0.0) for r in range(bits)]

        def recharge(level: int, t_wake: float, remaining: float) -> tuple[str, int]:
            """Charge Off from `level`, wake after t_wake, sleep out `remaining`."""
            if t_wake >= remaining:
                nxt = round(off_after(level / g, remaining) * g)
                nxt = 0 if nxt < 0 else v_max if nxt > v_max else nxt
                return OFF, nxt if nxt < v_on else v_on - 1
            nxt = round(sleep_after((level if level > v_on else v_on) / g, remaining - t_wake) * g)
            nxt = 0 if nxt < 0 else v_max if nxt > v_max else nxt
            return SL1 if nxt >= v_tx else SL0, nxt

        def die(phase: tuple, level: int, t_base: float, t_lead: float = 0.0) -> tuple[str, int]:
            """Turn off in the timed phase (a turn_off tuple), entered at
            `level` at t_base + t_lead, and recharge for the rest of the
            interval.

            The device turns off at the continuous v_off crossing, capped at
            the phase length (the cap covers quantization edges where the
            rounded end level says "died" but the trajectory grazes just above
            v_off), and the capacitor stays at v_off.  A phase entered below
            the level of v_off turns off at once, with the capacitor where it
            was.
            """
            off_level, t_wake, cross, duration = phase
            if level < off_level:
                t, off_level, t_wake = 0.0, level, wake_time(off, level / g, wake_v)
            else:
                t = min(cross(level / g), duration)
            return recharge(off_level, t_wake, m - (t_base + (t_lead + t)))

        def row(state: tuple[str, int]) -> tuple[dict[tuple[str, int], float], Rewards]:
            kind, level = state
            if kind == OFF:
                return {recharge(level, wake_time(off, level / g, wake_v), m): 1.0}, _LOST
            if kind == SL0:   # the uplink starts but runs out of energy mid-air
                return {die(tx, level, 0.0): 1.0}, _LOST
            # SL1: the uplink completes, then the fork path's receive windows.  A
            # window, reached with probability `reach`, opens only when the
            # earlier ones stayed silent and the device is still on.  It adds its
            # detected branch, and the silent one if the device dies listening;
            # the detected branch that sleeps out its cycle receives.
            dests: dict[tuple[str, int], float] = {}
            reach, received = 1.0, 0
            for offset, decay, window in path:
                end = round((offset + level / g * decay) * g)
                end = 0 if end < 0 else v_max if end > v_max else end
                if window is not None:
                    p, t, listen, rx, t_l, (rx_offset, rx_decay), v_rx, v_off, out, bit = window
                    detected, reach = reach * p, reach * (1.0 - p)
                    if end <= v_off:   # died listening
                        if detected > 0.0 or reach > 0.0:
                            dest = die(listen, level, t)
                            if detected > 0.0:
                                dests[dest] = dests.get(dest, 0.0) + detected
                            if reach > 0.0:
                                dests[dest] = dests.get(dest, 0.0) + reach
                        reach = 0.0
                    elif detected > 0.0:
                        if end >= v_rx:   # received: sleep out the branch's cycle
                            nxt = round((rx_offset + end / g * rx_decay) * g)
                            nxt = 0 if nxt < 0 else v_max if nxt > v_max else nxt
                            nxt = round((out[0] + nxt / g * out[1]) * g)
                            nxt = 0 if nxt < 0 else v_max if nxt > v_max else nxt
                            dest = (SL1 if nxt >= v_tx else SL0, nxt)
                            received |= bit
                        else:
                            dest = die(rx, end, t, t_l)
                        dests[dest] = dests.get(dest, 0.0) + detected
                level = end
            if reach > 0.0:
                nxt = round((quiet[0] + level / g * quiet[1]) * g)
                nxt = 0 if nxt < 0 else v_max if nxt > v_max else nxt
                dest = (SL1 if nxt >= v_tx else SL0, nxt)
                dests[dest] = dests.get(dest, 0.0) + reach
            return dests, rewarded[received]

        self.row = row


def build_transition_matrix(scenario: Scenario, g: int) -> TransitionMatrix:
    """Build the chain over every state reachable from (OFF, level(v_min)).

    A breadth-first search numbers each state as a row first emits it and
    records the row's successors and probabilities in the same pass.  Rows
    emit plain (kind, level) tuples, which hash and compare equal to
    ChainState; each state is made a ChainState once, when it is found.
    """
    thr = threshold_levels(scenario, g)
    row = _RowBuilder(scenario, g, thr).row
    initial = ChainState(OFF, thr.v_min)
    index: dict[ChainState, int] = {initial: 0}
    states: list[ChainState] = [initial]
    successors: list[tuple[int, ...]] = []
    probabilities: list[tuple[float, ...]] = []
    rewards: list[Rewards] = []
    for state in states:    # the list grows as rows emit new states
        dests, reward = row(state)
        cols = []
        for dest in dests:
            j = index.get(dest)
            if j is None:
                found = ChainState(*dest)
                j = index[found] = len(states)
                states.append(found)
            cols.append(j)
        successors.append(tuple(cols))
        probabilities.append(tuple(dests.values()))
        rewards.append(reward)
    return TransitionMatrix(states=tuple(states), index=index, successors=tuple(successors),
                            probabilities=tuple(probabilities), rewards=tuple(rewards),
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


def _class_stationary(tm: TransitionMatrix, members: list[int]) -> list[float] | np.ndarray:
    """Stationary vector of the closed class `members`, from its rows.

    A cycle, a class in which every state has one successor, has the
    closed form 1/L on its L states.  Any other class solves pi (P_C - I)
    = 0 with the last balance equation replaced by sum(pi) = 1, its rows
    scattered straight into a = P_C^T - I.
    """
    k = len(members)
    if all(len(tm.successors[i]) == 1 for i in members):
        return [1.0 / k] * k
    import numpy as np
    local = {i: r for r, i in enumerate(members)}
    cols = [r for r, i in enumerate(members) for _ in tm.successors[i]]
    a = np.zeros((k, k))
    a[[local[j] for i in members for j in tm.successors[i]], cols] = \
        [p for i in members for p in tm.probabilities[i]]
    diagonal = np.arange(k)
    a[diagonal, diagonal] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(a, b), 0.0, None)
    return pi / pi.sum()


def _absorption_weights(tm: TransitionMatrix, classes: list[list[int]],
                        start: int) -> list[float]:
    """Probability of absorption into each closed class from the transient
    `start`: the expected visits to each transient state, from one solve on
    the transient block I - Q scattered from the rows, times each state's
    step into the class."""
    import numpy as np
    owner = {i: c for c, members in enumerate(classes) for i in members}
    transient = [i for i in range(len(tm.states)) if i not in owner]
    local = {i: t for t, i in enumerate(transient)}
    lhs = np.eye(len(transient))
    into = np.zeros((len(classes), len(transient)))
    for t, i in enumerate(transient):
        for j, p in zip(tm.successors[i], tm.probabilities[i]):
            if j in local:
                lhs[t, local[j]] -= p
            else:
                into[owner[j], t] += p
    visits = np.linalg.solve(lhs.T, [float(i == start) for i in transient])
    return [visits @ column for column in into]


def stationary_distribution(tm: TransitionMatrix,
                            initial: ChainState | None = None) -> list[float]:
    """Long-run (Cesaro-limit) state distribution observed from `initial`,
    in state order.

    Exact for periodic and deterministic chains alike: each closed class
    reachable from `initial` gets its stationary vector, a cycle's in
    closed form and any other class's from one linear solve, and when
    `initial` is transient and more than one class is closed the classes
    are weighed by their absorption probabilities.  A lone cycle's 1/L is
    the answer as it stands; otherwise the weighed vectors are normalized
    once more.
    """
    start = tm.index[initial] if initial is not None else 0
    classes = _closed_classes(tm.successors)
    home = [members for members in classes if start in members]
    if home or len(classes) == 1:
        classes, weights = home or classes, [1.0]
    else:
        weights = _absorption_weights(tm, classes, start)
    vectors = [_class_stationary(tm, members) for members in classes]
    if len(classes) == 1 and isinstance(vectors[0], list):
        pi = [0.0] * len(tm.states)
        for i, p in zip(classes[0], vectors[0]):
            pi[i] = p
        return pi
    import numpy as np
    pi = np.zeros(len(tm.states))
    for members, weight, vector in zip(classes, weights, vectors):
        pi[members] += weight * np.asarray(vector)
    return (pi / pi.sum()).tolist()


@dataclass(frozen=True)
class ChainResult:
    """Stationary distribution, a list in state order, plus the three delivery metrics."""

    pi: list[float]
    states: tuple[ChainState, ...]
    pdr: float
    pdl1: float
    pdl2: float


def chain_metrics(pi: list[float], tm: TransitionMatrix) -> ChainResult:
    """Delivery metrics from a stationary vector: pi . r over the builder's
    Rewards, summed left to right in state order; pdr is one minus the lost
    mass, each pdl the mass whose transition receives, times the branch odds."""
    lost = pdl1 = pdl2 = 0.0
    for p, (r_lost, r_pdl1, r_pdl2) in zip(pi, tm.rewards):
        lost += p * r_lost
        pdl1 += p * r_pdl1
        pdl2 += p * r_pdl2
    return ChainResult(pi=pi, states=tm.states, pdr=1.0 - lost, pdl1=pdl1, pdl2=pdl2)


def solve_chain(scenario: Scenario, g: int) -> ChainResult:
    """Build the chain, solve for the stationary vector, return the metrics."""
    tm = build_transition_matrix(scenario, g)
    return chain_metrics(stationary_distribution(tm), tm)
