import dataclasses
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from caplora import defaults
from caplora.cycle import BRANCHES, PATH, PhaseTable, Scenario, cycle_length, seeded_scenario
from caplora.energy import (
    ASYMPTOTE_GUARD_V,
    CapacitorConfig,
    CircuitConfig,
    DeviceState,
    HarvesterConfig,
    LoadTable,
    Phase,
    wake_time,
)
from caplora.markov import (
    OFF,
    SL0,
    SL1,
    ChainState,
    Rewards,
    TransitionMatrix,
    _affine,
)
from caplora.simulator import TracePoint


def make_loads(**overrides) -> LoadTable:
    values = dict(defaults.LOAD_OHMS)
    values.update(overrides)
    return LoadTable(**values)


def make_circuit(power_w: float = defaults.HARVEST_POWER_W,
                 c_farads: float = defaults.CAPACITANCE_F,
                 esr: float = 0.0,
                 epr: float = math.inf,
                 loads: LoadTable | None = None) -> CircuitConfig:
    return CircuitConfig(
        harvester=HarvesterConfig(defaults.OPERATING_VOLTAGE, power_w),
        capacitor=CapacitorConfig(c_farads, esr=esr, epr=epr),
        loads=loads or make_loads(),
        v_min=defaults.TURN_OFF_VOLTAGE,
    )


def turn_on(fraction: float) -> float:
    """The turn-on threshold v_sl at `fraction` of the stock E, as the
    config and the grid form it."""
    return fraction * defaults.OPERATING_VOLTAGE


@pytest.fixture
def circuit_1mw() -> CircuitConfig:
    return make_circuit()


@pytest.fixture
def circuit_100mw() -> CircuitConfig:
    return make_circuit(power_w=0.1)


def make_scenario(sf: int = 7,
                  ul_pl: int = 16,
                  dl_pl: int = 1,
                  interval_m: float = 10.0,
                  p1: float = 0.0,
                  p2: float = 0.0,
                  power_w: float = defaults.HARVEST_POWER_W,
                  c_farads: float = defaults.CAPACITANCE_F,
                  turn_on_fraction: float = defaults.TURN_ON_FRACTION,
                  circuit: CircuitConfig | None = None):
    from caplora.cycle import Scenario
    from caplora.timing import RadioConfig

    return Scenario(
        circuit=circuit or make_circuit(power_w=power_w, c_farads=c_farads),
        radio=RadioConfig(sf=sf),
        ul_pl=ul_pl,
        dl_pl=dl_pl,
        interval_m=interval_m,
        v_sl=turn_on(turn_on_fraction),
        p1=p1,
        p2=p2,
    )


def reference_interval_bound(sched, rx2_reachable: bool = False) -> float:
    """The interval bound written out by hand, what
    caplora.cycle.min_interval_bound must return bit for bit: the
    sequence up to window 2, then window 2's longer of preamble and packet
    (a downlink replacing its listening window), or both when a window-2
    reception is reachable, added left to right."""
    head = sched.t_tx + sched.t_id1 + sched.t_l1 + sched.t_id2
    if rx2_reachable:
        return head + sched.t_l2 + sched.t_rx2
    return head + max(sched.t_rx2, sched.t_l2)


def phase_with(phase: Phase, **constants) -> Phase:
    """`phase` with some of its constants swapped, and the ones compile_phase
    derives from them derived again: a timed phase's offset v_limit * (1 -
    decay), the gap v_off - v_limit, and v_guard, math.inf when the gap
    exceeds ASYMPTOTE_GUARD_V, else v_off."""
    phase = phase._replace(**constants)
    gap = phase.v_off - phase.v_limit
    return phase._replace(
        gap=gap, v_guard=math.inf if gap > ASYMPTOTE_GUARD_V else phase.v_off,
        offset=None if phase.decay is None else phase.v_limit * (1.0 - phase.decay))


def with_phases(scenario: Scenario, phases: dict[str, Phase]) -> Scenario:
    """`scenario` on a PhaseTable of its circuit and schedule whose phases
    are `phases`, put where the table keeps the ones it compiles."""
    table = PhaseTable(scenario.circuit, scenario.schedule)
    vars(table)["phases"] = phases
    fields = {field.name: getattr(scenario, field.name) for field in dataclasses.fields(scenario)}
    return seeded_scenario(fields, {"table": table})


def voltage_after_norton(circuit, state, v0: float, t: float) -> float:
    """The ideal capacitor's voltage after t in `state`, from the Norton form.

    Independent of caplora.energy's closed form: the harvester is a current
    source I = E / r_i with r_i in parallel with the load, so the capacitor
    charges toward I * R_eq with time constant R_eq * C.  Ideal parts only.
    """
    e, power = circuit.harvester.operating_voltage, circuit.harvester.harvest_power
    r_i = e * e / power
    r_load = circuit.loads.resistance(state)
    r_eq = r_load * r_i / (r_load + r_i)
    decay = math.exp(-t / (r_eq * circuit.capacitor.capacitance))
    return e / r_i * r_eq * (1.0 - decay) + v0 * decay


class PhaseWalk:
    """The walk as caplora.simulator stepped it before its phases were
    compiled: one device moving through the Phases of a phase table, with
    capacitor voltage `v`, Off flag `off` and clock `t`.  Each step calls
    the Phase's after and cross, so the compiled walk must match it bit
    for bit."""

    def __init__(self, scenario, v: float, off: bool, trace: bool):
        self.v = v
        self.off = off
        self.t = 0.0
        self.v_on = scenario.v_on
        self.points = [] if trace else None

    def record(self, t: float, state) -> None:
        points = self.points
        if points is None:
            return
        point = TracePoint(t, self.v, state)
        if points and points[-1].time == t and points[-1].device_state is not DeviceState.OFF:
            points[-1] = point  # zero-duration phase; keep the outcome
        else:
            points.append(point)  # a turn-off stays even when the device wakes at once

    def phase(self, phase) -> bool:
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

    def ready(self, t_to: float, off, sleep) -> bool:
        """Move through Off-charging / wake / Sleep up to time t_to; whether an uplink
        can start then (not while the last cycle holds the radio, nor while Off)."""
        t_from = self.t
        if t_from > t_to:
            return False
        self.t = t_to
        if t_to == t_from:
            return not self.off
        if self.off:
            v, v_on = self.v, self.v_on
            if v < v_on:
                t_wake = off.cross(v, v_on)
                if t_from + t_wake > t_to:
                    self.v = off.after(v, t_to - t_from)
                    return False
                self.v = v_on
                t_from += t_wake
            self.off = False
            self.record(t_from, DeviceState.SLEEP)
        self.v = sleep.after(self.v, t_to - t_from)
        return True


def _dense_classes(p: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Closed classes, each sorted, and the sorted transient states of the
    dense matrix `p`, from the boolean transitive closure."""
    n = p.shape[0]
    reach = (p > 0) | np.eye(n, dtype=bool)
    while True:
        # Path counts as floats: whole and below 2**53, so exact, and BLAS multiplies them.
        wider = (reach.astype(float) @ reach.astype(float)) > 0
        if (wider == reach).all():
            break
        reach = wider
    # Recurrent: every state reachable from i reaches i back.
    recurrent = np.array([not (reach[i] & ~reach[:, i]).any() for i in range(n)])
    classes = []
    seen = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(recurrent):
        if not seen[i]:
            members = np.flatnonzero(reach[i] & reach[:, i])
            seen[members] = True
            classes.append(members)
    return classes, np.flatnonzero(~recurrent)


def stationary_oracle(p: np.ndarray, start: int) -> np.ndarray:
    """Dense reference for the chain's long-run distribution from `start`.

    Independent of caplora.markov: closed classes come from the boolean
    transitive closure, each class's vector is its eigenvector for
    eigenvalue 1, and classes are weighted by absorption probabilities
    from a least-squares solve on the transient block.
    """
    n = p.shape[0]
    classes, transient = _dense_classes(p)
    if start not in transient:
        weights = [1.0 if start in members else 0.0 for members in classes]
    else:
        lhs = np.eye(len(transient)) - p[np.ix_(transient, transient)]
        into = np.column_stack([p[np.ix_(transient, members)].sum(axis=1)
                                for members in classes])
        absorb = np.linalg.lstsq(lhs, into, rcond=None)[0]
        weights = absorb[np.flatnonzero(transient == start)[0]]
    pi = np.zeros(n)
    for members, weight in zip(classes, weights):
        values, vectors = np.linalg.eig(p[np.ix_(members, members)].T)
        vector = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
        pi[members] += weight * vector / vector.sum()
    return pi


def dense_matrix(tm) -> np.ndarray:
    """The dense matrix of a caplora.markov.TransitionMatrix over its
    reachable states, from one scatter of its rows."""
    n = len(tm.states)
    matrix = np.zeros((n, n))
    matrix[np.repeat(np.arange(n), [len(cols) for cols in tm.successors]),
           [j for cols in tm.successors for j in cols]] = \
        [p for row in tm.probabilities for p in row]
    return matrix


def reference_stationary(p: np.ndarray, start: int) -> np.ndarray:
    """The stationary solve as caplora.markov once ran it on the dense
    matrix `p`: what stationary_distribution must return bit for bit on a
    chain that is not a lone cycle, and within 2 ulp on one.

    Each closed class's block p[ix_(C, C)] solves pi (P_C - I) = 0 with the
    last balance equation replaced by sum(pi) = 1.  A start in a class, or
    a lone class, takes weight 1; otherwise each class is weighed by the
    visits to the transient states, from one solve on I - Q, times their
    steps into it.  The weighed vectors are normalized once more.
    """
    classes, transient = _dense_classes(p)
    home = [members for members in classes if start in members]
    if home or len(classes) == 1:
        classes, weights = home or classes, [1.0]
    else:
        lhs = np.eye(len(transient)) - p[np.ix_(transient, transient)]
        visits = np.linalg.solve(lhs.T, (transient == start).astype(float))
        weights = [visits @ p[np.ix_(transient, members)].sum(axis=1) for members in classes]
    pi = np.zeros(len(p))
    for members, weight in zip(classes, weights):
        k = len(members)
        a = p[np.ix_(members, members)].T - np.eye(k)
        a[-1, :] = 1.0
        b = np.zeros(k)
        b[-1] = 1.0
        vector = np.clip(np.linalg.solve(a, b), 0.0, None)
        pi[members] += weight * (vector / vector.sum())
    return pi / pi.sum()


def exact_stationary(tm, members) -> list[Fraction]:
    """The stationary vector of the closed class `members` of the chain
    `tm`, in rational arithmetic: each float of its rows is converted
    exactly, and nothing rounds.

    The rows are read as rates: each state's off-diagonal entries, its
    diagonal minus their sum, as a stationary solver that never reads the
    diagonal sees them (for rows that sum to one, the same chain).  With
    pi = 1 at the first member and its balance equation dropped, sparse
    Gaussian elimination solves the others' balance equations,
    sum_i pi_i Q(i, j) = 0, pivoting on the diagonal from the last member
    to the first (an irreducible generator's Schur complements keep it
    nonzero), and the result is normalized.
    """
    root, rest = members[0], members[1:]
    # Equation j: {i: Q(i, j)} over the unknowns, and "rhs": -Q(root, j).
    equations = {j: {"rhs": Fraction(0)} for j in rest}
    for i in members:
        exits = Fraction(0)
        for j, p in zip(tm.successors[i], tm.probabilities[i]):
            if j != i:
                exits += Fraction(p)
                if j == root:
                    continue
                if i == root:
                    equations[j]["rhs"] -= Fraction(p)
                else:
                    equations[j][i] = equations[j].get(i, 0) + Fraction(p)
        if i != root:
            equations[i][i] = equations[i].get(i, 0) - exits
    order = rest[::-1]
    for n, v in enumerate(order):
        pivot = equations[v]
        for u in order[n + 1:]:
            factor = equations[u].pop(v, 0)
            if factor:
                factor /= pivot[v]
                for w, a in pivot.items():
                    if w != v:
                        equations[u][w] = equations[u].get(w, 0) - factor * a
    pi = {root: Fraction(1)}
    for v in reversed(order):
        pivot = equations[v]
        pi[v] = (pivot["rhs"] - sum(a * pi[w] for w, a in pivot.items()
                                    if w not in ("rhs", v))) / pivot[v]
    total = sum(pi.values())
    return [pi[i] / total for i in members]


def rk4_capacitor(e, r_i, r_load, esr, epr, c, v0, t, steps: int = 4000):
    """Fine-step RK4 integration of the harvester-load-capacitor network.

    Independent of caplora.energy: it solves Kirchhoff's current law at the
    load node at every stage instead of using any closed form.  A source e
    behind r_i and the load r_load meet the capacitor branch, ESR in series
    with the capacitance c and its leakage epr across the plates.  All
    arguments broadcast; returns the capacitor and load voltages at t.
    """
    e, r_i, r_load, esr, epr, c, v, t = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (e, r_i, r_load, esr, epr, c, v0, t)))

    def load(v_c):
        # Node voltage with the ESR conductance multiplied through, so ESR = 0 is exact.
        return ((e * r_load * esr + v_c * r_i * r_load)
                / (r_load * esr + r_i * esr + r_i * r_load))

    def slope(v_c):
        v_l = load(v_c)
        return ((e - v_l) / r_i - v_l / r_load - v_c / epr) / c

    h = t / steps
    for _ in range(steps):
        k1 = slope(v)
        k2 = slope(v + 0.5 * h * k1)
        k3 = slope(v + 0.5 * h * k2)
        k4 = slope(v + h * k3)
        v = v + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v, load(v)


def reference_step(scenario, g: int, phase, level: int, *t) -> int:
    """One step of the chain's level map by Phase.after: the end level of
    `phase` entered at `level` (a recharge phase after t), rounded and
    clipped to [0, level(E)]."""
    v_max = round(scenario.circuit.operating_voltage * g)
    return min(max(round(phase.after(level / g, *t) * g), 0), v_max)


def reference_thresholds(scenario, g: int):
    """The chain's decision levels, found by scanning the phases, apart from
    caplora.markov: the levels of v_min, the wake target, E and each
    state's v_off (`v_off`, by DeviceState), and the least level in [v_min,
    v_max] from which the uplink (`v_tx`) and each window's packet
    (`v_rx1`, `v_rx2`) end above the level of their v_off; v_max + 1 for
    a packet no level survives.  A bisection over reference_step, which is
    monotone in the level.  Raises InfeasibleScenario when no level funds
    the uplink."""
    from types import SimpleNamespace

    from caplora.errors import InfeasibleScenario

    circuit, phases, step = scenario.circuit, scenario.phases, partial(reference_step, scenario, g)
    v_min, v_max = round(circuit.v_min * g), round(circuit.operating_voltage * g)
    v_off = {phase.state: round(phase.v_off * g) for phase in phases.values()}

    def least_surviving(phase):
        lo, hi = v_min, v_max + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if step(phase, mid) > v_off[phase.state]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    v_tx, v_rx1, v_rx2 = (least_surviving(phases[slot]) for slot in ("tx", "rx1", "rx2"))
    if v_tx > v_max:
        raise InfeasibleScenario("no level funds a transmission")
    return SimpleNamespace(v_min=v_min, v_on=round(scenario.v_on * g), v_tx=v_tx, v_rx1=v_rx1,
                           v_rx2=v_rx2, v_max=v_max, v_off=v_off)


def reference_chain(scenario, g: int):
    """Reference build of the Markov chain: what caplora.markov's
    build_transition_matrix must return, bit for bit.

    Independent of caplora.markov's compiled level map.  Every voltage
    step is one Phase.after call at level / g, rounded and clipped to
    [0, v_max]; every sleep-out sums its own elapsed time; the search keeps
    each row as a dict and numbers the successors in a second pass.  The
    rules are the chain's: turn-offs recharge from the state's v_off level
    (from the level itself when entered below it), window 2 opens only
    after a silent window 1, and a window's reward is its branch's odds on
    the rows whose detected branch survives listening and its packet,
    where the packet starts at or above reference_thresholds' v_rx of
    its window.  Returns states, successors, rewards, the dense matrix,
    `step` and `ends`, each sleep-out branch's elapsed time.
    """
    from types import SimpleNamespace

    from caplora.energy import wake_time

    phases, step = scenario.phases, partial(reference_step, scenario, g)
    m, p1, p2 = scenario.interval_m, scenario.p1, scenario.p2
    thr = reference_thresholds(scenario, g)
    v_on, v_off, v_tx, v_rx1, v_rx2 = thr.v_on, thr.v_off, thr.v_tx, thr.v_rx1, thr.v_rx2
    tx, idle1, listen1, rx1, idle2, listen2, rx2, off, sleep = (phases[slot] for slot in (
        "tx", "idle1", "listen1", "rx1", "idle2", "listen2", "rx2", "off", "sleep"))
    ends = {}

    def wake(v):
        return wake_time(off, v, scenario.v_on)

    def sleep_kind(level):
        return "SL1" if level >= v_tx else "SL0"

    def to_sleep(branch, level, elapsed):
        ends[branch] = elapsed
        nxt = step(sleep, level, m - elapsed)
        return (sleep_kind(nxt), nxt)

    def recharge(level, t_wake, remaining):
        if t_wake >= remaining:
            return ("OFF", min(step(off, level, remaining), v_on - 1))
        nxt = step(sleep, max(level, v_on), remaining - t_wake)
        return (sleep_kind(nxt), nxt)

    def die(phase, level, t_base, t_lead=0.0):
        if level < v_off[phase.state]:
            t, off_level, t_wake = 0.0, level, wake(level / g)
        else:
            t = min(phase.cross(level / g), phase.duration)
            off_level, t_wake = v_off[phase.state], wake(phase.v_off)
        return recharge(off_level, t_wake, m - (t_base + (t_lead + t)))

    def row(kind, level):
        dests = {}

        def add(dest, prob):
            if prob > 0.0:
                dests[dest] = dests.get(dest, 0.0) + prob

        def window(listen, rx, v_rx, level, t, p, reach, branch):
            end = step(listen, level)
            died = end <= v_off[listen.state]
            detected, silent = reach * p, reach * (1.0 - p)
            received = False
            if detected > 0.0:
                if died:
                    add(die(listen, level, t), detected)
                elif end >= v_rx:
                    add(to_sleep(branch, step(rx, end), t + listen.duration + rx.duration),
                        detected)
                    received = True
                else:
                    add(die(rx, end, t, listen.duration), detected)
            if died and silent > 0.0:
                add(die(listen, level, t), silent)
            return end, died, received

        if kind == "OFF":
            add(recharge(level, wake(level / g), m), 1.0)
            return dests, (1.0, 0.0, 0.0)
        if kind == "SL0":
            add(die(tx, level, 0.0), 1.0)
            return dests, (1.0, 0.0, 0.0)
        v1 = step(idle1, step(tx, level))
        t_win1 = tx.duration + idle1.duration
        w1, died, got1 = window(listen1, rx1, v_rx1, v1, t_win1, p1, 1.0, "rx1")
        v2 = step(idle2, w1)
        t_win2 = t_win1 + listen1.duration + idle2.duration
        silent = 0.0 if died else 1.0 - p1
        w2, died, got2 = window(listen2, rx2, v_rx2, v2, t_win2, p2, silent, "rx2")
        quiet = silent * (1.0 - p2)
        if not died and quiet > 0.0:
            add(to_sleep("silent", w2, t_win2 + listen2.duration), quiet)
        return dests, (0.0, p1 if got1 else 0.0, (1.0 - p1) * p2 if got2 else 0.0)

    states, index, rows, rewards = [("OFF", thr.v_min)], {("OFF", thr.v_min): 0}, [], []
    frontier = 0
    while frontier < len(states):
        dests, reward = row(*states[frontier])
        rows.append(dests)
        rewards.append(reward)
        for dest in dests:
            if dest not in index:
                index[dest] = len(states)
                states.append(dest)
        frontier += 1
    successors = tuple(tuple(index[dest] for dest in dests) for dests in rows)
    matrix = np.zeros((len(states), len(states)))
    for i, dests in enumerate(rows):
        for dest, prob in dests.items():
            matrix[i, index[dest]] = prob
    return SimpleNamespace(states=tuple(states), successors=successors, rewards=tuple(rewards),
                           matrix=matrix, step=step, ends=ends)


# -- the chain build before it became one pass --------------------------------
# caplora.markov's row builder, search and closed-class search as they ran
# before the build keyed states by whole floats, memoized its turn-offs and
# shared its constants per grid: the oracle the build and _closed_classes
# must match bit for bit.

_LOST = Rewards(lost=1.0)


class ReferenceRowBuilder:
    """The row builder as caplora.markov ran it before the build became one
    pass over float levels; one chain's rows, compiled: `row((kind,
    level))` is the state's outgoing distribution, keyed by plain (kind,
    level) tuples, and its Rewards.

    Every per-chain constant is bound once into `row`: each timed slot's
    affine (offset, decay); per reachable branch
    (Scenario.branches) the sleep-out over what is left of the interval
    after its cycle `ends`, in `sleep_out`; per turn-off phase its state's
    v_off level, the Off-state wake time from that v_off, its crossing and
    its length; and the Off and Sleep phases' `after`.  A detected branch's
    window, the last two slots of cycle.BRANCHES, sits on the fork
    path at its listening slot and opens when the slots before them end;
    times are cycle.cycle_length of the slots on the schedule the phases
    were compiled from.  The SL1 row steps the fork path's timed slots
    inline with the chain's level map, min(max(round((offset + level / g
    * decay) * g), 0), v_max), and compares levels with the thresholds of
    reference_thresholds, the decisions the build made before it tested
    survival directly.  A turn-off recharges from a level-dependent time,
    so it calls Phase.cross, Phase.after and wake_time per row; a window
    that dies listening turns off once for its detected and its silent
    mass.  The rewards are shared: one Rewards
    per set of windows whose transition receives.
    """

    def __init__(self, scenario, g: int):
        phases, schedule, m = scenario.phases, scenario.schedule, scenario.interval_m
        thr = reference_thresholds(scenario, g)
        v_max, v_on, v_tx = thr.v_max, thr.v_on, thr.v_tx
        off, wake_v = phases["off"], scenario.v_on
        off_after, sleep_after = off.after, phases["sleep"].after
        self.ends = {branch: cycle_length(schedule, BRANCHES[branch].slots)
                     for branch in scenario.branches}
        self.sleep_out = sleep_out = {branch: _affine(phases["sleep"], m - end)
                                      for branch, end in self.ends.items()}
        def turn_off(phase) -> tuple:
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
                          turn_off(listen), turn_off(rx), listen.duration, (rx.offset, rx.decay),
                          getattr(thr, f"v_{branch}"), thr.v_off[listen.state],
                          sleep_out.get(branch), bits)
                bits *= 2
            path.append((phases[slot].offset, phases[slot].decay, window))
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

        def row(state: tuple[str, int]) -> tuple[dict, Rewards]:
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


def reference_build(scenario, g: int):
    """caplora.markov.build_transition_matrix as it ran before it became one
    pass over float levels, what the build must return bit for bit: the
    chain over every state reachable from (OFF, level(v_min)).

    A breadth-first search numbers each state as a row first emits it and
    records the row's successors and probabilities in the same pass.  Rows
    emit plain (kind, level) tuples, which hash and compare equal to
    ChainState; each state is made a ChainState once, when it is found.
    """
    row = ReferenceRowBuilder(scenario, g).row
    initial = ChainState(OFF, round(scenario.circuit.v_min * g))
    index = {initial: 0}
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
    return TransitionMatrix(states=tuple(states), successors=tuple(successors),
                            probabilities=tuple(probabilities), rewards=tuple(rewards))


def reference_closed_classes(successors):
    """caplora.markov._closed_classes as it ran before it marked finished
    states and leaking components during its search: the strongly connected
    components that no edge leaves, each sorted, in the order an iterative
    Tarjan search closes them."""
    n = len(successors)
    order, low, component = [-1] * n, [0] * n, [-1] * n
    stack: list[int] = []
    calls: list = []
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


# The SimStats counters that an on-slot adds to when its cycle takes a
# branch and turns off in a slot (None: completes), written out apart from
# caplora.cycle's branch table.  A turn-off in tx aborts the uplink; a
# detected downlink's window (its listening slot and its packet) feeds its
# window's counters, a success only when the cycle completes.
REFERENCE_TALLY = {
    **{(branch, "tx"): ("n_tx_aborted",) for branch in ("rx1", "rx2", "silent")},
    ("rx1", "idle1"): ("n_tx_success",),
    ("rx1", "listen1"): ("n_tx_success", "n_dl1_aborted"),
    ("rx1", "rx1"): ("n_tx_success", "n_dl1_aborted"),
    ("rx1", None): ("n_tx_success", "n_dl1_success"),
    **{("rx2", stop): ("n_tx_success",) for stop in ("idle1", "listen1", "idle2")},
    ("rx2", "listen2"): ("n_tx_success", "n_dl2_aborted"),
    ("rx2", "rx2"): ("n_tx_success", "n_dl2_aborted"),
    ("rx2", None): ("n_tx_success", "n_dl2_success"),
    **{("silent", stop): ("n_tx_success",)
       for stop in ("idle1", "listen1", "idle2", "listen2", None)},
}


def reference_count_tail(outcomes, remaining: int, draw, p1: float, p2: float) -> dict:
    """Reference count of a settled period-1 tail: what caplora.simulator's
    _count_tail must return for the one-step cycle (outcomes,), from the
    same generator.

    On-slots per branch over the last `remaining` slots, the first of them
    an on-slot.  When every branch adds the same counters (REFERENCE_TALLY)
    and loses the same slots, ceil(remaining / (1 + lost)) on-slots of the
    first branch and no draw.  Otherwise one draw when window 1 opens and
    one more when window 2 opens (after a silent window 1, and only when
    the quiet branch reaches it), with a dict count per on-slot.
    """
    if len({(REFERENCE_TALLY[b, stop], lost) for b, (stop, lost) in outcomes.items()}) == 1:
        branch, (_, lost) = next(iter(outcomes.items()))
        return {branch: -(-remaining // (1 + lost))}
    step = {b: 1 + lost for b, (_, lost) in outcomes.items()}
    quiet = "silent" if "silent" in step else "rx2"
    opens2 = outcomes[quiet][0] in (None, "listen2", "rx2")
    counts = dict.fromkeys(step, 0)
    k = 0
    while k < remaining:
        if draw() < p1:
            branch = "rx1"
        elif opens2 and draw() < p2:
            branch = "rx2"
        else:
            branch = quiet
        counts[branch] += 1
        k += step[branch]
    return counts
