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
level -> round(phase.after(level / g) * g).  The build binds each
chain's constants once and computes its rows inline in one
breadth-first pass (_search): a timed slot steps
min(max(round((offset + level / g * decay) * g), 0), v_max) with the
phase's offset = v_limit * (1 - decay), and each downlink branch's final
sleep takes the decay over what its cycle leaves of the interval
(_affine).  These are Phase.after's float operations in its order, so
the map is bit-identical to calling the phases; only the turn-off paths,
whose recharge time depends on the level, call the phases per level,
and each chain turns off from each (slot, level) once.  Turn-off levels
are the phases' v_off, the wake time is the Off phase's crossing to the
scenario's wake target Scenario.v_on.  What depends only on the phase
table and g (_Quantized: the v_min and v_max levels, the branches'
cycle and window times and each turn-off slot's constants) is built
once and kept on the table (Scenario.table), so the chains of every
scenario on it share it, whatever their thresholds.

The chain has one survival rule: a timed phase turns the device off
where its end level sits at or below the level of its own v_off.  An
awake state steps the uplink once: where it turns off the state is SL0,
else SL1, and the fork path goes on from the uplink's end.  Within SL1
the downlink branches read the branch table the event simulator walks,
cycle.BRANCHES: their slots, and the SL1 fork path and the branch odds
derived from it (cycle.PATH, Scenario.branch_odds).  A window
always costs its preamble at the listening load, a detected downlink
additionally costs the packet airtime at the receiving load, and any
brush with the turn-off voltage lands the device Off at the dying
state's v_off, recharging for whatever remains of the interval.
Scenario keeps the interval above cycle.min_interval_bound, which
covers each reachable branch, so every branch's cycle ends within it.
The build also records each state's Rewards, and every delivery metric
is pi . r: a window's downlink counts on the transition that survives
listening and its packet and sleeps.

Inside the build a level is a whole float, not an int: levels and g lie
below 2**53, so level / g and x * g are the int arithmetic's floats, and
x + 2**52 - 2**52 rounds a step's x >= 0 half to even, as round(x) does,
without making an int (from 2**52 up every float is whole already).  The
search keys each state by one such float, -1 - level for OFF and the
level itself awake, records each row's kind as it computes it, and
makes each state a ChainState, with an int level, once, at the end.

The chain is built only over states reachable from (OFF, level(v_min)),
which keeps it small, and is kept as its rows: each state's successors
and their probabilities.  Its closed classes are found once per chain
(TransitionMatrix.closed_classes), by a Tarjan search.  When the start
reaches one closed class and every state of it carries the same Rewards
r, every metric pi . r is r whatever pi is, since pi sums to one on the
class (Kemeny and Snell, Finite Markov Chains, 1960): long_run_metrics
reads r and forms no pi.  Any other chain takes its stationary vector
from the rows by Grassmann-Taksar-Heyman state reduction (GTH;
Operations Research 33, 1985), which never subtracts, so each entry of
pi is accurate relative to itself (O'Cinneide, Numer. Math. 65, 1993); a
cycle comes out as exactly 1/L.
A start that reaches several closed classes weighs each by the
probability of being absorbed into it, from the same elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .cycle import BRANCHES, PATH, Scenario, cycle_length
from .energy import Phase, wake_time
from .errors import InfeasibleScenario, ScenarioError

OFF, SL0, SL1 = "OFF", "SL0", "SL1"


class ChainState(NamedTuple):
    kind: str
    level: int


def level_of(v: float, g: int) -> int:
    """round-to-nearest voltage level (ties to even, Python round)."""
    return round(v * g)


def check_granularity(g: int, e: float) -> int:
    """The level of the operating voltage e, for a whole g >= 1 (not a bool)
    that keeps it an exact float: past 2**53 levels stop being whole floats."""
    if not isinstance(g, int) or isinstance(g, bool) or g < 1:
        raise ScenarioError(f"granularity must be an integer >= 1, got {g!r}")
    if level_of(e, g) > 2**53:
        raise ScenarioError(f"granularity {g} puts the level of {e} V past 2**53")
    return level_of(e, g)


def _affine(phase: Phase, t: float) -> tuple[float, float]:
    """A recharge phase's level map over the elapsed t as (offset, decay):
    v -> offset + v * decay, offset = v_limit * (1 - decay), the float
    operations of Phase.after(v, t).  A timed phase carries its own."""
    decay = math.exp(-t / phase.tau)
    return phase.v_limit * (1.0 - decay), decay


class _Quantized:
    """One phase table at g levels per volt: what every chain on it shares,
    whatever its threshold, interval and odds.

    That is the levels of the turn-off and the operating voltage, `v_min`
    and `v_max`; each detected branch's window on the fork path, its
    listening slot and its packet (the last two of its slots), in
    `windows`; each branch's cycle length in `ends` and each window's
    opening time in `opens`, cycle.cycle_length of its slots; and, per
    slot a device can turn off in (the uplink and each window's two), its
    state's v_off level, that v_off, the phase's crossing and its length,
    in `turn_offs`.  Nothing here reads the wake target.  The scenario's
    PhaseTable keeps one per g for _search.  Raises InfeasibleScenario
    when the uplink from v_max turns off: then no level can fund it.
    """

    def __init__(self, scenario: Scenario, g: int):
        circuit, phases = scenario.circuit, scenario.phases
        self.v_max = v_max = check_granularity(g, circuit.operating_voltage)
        self.v_min = level_of(circuit.v_min, g)
        self.windows = windows = {branch: BRANCHES[branch].slots[-2:] for _, branch in PATH
                                  if branch}
        self.turn_offs = turn_offs = {}
        for slot in ("tx", *chain.from_iterable(windows.values())):
            phase = phases[slot]
            turn_offs[slot] = (level_of(phase.v_off, g), phase.v_off, phase.cross, phase.duration)
        tx = phases["tx"]
        if round((tx.offset + v_max / g * tx.decay) * g) <= turn_offs["tx"][0]:
            raise InfeasibleScenario(
                f"no voltage level up to {circuit.operating_voltage} V can fund a "
                f"{tx.duration * 1e3:.1f} ms transmission with C = "
                f"{circuit.capacitor.capacitance * 1e3:.3g} mF"
            )
        schedule = scenario.schedule
        self.ends = {branch: cycle_length(schedule, spec.slots)
                     for branch, spec in BRANCHES.items()}
        self.opens = {branch: cycle_length(schedule, BRANCHES[branch].slots[:-2])
                      for branch in windows}


class Rewards(NamedTuple):
    """What one visit to a state delivers, per metric; the chain's metrics
    are the stationary expectations of these."""

    lost: float = 0.0   # 1 for OFF and SL0: the uplink is lost or aborted
    pdl1: float = 0.0   # q_rx1 if the rx1 branch's transition receives, else 0
    pdl2: float = 0.0   # q_rx2 likewise; q_b is Scenario.branch_odds


_LOST = Rewards(lost=1.0)
_CERTAIN = (1.0,)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the reachable chain states.

    `successors` holds each row's destinations in the order the build
    emits them, `probabilities` their probabilities in the same
    order, and `rewards` each state's rewards, all in state order.
    `closed_classes` is _closed_classes of the rows, found on first read
    and kept.
    """

    states: tuple[ChainState, ...]
    successors: tuple[tuple[int, ...], ...]
    probabilities: tuple[tuple[float, ...], ...]
    rewards: tuple[Rewards, ...]

    @cached_property
    def closed_classes(self) -> list[list[int]]:
        return _closed_classes(self.successors)

    def coordinate_lines(self) -> Iterable[str]:
        """Debug dump: one 'src_kind,src_level,dst_kind,dst_level,prob' per entry."""
        for src, row, probs in zip(self.states, self.successors, self.probabilities):
            for j, p in zip(row, probs):
                dst = self.states[j]
                yield f"{src.kind},{src.level},{dst.kind},{dst.level},{p:.12g}"


# From 2**52 up every float is a whole number, so below it x + _WHOLE - _WHOLE
# rounds a float x >= 0 half to even, as round(x) does (see the module docstring).
_WHOLE = 2.0 ** 52


def build_transition_matrix(scenario: Scenario, g: int) -> TransitionMatrix:
    """Build the chain over every state reachable from (OFF, level(v_min))."""
    return _search(scenario, g)


def _search(scenario: Scenario, g: int, start: ChainState | None = None) -> TransitionMatrix:
    """The chain over every state reachable from `start`, by default
    (OFF, level(v_min)), in one breadth-first pass.

    The search numbers each state as a row first emits it, computes the
    row inline and records its successors, probabilities and kind in the
    same pass.  Keys and levels are whole floats (see the module
    docstring); a step's x = (offset + level / g * decay) * g sums
    nonnegative terms, so x >= 0 and only v_max can clip it.
    """
    phases, m, wake_v = scenario.phases, scenario.interval_m, scenario.v_on
    # The first chain on the table at g quantizes it for all.
    quantized = scenario.table.quantized
    table = quantized.get(g)
    if table is None:
        table = quantized[g] = _Quantized(scenario, g)
    turn_offs = table.turn_offs
    # Levels and g as floats: below 2**53 both convert exactly, so level / g
    # and x * g are the int arithmetic's floats.
    v_on = float(level_of(wake_v, g))
    g, v_max = float(g), float(table.v_max)
    whole, off, sleep = _WHOLE, phases["off"], phases["sleep"]
    off_limit, off_tau, sleep_limit, sleep_tau = off.v_limit, off.tau, sleep.v_limit, sleep.tau

    def recharge(level: float, t_wake: float, remaining: float) -> float:
        """Charge Off from `level`, wake after t_wake, sleep out `remaining`
        (_affine's map at that time): the destination's key."""
        if t_wake >= remaining:
            decay = math.exp(-remaining / off_tau)
            x = (off_limit * (1.0 - decay) + level / g * decay) * g
            nxt = x if x >= whole else x + whole - whole
            nxt = v_max if nxt > v_max else nxt
            return -1.0 - (nxt if nxt < v_on else v_on - 1.0)
        decay = math.exp(-(remaining - t_wake) / sleep_tau)
        x = (sleep_limit * (1.0 - decay) + (level if level > v_on else v_on) / g * decay) * g
        nxt = x if x >= whole else x + whole - whole
        return v_max if nxt > v_max else nxt

    def dying(slot: str, t_base: float, t_lead: float = 0.0) -> Callable[[float], float]:
        """Turn-offs in the timed slot entered at t_base + t_lead, each
        level's once: die(level) turns off from `level` and recharges for
        the rest of the interval.

        The device turns off at the continuous v_off crossing, capped at
        the phase length (the cap covers quantization edges where the
        rounded end level says "died" but the trajectory grazes just above
        v_off), and the capacitor stays at v_off, from which the Off state
        charges to the wake target in t_wake (inf if unreachable).  A
        phase entered below the level of v_off turns off at once, with the
        capacitor where it was.
        """
        off_level, v_off, cross, duration = turn_offs[slot]
        t_wake = wake_time(off, v_off, wake_v)
        memo: dict[float, float] = {}

        def die(level: float) -> float:
            dest = memo.get(level)
            if dest is None:
                if level < off_level:
                    dest = recharge(level, wake_time(off, level / g, wake_v),
                                    m - (t_base + (t_lead + 0.0)))
                else:
                    t = cross(level / g)
                    dest = recharge(off_level, t_wake,
                                    m - (t_base + (t_lead + (duration if duration < t else t))))
                memo[level] = dest
            return dest
        return die

    # (offset, decay, window) per slot of the fork path after the uplink; a
    # window is (p, 1 - p, listening's v_off level and die, the packet's
    # offset, decay, v_off level and die, the branch's sleep-out offset and
    # decay, its bit in the set of receiving windows).  A branch no cycle
    # takes (p = 0, or an earlier window certain) gets no mass, and a NaN
    # sleep-out that no row reads.
    sleep_out = {branch: _affine(sleep, m - table.ends[branch]) for branch in scenario.branches}
    (tx_slot, _), *fork = PATH
    path, bits = [], 1
    for slot, branch in fork:
        window = None
        if branch is not None:
            listen, rx = table.windows[branch]
            p, t = getattr(scenario, BRANCHES[branch].odds), table.opens[branch]
            window = (p, 1.0 - p, float(turn_offs[listen][0]), dying(listen, t),
                      phases[rx].offset, phases[rx].decay, float(turn_offs[rx][0]),
                      dying(rx, t, phases[listen].duration),
                      *sleep_out.get(branch, (math.nan, math.nan)), bits)
            bits *= 2
        path.append((phases[slot].offset, phases[slot].decay, window))
    tx = phases[tx_slot]
    tx_offset, tx_decay, tx_off = tx.offset, tx.decay, float(turn_offs[tx_slot][0])
    die_tx = dying(tx_slot, 0.0)
    quiet_offset, quiet_decay = sleep_out.get("silent", (math.nan, math.nan))
    q1, q2 = (scenario.branch_odds[b][0] for _, b in PATH if b)
    rewarded = [Rewards(0.0, q1 if r & 1 else 0.0, q2 if r & 2 else 0.0) for r in range(bits)]

    if start is None:
        start = ChainState(OFF, table.v_min)
    keys = [-1.0 - start.level if start.kind == OFF else float(start.level)]
    index = {keys[0]: 0}
    kinds: list[str] = []
    successors: list[tuple[int, ...]] = []
    probabilities: list[tuple[float, ...]] = []
    rewards: list[Rewards] = []
    for key in keys:    # the list grows as rows emit new states
        if key < 0.0:   # OFF
            kinds.append(OFF)
            level = -1.0 - key
            dest = recharge(level, wake_time(off, level / g, wake_v), m)
        else:
            # Awake: the uplink starts, and turns the device off where its end
            # level sits at or below the level of its v_off.
            x = (tx_offset + key / g * tx_decay) * g
            level = x if x >= whole else x + whole - whole
            if level > v_max:
                level = v_max
            if level <= tx_off:   # SL0: the uplink runs out of energy mid-air
                kinds.append(SL0)
                dest = die_tx(key)
            else:
                # SL1: the uplink completes, then the fork path's receive
                # windows.  A window, reached with probability `reach`, opens
                # only when the earlier ones stayed silent and the device is
                # still on.  It adds its detected branch, and the silent one if
                # the device dies listening; the detected branch whose packet
                # survives sleeps out its cycle and receives.
                kinds.append(SL1)
                dests: dict[float, float] = {}
                reach, received = 1.0, 0
                for offset, decay, window in path:
                    x = (offset + level / g * decay) * g
                    end = x if x >= whole else x + whole - whole
                    if end > v_max:
                        end = v_max
                    if window is not None:
                        (p, miss, listen_off, die_listen, rx_offset, rx_decay, rx_off, die_rx,
                         out_offset, out_decay, bit) = window
                        detected, reach = reach * p, reach * miss
                        if end <= listen_off:   # died listening
                            if detected > 0.0 or reach > 0.0:
                                dest = die_listen(level)
                                if detected > 0.0:
                                    dests[dest] = dests.get(dest, 0.0) + detected
                                if reach > 0.0:
                                    dests[dest] = dests.get(dest, 0.0) + reach
                            reach = 0.0
                        elif detected > 0.0:
                            x = (rx_offset + end / g * rx_decay) * g
                            nxt = x if x >= whole else x + whole - whole
                            if nxt > v_max:
                                nxt = v_max
                            if nxt > rx_off:   # received: sleep out the branch's cycle
                                x = (out_offset + nxt / g * out_decay) * g
                                dest = x if x >= whole else x + whole - whole
                                if dest > v_max:
                                    dest = v_max
                                received |= bit
                            else:
                                dest = die_rx(end)
                            dests[dest] = dests.get(dest, 0.0) + detected
                    level = end
                if reach > 0.0:
                    x = (quiet_offset + level / g * quiet_decay) * g
                    dest = x if x >= whole else x + whole - whole
                    if dest > v_max:
                        dest = v_max
                    dests[dest] = dests.get(dest, 0.0) + reach
                cols = []
                for dest in dests:
                    j = index.get(dest)
                    if j is None:
                        j = index[dest] = len(keys)
                        keys.append(dest)
                    cols.append(j)
                successors.append(tuple(cols))
                probabilities.append(tuple(dests.values()))
                rewards.append(rewarded[received])
                continue
        j = index.get(dest)
        if j is None:
            j = index[dest] = len(keys)
            keys.append(dest)
        successors.append((j,))
        probabilities.append(_CERTAIN)
        rewards.append(_LOST)
    make = tuple.__new__   # ChainState(kind, level) without the namedtuple's Python frame
    states = tuple([make(ChainState, (kind, int(-1.0 - key) if kind is OFF else int(key)))
                    for kind, key in zip(kinds, keys)])
    return TransitionMatrix(states=states, successors=tuple(successors),
                            probabilities=tuple(probabilities), rewards=tuple(rewards))


def _closed_classes(successors: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Closed classes, each sorted: the strongly connected components that
    no edge leaves.

    An iterative Tarjan search marks a finished state with an order past
    every number, so an edge into a finished component is skipped by the
    low-link test and flags that the component of its tail leaks; a root
    whose component leaks nothing is closed.
    """
    n = len(successors)
    done = n + 1
    order, low, leaks, at = [0] * n, [0] * n, [False] * n, [0] * n
    stack: list[int] = []
    closed: list[list[int]] = []
    count = 0
    for root in range(n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        at[root] = len(stack)
        stack.append(root)
        calls = [(root, iter(successors[root]))]
        while calls:
            v, edges = calls[-1]
            for w in edges:
                o = order[w]
                if not o:
                    count += 1
                    order[w] = low[w] = count
                    at[w] = len(stack)
                    stack.append(w)
                    calls.append((w, iter(successors[w])))
                    break
                if o < low[v]:   # on the stack: a finished state's order is `done`
                    low[v] = o
                elif o == done:
                    leaks[v] = True
            else:
                calls.pop()
                if low[v] == order[v]:
                    members = stack[at[v]:]
                    del stack[at[v]:]
                    for w in members:
                        order[w] = done
                    if not leaks[v]:
                        closed.append(sorted(members))
                    if calls:
                        leaks[calls[-1][0]] = True
                elif calls:
                    u = calls[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if leaks[v]:
                        leaks[u] = True
    return closed


def _eliminate(rows: dict[int, dict[int, float]], keep: set[int]
               ) -> list[tuple[int, float, list[tuple[int, float]]]]:
    """Censor the chain `rows` on `keep` and its sinks by Grassmann-Taksar-
    Heyman state reduction: it adds, multiplies and divides, never subtracts.

    `rows` maps each state to its successors' probabilities; a successor
    without a row is a sink.  Eliminating k routes each predecessor's entry
    over k's row less its self-loop, whose sum is s_k: P(i, j) += P(i, k) *
    P(k, j) / s_k; an s_k of 0.0 (products of odds underflowed) routes
    nothing.  The next k has the fewest predecessors times successors
    (Markowitz's rule), from a heap whose stale counts are skipped.
    Returns each k, in order, with s_k and its predecessors' entries.
    """
    into: dict[int, set[int]] = {i: set() for i in rows}
    for i, row in rows.items():
        for j in row:
            into.setdefault(j, set()).add(i)
    counts = {k: len(into[k]) * len(row) for k, row in rows.items() if k not in keep}
    heap = [(count, k) for k, count in counts.items()]
    heapify(heap)
    steps = []
    while heap:
        count, k = heappop(heap)
        if counts.get(k) != count:   # eliminated, or a stale count
            continue
        del counts[k]
        row = rows.pop(k)
        row.pop(k, None)
        preds = into.pop(k) - {k}
        entries = [(i, rows[i].pop(k)) for i in preds]
        exits = sum(row.values())
        for j in row:
            into[j].discard(k)
            if exits > 0.0:
                into[j] |= preds
        if exits > 0.0:
            scaled = [(j, p / exits) for j, p in row.items()]
            for i, p_ik in entries:
                row_i = rows[i]
                for j, p in scaled:
                    row_i[j] = row_i.get(j, 0.0) + p_ik * p
        for t in chain(preds, row):
            if t in counts and counts[t] != (count := len(into[t]) * len(rows[t])):
                counts[t] = count
                heappush(heap, (count, t))
        steps.append((k, exits, entries))
    return steps


def _class_stationary(tm: TransitionMatrix, members: list[int]) -> list[float]:
    """Stationary vector of the closed class `members` by GTH: eliminate
    every state but the first, which takes mass 1, give each eliminated k,
    in reverse, sum_i pi_i P(i, k) / s_k, and normalize; a cycle comes out
    as exactly 1/L.  Masses past 2**64 are rescaled, so no sum overflows.
    A mass that overflows, or whose s_k underflowed to 0.0, outweighs the
    states k was eliminated from past the float range: k holds the mass of
    the chain censored at it, and they keep 0.0."""
    rows = {i: dict(zip(tm.successors[i], tm.probabilities[i])) for i in members}
    pi = {members[0]: 1.0}
    for k, exits, entries in reversed(_eliminate(rows, {members[0]})):
        mass = sum([pi[i] * p for i, p in entries]) / exits if exits > 0.0 else math.inf
        if mass > 2.0 ** 64:
            pi = {i: p / mass for i, p in pi.items()}
            mass = 1.0
        pi[k] = mass
    total = sum(pi.values())
    return [pi[i] / total for i in members]


def stationary_distribution(tm: TransitionMatrix) -> list[float]:
    """Long-run (Cesaro-limit) state distribution observed from the chain's
    start, state 0, in state order, periodic and deterministic chains
    alike: each closed class it reaches gets its GTH vector, weighed, when
    the start is transient and two or more classes are closed, by the odds
    of absorption into it, which eliminating the other transient states
    leaves in the start's row.  The classes are sorted, so the start lies
    in a class only as its first member, the rule long_run_metrics reads.
    long_run_metrics calls this only for a chain whose reached class
    carries two or more Rewards, or that reaches two or more classes."""
    classes = tm.closed_classes
    home = [members for members in classes if members[0] == 0]
    if home or len(classes) == 1:
        classes, weights = home or classes, [1.0]
    else:
        closed = set(chain.from_iterable(classes))
        rows = {i: dict(zip(tm.successors[i], tm.probabilities[i]))
                for i in range(len(tm.states)) if i not in closed}
        _eliminate(rows, {0})
        weights = [sum(rows[0].get(i, 0.0) for i in members) for members in classes]
        weights = [weight / sum(weights) for weight in weights]
    pi = [0.0] * len(tm.states)
    for members, weight in zip(classes, weights):
        for i, p in zip(members, _class_stationary(tm, members)):
            pi[i] = weight * p
    return pi


@dataclass(frozen=True)
class ChainResult:
    """The three delivery metrics of the chain `tm`, and its states.

    pi, the long-run distribution in state order, is
    stationary_distribution(tm): the vector the metrics were summed from,
    or, where long_run_metrics read them off a one-Rewards class, formed
    on first read by GTH.  Either way it is kept, the same list on every read.
    """

    states: tuple[ChainState, ...]
    pdr: float
    pdl1: float
    pdl2: float
    tm: TransitionMatrix = field(repr=False, compare=False)

    @cached_property
    def pi(self) -> list[float]:
        return stationary_distribution(self.tm)


def chain_metrics(pi: list[float], tm: TransitionMatrix) -> ChainResult:
    """Delivery metrics from a stationary vector: pi . r over the builder's
    Rewards, summed left to right in state order; pdr is one minus the lost
    mass, each pdl the mass whose transition receives, times the branch odds."""
    lost = pdl1 = pdl2 = 0.0
    for p, (r_lost, r_pdl1, r_pdl2) in zip(pi, tm.rewards):
        lost += p * r_lost
        pdl1 += p * r_pdl1
        pdl2 += p * r_pdl2
    result = ChainResult(states=tm.states, pdr=1.0 - lost, pdl1=pdl1, pdl2=pdl2, tm=tm)
    vars(result)["pi"] = pi   # where cached_property keeps it: `pi` is read, not solved again
    return result


def long_run_metrics(tm: TransitionMatrix) -> ChainResult:
    """The delivery metrics of the chain `tm`, observed from its start.

    When the start reaches exactly one closed class and all its states
    carry one Rewards r, pi . r = r (pi sums to one on the class), so the
    metrics are r, pdr = 1 - r.lost, and no pi is formed.  Every other
    chain takes chain_metrics(stationary_distribution(tm), tm).  The
    classes are sorted, so the start, state 0, lies in a class only as its
    first member; a transient start in a chain with one closed class is
    absorbed into it.
    """
    classes = tm.closed_classes
    reached = [members for members in classes if members[0] == 0] or classes
    if len(reached) == 1:
        rewards = tm.rewards
        reward = rewards[reached[0][0]]
        if all(rewards[i] == reward for i in reached[0]):
            return ChainResult(states=tm.states, pdr=1.0 - reward.lost, pdl1=reward.pdl1,
                               pdl2=reward.pdl2, tm=tm)
    return chain_metrics(stationary_distribution(tm), tm)


def solve_chain(scenario: Scenario, g: int) -> ChainResult:
    """Build the chain and return long_run_metrics of it."""
    return long_run_metrics(build_transition_matrix(scenario, g))
