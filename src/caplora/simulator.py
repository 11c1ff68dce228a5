"""Event-based simulation of the intermittent Class A device.

The walk carries the capacitor voltage v_C and judges the thresholds on
the load voltage, through each state's turn-off voltage Phase.v_off and
the wake target CircuitConfig.v_on (v_min and v_sl for an ideal
capacitor).  The device starts Off at v_min and uplinks are scheduled
every `interval_m` seconds starting at t = 0.  Between cycles it charges
in Off until v_on, then sleeps.  A scheduled uplink is lost when the
device is Off (or, within float rounding of Scenario's interval bound,
still busy with the previous cycle), aborted when it turns off
mid-transmission, and successful otherwise.  A turn-off leaves the
capacitor at the phase's v_off, or where it was when the phase was
entered below that; a turn-off at or above v_on wakes the device at
once.  Every phase is advanced with the closed-form voltage expressions;
turn-off crossings are located analytically, never by time stepping.

Each scenario compiles one phase table (phase_table, cached as
Scenario.phases): the seven timed Class A phases of its schedule plus
the Off and Sleep recharge states, each an energy.Phase whose decay
factor is fixed up front, addressed by slot ('tx', 'idle1', 'listen1',
'rx1', 'idle2', 'listen2', 'rx2', 'off', 'sleep'); the Markov chain
quantizes the same table.  run_simulation and single_cycle_trace share
one walk over compiled phases; its results are bit-identical to stepping
with voltage_after and time_to_voltage, and the draw order below is
unchanged by it.

The sizing searches try many capacitances on one analytic cycle, and a
capacitance changes only each state's tau.  CycleCheck fixes everything
else of the cycle once (asymptotes, turn-off voltages, guards and
durations); a trial then forms tau = (R_eq + ESR) * C * ratio in
energy's operation order and steps each phase by the walk's rule, trace
free, so it answers exactly what single_cycle_trace answers on a circuit
rebuilt at that capacitance, with no circuit, schedule or Phase built.

Settling.  With the trace off, run_simulation stops stepping voltages
once every cycle's outcome is fixed.  Each branch of Scenario.branches
(rx1, rx2 and silent, where reachable) maps the on-slot voltage x to an
outcome (its turn-off phase or none, and the slots lost before the next
on-slot) and to the next on-slot's voltage.
Phase and Sleep maps are nondecreasing and turn-off times monotone, so
both are monotone in x on each side of v_off (where the turn-off phase
is entered) and of v_on (a turn-off at or above it wakes at once).  The
test at on-slot k takes a period p and intervals I_0 (around v_k), I_1,
..., I_{p-1}, one per on-slot of the period, each probed at its own
on-slot index (k plus the slots before it in the period).  When every
branch has one outcome at each interval's ends L - delta and U + delta,
keeps each phase boundary, turn-off level and wake instant a margin from
its threshold, and sends both ends of I_i into the next interval shrunk
by eta ([L + eta, U - eta], I_{p-1} into I_0), the outcomes are fixed
and repeat with period p.  Each interval grows by hull steps over the
images mapped into it and, at p = 1, the completing branches' fixed
points (their maps are affine).  p = 1 is tested at on-slots k = 1, 2,
4, ..., each failure doubling the slot.  A run with one reachable
branch (Scenario.branches) also keeps the _MAX_PERIOD on-slot voltages
it walked before v_k.  When v_k lands within the pad 2 * (delta + eta)
of the voltage p >= 2 on-slots back, the least such p is tested too,
from v_k and the p - 1 voltages that followed the one it returned to.
The history shows the return without a probe ahead, so that test runs
at the first on-slot where it does, and after a failure at k not before
2k; the test at k = 1, 2, 4, ... tries it as well.  delta and eta
are 2**20 and 2**10 float spacings of the voltages and instants
involved; eta covers the spread of each slot's sleep time (k+1)*M - t
at the fastest recharge rate.

From the settled on-slot on, each on-slot adds its branch's counters and
skips its branch's lost slots, and only the draws pick the branch, so
the per-slot loop stops and the rest of the run is counted from the
outcomes.  When at each on-slot of the period every reachable branch
adds the same counters and loses the same slots, the count is
arithmetic: whole periods of P = sum(1 + lost) slots, then the on-slots
of the partial period that start before n_scheduled, the other slots
lost (at p = 1, ceil(remaining / (1 + lost)) on-slots).  Otherwise
(p = 1, several branches) one tight loop takes the draws in the order
below and counts the on-slots per branch; the last cycle's lost slots
are cut off at n_scheduled.  The counters equal the full walk's.

Two downlink-cost conventions live here, mirroring how such devices are
analyzed versus simulated.  Both read one branch table, _BRANCHES, which
lists each branch's slots, the counters its window feeds and its draw's
odds; each branch's odds per on-slot (Scenario.branch_odds) and the fork
path (_PATH) that every engine walks derive from it too:

* run_simulation (and the Markov chain built on the same table) walks a
  branch's slots, so a detected downlink costs the full preamble window
  at the listening load followed by the whole packet airtime at the
  receiving load.
* single_cycle_trace and CycleCheck run the leaner analytic cycle used by
  the capacitance/interval characterization: a branch's slots with the
  detected window's listening slot dropped, so the downlink simply
  replaces it with one packet reception ('none' runs silent's slots).

Draw order of the seeded PRNG (Python's random.Random, MT19937): one
uniform draw at each fork of _PATH as its window opens, window 2's only
if window 1 detected nothing and the device is still on.
After settling, draws are taken only while an outcome depends on them:
in this order when the branches differ, not at all when they end alike
(a periodic run has one branch).
Each run owns its generator, so the draws left untaken reach nothing.

Seed-free start.  No draw is taken before the first on-slot's cycle, so
every seed of a cell reaches its first on-slot at the same voltage.  The
settle test memoizes its answer on (v, k), so run_seeds tests that start
once for all seeds.  With one reachable branch every draw passes or fails
whatever its value, so one run serves every seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Sequence

from .energy import (CircuitConfig, DeviceState, Phase, _off_time, _step, compile_phase,
                     time_constant, wake_time)
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
        bound = min_interval_bound(self.schedule, "rx2" in self.branches)
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
        for branch, spec in _BRANCHES.items():
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
_BRANCHES = {
    "rx1": _Branch(("tx", "idle1", "listen1", "rx1"), "n_dl1", "p1"),
    "rx2": _Branch(("tx", "idle1", "listen1", "idle2", "listen2", "rx2"), "n_dl2", "p2"),
    "silent": _Branch(("tx", "idle1", "listen1", "idle2", "listen2"), None, None),
}

# The fork path: silent's slots, each paired with the detected branch whose
# draw is taken as that slot opens (its listening slot), else None.
_FORKS = {len(spec.slots) - 2: branch for branch, spec in _BRANCHES.items() if spec.odds}
_PATH = tuple((slot, _FORKS.get(i)) for i, slot in enumerate(_BRANCHES["silent"].slots))


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

    def ready(self, t_to: float, off: Phase, sleep: Phase) -> bool:
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


# An outcome of one branch: the slot the device turned off in (None when the
# cycle completed) and the slots lost before the next on-slot.
Outcome = tuple[str | None, int]

# The longest period, in on-slots, of the on/off orbits the settle test looks
# for: a single-branch run keeps that many on-slot voltages before the current one.
_MAX_PERIOD = 16


def _tally(branch: str, stop: str | None) -> tuple[str, ...]:
    """The SimStats counters that one on-slot adds to when its cycle takes
    `branch` and turns off in slot `stop` (None: completes)."""
    if stop == "tx":
        return ("n_tx_aborted",)
    slots, counter, _ = _BRANCHES[branch]
    if counter is None or stop in slots[:-2]:
        return ("n_tx_success",)
    return ("n_tx_success", counter + ("_success" if stop is None else "_aborted"))


def _count_tail(cycle: tuple[dict[str, Outcome], ...], remaining: int, draw, p1: float,
                p2: float) -> list[dict[str, int]]:
    """On-slots per branch of each on-slot of the settled `cycle` over the
    last `remaining` slots of a run, the first of them cycle[0]'s on-slot
    (see Settling in the module docstring).  The draw loop opens window 1
    on every on-slot: a turn-off before it is common to all branches, so
    the arithmetic count takes that case."""
    if all(len({(_tally(b, stop), lost) for b, (stop, lost) in outcomes.items()}) == 1
           for outcomes in cycle):
        firsts = [next(iter(outcomes.items())) for outcomes in cycle]
        starts, period = [], 0
        for _, (_, lost) in firsts:
            starts.append(period)
            period += 1 + lost
        periods, rest = divmod(remaining, period)
        return [{branch: periods + (start < rest)} for (branch, _), start in zip(firsts, starts)]
    (outcomes,) = cycle  # branches that end apart settle with period 1
    step = {b: 1 + lost for b, (_, lost) in outcomes.items()}
    # An undetected cycle counts as the last reachable branch: silent, or rx2
    # when p2 = 1, which ends alike when window 2 stays unopened.
    *_, quiet = step
    opens2 = outcomes[quiet][0] not in _BRANCHES["rx2"].slots[:-2]
    n1 = n2 = n_quiet = 0
    if max(step.values()) == 1:
        for _ in range(remaining):
            if draw() < p1:
                n1 += 1
            elif opens2 and draw() < p2:
                n2 += 1
        n_quiet = remaining - n1 - n2
    else:
        # An unreachable branch's step is never taken: its draw never passes.
        step1, step2, step_quiet = step.get("rx1", 0), step.get("rx2", 0), step[quiet]
        k = 0
        while k < remaining:
            if draw() < p1:
                n1 += 1
                k += step1
            elif opens2 and draw() < p2:
                n2 += 1
                k += step2
            else:
                n_quiet += 1
                k += step_quiet
    counts = dict.fromkeys(step, 0)
    for branch, n in (("rx1", n1), ("rx2", n2), (quiet, n_quiet)):
        if n:
            counts[branch] += n
    return [counts]


class _Settler:
    """The settle test of run_simulation (see the module docstring)."""

    def __init__(self, scenario: Scenario, n_scheduled: int):
        circuit, table = scenario.circuit, scenario.phases
        self.circuit, self.m, self.n = circuit, scenario.interval_m, n_scheduled
        self.off, self.sleep = table["off"], table["sleep"]
        self.names = scenario.branches
        self.branches = [tuple(map(table.get, _BRANCHES[b].slots)) for b in self.names]
        e, t_end = circuit.operating_voltage, n_scheduled * self.m
        tau = min(circuit.state_params(s).tau for s in (DeviceState.OFF, DeviceState.SLEEP))
        self.delta, self.eps_t = 2**20 * math.ulp(e), 2**20 * math.ulp(t_end)
        self.eta = 2**10 * (math.ulp(t_end) * e / tau + math.ulp(e))
        self.pad = 2 * (self.delta + self.eta)
        # Answers by (v, k).  A run asks each k once, so an answer serves only
        # the runs of other seeds, which share a start (see the module docstring).
        self.memo: dict[tuple[float, int], tuple] = {}

    def __call__(self, v: float, k: int, history: Sequence[float] | None = None
                 ) -> tuple[tuple[dict[str, Outcome], ...] | None, float]:
        """(cycle, next slot to test at) for on-slot voltage v at on-slot k,
        after the on-slot voltages `history` (the latest last): each
        on-slot's branch Outcomes over one period when the test passes,
        else None and 2k.  Period 1 is tested first; a single branch is then
        tested at the least period whose return the history shows."""
        answer = self.memo.get((v, k))
        if answer is None:
            cycle = self._test([v], k)
            if cycle is None and history and len(self.branches) == 1:
                p = self.period(v, history)
                if p:
                    cycle = self._test([v, *list(history)[1 - p:]], k)
            answer = self.memo[v, k] = (None, 2 * k) if cycle is None else (cycle, math.inf)
        return answer

    def period(self, v: float, history: Sequence[float]) -> int:
        """The least p >= 2 whose return v lands within the pad of the
        on-slot voltage p on-slots back in `history`, or 0 when none does."""
        lo, hi = v - self.pad, v + self.pad
        for p, x in enumerate(islice(reversed(history), 1, None), 2):
            if lo <= x <= hi:
                return p
        return 0

    def _test(self, orbit: list[float], k: int) -> tuple[dict[str, Outcome], ...] | None:
        """Each on-slot's branch outcomes over the period p = len(orbit) when
        intervals I_0, ..., I_{p-1} around the orbit's voltages have fixed
        outcomes and each maps into the next, I_{p-1} into I_0; else None.
        A round probes the intervals in turn and grows each one that an
        image leaves; a round that grows none passes."""
        p, bounds = len(orbit), [(x, x) for x in orbit]
        for _ in range(4):
            cycle, slot, grown = [], k, False
            for i in range(p):
                lo, hi = bounds[i]
                ends = self._ends(lo, hi, slot)
                if ends is None:
                    return None
                cycle.append({b: (None if fate is None else _BRANCHES[b].slots[fate[0]], lost)
                              for b, (((fate, lost), _, _), _) in zip(self.names, ends)})
                slot += 1 + ends[0][0][0][1]  # each step is probed at its own on-slot
                images = [end[1] for pair in ends for end in pair]
                j = (i + 1) % p
                if not self._inside(images, *bounds[j]):
                    bounds[j] = self._grow(*bounds[j], images, ends if j == i else ())
                    grown = True
            if not grown:
                return tuple(cycle)
        return None

    def _grow(self, lo: float, hi: float, images: list[float], ends) -> tuple[float, float]:
        """The hull of [lo, hi] and the images, padded; `ends` are the
        probes of [lo, hi] when it maps into itself, whose completing
        branches' fixed points join the hull (their maps are affine)."""
        x0, pad = lo - self.delta, self.pad
        for ((fate, _), image, _), (_, image_hi, _) in ends:
            slope = (image_hi - image) / (hi + self.delta - x0)
            if fate is None and slope < 1:
                images.append(x0 + (image - x0) / (1 - slope))
                pad = max(pad, self.pad / (1 - slope))
        return min(lo, *images) - pad, max(hi, *images) + pad

    def _ends(self, lo: float, hi: float, k: int):
        """Each branch probed at lo - delta and hi + delta, or None when its
        two outcomes differ or either came within a margin of a threshold."""
        ends = []
        for branch in self.branches:
            a, b = self._probe(branch, lo - self.delta, k), self._probe(branch, hi + self.delta, k)
            if a[0] != b[0] or a[2] or b[2]:
                return None
            ends.append((a, b))
        return ends

    def _inside(self, images: list[float], lo: float, hi: float) -> bool:
        return lo + self.eta <= min(images) and max(images) <= hi - self.eta

    def _probe(self, phases: tuple[Phase, ...], x: float, k: int):
        """Run one branch from x at on-slot k: (outcome, the next on-slot's
        voltage, whether a threshold came within a margin)."""
        walk, m, delta = _Walk(self.circuit, x, off=False, trace=False), self.m, self.delta
        walk.t = t_k = k * m
        fate, near = None, False
        for i, phase in enumerate(phases):
            v = walk.v
            near = near or min(abs(v - phase.v_off), abs(phase.after(v) - phase.v_off)) < delta
            if not walk.phase(phase):
                fate = (i, v <= phase.v_off, walk.v >= walk.v_on)
                near = near or abs(walk.v - walk.v_on) < delta
                break
        # Where the wake instant falls between slots (nan if it never wakes).
        gap = (walk.t + (wake_time(self.off, walk.v, walk.v_on) if walk.off else 0.0) - t_k) % m
        near = near or min(gap, m - gap) < self.eps_t
        j = k + 1
        while j < self.n and not walk.ready(j * m, self.off, self.sleep):
            j += 1
        return (fate, j - k - 1), walk.v, near


def run_simulation(scenario: Scenario, seed: int, n_scheduled: int = 1000,
                   trace: bool = False) -> tuple[SimStats, list[TracePoint]]:
    """Simulate n_scheduled uplink opportunities at t = 0, M, 2M, ...

    Deterministic for a fixed (scenario, seed, n_scheduled).  Returns the
    outcome counters and, when trace is set, the state/voltage trajectory
    at phase boundaries.
    """
    return _simulate(scenario, (seed,), n_scheduled, trace)[0]


def run_seeds(scenario: Scenario, seeds: Sequence[int], n_scheduled: int = 1000) -> list[SimStats]:
    """run_simulation's counters for each of `seeds`, in order; the seeds
    share the settle test of their common start (see the module docstring)."""
    if not seeds:
        raise ScenarioError("run_seeds needs at least one seed")
    return [stats for stats, _ in _simulate(scenario, seeds, n_scheduled, False)]


def _simulate(scenario: Scenario, seeds: Sequence[int], n_scheduled: int,
              trace: bool) -> list[tuple[SimStats, list[TracePoint]]]:
    """One (counters, trace) run per seed, or one for all seeds when a
    single branch is reachable; the runs share one settle test."""
    if n_scheduled < 1:
        raise ScenarioError(f"n_scheduled must be >= 1, got {n_scheduled}")
    interval = scenario.interval_m
    if not math.isfinite(n_scheduled * interval):
        raise ScenarioError(f"the run's horizon n_scheduled * interval_m must be finite, "
                            f"got {n_scheduled} slots of {interval} s")
    table = scenario.phases
    off, sleep = table["off"], table["sleep"]
    # A cycle walks the fork path's (slot, phase, fork) steps; a fork (its draw's
    # odds, branch, steps) that detects goes on in the branch's steps from that slot.
    steps = {b: [(slot, table[slot], None) for slot in spec.slots]
             for b, spec in _BRANCHES.items() if spec.odds}
    silent = [(slot, table[slot], b and (getattr(scenario, _BRANCHES[b].odds), b, steps[b]))
              for slot, b in _PATH]
    settle = _Settler(scenario, n_scheduled)
    single = len(scenario.branches) == 1

    def run(seed: int) -> tuple[SimStats, list[TracePoint]]:
        draw = random.Random(seed).random
        walk = _Walk(scenario.circuit, scenario.circuit.v_min, off=True, trace=trace)
        walk.record(0.0, DeviceState.OFF)
        # On-slots per (branch, stop); only a single-branch run keeps the history.
        ended: Counter[tuple[str, str | None]] = Counter()
        history = deque(maxlen=_MAX_PERIOD) if single and not trace else None
        next_check, next_orbit = (n_scheduled if trace else 1), 0
        for k in range(n_scheduled):
            if not walk.ready(k * interval, off, sleep):
                continue
            v = walk.v
            orbit = history and k >= next_orbit and settle.period(v, history)
            if k >= next_check or orbit:
                settled, retry = settle(v, k, history)
                if settled is not None:
                    tails = _count_tail(settled, n_scheduled - k, draw, scenario.p1, scenario.p2)
                    for outcomes, tail in zip(settled, tails):
                        for branch, on_slots in tail.items():
                            ended[branch, outcomes[branch][0]] += on_slots
                    break
                if k >= next_check:
                    next_check = retry
                if orbit:
                    next_orbit = retry
            if history is not None:
                history.append(v)
            branch, path, i, stop = "silent", silent, 0, None
            while i < len(path):
                slot, phase, fork = path[i]
                if fork is not None and draw() < fork[0]:
                    branch, path = fork[1], fork[2]
                if not walk.phase(phase):
                    stop = slot
                    break
                i += 1
            else:
                walk.record(walk.t, DeviceState.SLEEP)
            ended[branch, stop] += 1
        counts = dict.fromkeys(("n_tx_success", "n_tx_aborted", "n_dl1_success",
                                "n_dl1_aborted", "n_dl2_success", "n_dl2_aborted"), 0)
        for (branch, stop), on_slots in ended.items():
            for counter in _tally(branch, stop):
                counts[counter] += on_slots
        lost = n_scheduled - counts["n_tx_success"] - counts["n_tx_aborted"]
        return SimStats(n_scheduled=n_scheduled, n_tx_lost_off=lost, **counts), walk.points or []

    if single:
        # Every draw passes or fails whatever its value: one run serves every seed.
        return [run(seeds[0])] * len(seeds)
    return [run(seed) for seed in seeds]


def _cycle(dl_case: str) -> tuple[str, ...]:
    """The analytic cycle's slots: silent's for 'none', else the branch's
    with the downlink in place of its listening slot."""
    if dl_case == "none":
        return _BRANCHES["silent"].slots
    if dl_case not in ("rx1", "rx2"):
        raise ScenarioError(f"dl_case must be 'none', 'rx1' or 'rx2', got {dl_case!r}")
    slots = _BRANCHES[dl_case].slots
    return slots[:-2] + slots[-1:]


def _check_start(circuit: CircuitConfig, v_start: float) -> None:
    if not circuit.v_min <= v_start <= circuit.operating_voltage:
        raise ScenarioError(
            f"v_start must lie in [{circuit.v_min}, {circuit.operating_voltage}], got {v_start}"
        )


class CycleCheck:
    """single_cycle_trace's analytic cycle without the trace, at any capacitance.

    A downlink replaces its listening window: 'rx1' receives right after
    the first idle second (and the cycle ends there), 'rx2' receives in
    place of the second listening window, 'none' listens through both;
    `phases` lists the cycle's (state, duration) pairs in order.  Each
    step keeps the C-independent constants of its state (see the module
    docstring); run() forms tau with energy.time_constant and applies
    _Walk.phase's rule through energy's _off_time and _step, so it gives
    single_cycle_trace's final voltage and completed flag bit for bit.
    """

    __slots__ = ("circuit", "phases", "_steps")

    def __init__(self, circuit: CircuitConfig, sched: TimingSchedule, dl_case: str):
        self.circuit = circuit
        self.phases = tuple(_slot(sched, slot) for slot in _cycle(dl_case))
        params = [circuit.state_params(state) for state, _ in self.phases]
        self._steps = tuple((duration, p.r_series, p.ratio, p.v_limit, p.v_off, p.v_guard)
                            for (_, duration), p in zip(self.phases, params))

    def run(self, v_start: float, capacitance: float | None = None) -> tuple[float, bool]:
        """(final_voltage, completed) of one cycle from v_start with the
        circuit's capacitor, or one of `capacitance` farads with the same
        ESR and EPR; completed is False when the capacitor touched the
        turn-off voltage anywhere in the cycle."""
        _check_start(self.circuit, v_start)
        c = self.circuit.capacitor.capacitance if capacitance is None else capacitance
        if not 0 < c < math.inf:
            raise ScenarioError(f"capacitance must be finite and > 0, got {c}")
        v = v_start
        for duration, r_series, ratio, v_limit, v_off, v_guard in self._steps:
            tau = time_constant(r_series, c, ratio)
            if v <= v_guard and _off_time(v_limit, tau, v_off, v) <= duration:
                return min(v, v_off), False
            v = _step(v_limit, math.exp(-duration / tau), v)
        return v, True


def single_cycle_trace(scenario: Scenario, v_start: float,
                       dl_case: str = "none") -> tuple[list[TracePoint], float, bool]:
    """Run exactly one deterministic uplink/downlink cycle from v_start.

    Returns (trace, final_voltage, completed); completed is False when the
    capacitor touched the turn-off voltage anywhere in the cycle.
    """
    table, circuit, slots = scenario.phases, scenario.circuit, _cycle(dl_case)
    _check_start(circuit, v_start)
    walk = _Walk(circuit, v_start, off=False, trace=True)
    completed = all(walk.phase(table[slot]) for slot in slots)
    if completed:
        walk.record(walk.t, DeviceState.SLEEP)
    return walk.points, walk.v, completed
