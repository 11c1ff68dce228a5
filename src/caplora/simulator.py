"""Event-based simulation of the intermittent Class A device.

The walk carries the capacitor voltage v_C and judges the thresholds on
the load voltage, through each state's turn-off voltage Phase.v_off and
the scenario's wake target Scenario.v_on (v_min and v_sl for an ideal
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

Each run walks Scenario.phases, the phase table of caplora.cycle, along
the fork path cycle.PATH in two closures (_compile_walk): cycle walks one
cycle from an on-slot, unpacking each timed Phase's constants, next_on
charges, wakes and sleeps up to the next on-slot.  They evaluate each
phase's after and cross, and the recharge states' time_to_voltage, with
the same float operations in the same order, so every voltage, instant
and counter is bit-identical to stepping through the Phases with them;
the draw order below is unchanged by it.  The settle probe unpacks the
same Phases, and run_simulation's trace and single_cycle_trace, which
walks one analytic cycle (cycle.analytic_slots), record their points
from the same closures.

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
of the last, incomplete period that start before n_scheduled, the other
slots lost (at p = 1, ceil(remaining / (1 + lost)) on-slots).  Otherwise
(p = 1, several branches) one tight loop takes the draws in the order
below and counts the on-slots per branch; the last cycle's lost slots
are cut off at n_scheduled.  The counters equal the full walk's.

Draw order of the seeded PRNG (Python's random.Random, MT19937): one
uniform draw at each fork of PATH as its window opens, window 2's only
if window 1 detected nothing and the device is still on.
After settling, draws are taken only while an outcome depends on them:
in this order when the branches differ, not at all when they end alike
(a periodic run has one branch).
Each run owns its generator, so the draws left untaken reach nothing;
it is seeded at the run's first draw, and a run that takes none seeds none.

Seed-free start.  No draw is taken before the first on-slot's cycle, so
every seed of a cell reaches its first on-slot at the same voltage.  The
settle test memoizes its answer on (v, k), so run_seeds tests that start
once for all seeds.  With one reachable branch every draw passes or fails
whatever its value, so one run serves every seed.  A run that settles
before it walks a cycle has drawn nothing, so its draw-loop tail depends
only on the seed, the slots left, p1, p2 and the settled outcomes; the
cells of one grid share each seed's tail through run_seeds' `tails`,
which lives for one grid call.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .cycle import BRANCHES, PATH, Scenario, analytic_slots, check_start
from .energy import ASYMPTOTE_GUARD_V, DeviceState, Phase, wake_time
from .errors import ScenarioError


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


# A walked path: per slot its name, timed phase and fork, the fork being
# None or (the draw's odds, the detected branch, that branch's path).
ForkPath = tuple[tuple[str, Phase, tuple | None], ...]


def _path(phases: dict[str, Phase], slots: Sequence[str]) -> ForkPath:
    """The path through `slots`, without a fork."""
    return tuple((slot, phases[slot], None) for slot in slots)


def _record(points: list[TracePoint], t: float, v: float, state: DeviceState) -> None:
    point = TracePoint(t, v, state)
    if points and points[-1].time == t and points[-1].device_state is not DeviceState.OFF:
        points[-1] = point  # zero-duration phase; keep the outcome
    else:
        points.append(point)  # a turn-off stays even when the device wakes at once


def _compile_walk(scenario: Scenario, n_scheduled: int, points: list[TracePoint] | None):
    """The walk of `scenario` over n_scheduled slots as two closures over
    its phases' constants, each appending its trace points to `points`
    unless that is None:

    cycle(v, t, path, draw) walks one cycle from an on-slot at time t with
    capacitor voltage v along `path`, taking a fork's draw as its slot
    opens: (branch, the slot it turned off in or None, v, t).  Each phase
    steps v to offset + v * decay, its after, and times a turn-off from v
    as its cross does, -tau * log(gap / (v - v_limit)); entered above
    v_guard it cannot turn off.  A turn-off ends the cycle at the crossing
    instant with the capacitor at the phase's v_off, or at once, where it
    is, when the phase was entered at or below v_off.

    next_on(v, t, off, j) moves the device, at time t and on or Off, through
    Off-charging, wake and Sleep to the first slot j, j + 1, ... < n_scheduled
    where an uplink can start (not while the last cycle holds the radio,
    nor while Off): (that slot or n_scheduled, v there).
    """
    off_phase, sleep_phase = scenario.phases["off"], scenario.phases["sleep"]
    m, v_on = scenario.interval_m, scenario.v_on
    off_limit, off_tau = off_phase.v_limit, off_phase.tau
    sleep_limit, sleep_tau = sleep_phase.v_limit, sleep_phase.tau
    # From v < v_on, time_to_voltage reaches v_on only when the Off asymptote
    # lies more than its guard above v_on and v - off_limit rounds below
    # wake_gap; the wake time is then its logarithm.
    wake_gap = v_on - off_limit
    wakes = wake_gap < -ASYMPTOTE_GUARD_V
    log, exp = math.log, math.exp

    def cycle(v: float, t: float, path: ForkPath, draw) -> tuple[str, str | None, float, float]:
        branch, i, end = "silent", 0, len(path)
        while i < end:
            slot, phase, fork = path[i]
            if fork is not None and draw() < fork[0]:
                branch, path = fork[1], fork[2]
                end = len(path)
            v_guard, v_off, v_limit, tau, gap, duration, offset, decay, state = phase
            if points is not None:
                _record(points, t, v, state)
            if v <= v_guard:
                t_cross = 0.0 if v <= v_off else -tau * log(gap / (v - v_limit))
                if t_cross <= duration:
                    v, t = min(v, v_off), t + t_cross
                    if points is not None:
                        _record(points, t, v, DeviceState.OFF)
                    return branch, slot, v, t
            v = offset + v * decay
            t += duration
            i += 1
        if points is not None:
            _record(points, t, v, DeviceState.SLEEP)
        return branch, None, v, t

    def next_on(v: float, t: float, off: bool, j: int) -> tuple[int, float]:
        while j < n_scheduled:
            t_to = j * m
            if t < t_to:
                if off:
                    if v < v_on:
                        gap = v - off_limit
                        t_wake = -off_tau * log(wake_gap / gap) if wakes and gap < wake_gap \
                            else math.inf
                        if t + t_wake > t_to:
                            decay = exp(-(t_to - t) / off_tau)
                            v, t = off_limit * (1.0 - decay) + v * decay, t_to
                            j += 1
                            continue
                        v = v_on
                        t += t_wake
                    off = False
                    if points is not None:
                        _record(points, t, v, DeviceState.SLEEP)
                decay = exp(-(t_to - t) / sleep_tau)
                return j, sleep_limit * (1.0 - decay) + v * decay
            if t == t_to and not off:
                return j, v
            j += 1
        return j, v

    return cycle, next_on


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
    slots, counter, _ = BRANCHES[branch]
    if counter is None or stop in slots[:-2]:
        return ("n_tx_success",)
    return ("n_tx_success", counter + ("_success" if stop is None else "_aborted"))


def _ends_alike(cycle: tuple[dict[str, Outcome], ...]) -> bool:
    """Whether at each on-slot of the settled `cycle` every reachable branch
    adds the same counters and loses the same slots: its tail then takes no
    draw and is arithmetic."""
    return all(len({(_tally(b, stop), lost) for b, (stop, lost) in outcomes.items()}) == 1
               for outcomes in cycle)


def _tail_key(seed: int, remaining: int, cycle: tuple[dict[str, Outcome], ...], p1: float,
              p2: float) -> tuple:
    """What a draw-loop tail reads besides its generator's state: the key of
    a seed's tail among the runs of one grid that drew nothing before it."""
    return (seed, remaining, p1, p2, *(tuple(outcomes.items()) for outcomes in cycle))


def _count_tail(cycle: tuple[dict[str, Outcome], ...], remaining: int, draw, p1: float,
                p2: float) -> list[dict[str, int]]:
    """On-slots per branch of each on-slot of the settled `cycle` over the
    last `remaining` slots of a run, the first of them cycle[0]'s on-slot
    (see Settling in the module docstring).  The draw loop opens window 1
    on every on-slot: a turn-off before it is common to all branches, so
    the arithmetic count takes that case."""
    if _ends_alike(cycle):
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
    opens2 = outcomes[quiet][0] not in BRANCHES["rx2"].slots[:-2]
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
        circuit, phases = scenario.circuit, scenario.phases
        self.m, self.v_on, self.off = scenario.interval_m, scenario.v_on, phases["off"]
        self.names = scenario.branches
        self.branches = [tuple(map(phases.get, BRANCHES[b].slots)) for b in self.names]
        _, self.next_on = _compile_walk(scenario, n_scheduled, None)
        e, t_end = circuit.operating_voltage, n_scheduled * self.m
        tau = min(self.off.tau, phases["sleep"].tau)
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
                cycle.append({b: (None if fate is None else BRANCHES[b].slots[fate[0]], lost)
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
        """Run one branch's timed phases from x at on-slot k: (outcome,
        the next on-slot's voltage, whether a threshold came within a
        margin).  Each phase steps as cycle's does (see _compile_walk)."""
        m, delta, v_on, log = self.m, self.delta, self.v_on, math.log
        v, t = x, k * m
        t_k, fate, near = t, None, False
        for i, (v_guard, v_off, v_limit, tau, gap, duration, offset, decay, _) in enumerate(phases):
            after = offset + v * decay
            near = near or -delta < v - v_off < delta or -delta < after - v_off < delta
            if v <= v_guard:
                t_cross = 0.0 if v <= v_off else -tau * log(gap / (v - v_limit))
                if t_cross <= duration:
                    below, v, t = v <= v_off, min(v, v_off), t + t_cross
                    fate = (i, below, v >= v_on)
                    near = near or -delta < v - v_on < delta
                    break
            v, t = after, t + duration
        # Where the wake instant falls between slots (nan if it never wakes).
        lag = (t + (wake_time(self.off, v, v_on) if fate is not None else 0.0) - t_k) % m
        near = near or lag < self.eps_t or m - lag < self.eps_t
        j, v = self.next_on(v, t, fate is not None, k + 1)
        return (fate, j - k - 1), v, near


def run_simulation(scenario: Scenario, seed: int, n_scheduled: int = 1000,
                   trace: bool = False) -> tuple[SimStats, list[TracePoint]]:
    """Simulate n_scheduled uplink opportunities at t = 0, M, 2M, ...

    Deterministic for a fixed (scenario, seed, n_scheduled).  Returns the
    outcome counters and, when trace is set, the state/voltage trajectory
    at phase boundaries.  The seed is checked as run_seeds checks its seeds.
    """
    check_seeds((seed,))
    return _simulate(scenario, (seed,), n_scheduled, trace)[0]


def check_seeds(seeds: Sequence[int]) -> None:
    """Seeds are whole numbers >= 0, none of them twice.  random.Random(-s)
    draws what Random(s) draws, so a negative seed, like a repeated one,
    would run one seed twice and count it twice."""
    if any(isinstance(seed, bool) or not isinstance(seed, int) for seed in seeds):
        raise ScenarioError(f"seeds must be whole numbers, got {list(seeds)}")
    if any(seed < 0 for seed in seeds):
        raise ScenarioError(f"seeds must be >= 0, got {list(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ScenarioError(f"seeds must not repeat a value, got {list(seeds)}")


def run_seeds(scenario: Scenario, seeds: Sequence[int], n_scheduled: int = 1000,
              tails: dict | None = None) -> list[SimStats]:
    """run_simulation's counters for each of `seeds`, in order; the seeds
    share the settle test of their common start.  `tails`, when given,
    holds the draw-loop tails of runs that drew nothing before settling,
    for the other cells of one grid to reuse (see the module docstring)."""
    if not seeds:
        raise ScenarioError("run_seeds needs at least one seed")
    check_seeds(seeds)
    return [stats for stats, _ in _simulate(scenario, seeds, n_scheduled, False, tails)]


def _simulate(scenario: Scenario, seeds: Sequence[int], n_scheduled: int,
              trace: bool, tails: dict | None = None) -> list[tuple[SimStats, list[TracePoint]]]:
    """One (counters, trace) run per seed, or one for all seeds when a
    single branch is reachable; the runs share one settle test, and those
    that settle before any draw share their tails through `tails`."""
    if isinstance(n_scheduled, bool) or not isinstance(n_scheduled, int):
        raise ScenarioError(f"n_scheduled must be a whole number of slots, got {n_scheduled!r}")
    if n_scheduled < 1:
        raise ScenarioError(f"n_scheduled must be >= 1, got {n_scheduled}")
    interval = scenario.interval_m
    if not math.isfinite(n_scheduled * interval):
        raise ScenarioError(f"the run's horizon n_scheduled * interval_m must be finite, "
                            f"got {n_scheduled} slots of {interval} s")
    settle = _Settler(scenario, n_scheduled)
    # A cycle walks the fork path; a fork that detects goes on along its
    # branch's path from that slot.
    table = scenario.phases
    paths = {b: _path(table, spec.slots) for b, spec in BRANCHES.items() if spec.odds}
    silent = tuple((slot, table[slot], b and (getattr(scenario, BRANCHES[b].odds), b, paths[b]))
                   for slot, b in PATH)
    single = len(scenario.branches) == 1
    p1, p2, v_min = scenario.p1, scenario.p2, scenario.circuit.v_min

    def run(seed: int) -> tuple[SimStats, list[TracePoint]]:
        # The generator is seeded at the run's first draw: a run that settles
        # before it walks a cycle often takes none.
        draw = None
        points = [TracePoint(0.0, v_min, DeviceState.OFF)] if trace else None
        cycle, next_on = _compile_walk(scenario, n_scheduled, points)
        # On-slots per (branch, stop); only a single-branch run keeps the history.
        ended: Counter[tuple[str, str | None]] = Counter()
        history = deque(maxlen=_MAX_PERIOD) if single and not trace else None
        next_check, next_orbit = (n_scheduled if trace else 1), 0
        k, v = next_on(v_min, 0.0, True, 0)
        while k < n_scheduled:
            orbit = history and k >= next_orbit and settle.period(v, history)
            if k >= next_check or orbit:
                settled, retry = settle(v, k, history)
                if settled is not None:
                    remaining = n_scheduled - k
                    if _ends_alike(settled):
                        counted = _count_tail(settled, remaining, None, p1, p2)
                    elif tails is None or ended:
                        draw = draw or random.Random(seed).random
                        counted = _count_tail(settled, remaining, draw, p1, p2)
                    else:
                        # Nothing walked, so nothing drawn: the tail is the seed's alone.
                        key = _tail_key(seed, remaining, settled, p1, p2)
                        counted = tails.get(key)
                        if counted is None:
                            counted = tails[key] = _count_tail(
                                settled, remaining, random.Random(seed).random, p1, p2)
                    for outcomes, tail in zip(settled, counted):
                        for branch, on_slots in tail.items():
                            ended[branch, outcomes[branch][0]] += on_slots
                    break
                if k >= next_check:
                    next_check = retry
                if orbit:
                    next_orbit = retry
            if history is not None:
                history.append(v)
            if draw is None:
                draw = random.Random(seed).random
            branch, stop, v, t = cycle(v, k * interval, silent, draw)
            ended[branch, stop] += 1
            k, v = next_on(v, t, stop is not None, k + 1)
        counts = dict.fromkeys(("n_tx_success", "n_tx_aborted", "n_dl1_success",
                                "n_dl1_aborted", "n_dl2_success", "n_dl2_aborted"), 0)
        for (branch, stop), on_slots in ended.items():
            for counter in _tally(branch, stop):
                counts[counter] += on_slots
        lost = n_scheduled - counts["n_tx_success"] - counts["n_tx_aborted"]
        return SimStats(n_scheduled=n_scheduled, n_tx_lost_off=lost, **counts), points or []

    if single:
        # Every draw passes or fails whatever its value: one run serves every seed.
        return [run(seeds[0])] * len(seeds)
    return [run(seed) for seed in seeds]


def single_cycle_trace(scenario: Scenario, v_start: float,
                       dl_case: str = "none") -> tuple[list[TracePoint], float, bool]:
    """Run exactly one deterministic uplink/downlink cycle from v_start.

    Returns (trace, final_voltage, completed); completed is False when the
    capacitor touched the turn-off voltage anywhere in the cycle.
    """
    slots = analytic_slots(dl_case)
    check_start(scenario.circuit, v_start)
    points: list[TracePoint] = []
    cycle, _ = _compile_walk(scenario, 1, points)
    _, stop, v, _ = cycle(v_start, 0.0, _path(scenario.phases, slots), None)
    return points, v, stop is None
