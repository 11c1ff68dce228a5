"""Closed-form electrical model of the harvester-capacitor-load circuit.

The harvester is a real DC voltage source: an ideal source E behind a
series resistance r_i = E^2 / P_harvest that limits the deliverable power.
The device electronics are a per-state load resistance R_L; source and
load together are a Thevenin source V_th = E * R_eq / r_i behind
R_eq = R_L * r_i / (R_L + r_i).  The same circuit expressed as a Norton
current source I = E / r_i with parallel r_i gives an identical
trajectory; the tests check this form against that one.

A real capacitor adds a series resistance (ESR) and a leakage resistance
(EPR) across its plates.  The capacitor voltage v_C is the one state:
during any device state it follows a single exponential

    v_C(t) = L + (v_C(0) - L) * exp(-t / tau)

with ratio = EPR / (EPR + R_eq + ESR), tau = (R_eq + ESR) * C * ratio and
L = V_th * ratio.  Only tau depends on C (time_constant is its one
definition), so a sizing search can try a capacitance without rebuilding
the circuit.  The load sees the affine map v_L = a * v_C + b with
a = R_eq / (R_eq + ESR) and b = V_th * ESR / (R_eq + ESR).  The device
thresholds are judged on v_L, so each state has a turn-off capacitor
voltage v_off = (v_min - b) / a.  The turn-on threshold v_sl is no part
of the circuit: it is a comparator setting of the scenario, which wakes
the device when the Off-state load reaches it, at the capacitor voltage
(v_sl - b) / a of the Off state (cycle.Scenario.v_on).  An ideal capacitor
(ESR = 0, EPR = inf) is the case ratio = 1, a = 1, b = 0, where every
constant reduces bit for bit to tau = R_eq * C and L = V_th; EPR uses an
explicit math.inf sentinel so that reduction is exact.

compile_phase turns one device state (at a fixed duration, or open-ended
for the recharge states) into a Phase: its turn-off voltage and guard,
its affine constants (v_limit, tau and, for a timed phase, the decay
factor and offset, fixed in advance) and the after/cross methods over
them.  cycle.phase_table compiles a scenario's phases: the simulator's
walk and settle probe unpack them, the Markov chain binds them into its
level map, and the sizing searches charge with them; they evaluate the
very expressions of voltage_after and time_to_voltage (a timed phase's
crossing is the time to its turn-off voltage), so every path gives
bit-identical floats.
The sizing searches' cycle check (characterize.CycleCheck) applies the
same v_guard, decay_step and off_time with tau formed at each trial
capacitance.

Everything here is a pure function of its arguments; no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import ScenarioError

# Target voltages closer to the state's asymptote than this are treated as
# unreachable: the log argument degenerates and t blows up to +/- inf from
# floating-point noise alone.
ASYMPTOTE_GUARD_V = 1e-12


class DeviceState(str, Enum):
    """Operating states of the device; each has one load-table entry."""

    OFF = "off"
    SLEEP = "sleep"
    IDLE = "idle"
    TX = "tx"
    LISTEN = "listen"
    RX = "rx"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


_STATES = frozenset(DeviceState)
# The states in declaration order, as a tuple: iterating the Enum is slower.
_STATE_ORDER = tuple(DeviceState)


def equivalent_resistance(r_load: float, r_i: float) -> float:
    """Parallel combination R_L * r_i / (R_L + r_i) seen by the capacitor."""
    if r_load <= 0 or r_i <= 0:
        raise ScenarioError(f"resistances must be positive, got ({r_load}, {r_i})")
    return r_load * r_i / (r_load + r_i)


def load_resistance(e: float, i_load: float) -> float:
    """Load resistance R_L = E / I_load for a state drawing i_load amps.

    Zero current is rejected: an open circuit is represented by the Off
    load-table entry, never by i_load = 0.
    """
    if e <= 0:
        raise ScenarioError(f"operating voltage must be positive, got {e}")
    if i_load <= 0:
        raise ScenarioError(f"load current must be positive, got {i_load}")
    return e / i_load


@dataclass(frozen=True)
class HarvesterConfig:
    """DC-equivalent energy harvester: ideal source behind a series resistance."""

    operating_voltage: float  # E, volts
    harvest_power: float      # watts delivered by the source

    def __post_init__(self):
        if not 0 < self.operating_voltage < math.inf:
            raise ScenarioError(
                f"operating voltage must be finite and > 0, got {self.operating_voltage}")
        if not 0 < self.harvest_power < math.inf:
            raise ScenarioError(f"harvest power must be finite and > 0, got {self.harvest_power}")

    @property
    def series_resistance(self) -> float:
        """r_i = E^2 / P, the resistance that limits the harvester's power."""
        return self.operating_voltage**2 / self.harvest_power


@dataclass(frozen=True)
class CapacitorConfig:
    """Storage capacitor, ideal unless ESR/EPR parasitics are given."""

    capacitance: float        # farads
    esr: float = 0.0          # ohms, equivalent series resistance (0 = ideal)
    epr: float = math.inf     # ohms, leakage path (math.inf = no self-discharge)

    def __post_init__(self):
        if not 0 < self.capacitance < math.inf:
            raise ScenarioError(f"capacitance must be finite and > 0, got {self.capacitance}")
        if not 0 <= self.esr < math.inf:
            raise ScenarioError(f"ESR must be finite and >= 0, got {self.esr}")
        if not self.epr > 0:
            raise ScenarioError(f"EPR must be > 0 (math.inf for ideal), got {self.epr}")


@dataclass(frozen=True)
class LoadTable:
    """Per-state load resistance of the combined MCU + radio electronics."""

    off: float
    sleep: float
    idle: float
    tx: float
    listen: float
    rx: float

    def __post_init__(self):
        for state in DeviceState:
            if not 0 < self.resistance(state) < math.inf:
                raise ScenarioError(f"load resistance for {state} must be finite and > 0")

    def resistance(self, state: DeviceState) -> float:
        # DeviceState is a str enum, so "tx" and DeviceState.TX are one member.
        if state not in _STATES:
            raise ValueError(f"unknown device state {state!r}")
        return getattr(self, state)


def time_constant(r_series: float, c: float, ratio: float) -> float:
    """tau = (R_eq + ESR) * C * ratio of one state, r_series = R_eq + ESR,
    multiplied in that order so that every caller gets the same float."""
    return r_series * c * ratio


class _StateParams(NamedTuple):
    """Precomputed per-state constants: the capacitor exponential and the
    affine map from capacitor to load voltage.  Only tau depends on C.  A
    NamedTuple, because every circuit builds six and a tuple is the
    cheapest immutable record to build."""

    r_eq: float
    r_series: float   # R_eq + ESR
    ratio: float      # EPR / (EPR + R_eq + ESR), 1 without leakage
    tau: float        # time_constant(r_series, C, ratio)
    v_limit: float    # asymptote of v_C: E * R_eq / r_i * ratio
    a: float          # load voltage v_L = a * v_C + b
    b: float
    v_off: float      # v_C at which the load sees v_min: (v_min - b) / a
    # Entered above v_guard the state cannot turn the device off: math.inf
    # when it settles more than ASYMPTOTE_GUARD_V below v_off, else v_off
    # (off_time's guard: a closer asymptote is never reached).
    v_guard: float


@dataclass(frozen=True)
class CircuitConfig:
    """Complete electrical description of one device build, down to its
    turn-off voltage v_min (0 < v_min < E).

    On construction the per-state constants are cached and the
    charging-state sanity assumption is enforced: Off, Sleep and Idle must
    settle with their load voltage above v_min, otherwise the device would
    brown out while nominally recharging and the state-transition models
    downstream would be silently wrong.
    """

    harvester: HarvesterConfig
    capacitor: CapacitorConfig
    loads: LoadTable
    v_min: float      # turn-off voltage, judged on the load, volts
    _params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = self.harvester.operating_voltage
        if not 0 < self.v_min < e:
            raise ScenarioError(
                f"turn-off voltage must satisfy 0 < v_min < E, got v_min={self.v_min}, E={e}")
        r_i = self.harvester.series_resistance
        c, esr, epr = self.capacitor.capacitance, self.capacitor.esr, self.capacitor.epr
        params = {}
        for state in _STATE_ORDER:
            r_eq = equivalent_resistance(getattr(self.loads, state), r_i)
            r_series = r_eq + esr
            ratio = 1.0 if math.isinf(epr) else epr / (epr + r_eq + esr)
            v_th = e * r_eq / r_i
            a = r_eq / r_series
            b = v_th * esr / r_series
            v_limit, v_off = v_th * ratio, (self.v_min - b) / a
            params[state] = _StateParams(
                r_eq=r_eq, r_series=r_series, ratio=ratio,
                tau=time_constant(r_series, c, ratio), v_limit=v_limit, a=a, b=b,
                v_off=v_off,
                v_guard=math.inf if v_off - v_limit > ASYMPTOTE_GUARD_V else v_off)
        object.__setattr__(self, "_params", params)
        for state in (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE):
            p = params[state]
            if p.v_limit <= p.v_off:
                raise ScenarioError(
                    f"{state.value}-state equilibrium voltage "
                    f"{p.a * p.v_limit + p.b:.4f} V is not above the turn-off "
                    f"threshold {self.v_min} V; the device could "
                    f"never sustain charge in that state"
                )

    @property
    def operating_voltage(self) -> float:
        return self.harvester.operating_voltage

    def state_params(self, state: DeviceState) -> _StateParams:
        try:
            return self._params[state]
        except KeyError:
            raise ValueError(f"unknown device state {state!r}") from None

    def asymptote(self, state: DeviceState) -> float:
        """Capacitor voltage the device converges to if it stays in `state`.

        EPR leakage puts it below the ideal E * R_eq / r_i.
        """
        return self.state_params(state).v_limit

    def charge_ceiling(self) -> float:
        """Highest capacitor voltage any non-discharging state can ever reach."""
        return max(
            self.asymptote(s) for s in (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE)
        )


def voltage_after(circuit: CircuitConfig, state: DeviceState, v0: float, t: float) -> float:
    """Capacitor voltage after spending time t in `state`, starting from v0.

    Monotone in t: rises toward the state asymptote when v0 is below it,
    decays toward it when above.  The load sees a * v + b of the state.
    """
    if t < 0:
        raise ScenarioError(f"time must be >= 0, got {t}")
    if v0 < 0:
        raise ScenarioError(f"initial voltage must be >= 0, got {v0}")
    p = circuit.state_params(state)
    return decay_step(p.v_limit, math.exp(-t / p.tau), v0)


def decay_step(v_limit: float, decay: float, v0: float) -> float:
    """The exponential from v0 once the distance to v_limit shrank by `decay`."""
    return v_limit * (1.0 - decay) + v0 * decay


def time_to_voltage(circuit: CircuitConfig, state: DeviceState, v_i: float, v_f: float) -> float:
    """Time for the capacitor voltage to move from v_i to v_f while in `state`.

    Inverts the exponential:  t = -tau * ln((v_f - v_lim) / (v_i - v_lim)).
    Returns math.inf when v_f is unreachable: at/beyond the asymptote
    relative to v_i, or within ASYMPTOTE_GUARD_V of it.  The inf return
    composes naturally with deadline checks ("does the crossing happen
    within this phase?") everywhere downstream.
    """
    if v_i < 0:
        raise ScenarioError(f"initial voltage must be >= 0, got {v_i}")
    p = circuit.state_params(state)
    return _time(p.v_limit, p.tau, v_i, v_f)


def _time(v_limit: float, tau: float, v_i: float, v_f: float) -> float:
    if v_i == v_f:
        return 0.0
    gap_f = v_f - v_limit
    gap_i = v_i - v_limit
    if abs(gap_f) <= ASYMPTOTE_GUARD_V:
        return math.inf
    # Reachable only if v_f lies strictly between v_i and the asymptote.
    if gap_i == 0.0 or (gap_f / gap_i) <= 0.0 or abs(gap_f) >= abs(gap_i):
        return math.inf
    return -tau * math.log(gap_f / gap_i)


def off_time(v_limit: float, tau: float, v_off: float, v: float) -> float:
    """Time until the capacitor falls from v to v_off: 0 at or below v_off,
    math.inf when the state settles at or above it."""
    if v <= v_off:
        return 0.0
    gap_f = v_off - v_limit
    if gap_f <= ASYMPTOTE_GUARD_V:
        return math.inf
    return -tau * math.log(gap_f / (v - v_limit))


class Phase(NamedTuple):
    """One device state compiled for a circuit: the record every walk
    unpacks, its constants in the order the walks unpack them.  A
    NamedTuple, because the simulator unpacks one per phase and a tuple
    unpacks fastest.

    A timed phase lasts `duration`; `after(v)` is the capacitor voltage at
    its end, offset + v * decay (decay_step's sum, float addition
    commutes), and `cross(v)` the time until the device turns off in it,
    off_time's: 0 when entered at or below `v_off`, math.inf when the
    capacitor never gets there.  Entered above `v_guard` it cannot turn off
    at all (see _StateParams).  A recharge phase (Off or Sleep until an
    event the walk decides) has duration, offset and decay None; `after(v,
    t)` takes the elapsed time, and `cross(v, v_target)` is
    time_to_voltage's time to move v to v_target, math.inf when it never
    gets there.
    """

    v_guard: float
    v_off: float
    v_limit: float
    tau: float
    gap: float                # v_off - v_limit
    duration: float | None
    offset: float | None      # v_limit * (1 - decay)
    decay: float | None       # exp(-duration / tau)
    state: DeviceState

    def after(self, v: float, t: float | None = None) -> float:
        if t is None:
            return self.offset + v * self.decay
        return decay_step(self.v_limit, math.exp(-t / self.tau), v)

    def cross(self, v: float, target: float | None = None) -> float:
        if target is None:
            return off_time(self.v_limit, self.tau, self.v_off, v)
        return _time(self.v_limit, self.tau, v, target)


def compile_phase(circuit: CircuitConfig, state: DeviceState,
                  duration: float | None = None) -> Phase:
    """Fix the state constants and, for a timed phase, the decay factor
    exp(-duration / tau) and its offset once, ahead of any walk."""
    if duration is not None and duration < 0:
        raise ScenarioError(f"time must be >= 0, got {duration}")
    p = circuit.state_params(state)
    decay = offset = None
    if duration is not None:
        decay = math.exp(-duration / p.tau)
        offset = p.v_limit * (1.0 - decay)
    return Phase(p.v_guard, p.v_off, p.v_limit, p.tau, p.v_off - p.v_limit, duration, offset,
                 decay, state)


def wake_time(off: Phase, v: float, v_on: float) -> float:
    """Off-phase charge time from v to the wake target v_on: 0 at or above
    it, math.inf when the Off state never gets there."""
    return 0.0 if v >= v_on else off.cross(v, v_on)
