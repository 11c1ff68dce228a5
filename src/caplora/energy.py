"""Closed-form electrical model of the harvester-capacitor-load circuit.

The harvester is a real DC voltage source: an ideal source E behind a
series resistance r_i = E^2 / P_harvest that limits the deliverable power.
The device electronics are a per-state load resistance R_L, so during any
device state the capacitor voltage follows a single exponential

    v(t) = E * (R_eq / r_i) * (1 - exp(-t / (R_eq * C))) + v0 * exp(-t / (R_eq * C))

with R_eq = R_L * r_i / (R_L + r_i).  The same circuit expressed as a
Norton current source I = E / r_i with parallel r_i gives an identical
v(t); both forms are implemented and tested for equivalence.

A real capacitor adds a series resistance (ESR) and a parallel leakage
resistance (EPR, models self-discharge).  With ESR = 0 and EPR = inf the
real-capacitor expression reduces exactly to the ideal one; EPR uses an
explicit math.inf sentinel so that reduction is bit-clean.

compile_phase turns one device state (at a fixed duration, or open-ended
for the recharge states) into a Phase: the state's asymptote plus
after/cross callables with the ideal-or-parasitic choice and the decay
factor fixed in advance.  The simulator walks these; the ideal callables
evaluate the very expressions of voltage_after and time_to_voltage, so
both paths give bit-identical floats.

Everything here is a pure function of its arguments; no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

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

    @property
    def norton_current(self) -> float:
        """Equivalent current-source value I = E / r_i."""
        return self.operating_voltage / self.series_resistance


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

    @property
    def is_ideal(self) -> bool:
        return self.esr == 0.0 and math.isinf(self.epr)


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


@dataclass(frozen=True)
class DeviceThresholds:
    """Turn-off voltage (v_min) and configurable turn-on voltage (v_sl)."""

    v_min: float
    v_sl: float

    def validate(self, operating_voltage: float) -> None:
        if not (0 < self.v_min < self.v_sl < operating_voltage):
            raise ScenarioError(
                f"thresholds must satisfy 0 < v_min < v_sl < E, got "
                f"v_min={self.v_min}, v_sl={self.v_sl}, E={operating_voltage}"
            )


@dataclass(frozen=True)
class _StateParams:
    """Precomputed per-state constants of the ideal-capacitor exponential."""

    r_eq: float
    tau: float        # R_eq * C
    v_limit: float    # asymptote E * R_eq / r_i


@dataclass(frozen=True)
class CircuitConfig:
    """Complete electrical description of one device build.

    On construction the per-state exponential constants are cached and the
    charging-state sanity assumption is enforced: Off, Sleep and Idle must
    have their equilibrium voltage above v_min, otherwise the device would
    brown out while nominally recharging and the state-transition models
    downstream would be silently wrong.
    """

    harvester: HarvesterConfig
    capacitor: CapacitorConfig
    loads: LoadTable
    thresholds: DeviceThresholds
    _params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.thresholds.validate(self.harvester.operating_voltage)
        r_i = self.harvester.series_resistance
        e = self.harvester.operating_voltage
        c = self.capacitor.capacitance
        params = {}
        for state in DeviceState:
            r_eq = equivalent_resistance(self.loads.resistance(state), r_i)
            params[state] = _StateParams(r_eq=r_eq, tau=r_eq * c, v_limit=e * r_eq / r_i)
        object.__setattr__(self, "_params", params)
        for state in (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE):
            if params[state].v_limit <= self.thresholds.v_min:
                raise ScenarioError(
                    f"{state.value}-state equilibrium voltage "
                    f"{params[state].v_limit:.4f} V is not above the turn-off "
                    f"threshold {self.thresholds.v_min} V; the device could "
                    f"never sustain charge in that state"
                )

    @property
    def v_min(self) -> float:
        return self.thresholds.v_min

    @property
    def v_sl(self) -> float:
        return self.thresholds.v_sl

    @property
    def operating_voltage(self) -> float:
        return self.harvester.operating_voltage

    def state_params(self, state: DeviceState) -> _StateParams:
        try:
            return self._params[state]
        except KeyError:
            raise ValueError(f"unknown device state {state!r}") from None

    def asymptote(self, state: DeviceState) -> float:
        """Voltage the capacitor converges to if the device stays in `state`.

        For a parasitic capacitor this is the real-model limit, which sits
        below the ideal one because of the EPR leakage path.
        """
        if self.capacitor.is_ideal:
            return self.state_params(state).v_limit
        p = self.state_params(state)
        esr, epr = self.capacitor.esr, self.capacitor.epr
        e, r_i = self.harvester.operating_voltage, self.harvester.series_resistance
        return e * p.r_eq * _parasitic_ratio(esr, epr, p.r_eq) / r_i

    def charge_ceiling(self) -> float:
        """Highest voltage any non-discharging state can ever reach."""
        return max(
            self.asymptote(s) for s in (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE)
        )


def _parasitic_ratio(esr: float, epr: float, r_eq: float) -> float:
    """(ESR + EPR) / (ESR + EPR + R_eq), with the EPR -> inf limit exact."""
    if math.isinf(epr):
        return 1.0
    return (esr + epr) / (esr + epr + r_eq)


def voltage_after(circuit: CircuitConfig, state: DeviceState, v0: float, t: float) -> float:
    """Load voltage after spending time t in `state`, starting from v0.

    Uses the ideal single-exponential expression, or the ESR/EPR variant
    when the capacitor has parasitics.  Monotone in t: rises toward the
    state asymptote when v0 is below it, decays toward it when above.
    """
    if t < 0:
        raise ScenarioError(f"time must be >= 0, got {t}")
    if v0 < 0:
        raise ScenarioError(f"initial voltage must be >= 0, got {v0}")
    p = circuit.state_params(state)
    if circuit.capacitor.is_ideal:
        return _ideal_step(p.v_limit, math.exp(-t / p.tau), v0)
    return voltage_after_parasitic(circuit, state, v0, t)


def _ideal_step(v_limit: float, decay: float, v0: float) -> float:
    """Ideal exponential from v0 once the distance to v_limit shrank by `decay`."""
    return v_limit * (1.0 - decay) + v0 * decay


def _ideal_after(v_limit: float, tau: float, v0: float, t: float) -> float:
    return _ideal_step(v_limit, math.exp(-t / tau), v0)


def voltage_after_parasitic(circuit: CircuitConfig, state: DeviceState,
                            v0: float, t: float) -> float:
    """ESR/EPR evolution, usable with any parasitic values.

    Degenerates to the ideal expression for ESR = 0 and EPR = inf (the
    sentinel keeps that reduction exact); voltage_after dispatches ideal
    capacitors to the ideal branch, this exists separately so the
    reduction itself can be verified.
    """
    p = circuit.state_params(state)
    esr, epr = circuit.capacitor.esr, circuit.capacitor.epr
    c = circuit.capacitor.capacitance
    e, r_i = circuit.harvester.operating_voltage, circuit.harvester.series_resistance
    leak = 0.0 if math.isinf(epr) else 1.0 / epr
    rate = (leak + 1.0 / (esr + p.r_eq)) / c
    decay = math.exp(-rate * t)
    instantaneous = (e * p.r_eq * esr / (r_i * (esr + p.r_eq))
                     + v0 * p.r_eq / (esr + p.r_eq))
    settled = e * p.r_eq * _parasitic_ratio(esr, epr, p.r_eq) / r_i
    return instantaneous * decay + settled * (1.0 - decay)


def voltage_after_norton(circuit: CircuitConfig, state: DeviceState, v0: float, t: float) -> float:
    """Same evolution computed from the current-source form I * R_eq * (1 - e) + v0 * e.

    Only defined for the ideal capacitor; exists so tests can check the
    two source models are numerically equivalent.
    """
    if t < 0:
        raise ScenarioError(f"time must be >= 0, got {t}")
    p = circuit.state_params(state)
    decay = math.exp(-t / p.tau)
    return circuit.harvester.norton_current * p.r_eq * (1.0 - decay) + v0 * decay


def time_to_voltage(circuit: CircuitConfig, state: DeviceState, v_i: float, v_f: float) -> float:
    """Time for the voltage to move from v_i to v_f while in `state`.

    Inverts the exponential:  t = -R_eq * C * ln((v_f - v_lim) / (v_i - v_lim)).
    Returns math.inf when v_f is unreachable: at/beyond the asymptote
    relative to v_i, or within ASYMPTOTE_GUARD_V of it.  The inf return
    composes naturally with deadline checks ("does the crossing happen
    within this phase?") everywhere downstream.
    """
    if v_i < 0:
        raise ScenarioError(f"initial voltage must be >= 0, got {v_i}")
    if not circuit.capacitor.is_ideal:
        return _time_to_voltage_bisect(circuit, state, v_i, v_f)
    p = circuit.state_params(state)
    return _ideal_time(p.v_limit, p.tau, v_i, v_f)


def _ideal_time(v_limit: float, tau: float, v_i: float, v_f: float) -> float:
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


def _time_to_voltage_bisect(circuit: CircuitConfig, state: DeviceState,
                            v_i: float, v_f: float, tol: float = 1e-9) -> float:
    """Numerical inverse for the parasitic-capacitor evolution.

    The trajectory is still a single decaying exponential toward the real
    asymptote, so bracketing + bisection on voltage_after is robust.  Note
    the parasitic model's t=0 voltage is a divider of v_i, not v_i itself,
    which is why reachability is judged on the actual trajectory endpoints.
    """
    if v_i == v_f:
        return 0.0
    start = voltage_after(circuit, state, v_i, 0.0)
    limit = circuit.asymptote(state)
    gap_f = v_f - limit
    gap_s = v_f - start
    if gap_s == 0.0:
        return 0.0
    if abs(gap_f) <= ASYMPTOTE_GUARD_V or (gap_s > 0) == (gap_f > 0):
        # At the asymptote, or v_f not between the trajectory start and its limit.
        return math.inf

    def crossed(t: float) -> bool:
        return (voltage_after(circuit, state, v_i, t) - v_f) * gap_s >= 0.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if crossed(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        return math.inf
    while True:
        mid = 0.5 * (lo + hi)
        v_mid = voltage_after(circuit, state, v_i, mid)
        if abs(v_mid - v_f) <= tol or (hi - lo) <= 1e-15 * max(1.0, hi):
            return mid
        if crossed(mid):
            hi = mid
        else:
            lo = mid


@dataclass(frozen=True, slots=True)
class Phase:
    """One device state compiled for a circuit: the simulator's unit of work.

    A timed phase lasts `duration` and `after(v)` is the voltage at its
    end.  A recharge phase (Off or Sleep until an event the walk decides)
    has duration None and `after(v, t)` takes the elapsed time too.
    `cross(v, v_target)` is the time the state needs to move v to
    v_target, math.inf when it never gets there.
    """

    state: DeviceState
    duration: float | None
    asymptote: float
    after: Callable[..., float]
    cross: Callable[[float, float], float]


def compile_phase(circuit: CircuitConfig, state: DeviceState,
                  duration: float | None = None) -> Phase:
    """Fix the capacitor model, the state constants and, for a timed phase,
    the decay factor exp(-duration / tau) once, ahead of any walk."""
    if duration is not None and duration < 0:
        raise ScenarioError(f"time must be >= 0, got {duration}")
    p = circuit.state_params(state)
    if circuit.capacitor.is_ideal:
        cross = partial(_ideal_time, p.v_limit, p.tau)
        if duration is None:
            after = partial(_ideal_after, p.v_limit, p.tau)
        else:
            after = partial(_ideal_step, p.v_limit, math.exp(-duration / p.tau))
    else:
        cross = partial(_time_to_voltage_bisect, circuit, state)
        after = partial(voltage_after_parasitic, circuit, state)
        if duration is not None:
            after = partial(_after_duration, after, duration)
    return Phase(state, duration, circuit.asymptote(state), after, cross)


def _after_duration(after: Callable[[float, float], float], duration: float,
                    v0: float) -> float:
    return after(v0, duration)
