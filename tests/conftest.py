import math

import numpy as np
import pytest

from caplora import defaults
from caplora.energy import (
    CapacitorConfig,
    CircuitConfig,
    DeviceThresholds,
    HarvesterConfig,
    LoadTable,
)


def make_loads(**overrides) -> LoadTable:
    values = dict(defaults.LOAD_OHMS)
    values.update(overrides)
    return LoadTable(**values)


def make_circuit(power_w: float = defaults.HARVEST_POWER_W,
                 c_farads: float = defaults.CAPACITANCE_F,
                 esr: float = 0.0,
                 epr: float = math.inf,
                 turn_on_fraction: float = defaults.TURN_ON_FRACTION,
                 loads: LoadTable | None = None) -> CircuitConfig:
    return CircuitConfig(
        harvester=HarvesterConfig(defaults.OPERATING_VOLTAGE, power_w),
        capacitor=CapacitorConfig(c_farads, esr=esr, epr=epr),
        loads=loads or make_loads(),
        thresholds=DeviceThresholds(
            v_min=defaults.TURN_OFF_VOLTAGE,
            v_sl=turn_on_fraction * defaults.OPERATING_VOLTAGE,
        ),
    )


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
                  turn_on_fraction: float = defaults.TURN_ON_FRACTION):
    from caplora.simulator import Scenario
    from caplora.timing import RadioConfig

    return Scenario(
        circuit=make_circuit(power_w=power_w, c_farads=c_farads,
                             turn_on_fraction=turn_on_fraction),
        radio=RadioConfig(sf=sf),
        ul_pl=ul_pl,
        dl_pl=dl_pl,
        interval_m=interval_m,
        p1=p1,
        p2=p2,
    )


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


def stationary_oracle(p: np.ndarray, start: int) -> np.ndarray:
    """Dense reference for the chain's long-run distribution from `start`.

    Independent of caplora.markov: closed classes come from the boolean
    transitive closure, each class's vector is its eigenvector for
    eigenvalue 1, and classes are weighted by absorption probabilities
    from a least-squares solve on the transient block.
    """
    n = p.shape[0]
    reach = (p > 0) | np.eye(n, dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
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
    transient = np.flatnonzero(~recurrent)
    if recurrent[start]:
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
