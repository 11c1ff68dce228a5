import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from caplora.energy import (
    ASYMPTOTE_GUARD_V,
    CapacitorConfig,
    DeviceState,
    HarvesterConfig,
    LoadTable,
    equivalent_resistance,
    load_resistance,
    time_to_voltage,
    voltage_after,
)
from caplora.errors import ScenarioError

from conftest import (make_circuit, make_loads, make_scenario, rk4_capacitor,
                      voltage_after_norton)

E = 3.3
CHARGING = (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE)
DRAINING = (DeviceState.TX, DeviceState.LISTEN, DeviceState.RX)


class TestEquivalentResistance:
    def test_symmetric_parallel(self):
        assert equivalent_resistance(100.0, 100.0) == pytest.approx(50.0)

    def test_off_state_at_1mw(self):
        # r_i = 3.3^2 / 1 mW = 10890 ohm against the 600 kohm Off load;
        # exact rational value computed independently.
        expected = Fraction(600000 * 10890, 600000 + 10890)
        assert equivalent_resistance(600e3, 10890.0) == pytest.approx(float(expected), rel=1e-12)
        assert float(expected) == pytest.approx(10695.87, abs=0.01)

    def test_dominant_branch(self):
        assert equivalent_resistance(50.0, 1e15) == pytest.approx(50.0, rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ScenarioError):
            equivalent_resistance(0.0, 10.0)
        with pytest.raises(ScenarioError):
            equivalent_resistance(10.0, -1.0)


class TestLoadResistance:
    def test_tx_row(self):
        # The 28 mA transmit draw corresponds to the 117.811 ohm table entry.
        assert load_resistance(E, E / 117.811) == pytest.approx(117.811, rel=1e-12)

    def test_unity(self):
        assert load_resistance(3.3, 3.3) == pytest.approx(1.0)

    def test_sleep_row_inverse(self):
        assert load_resistance(3.3, 0.0000056) == pytest.approx(589285.714, rel=1e-6)

    def test_rejects_zero_current(self):
        with pytest.raises(ScenarioError):
            load_resistance(3.3, 0.0)


class TestVoltageAfter:
    def test_initial_condition(self, circuit_1mw):
        for state in DeviceState:
            for v0 in (0.0, 1.8, 2.5, 3.3):
                assert voltage_after(circuit_1mw, state, v0, 0.0) == pytest.approx(v0, abs=1e-15)

    def test_off_asymptote_at_1mw(self, circuit_1mw):
        # Analytic asymptote E * R_eq / r_i with r_i = 10890, R_L = 600k.
        r_i = E * E / 1e-3
        r_eq = 600e3 * r_i / (600e3 + r_i)
        expected = E * r_eq / r_i
        assert expected == pytest.approx(3.2412, abs=5e-4)
        long = voltage_after(circuit_1mw, DeviceState.OFF, 1.8, 1e7)
        assert long == pytest.approx(expected, rel=1e-9)
        assert circuit_1mw.asymptote(DeviceState.OFF) == pytest.approx(expected, rel=1e-12)

    def test_wakeup_voltage_100mw(self, circuit_100mw):
        # 4.7 mF at 100 mW charges from 1.8 V to about 56% of 3.3 V in 17 ms.
        v = voltage_after(circuit_100mw, DeviceState.OFF, 1.8, 0.017)
        assert v == pytest.approx(0.56 * E, abs=0.005)

    def test_monotone_in_time(self, circuit_1mw):
        times = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0]
        for state in CHARGING:
            for v0 in (1.8, 2.5, 3.2):
                values = [voltage_after(circuit_1mw, state, v0, t) for t in times]
                assert all(a < b for a, b in zip(values, values[1:]))
        for state in DRAINING:
            for v0 in (1.8, 2.5, 3.3):
                values = [voltage_after(circuit_1mw, state, v0, t) for t in times]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_negative_time(self, circuit_1mw):
        with pytest.raises(ScenarioError):
            voltage_after(circuit_1mw, DeviceState.OFF, 1.8, -1e-9)


class TestNortonEquivalence:
    def test_current_source_matches_voltage_source(self):
        for power in (1e-3, 1e-2, 0.1):
            circuit = make_circuit(power_w=power)
            for state in DeviceState:
                for v0 in (0.0, 1.8, 2.31, 3.3):
                    for t in (0.0, 0.005, 0.4, 3.0, 60.0):
                        a = voltage_after(circuit, state, v0, t)
                        b = voltage_after_norton(circuit, state, v0, t)
                        assert b == pytest.approx(a, rel=1e-12)


def ideal_voltage(circuit, state, v0, t):
    """The ideal-capacitor exponential written out from the component values."""
    e, power = circuit.harvester.operating_voltage, circuit.harvester.harvest_power
    r_i = e * e / power
    r_load = circuit.loads.resistance(state)
    r_eq = r_load * r_i / (r_load + r_i)
    limit = e * r_eq / r_i
    return limit + (v0 - limit) * math.exp(-t / (r_eq * circuit.capacitor.capacitance))


class TestParasiticCapacitor:
    def test_ideal_reduction(self):
        # ESR = 0 / EPR = inf through the one primitive must agree with the
        # ideal expression to 1e-12 relative, with an identity load map.
        degenerate = make_circuit(esr=0.0, epr=math.inf)
        for state in DeviceState:
            p = degenerate.state_params(state)
            assert (p.a, p.b, p.v_off) == (1.0, 0.0, degenerate.v_min)
            for v0 in (1.8, 2.5, 3.2):
                for t in (0.0, 0.01, 1.0, 50.0):
                    want = ideal_voltage(degenerate, state, v0, t)
                    got = voltage_after(degenerate, state, v0, t)
                    assert got == pytest.approx(want, rel=1e-12)
        scenario = make_scenario(circuit=degenerate)
        assert scenario.v_on == scenario.v_sl

    def test_near_ideal_limit(self):
        # ESR = 1e-9 ohm / EPR = 1e15 ohm moves every constant by at most
        # (R_eq + ESR) / EPR + ESR / R_eq, about 1e-11 at the 1 mW Off load.
        near = make_circuit(esr=1e-9, epr=1e15)
        for state in DeviceState:
            p = near.state_params(state)
            assert p.a == pytest.approx(1.0, rel=1e-10)
            assert p.b == pytest.approx(0.0, abs=1e-10)
            assert p.v_off == pytest.approx(near.v_min, rel=1e-10)
            for v0 in (1.8, 2.5, 3.2):
                for t in (0.0, 0.01, 1.0, 50.0):
                    want = ideal_voltage(near, state, v0, t)
                    assert voltage_after(near, state, v0, t) == pytest.approx(want, rel=1e-10)
        scenario = make_scenario(circuit=near)
        assert scenario.v_on == pytest.approx(scenario.v_sl, rel=1e-10)

    def test_leaky_capacitor_settles_lower(self):
        # SCCQ12E105PRB-style 1 F part: ESR 1.5 ohm, EPR 550 kohm.
        ideal = make_circuit(c_farads=1.0)
        real = make_circuit(c_farads=1.0, esr=1.5, epr=550e3)
        assert real.asymptote(DeviceState.OFF) < ideal.asymptote(DeviceState.OFF)
        v_ideal = voltage_after(ideal, DeviceState.OFF, 1.8, 500.0)
        v_real = voltage_after(real, DeviceState.OFF, 1.8, 500.0)
        assert v_real < v_ideal

    def test_esr_only_keeps_initial_condition(self):
        real = make_circuit(esr=0.0, epr=550e3)
        for state in DeviceState:
            assert voltage_after(real, state, 2.4, 0.0) == pytest.approx(2.4, rel=1e-12)


ORACLE_CAPACITORS = {"ideal": {}, "esr_only": {"esr": 20.0},
                     "esr_epr": {"esr": 20.0, "epr": 50e3},
                     "leaky_supercap": {"c_farads": 1.0, "esr": 1.5, "epr": 550e3}}


STATES = tuple(DeviceState)


def _oracle(circuit, v0, t, steps=4000):
    """rk4_capacitor fed with the raw component values of `circuit`, with
    the device states along the first axis of v0 and t."""
    e, power = circuit.harvester.operating_voltage, circuit.harvester.harvest_power
    cap = circuit.capacitor
    r_load = np.array([circuit.loads.resistance(state) for state in STATES])
    r_load = r_load.reshape((-1,) + (1,) * (max(np.ndim(v0), np.ndim(t), 1) - 1))
    return rk4_capacitor(e, e * e / power, r_load, cap.esr, cap.epr, cap.capacitance,
                         v0, t, steps)


class TestRK4Oracle:
    @pytest.mark.parametrize("capacitor", sorted(ORACLE_CAPACITORS))
    def test_capacitor_and_load_voltage(self, capacitor):
        circuit = make_circuit(**ORACLE_CAPACITORS[capacitor])
        v0 = np.array([1.8, 2.5, 3.2])[None, :, None]
        t = np.array([0.0, 0.01, 0.5, 5.0, 40.0])[None, None, :]
        v_c, v_l = _oracle(circuit, v0, t)
        for k, i, j in np.ndindex(v_c.shape):
            p = circuit.state_params(STATES[k])
            got = voltage_after(circuit, STATES[k], float(v0[0, i, 0]), float(t[0, 0, j]))
            assert abs(got - v_c[k, i, j]) <= 1e-9
            assert abs(p.a * got + p.b - v_l[k, i, j]) <= 1e-9

    @pytest.mark.parametrize("capacitor", sorted(ORACLE_CAPACITORS))
    def test_thresholds_are_load_voltages(self, capacitor):
        circuit = make_circuit(**ORACLE_CAPACITORS[capacitor])
        v_off = np.array([circuit.state_params(state).v_off for state in STATES])
        _, v_l = _oracle(circuit, v_off, 0.0, steps=1)
        assert np.abs(v_l - circuit.v_min).max() <= 1e-12
        scenario = make_scenario(circuit=circuit)
        v_on = _oracle(circuit, scenario.v_on, 0.0, steps=1)[1][STATES.index(DeviceState.OFF)]
        assert float(v_on) == pytest.approx(scenario.v_sl, abs=1e-12)

    @pytest.mark.parametrize("capacitor", sorted(ORACLE_CAPACITORS))
    def test_crossing_times(self, capacitor):
        circuit = make_circuit(**ORACLE_CAPACITORS[capacitor])
        v_i = 2.6
        v_f = np.array([v_i + (circuit.asymptote(state) - v_i) * 0.7 for state in STATES])
        t = np.array([time_to_voltage(circuit, state, v_i, float(v))
                      for state, v in zip(STATES, v_f)])
        v_c, _ = _oracle(circuit, v_i, t)
        assert np.abs(v_c - v_f).max() <= 1e-9


class TestTimeToVoltage:
    def test_equal_endpoints(self, circuit_1mw):
        assert time_to_voltage(circuit_1mw, DeviceState.OFF, 2.0, 2.0) == 0.0

    def test_supercap_wakeup_time(self):
        # Charging a 1 F capacitor from 1.8 V to 56% of 3.3 V at 100 mW
        # takes about 3.55 s.
        circuit = make_circuit(power_w=0.1, c_farads=1.0)
        t = time_to_voltage(circuit, DeviceState.OFF, 1.8, 0.56 * E)
        assert t == pytest.approx(3.55, rel=0.10)

    def test_unreachable_beyond_asymptote(self, circuit_1mw):
        # The Off-state asymptote at 1 mW is ~3.24 V; 3.30 V is past it.
        assert time_to_voltage(circuit_1mw, DeviceState.OFF, 1.8, 3.30) == math.inf

    def test_unreachable_wrong_direction(self, circuit_1mw):
        assert time_to_voltage(circuit_1mw, DeviceState.OFF, 2.0, 1.9) == math.inf
        assert time_to_voltage(circuit_1mw, DeviceState.TX, 2.0, 2.1) == math.inf

    def test_round_trip(self, circuit_1mw):
        for state in DeviceState:
            limit = circuit_1mw.asymptote(state)
            for v_i in (1.8, 2.2, 3.0):
                for frac in (0.1, 0.5, 0.9):
                    v_f = v_i + (limit - v_i) * frac
                    t = time_to_voltage(circuit_1mw, state, v_i, v_f)
                    assert math.isfinite(t)
                    assert voltage_after(circuit_1mw, state, v_i, t) == pytest.approx(v_f, abs=1e-9)

    def test_round_trip_parasitic(self):
        real = make_circuit(c_farads=1.0, esr=1.5, epr=550e3)
        for state in (DeviceState.OFF, DeviceState.TX):
            start = voltage_after(real, state, 2.4, 0.0)
            limit = real.asymptote(state)
            v_f = start + (limit - start) * 0.6
            t = time_to_voltage(real, state, 2.4, v_f)
            assert math.isfinite(t)
            assert voltage_after(real, state, 2.4, t) == pytest.approx(v_f, abs=1e-8)

    def test_inverse_of_forward(self, circuit_1mw):
        for state in DeviceState:
            for v_i in (1.9, 2.5, 3.1):
                for t in (0.004, 0.3, 2.0):
                    v_f = voltage_after(circuit_1mw, state, v_i, t)
                    t_back = time_to_voltage(circuit_1mw, state, v_i, v_f)
                    assert t_back == pytest.approx(t, rel=1e-9, abs=1e-12)


class TestCompiledPhase:
    @pytest.mark.parametrize("parasitics", [{}, {"esr": 20.0, "epr": 50e3}],
                             ids=["ideal", "esr_epr"])
    def test_derived_constants_are_their_definitions(self, parasitics):
        # compile_phase derives offset, gap and v_guard once; each is its
        # definition over the state's constants, as float hex.
        scenario = dataclasses.replace(make_scenario(), circuit=make_circuit(**parasitics))
        hexed = lambda x: x if x is None else x.hex()
        guards = set()
        for slot, phase in scenario.phases.items():
            p = scenario.circuit.state_params(phase.state)
            gap = p.v_off - p.v_limit
            decay = None if phase.duration is None else math.exp(-phase.duration / p.tau)
            want = (math.inf if gap > ASYMPTOTE_GUARD_V else p.v_off, p.v_off, p.v_limit, p.tau,
                    gap, phase.duration, None if decay is None else p.v_limit * (1 - decay),
                    decay)
            assert tuple(map(hexed, phase[:-1])) == tuple(map(hexed, want)), slot
            guards.add(phase.v_guard == math.inf)
        assert guards == {True, False}


class TestCircuitValidation:
    def test_threshold_ordering(self, circuit_1mw):
        # The circuit holds 0 < v_min < E, the scenario v_min < v_sl < E.
        scenario = make_scenario(circuit=circuit_1mw)
        for v_sl in (1.7, 1.8, 3.3, 3.4):
            with pytest.raises(ScenarioError, match="0 < v_min < v_sl < E"):
                dataclasses.replace(scenario, v_sl=v_sl)
        for v_min in (0.0, -1.0, 3.3, 3.4):
            with pytest.raises(ScenarioError, match="0 < v_min < E"):
                dataclasses.replace(circuit_1mw, v_min=v_min)

    def test_states_are_looked_up_by_value(self, circuit_1mw):
        assert circuit_1mw.state_params("tx") is circuit_1mw.state_params(DeviceState.TX)
        assert circuit_1mw.loads.resistance("rx") == circuit_1mw.loads.resistance(DeviceState.RX)

    @pytest.mark.parametrize("state", ["bogus", "TX", "capacitance", "__init__", 3, None])
    def test_unknown_state_raises_value_error(self, circuit_1mw, state):
        with pytest.raises(ValueError, match="unknown device state"):
            circuit_1mw.state_params(state)
        with pytest.raises(ValueError, match="unknown device state"):
            circuit_1mw.loads.resistance(state)

    def test_rejects_leak_that_cannot_hold_charge(self):
        # EPR = 2 kohm settles the Off state below the turn-off voltage.
        with pytest.raises(ScenarioError, match="off-state equilibrium voltage 0.5"):
            make_circuit(epr=2000.0)

    def test_accepts_equilibrium_judged_on_the_load(self):
        # ESR 2 kohm / EPR 14 kohm settles the Off capacitor near 1.70 V,
        # below v_min, yet the Off load sits near 1.94 V: a valid circuit.
        circuit = make_circuit(esr=2000.0, epr=14e3)
        p = circuit.state_params(DeviceState.OFF)
        assert p.v_limit < circuit.v_min < p.a * p.v_limit + p.b

    def test_rejects_sleep_that_cannot_hold_charge(self):
        # A sleep load drawing so much that its equilibrium sits below the
        # 1.8 V turn-off threshold is a broken configuration.
        with pytest.raises(ScenarioError, match="sleep"):
            make_circuit(loads=make_loads(sleep=100.0))

    def test_accepts_all_reference_harvest_rates(self):
        for power in (1e-3, 1e-2, 0.1):
            make_circuit(power_w=power)

    def test_invariants_on_components(self):
        with pytest.raises(ScenarioError):
            HarvesterConfig(3.3, 0.0)
        with pytest.raises(ScenarioError):
            CapacitorConfig(0.0)
        with pytest.raises(ScenarioError):
            CapacitorConfig(1.0, esr=-0.1)
        with pytest.raises(ScenarioError):
            CapacitorConfig(1.0, epr=0.0)
        with pytest.raises(ScenarioError):
            LoadTable(off=600e3, sleep=589e3, idle=471e3, tx=-5.0, listen=314.0, rx=294.0)
