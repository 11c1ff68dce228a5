import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caplora import characterize, cli, cycle, defaults, markov, simulator
from caplora.characterize import (
    CycleCheck,
    GridCell,
    accuracy_study,
    accuracy_summary,
    edit_scenario,
    evaluate_grid,
    min_capacitance,
    min_tx_interval,
    required_cycle_voltage,
    threshold_sweep,
    wakeup_time,
)
from caplora.errors import InfeasibleScenario, NoFeasibleCapacitance, ScenarioError
from caplora.config import parse_scenario
from caplora.energy import CircuitConfig, DeviceState

from conftest import make_circuit, make_scenario, rk4_capacitor


class TestWakeupTime:
    def test_small_capacitor_fast_harvester(self):
        scenario = make_scenario(power_w=0.1, c_farads=4.7e-3, turn_on_fraction=0.56)
        assert wakeup_time(scenario) == pytest.approx(0.017, rel=0.10)

    def test_supercapacitor(self):
        scenario = make_scenario(power_w=0.1, c_farads=1.0, turn_on_fraction=0.56)
        assert wakeup_time(scenario) == pytest.approx(3.55, rel=0.10)

    def test_threshold_at_turn_off_is_instant(self):
        # A threshold at the turn-off voltage is no scenario at all; the
        # instant wake is a wake target at or below v_min, which ESR gives:
        # at 100 mW the harvester current through 20 ohm holds the Off-state
        # load above the capacitor, so a 56 % threshold (1.848 V on the
        # load) sits at v_C ~ 1.58 V.
        e = defaults.OPERATING_VOLTAGE
        with pytest.raises(ScenarioError):
            make_scenario(turn_on_fraction=defaults.TURN_OFF_VOLTAGE / e)
        scenario = make_scenario(turn_on_fraction=0.56,
                                 circuit=make_circuit(power_w=0.1, esr=20.0))
        assert scenario.v_on < scenario.circuit.v_min
        assert wakeup_time(scenario) == 0.0

    def test_threshold_beyond_reach(self):
        # The Off-state equilibrium at 1 mW is ~98.2% of E.
        scenario = make_scenario(turn_on_fraction=0.999)
        assert wakeup_time(scenario) == math.inf

    def test_threshold_below_turn_off_rejected(self):
        with pytest.raises(ScenarioError):
            wakeup_time(make_scenario(turn_on_fraction=0.5))

    @pytest.mark.parametrize("esr,epr", [(20.0, math.inf), (20.0, 50e3)])
    def test_parasitic_threshold_is_a_load_voltage(self, esr, epr):
        # Charging from v_min for wakeup_time brings the Off-state load, not
        # the capacitor, to the threshold (checked against the RK4 oracle).
        circuit = make_circuit(power_w=0.1, esr=esr, epr=epr)
        t = wakeup_time(make_scenario(turn_on_fraction=0.7, circuit=circuit))
        e = circuit.operating_voltage
        _, v_load = rk4_capacitor(e, e * e / 0.1, circuit.loads.off, esr, epr,
                                  circuit.capacitor.capacitance, circuit.v_min, t)
        assert float(v_load) == pytest.approx(0.7 * e, abs=1e-9)


class TestRequiredCycleVoltage:
    def test_enormous_harvester_needs_only_turn_off_voltage(self):
        scenario = make_scenario(power_w=10.0, interval_m=5.0)
        v = required_cycle_voltage(scenario, "none")
        assert v == pytest.approx(scenario.circuit.v_min, abs=1e-3)

    def test_nondecreasing_in_payload(self):
        values = []
        for ul in (8, 16, 48):
            scenario = make_scenario(ul_pl=ul, interval_m=9.0)
            values.append(required_cycle_voltage(scenario, "none"))
        assert all(v is not None for v in values)
        assert values == sorted(values)

    def test_feasible_at_3p5mf_infeasible_at_1mf(self):
        # SF7, 16 B uplink, 1 mW: a 3.5 mF capacitor carries the cycle, a
        # 1 mF capacitor cannot.
        scenario = make_scenario(ul_pl=16, c_farads=3.5e-3, interval_m=9.0)
        assert required_cycle_voltage(scenario, "none") is not None
        smaller = edit_scenario(scenario, {"capacitance": 1e-3})
        assert required_cycle_voltage(smaller, "none") is None

    def test_window2_reception_is_the_hungriest(self):
        scenario = make_scenario(interval_m=9.0)
        v_rx1 = required_cycle_voltage(scenario, "rx1")
        v_none = required_cycle_voltage(scenario, "none")
        v_rx2 = required_cycle_voltage(scenario, "rx2")
        assert v_rx1 < v_none
        assert v_rx2 is None or v_rx2 > v_none


class TestMinCapacitance:
    def test_sf7_no_downlink(self):
        scenario = make_scenario(sf=7, ul_pl=48, interval_m=60.0)
        assert min_capacitance(scenario, "none") == pytest.approx(3.5e-3, rel=0.15)

    def test_sf9_no_downlink(self):
        scenario = make_scenario(sf=9, ul_pl=48, interval_m=60.0)
        assert min_capacitance(scenario, "none") == pytest.approx(6.7e-3, rel=0.15)

    def test_ordering_across_dl_cases(self):
        scenario = make_scenario(sf=7, ul_pl=16, dl_pl=1, interval_m=60.0)
        c_rx1 = min_capacitance(scenario, "rx1")
        c_none = min_capacitance(scenario, "none")
        c_rx2 = min_capacitance(scenario, "rx2")
        assert c_rx2 >= c_none >= c_rx1

    @pytest.mark.parametrize("dl_case", ["none", "rx2"])
    def test_no_feasible_capacitance(self, dl_case):
        # At 1 mW a 100 ohm ESR puts the transmit state's turn-off voltage
        # above the charging ceiling: not even the search's 1 F funds the cycle.
        scenario = make_scenario(sf=7, ul_pl=48, dl_pl=48, interval_m=60.0,
                                 circuit=make_circuit(esr=100.0))
        with pytest.raises(NoFeasibleCapacitance, match="even 1.0 F cannot complete"):
            min_capacitance(scenario, dl_case)

    def test_no_search_trial_goes_through_run(self, monkeypatch):
        # run() checks its inputs; every trial of a search is valid by
        # construction, so the searches step unchecked.
        def no_run(*args):
            raise AssertionError("a search trial went through CycleCheck.run")

        monkeypatch.setattr(CycleCheck, "run", no_run)
        scenario = make_scenario(sf=7, ul_pl=48, dl_pl=1, c_farads=20e-3, interval_m=60.0)
        assert min_capacitance(scenario, "rx2") > 0.0
        assert min_tx_interval(scenario, "rx2") > 0.0


def reference_min_capacitance(scenario, dl_case):
    """The capacitance search as first defined: a trial capacitance is
    feasible when required_cycle_voltage of the rebuilt scenario finds
    some start voltage."""

    def feasible(c):
        trial = edit_scenario(scenario, {"capacitance": c})
        return required_cycle_voltage(trial, dl_case) is not None

    lo, hi = defaults.CAPACITANCE_SEARCH_LO_F, defaults.CAPACITANCE_SEARCH_HI_F
    if not feasible(hi):
        raise NoFeasibleCapacitance(f"even {hi} F cannot complete the {dl_case} cycle")
    if feasible(lo):
        return lo
    while hi - lo > defaults.CAPACITANCE_TOL_F:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def with_capacitor(scenario, **capacitor):
    circuit = scenario.circuit
    return dataclasses.replace(scenario, circuit=dataclasses.replace(
        circuit, capacitor=dataclasses.replace(circuit.capacitor, **capacitor)))


def completes_at_ceiling(scenario, c_farads, dl_case):
    trial = edit_scenario(scenario, {"capacitance": c_farads})
    circuit = trial.circuit
    cycle = CycleCheck(circuit, trial.schedule, dl_case)
    return cycle.run(circuit.charge_ceiling() - 1e-9)[1]


def min_capacitance_or_inf(scenario, dl_case):
    try:
        return min_capacitance(scenario, dl_case)
    except NoFeasibleCapacitance:
        return math.inf


class TestMinCapacitanceExactness:
    @pytest.mark.parametrize("capacitor", [{}, {"esr": 5.0, "epr": 50e3}, {"esr": 5.0}],
                             ids=["ideal", "esr_epr", "esr_only"])
    @pytest.mark.parametrize("dl_case", ["none", "rx1", "rx2"])
    @pytest.mark.parametrize("sf", [7, 9, 11])
    def test_equals_the_start_voltage_search(self, sf, dl_case, capacitor):
        base = with_capacitor(make_scenario(sf=sf, ul_pl=48, dl_pl=48, interval_m=600.0),
                              **capacitor)
        for power_w in (1e-3, 3e-3, 10e-3):
            scenario = edit_scenario(base, {"power": power_w})
            try:
                want = reference_min_capacitance(scenario, dl_case)
            except NoFeasibleCapacitance:
                with pytest.raises(NoFeasibleCapacitance):
                    min_capacitance(scenario, dl_case)
                continue
            assert min_capacitance(scenario, dl_case) == want


_sizing_scenarios = st.builds(
    lambda sf, ul_pl, dl_pl, power_w: make_scenario(
        sf=sf, ul_pl=ul_pl, dl_pl=dl_pl, power_w=power_w, interval_m=600.0),
    sf=st.integers(7, 12),
    ul_pl=st.integers(1, 64),
    dl_pl=st.integers(1, 64),
    power_w=st.floats(1e-4, 1e-1),
)
_capacitances = st.floats(defaults.CAPACITANCE_SEARCH_LO_F, defaults.CAPACITANCE_SEARCH_HI_F)


_parasitics = st.fixed_dictionaries({"esr": st.floats(0.1, 30.0), "epr": st.floats(1e4, 1e6)})


def min_capacitance_at_power(scenario, dl_case, power_w):
    """min_capacitance_or_inf at another harvest power; inf also when the
    circuit cannot hold charge at that power at all."""
    try:
        scenario = edit_scenario(scenario, {"power": power_w})
    except ScenarioError:
        return math.inf
    return min_capacitance_or_inf(scenario, dl_case)


class TestSizingProperties:
    """Properties that the capacitance bisection relies on."""

    @settings(max_examples=300, deadline=None)
    @given(_sizing_scenarios, st.sampled_from(cycle.DL_CASES),
           _capacitances, _capacitances)
    def test_feasibility_at_the_ceiling_is_monotone_in_capacitance(
            self, scenario, dl_case, c_a, c_b):
        c_small, c_large = sorted((c_a, c_b))
        if completes_at_ceiling(scenario, c_small, dl_case):
            assert completes_at_ceiling(scenario, c_large, dl_case)

    @settings(max_examples=100, deadline=None)
    @given(_sizing_scenarios, st.sampled_from(cycle.DL_CASES),
           st.floats(1e-4, 1e-1), st.floats(1e-4, 1e-1))
    def test_min_capacitance_does_not_increase_with_harvest_power(
            self, scenario, dl_case, p_a, p_b):
        p_low, p_high = sorted((p_a, p_b))
        at_low = min_capacitance_or_inf(edit_scenario(scenario, {"power": p_low}),
                                        dl_case)
        at_high = min_capacitance_or_inf(edit_scenario(scenario, {"power": p_high}),
                                         dl_case)
        assert at_high <= at_low

    @settings(max_examples=100, deadline=None)
    @given(_sizing_scenarios, _parasitics, st.sampled_from(cycle.DL_CASES),
           st.floats(1e-4, 1e-1), st.floats(1e-4, 1e-1))
    def test_parasitic_min_capacitance_does_not_increase_with_harvest_power(
            self, scenario, capacitor, dl_case, p_a, p_b):
        p_low, p_high = sorted((p_a, p_b))
        # Every sampled part holds charge at 0.1 W, the top of the power range.
        scenario = with_capacitor(edit_scenario(scenario, {"power": 0.1}), **capacitor)
        at_low = min_capacitance_at_power(scenario, dl_case, p_low)
        at_high = min_capacitance_at_power(scenario, dl_case, p_high)
        assert at_high <= at_low

    def test_leaky_capacitor_is_infeasible_not_tiny(self):
        # ESR 16.67 ohm / EPR 16.37 kohm: at 1 mW the leak holds the
        # capacitor near 1.96 V, below the ~2.05 V Tx turn-off voltage, so
        # no capacitance works; at 25 mW it needs more than an ideal one.
        base = make_scenario(ul_pl=60, interval_m=600.0)
        leaky = with_capacitor(base, esr=16.67, epr=16370.0)
        with pytest.raises(NoFeasibleCapacitance):
            min_capacitance(edit_scenario(leaky, {"power": 1e-3}), "none")
        at_25mw = min_capacitance(edit_scenario(leaky, {"power": 25e-3}), "none")
        assert at_25mw >= min_capacitance(edit_scenario(base, {"power": 25e-3}), "none")


def rk4_cycle_completes(scenario, capacitances, dl_case):
    """Run the analytic cycle from the charging ceiling with the RK4 oracle
    alone, for each capacitance: True where the load voltage stays above
    v_min throughout.

    Within a phase the load voltage is affine in the monotone capacitor
    voltage, so checking it at both ends of every phase suffices."""
    circuit = scenario.circuit
    e, power = circuit.operating_voltage, circuit.harvester.harvest_power
    esr, epr = circuit.capacitor.esr, circuit.capacitor.epr

    def run(state, v, t, c, steps):
        return rk4_capacitor(e, e * e / power, circuit.loads.resistance(state),
                             esr, epr, c, v, t, steps)

    # The charging states' fixed points do not depend on C: settle each
    # for 50 time constants of a 47 mF part.
    v = max(float(run(state, circuit.v_min, 2e4, 47e-3, 400)[0])
            for state in (DeviceState.OFF, DeviceState.SLEEP, DeviceState.IDLE)) - 1e-9
    c = np.asarray(capacitances)
    v = np.full(c.shape, v)
    ok = np.ones(c.shape, dtype=bool)
    for state, duration in CycleCheck(circuit, scenario.schedule, dl_case).phases:
        ok &= run(state, v, 0.0, c, 1)[1] > circuit.v_min
        v, v_load = run(state, v, duration, c, 500)
        ok &= v_load > circuit.v_min
    return ok


def test_ceiling_below_turn_off_is_infeasible():
    # ESR 2 kohm / EPR 14 kohm: the load holds above v_min, but the capacitor
    # never charges past 1.70 V; the searches answer "infeasible" instead of
    # probing a start voltage below v_min.
    scenario = with_capacitor(make_scenario(interval_m=600.0), esr=2000.0, epr=14e3)
    assert scenario.circuit.charge_ceiling() < scenario.circuit.v_min
    assert required_cycle_voltage(scenario, "none") is None
    with pytest.raises(NoFeasibleCapacitance):
        min_capacitance(scenario, "none")


class TestParasiticSizingOracle:
    @pytest.mark.parametrize("sf,dl_case", [(7, "none"), (9, "none"), (11, "rx2")])
    def test_min_capacitance_is_the_rk4_boundary(self, sf, dl_case):
        # perfbench's parasitic sizing part: ESR 5 ohm / EPR 50 kohm at 1 mW.
        scenario = with_capacitor(make_scenario(sf=sf, ul_pl=48, dl_pl=48, interval_m=600.0),
                                  esr=5.0, epr=50e3)
        c = min_capacitance(scenario, dl_case)
        below = c - 1.1 * defaults.CAPACITANCE_TOL_F
        assert rk4_cycle_completes(scenario, [c, below], dl_case).tolist() == [True, False]


class TestMinTxInterval:
    def test_sf7_20mf_values(self):
        scenario = make_scenario(sf=7, ul_pl=48, dl_pl=1, c_farads=20e-3,
                                 interval_m=60.0)
        assert min_tx_interval(scenario, "rx2") == pytest.approx(50.0, rel=0.15)
        assert min_tx_interval(scenario, "none") == pytest.approx(32.0, rel=0.15)

    def test_monotone_in_capacitance_and_power(self):
        base = make_scenario(sf=7, ul_pl=48, dl_pl=1, interval_m=90.0)
        by_c = [min_tx_interval(edit_scenario(base, {"capacitance": c}), "none")
                for c in (10e-3, 20e-3, 100e-3)]
        assert by_c == sorted(by_c, reverse=True)
        fast = make_scenario(sf=7, ul_pl=48, dl_pl=1, power_w=1e-2, interval_m=90.0)
        assert min_tx_interval(fast, "none") < by_c[1]

    def test_plateau_beyond_100mf(self):
        base = make_scenario(sf=7, ul_pl=48, dl_pl=1, interval_m=90.0)
        at_100mf = min_tx_interval(edit_scenario(base, {"capacitance": 100e-3}), "none")
        at_1f = min_tx_interval(edit_scenario(base, {"capacitance": 1.0}), "none")
        assert abs(at_1f - at_100mf) / at_100mf < 0.05

    def test_infeasible_propagates(self):
        scenario = make_scenario(sf=7, ul_pl=16, c_farads=1e-3, interval_m=9.0)
        with pytest.raises(InfeasibleScenario):
            min_tx_interval(scenario, "none")


class TestThresholdSweep:
    def test_rows_cover_grid_in_order(self):
        spec = dict(
            scenario=make_scenario(interval_m=9.0),
            axis="threshold",
            values=(0.56, 0.60, 0.70),
            m_values=(9.0, 40.0),
            n_scheduled=200,
            seeds=(1,),
        )
        rows = threshold_sweep(**spec, engine="both")
        assert len(rows) == 3 * 2 * 2
        assert [r["value"] for r in rows[:4]] == [0.56, 0.56, 0.56, 0.56]
        assert {r["engine"] for r in rows} == {"simulator", "chain"}

    def test_engines_agree_on_easy_grid(self):
        spec = dict(
            scenario=make_scenario(ul_pl=8, interval_m=40.0),
            axis="threshold",
            values=(0.60, 0.70),
            m_values=(40.0,),
            granularity=750,
            n_scheduled=500,
            seeds=(1,),
        )
        rows = threshold_sweep(**spec, engine="both")
        sim = {r["value"]: r["pdr"] for r in rows if r["engine"] == "simulator"}
        chain = {r["value"]: r["pdr"] for r in rows if r["engine"] == "chain"}
        for threshold, pdr_sim in sim.items():
            assert abs(pdr_sim - chain[threshold]) < 0.01

    def test_infeasible_threshold_flagged(self):
        # 99.9% of E is beyond the 1 mW charging ceiling; the cell must
        # come back as an infeasible pdr = 0 row, not an exception.
        spec = dict(
            scenario=make_scenario(interval_m=9.0),
            axis="threshold",
            values=(0.58, 0.999),
            n_scheduled=100,
            seeds=(1,),
        )
        rows = threshold_sweep(**spec, engine="simulator")
        by_value = {r["value"]: r for r in rows}
        assert by_value[0.58]["feasible"]
        assert not by_value[0.999]["feasible"]
        assert by_value[0.999]["pdr"] == 0.0
        assert by_value[0.999]["m_s"] == 9.0

    @pytest.mark.parametrize("axis,values", [
        ("granularity", (0, 750)),
        ("ul_pl", (0, 16)),
        ("dl_pl", (0.5, 1)),
        ("threshold", (0.5, 0.7)),
    ])
    def test_invalid_value_raises_before_any_cell_runs(self, axis, values, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("an engine ran before validation")

        monkeypatch.setattr(characterize, "solve_chain", no_run)
        monkeypatch.setattr(characterize, "run_seeds", no_run)
        # The invalid value sorts first; a valid one follows it.
        spec = dict(scenario=make_scenario(interval_m=40.0), axis=axis,
                    values=values, granularity=100, n_scheduled=50, seeds=(1,))
        with pytest.raises(ScenarioError):
            threshold_sweep(**spec, engine="both")

    def test_parallel_matches_serial(self):
        spec = dict(
            scenario=make_scenario(interval_m=9.0),
            axis="capacitance",
            values=(2e-3, 4.7e-3, 10e-3),
            n_scheduled=150,
            seeds=(1, 2),
        )
        assert threshold_sweep(**spec, engine="simulator", jobs=2) == \
            threshold_sweep(**spec, engine="simulator", jobs=1)

    def test_traffic_edits_share_one_phase_table(self, monkeypatch):
        # One case, granularity x four M: interval_m, p1 and p2 leave the
        # circuit, radio and payloads, so every cell shares the base
        # scenario's phase table, and the rows equal those of cells that
        # compile their own: one sweep per cell, around a base at its M.
        compiled = []
        phase_table = cycle.phase_table

        def counted(*args):
            compiled.append(args)
            return phase_table(*args)

        monkeypatch.setattr(cycle, "phase_table", counted)
        granularities, m_values = (100, 200), (5.0, 10.0, 35.0, 40.0)
        rows = threshold_sweep(make_scenario(ul_pl=8, interval_m=40.0), axis="granularity",
                               values=granularities, m_values=m_values, engine="chain")
        assert len(rows) == 8 and len(compiled) == 1
        own = [row for g in granularities for m in m_values
               for row in threshold_sweep(make_scenario(ul_pl=8, interval_m=m),
                                          axis="granularity", values=(g,), engine="chain")]
        assert own == rows and len(compiled) == 1 + 8

    THRESHOLDS = cli._parse_values("0.55:0.98:0.01", "--values")

    @staticmethod
    def _count_tails(monkeypatch) -> list:
        """The slots left at each later _count_tail call."""
        calls = []
        real = simulator._count_tail
        monkeypatch.setattr(simulator, "_count_tail",
                            lambda *args: calls.append(args[1]) or real(*args))
        return calls

    @pytest.mark.parametrize("axis", ["threshold", "p1", "p2"])
    def test_stochastic_rows_equal_each_cell_swept_alone(self, axis, monkeypatch):
        # The cells share each seed's tail where a run settles before any
        # draw; every row must be what its cell gives with no other cell.
        values = self.THRESHOLDS if axis == "threshold" else (0.2, 0.3, 0.5, 0.7)
        spec = dict(scenario=make_scenario(interval_m=60.0, p1=0.3, p2=0.5), axis=axis,
                    m_values=(9.0, 60.0), seeds=(7, 3, 11), engine="simulator")
        calls = self._count_tails(monkeypatch)
        rows = threshold_sweep(**spec, values=values)
        shared = len(calls)
        # Each alone on a fresh copy of the base, whose phase table keeps no tail.
        alone = [row for value in values for m in spec["m_values"]
                 for row in threshold_sweep(**dict(spec, m_values=(m,),
                                                   scenario=dataclasses.replace(spec["scenario"])),
                                            values=(value,))]
        assert rows == alone
        # Thresholds share tails; cells of other odds count their own.
        alone_calls = len(calls) - shared
        assert 0 < shared < alone_calls if axis == "threshold" else shared == alone_calls > 0

    def test_tails_live_as_long_as_the_phase_table(self, monkeypatch):
        # A second sweep on the same base reads the tails the first one left
        # on its phase table; a rebuilt base has its own table and counts
        # its own.
        spec = dict(axis="threshold", values=(0.6, 0.65, 0.7), seeds=(1, 2), engine="simulator")
        base = make_scenario(interval_m=40.0, p1=0.3, p2=0.5)
        calls = self._count_tails(monkeypatch)
        first = threshold_sweep(base, **spec)
        once = len(calls)
        assert threshold_sweep(base, **spec) == first
        assert len(calls) == once > 0
        assert threshold_sweep(dataclasses.replace(base), **spec) == first
        assert len(calls) == 2 * once

    def test_an_unfunded_uplink_fails_both_engines_in_the_chains_words(self):
        # 10 uF turns the device off in the uplink from E: the grid's measure
        # says so before either engine runs, as the chain itself does.
        scenario = edit_scenario(make_scenario(), {"capacitance": 1e-5})
        with pytest.raises(InfeasibleScenario) as chain:
            markov.solve_chain(scenario, 750)
        for engine in ("simulator", "chain"):
            with pytest.raises(InfeasibleScenario) as measured:
                characterize._measure(engine, (1,), 100, GridCell(scenario, 750, (1e-5,)))
            assert str(measured.value) == str(chain.value)
        assert str(chain.value).startswith("no voltage level up to 3.3 V can fund a 46.3 ms")

    def test_only_traffic_edits_keep_the_phase_table(self):
        scenario = make_scenario(interval_m=9.0)
        for edits in ({"interval_m": 12.0, "p1": 0.5, "p2": 1.0}, {"threshold": 0.7}):
            edited = edit_scenario(scenario, edits)
            assert edited.phases is scenario.phases and edited.schedule is scenario.schedule
        for edits in ({"ul_pl": 48}, {"sf": 9}, {"capacitance": 0.01}):
            assert edit_scenario(scenario, edits).phases is not scenario.phases

    def test_axis_editing(self):
        scenario = make_scenario(interval_m=9.0)
        edited = edit_scenario(scenario, {"ul_pl": 48})
        assert edited.ul_pl == 48
        [cell] = evaluate_grid(scenario, [("granularity", (500,))], lambda cell: cell)
        assert cell.granularity == 500
        with pytest.raises(ScenarioError):
            edit_scenario(scenario, {"bogus": 1})
        for axis, value in (("granularity", 0), ("granularity", 2.5), ("ul_pl", 0),
                            ("dl_pl", -1)):
            with pytest.raises(ScenarioError, match="whole numbers"):
                evaluate_grid(scenario, [(axis, (value,))], lambda cell: cell)


def _cell_edits(axes, cell) -> dict:
    """The edits of one cell of a grid over plain (name, values) axes."""
    return {name: value for (name, _), value in zip(axes, cell.point) if name != "granularity"}


def _read_phases(cell):
    cell.scenario.phases
    return cell


def _never_measured(cell):
    raise AssertionError("a cell was measured before the grid was validated")


def _bits(scenario):
    """The scenario's schedule and phase constants as exact float hex."""
    hexed = lambda x: x if x is None else float.hex(x)
    schedule = tuple(map(hexed, dataclasses.astuple(scenario.schedule)))
    phases = {slot: tuple(hexed(getattr(phase, name))
                          for name in ("v_limit", "tau", "decay", "v_off", "v_guard"))
              for slot, phase in scenario.phases.items()}
    return schedule, phases


def _phase_fields(table):
    """Every field of every phase, each float as exact hex."""
    return {slot: tuple(float.hex(x) if isinstance(x, float) else x for x in phase)
            for slot, phase in table.items()}


class TestGridParts:
    """A grid builds each distinct circuit, radio, schedule, phase table and
    scenario once, and cells that share a part are the cells that would
    build it equal."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = {"circuits": 0, "schedules": 0, "phase_tables": 0}
        post_init = CircuitConfig.__post_init__

        def circuit(self):
            counts["circuits"] += 1
            post_init(self)

        def counted(name, real):
            def call(*args):
                counts[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(CircuitConfig, "__post_init__", circuit)
        monkeypatch.setattr(cycle, "class_a_schedule",
                            counted("schedules", cycle.class_a_schedule))
        monkeypatch.setattr(cycle, "phase_table",
                            counted("phase_tables", cycle.phase_table))
        return counts

    # (base, axes, parts built, distinct (circuits, radios, schedules, scenarios)).
    GRIDS = {
        # The min-cap grid: 3 circuits, 6 radios and 6 schedules, of which
        # the base's sf 7 one is already built, and 18 phase tables.
        "sf x power": (dict(ul_pl=16, dl_pl=48, interval_m=600.0),
                       [("sf", (7, 8, 9, 10, 11, 12)), ("power", (1e-3, 3e-3, 1e-2))],
                       {"circuits": 3, "schedules": 5, "phase_tables": 18}, (3, 6, 6, 18)),
        # Two thresholds and two intervals on each of 4 circuits: one
        # schedule, and one circuit and phase table per (capacitance, power),
        # which both thresholds share.
        "threshold x capacitance x power x interval": (
            dict(interval_m=40.0),
            [("threshold", (0.6, 0.7)), ("capacitance", (4.7e-3, 1e-2)),
             ("power", (1e-3, 1e-2)), ("interval_m", (9.0, 40.0))],
            {"circuits": 4, "schedules": 0, "phase_tables": 4}, (4, 1, 1, 16)),
        # sim_sweep's threshold sweep over --m: the base's circuit, schedule
        # and phase table for all 88 scenarios.
        "threshold x interval": (
            dict(interval_m=40.0),
            [("threshold", TestThresholdSweep.THRESHOLDS), ("interval_m", (9.0, 40.0))],
            {"circuits": 0, "schedules": 0, "phase_tables": 1}, (1, 1, 1, 88)),
        # A chain sweep over granularity x --m: the base's circuit, schedule
        # and phase table, and one scenario per M, the base's own at 40 s.
        "granularity x interval": (
            dict(ul_pl=8, interval_m=40.0),
            [("granularity", (100, 200)), ("interval_m", (9.0, 40.0, 60.0))],
            {"circuits": 0, "schedules": 0, "phase_tables": 1}, (1, 1, 1, 3)),
    }

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_each_distinct_part_is_built_once(self, grid, built):
        base_spec, axes, parts, distinct = self.GRIDS[grid]
        base = make_scenario(**base_spec)
        built.update(dict.fromkeys(built, 0))
        cells = evaluate_grid(base, axes, _read_phases)
        assert built == parts
        scenarios = [cell.scenario for cell in cells]
        assert tuple(len({id(getattr(s, part)) for s in scenarios})
                     for part in ("circuit", "radio", "schedule")) == distinct[:3]
        assert len({id(s) for s in scenarios}) == distinct[3]
        assert len({id(s.phases) for s in scenarios}) == len(
            {(s.circuit.capacitor, s.circuit.harvester, id(s.schedule)) for s in scenarios})
        for cell in cells:
            alone = edit_scenario(base, _cell_edits(axes, cell))
            assert cell.scenario == alone
            assert _bits(cell.scenario) == _bits(alone)

    @pytest.mark.parametrize("parasitics", [{}, {"esr": 20.0, "epr": 50e3}],
                             ids=["ideal", "esr_epr"])
    def test_thresholds_share_the_table_each_would_compile(self, parasitics, built):
        # The threshold sets only v_on, which no phase reads.
        base = dataclasses.replace(make_scenario(interval_m=40.0),
                                   circuit=make_circuit(**parasitics))
        built.update(dict.fromkeys(built, 0))
        cells = evaluate_grid(base, [("threshold", TestThresholdSweep.THRESHOLDS)],
                              _read_phases)
        assert len(cells) == 44 and built["phase_tables"] == 1
        assert {id(cell.scenario.phases) for cell in cells} == {id(base.phases)}
        for cell in cells:
            own = cycle.phase_table(cell.scenario.circuit, cell.scenario.schedule)
            assert _phase_fields(cell.scenario.phases) == _phase_fields(own)

    def test_the_wakeup_grid_compiles_no_phase_table(self, built, capsys):
        # wakeup reads only each cell's circuit and wake target: a table
        # compiles its phases on their first read, and no cell reads them.
        argv = ["wakeup", "--thresholds", "0.55:0.98:0.01", "--capacitance", "0.0047,1",
                "--power", "0.1"]
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 44 * 2
        assert built["phase_tables"] == 0

    def test_traffic_grid_compiles_no_schedule(self, built):
        base = make_scenario(interval_m=40.0)
        built.update(dict.fromkeys(built, 0))
        cells = evaluate_grid(base, [("interval_m", (9.0, 12.0)), ("p1", (0.0, 0.5)),
                                     ("p2", (0.0, 1.0))], _read_phases)
        assert built == {"circuits": 0, "schedules": 0, "phase_tables": 1}
        for cell in cells:
            assert cell.scenario.schedule is base.schedule and cell.scenario.phases is base.phases

    def test_nothing_outlives_one_call(self, built):
        base = make_scenario(interval_m=600.0)
        axes = [("sf", (7, 9)), ("power", (1e-3, 1e-2))]
        built.update(dict.fromkeys(built, 0))
        first = evaluate_grid(base, axes, _read_phases)
        once = dict(built)
        second = evaluate_grid(base, axes, _read_phases)
        assert built == {part: 2 * count for part, count in once.items()}
        assert all(a.scenario is not b.scenario and a.scenario.circuit is not b.scenario.circuit
                   for a, b in zip(first, second))
        assert edit_scenario(base, {"power": 1e-2}).circuit is not \
            edit_scenario(base, {"power": 1e-2}).circuit


# SF12's preamble overruns the 1 s gap before window 1 at this bandwidth.
NARROW = "[radio]\nbw_hz = 31250\n"
# The first ScenarioError of an edit (a dict) or a grid (a list of axes)
# with several invalid values.  Each cell is validated in the order
# capacitor and harvester, radio, circuit (the charging states), scenario
# (thresholds, p and interval), and the grid in cell order.
FIRST_ERRORS = {
    "power after a valid one": (
        "", [("power", (1e-3, -1.0))], "harvest power must be finite and > 0, got -1.0"),
    "harvester before radio": (
        "", {"sf": 13, "power": -1}, "harvest power must be finite and > 0, got -1.0"),
    "capacitor before thresholds": (
        "", {"threshold": 1.2, "capacitance": -1}, "capacitance must be finite and > 0, got -1.0"),
    "capacitor in a later cell": (
        "", [("threshold", (0.7, 1.2)), ("capacitance", (0.01, 0.0))],
        "capacitance must be finite and > 0, got 0.0"),
    "radio on a built circuit": (
        "", [("power", (1e-3,)), ("sf", (7, 13))], "sf must be in 7..12, got 13"),
    "radio before thresholds": ("", {"threshold": 1.2, "sf": 13}, "sf must be in 7..12, got 13"),
    "thresholds": (
        "", [("threshold", (0.7, 0.05))],
        "thresholds must satisfy 0 < v_min < v_sl < E, got v_min=1.8, v_sl=0.165, E=3.3"),
    "charging state": ("", [("capacitance", (0.02,)), ("power", (1e-3, 1e-5))],
                       "off-state equilibrium voltage 1.1723 V is not above the turn-off "
                       "threshold 1.8 V; the device could never sustain charge in that state"),
    "charging state before thresholds": (
        "", {"threshold": 1.2, "power": 1e-5},
        "off-state equilibrium voltage 1.1723 V is not above the turn-off threshold 1.8 V; the "
        "device could never sustain charge in that state"),
    "thresholds before p": (
        "", {"threshold": 1.2, "p1": 2.0},
        "thresholds must satisfy 0 < v_min < v_sl < E, got v_min=1.8, v_sl=3.9599999999999995, "
        "E=3.3"),
    "p before interval": ("", {"p1": 2.0, "interval_m": 1.0},
                          "p1/p2 must be probabilities, got 2.0, 0.0"),
    "interval on a built schedule": (
        "", [("power", (1e-3, 1e-2)), ("interval_m", (9.0, 1.0))],
        "transmission interval 1.0 s must be finite and exceed the uplink/downlink "
        "sequence bound 2.709888 s"),
    "p before the schedule": (NARROW, {"sf": 12, "p1": 2.0},
                              "p1/p2 must be probabilities, got 2.0, 0.0"),
    "thresholds before the schedule": (
        NARROW, {"sf": 12, "threshold": 1.2},
        "thresholds must satisfy 0 < v_min < v_sl < E, got v_min=1.8, v_sl=3.9599999999999995, "
        "E=3.3"),
    "schedule": (NARROW, [("power", (1e-3,)), ("sf", (9, 12))],
                 "first listening window (1.606 s) does not fit in the 1 s gap before window 1"),
}


@pytest.mark.parametrize("case", sorted(FIRST_ERRORS))
def test_first_error_of_an_invalid_grid(case):
    text, edits, message = FIRST_ERRORS[case]
    base = parse_scenario(text).scenario
    with pytest.raises(ScenarioError) as raised:
        if isinstance(edits, dict):
            edit_scenario(base, edits)
        else:
            evaluate_grid(base, edits, _never_measured)
    assert str(raised.value) == message


@pytest.mark.parametrize("argv, message", [
    (["min-cap", "--sf", "7,13", "--power", "0.001,-1"],
     "harvest power must be finite and > 0, got -1.0"),
    (["wakeup", "--thresholds", "0.7,1.2", "--capacitance", "0.01,0", "--power", "0.1"],
     "thresholds must satisfy 0 < v_min < v_sl < E, got v_min=1.8, v_sl=3.9599999999999995, "
     "E=3.3"),
    (["min-interval", "--capacitance", "0.02", "--power", "0.001,0.00001"],
     "off-state equilibrium voltage 1.1723 V is not above the turn-off threshold 1.8 V; the "
     "device could never sustain charge in that state"),
])
def test_cli_reports_the_first_error_before_any_search(argv, message, capsys, monkeypatch):
    for search in ("min_capacitance", "min_tx_interval", "wakeup_time"):
        monkeypatch.setattr(cli, search, _never_measured)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


class TestSimulateMean:
    SEEDS = (3, 1, 4, 5, 9)

    @staticmethod
    def per_seed_mean(scenario, seeds, n):
        pdr = pdl1 = pdl2 = 0.0
        for seed in seeds:
            stats = simulator.run_simulation(scenario, seed=seed, n_scheduled=n)[0]
            pdr += stats.pdr
            pdl1 += stats.pdl1
            pdl2 += stats.pdl2
        return pdr / len(seeds), pdl1 / len(seeds), pdl2 / len(seeds)

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    def test_seed_free_cells_run_once_and_equal_the_per_seed_mean(self, p1, p2,
                                                                  monkeypatch):
        # Every draw has a fixed outcome, so the five seeds share one walk:
        # as many compiled walks, walked cycles and settle probes as one
        # run takes.
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58, p1=p1, p2=p2)
        want = self.per_seed_mean(scenario, self.SEEDS, 300)
        walked = []
        compile_walk, probe = simulator._compile_walk, simulator._Settler._probe

        def counting_walk(*args):
            walked.append("walk")
            cycle, next_on = compile_walk(*args)

            def counting_cycle(*cycle_args):
                walked.append("cycle")
                return cycle(*cycle_args)

            return counting_cycle, next_on

        def counting_probe(settler, *args):
            walked.append("probe")
            return probe(settler, *args)

        monkeypatch.setattr(simulator, "_compile_walk", counting_walk)
        monkeypatch.setattr(simulator._Settler, "_probe", counting_probe)
        simulator.run_simulation(scenario, seed=3, n_scheduled=300)
        one_run = len(walked)
        walked.clear()
        assert characterize._simulate_mean(scenario, self.SEEDS, 300) == want
        assert len(walked) == one_run > 0

    def test_stochastic_cells_run_every_seed(self):
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58, p1=0.3, p2=0.5)
        want = self.per_seed_mean(scenario, self.SEEDS, 300)
        assert characterize._simulate_mean(scenario, self.SEEDS, 300) == want

    # random.Random(-s) draws what Random(s) draws: a negative seed, like a
    # repeated one, would run one seed twice and count it twice.
    @pytest.mark.parametrize("seeds, message", [
        ((1, -1), "must be >= 0"), ((-1,), "must be >= 0"), ((1, 1), "repeat"),
        ((3, 1, 3), "repeat")])
    def test_negative_or_repeated_seeds_raise_before_any_cell(self, seeds, message,
                                                              monkeypatch):
        monkeypatch.setattr(characterize, "_measure", None)  # no cell may run
        for engine in ("simulator", "chain", "both"):
            with pytest.raises(ScenarioError, match=message):
                threshold_sweep(make_scenario(interval_m=40.0), axis="threshold",
                                values=(0.6,), seeds=seeds, engine=engine)
        with pytest.raises(ScenarioError, match=message):
            accuracy_study(make_scenario(), cases=("A",), m_classes=("very_high",),
                           granularities=(100,), seeds=seeds)

    def test_simulator_sweep_needs_a_seed(self):
        spec = dict(scenario=make_scenario(), axis="threshold", values=(0.7,), seeds=())
        with pytest.raises(ScenarioError, match="seed"):
            threshold_sweep(**spec, engine="both")
        assert len(threshold_sweep(**spec, engine="chain")) == 1


class TestAccuracyStudy:
    def test_single_cell_grid(self):
        base = make_scenario(interval_m=9.0)
        rows = accuracy_study(
            base, cases=("A",), m_classes=("very_high",),
            p_combos=((0.0, 0.0),), thresholds=(0.70,),
            granularities=(200,), n_scheduled=300, seeds=(1,))
        assert len(rows) == 1
        row = rows[0]
        assert row["case"] == "A" and row["m_s"] == 40.0
        assert row["abs_error"] == pytest.approx(abs(row["pdr_sim"] - row["pdr_mc"]))
        assert row["abs_error"] < 0.01
        assert row["chain_seconds"] > 0
        summary = accuracy_summary(rows)
        assert len(summary) == 1
        assert summary[0].n_cells == 1
        assert summary[0].max == row["abs_error"]

    def test_parallel_matches_serial(self):
        def without_timing(rows):
            return [{**row, "chain_seconds": 0.0} for row in rows]

        kwargs = dict(cases=("A", "D"), m_classes=("small", "very_high"),
                      p_combos=((0.0, 0.0), (0.0, 1.0)), thresholds=(0.6, 0.7),
                      granularities=(100,), n_scheduled=200, seeds=(1, 2))
        base = make_scenario(interval_m=9.0)
        serial = accuracy_study(base, jobs=1, **kwargs)
        assert len(serial) == 16
        assert without_timing(accuracy_study(base, jobs=2, **kwargs)) == without_timing(serial)

    # A repeated value would run its cells twice and weigh them twice in
    # accuracy_summary's percentiles.
    @pytest.mark.parametrize("edit", [
        {"cases": "AA"}, {"cases": ("A", "D", "A")}, {"m_classes": ("small", "small")},
        {"p_combos": ((0.0, 1.0), [0.0, 1.0])}, {"thresholds": (0.7, 0.70)},
        {"granularities": (100, 200, 100)}])
    def test_repeated_grid_values_raise_before_any_cell(self, edit, monkeypatch):
        monkeypatch.setattr(characterize, "_measure", None)  # no cell may run
        kwargs = dict(cases=("A",), m_classes=("small",), p_combos=((0.0, 0.0),),
                      granularities=(100,), n_scheduled=10, seeds=(1,))
        (name,) = edit
        with pytest.raises(ScenarioError, match=f"{name} must not repeat a value"):
            accuracy_study(make_scenario(), **{**kwargs, **edit})
