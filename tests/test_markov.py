import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caplora.energy import DeviceState, voltage_after
from caplora.errors import InfeasibleScenario, ScenarioError
from caplora.markov import (
    OFF,
    SL0,
    SL1,
    ChainState,
    ThresholdLevels,
    TransitionMatrix,
    build_transition_matrix,
    discrete_time_to_level,
    discrete_voltage_after,
    level_of,
    solve_chain,
    stationary_distribution,
    threshold_levels,
)
from caplora.simulator import run_simulation

from conftest import make_scenario, stationary_oracle

G = 750


class TestDiscreteOps:
    def test_zero_time_is_identity(self):
        circuit = make_scenario(interval_m=9.0).circuit
        for state in DeviceState:
            for level in (1350, 1732, 2400):
                assert discrete_voltage_after(circuit, state, level, 0.0, G) == level

    def test_wakeup_level_at_100mw(self):
        # 17 ms in Off at 100 mW lifts 1.8 V to ~1.848 V = level 1386 at 1 mV/level.
        circuit = make_scenario(power_w=0.1, interval_m=9.0).circuit
        got = discrete_voltage_after(circuit, DeviceState.OFF, level_of(1.8, 1000), 0.017, 1000)
        assert abs(got - 1848) <= 2

    def test_composition_error_at_most_one_level(self):
        circuit = make_scenario(interval_m=9.0).circuit
        for state in (DeviceState.OFF, DeviceState.TX, DeviceState.LISTEN):
            for level in (1400, 1800, 2200):
                for t1, t2 in ((0.05, 0.4), (1.0, 2.5), (0.01, 0.01)):
                    two = discrete_voltage_after(
                        circuit, state,
                        discrete_voltage_after(circuit, state, level, t1, G), t2, G)
                    one = discrete_voltage_after(circuit, state, level, t1 + t2, G)
                    assert abs(two - one) <= 1

    def test_time_between_levels(self):
        circuit = make_scenario(power_w=0.1, c_farads=1.0, interval_m=9.0).circuit
        assert discrete_time_to_level(circuit, DeviceState.OFF, 1350, 1350, G) == 0.0
        t = discrete_time_to_level(circuit, DeviceState.OFF,
                                   level_of(1.8, G), level_of(0.56 * 3.3, G), G)
        assert t == pytest.approx(3.55, rel=0.02)
        assert discrete_time_to_level(circuit, DeviceState.OFF, 1350, level_of(3.3, G), G) \
            == math.inf

    def test_granularity_validated(self):
        circuit = make_scenario(interval_m=9.0).circuit
        with pytest.raises(ScenarioError):
            discrete_voltage_after(circuit, DeviceState.OFF, 10, 1.0, 0)


class TestThresholdLevels:
    def test_negligible_discharge_needs_one_level(self):
        # 1 F at 100 mW barely sags during a 26 ms uplink: the minimal
        # surviving level is exactly one above the turn-off level.
        scenario = make_scenario(ul_pl=1, power_w=0.1, c_farads=1.0, interval_m=9.0)
        thr = threshold_levels(scenario, G)
        assert thr.v_tx == thr.v_min + 1

    def test_tx_threshold_agrees_with_cycle_engine(self):
        scenario = make_scenario(interval_m=9.0)
        thr = threshold_levels(scenario, G)
        v_end = voltage_after(scenario.circuit, DeviceState.TX,
                              thr.v_tx / G, scenario.schedule.t_tx)
        assert abs(level_of(v_end, G) - (thr.v_min + 1)) <= 1
        # one level lower must not survive
        v_below = voltage_after(scenario.circuit, DeviceState.TX,
                                (thr.v_tx - 1) / G, scenario.schedule.t_tx)
        assert level_of(v_below, G) <= thr.v_min + 1

    def test_tiny_capacitor_infeasible(self):
        scenario = make_scenario(sf=11, ul_pl=48, c_farads=0.1e-3, interval_m=30.0)
        with pytest.raises(InfeasibleScenario):
            threshold_levels(scenario, G)

    def test_ordering(self):
        scenario = make_scenario(interval_m=9.0)
        thr = threshold_levels(scenario, G)
        assert thr.v_min < thr.v_sl <= thr.v_max
        assert thr.v_min < thr.v_tx <= thr.v_max
        assert thr.v_rx2 >= thr.v_rx1  # window 2 is never cheaper


class TestTransitionMatrix:
    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                       (0.5, 0.0), (0.3, 0.6)])
    def test_rows_stochastic(self, p1, p2):
        scenario = make_scenario(interval_m=9.0, p1=p1, p2=p2)
        tm = build_transition_matrix(scenario, 200)
        sums = tm.matrix.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    def test_deterministic_chain_has_single_entry_rows(self):
        scenario = make_scenario(interval_m=9.0)
        tm = build_transition_matrix(scenario, 200)
        assert np.all(np.count_nonzero(tm.matrix, axis=1) == 1)

    def test_branch_counts(self):
        scenario = make_scenario(interval_m=9.0, p1=0.5, p2=0.25, turn_on_fraction=0.6)
        tm = build_transition_matrix(scenario, 200)
        counts = np.count_nonzero(tm.matrix, axis=1)
        for i, state in enumerate(tm.states):
            if state.kind in (OFF, SL0):
                assert counts[i] == 1
            else:
                assert counts[i] <= 6

    def test_single_bernoulli_split(self):
        # p1 = 0.5, p2 = 0: SL1 rows split into at most two half-weight branches.
        scenario = make_scenario(interval_m=9.0, p1=0.5, turn_on_fraction=0.6)
        tm = build_transition_matrix(scenario, 200)
        counts = np.count_nonzero(tm.matrix, axis=1)
        for i, state in enumerate(tm.states):
            if state.kind == SL1:
                assert counts[i] <= 2
                row = tm.matrix[i]
                assert all(p in (0.5, 1.0) for p in row[row > 0])

    def test_state_space_bound_and_ranges(self):
        scenario = make_scenario(interval_m=9.0, p1=0.5, p2=0.5)
        tm = build_transition_matrix(scenario, 200)
        thr = tm.thresholds
        assert len(tm.states) <= 3 * (thr.v_max + 1)
        for state in tm.states:
            if state.kind == OFF:
                assert 0 <= state.level < thr.v_sl
            elif state.kind == SL0:
                assert thr.v_min <= state.level < thr.v_tx
            else:
                assert thr.v_tx <= state.level <= thr.v_max

    def test_coordinate_dump_shape(self):
        scenario = make_scenario(interval_m=9.0, p1=0.3, p2=0.6)
        tm = build_transition_matrix(scenario, 100)
        lines = list(tm.coordinate_lines())
        assert len(lines) == np.count_nonzero(tm.matrix)
        for i, row in enumerate(tm.successors):
            assert sorted(row) == np.flatnonzero(tm.matrix[i]).tolist()
        kinds = {OFF, SL0, SL1}
        for line in lines:
            src_kind, src_level, dst_kind, dst_level, prob = line.split(",")
            assert src_kind in kinds and dst_kind in kinds
            assert 0.0 < float(prob) <= 1.0


def _toy_matrix(rows, kinds=None):
    matrix = np.asarray(rows, dtype=float)
    n = len(matrix)
    states = tuple(ChainState(kinds[i] if kinds else OFF, i) for i in range(n))
    successors = tuple(tuple(np.flatnonzero(row).tolist()) for row in matrix)
    thr = ThresholdLevels(v_min=0, v_sl=n, v_tx=n, v_rx1=n + 1, v_rx2=n + 1, v_max=n)
    return TransitionMatrix(states=states, index={s: i for i, s in enumerate(states)},
                            matrix=matrix, successors=successors, thresholds=thr,
                            granularity=1)


@st.composite
def _multi_class_chains(draw):
    """Row-stochastic matrices with transient states, a periodic closed
    class, one or two aperiodic closed classes, and a shuffled order.

    Returns (matrix, start); `start` is a transient state or any state.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    aperiodic = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    n_transient = draw(st.integers(1, 5))
    n = sum(groups) + sum(aperiodic) + n_transient
    p = np.zeros((n, n))
    # Periodic class: group g moves only into group g+1 (mod len(groups)).
    bounds = np.cumsum([0] + groups)
    for g in range(len(groups)):
        nxt = range(bounds[(g + 1) % len(groups)], bounds[(g + 1) % len(groups) + 1])
        for i in range(bounds[g], bounds[g + 1]):
            p[i, list(nxt)] = rng.random(len(nxt)) + 0.05
    first = bounds[-1]
    for size in aperiodic:
        block = range(first, first + size)
        for i in block:
            p[i, list(block)] = rng.random(size) + 0.05
        first += size
    for i in range(first, n):
        # Transient rows: random mass into the classes, at least 0.2 to one
        # recurrent state so that every transient state drains, and some
        # mass among the transients.
        p[i, :first] = rng.random(first) * (rng.random(first) < 0.5)
        p[i, rng.integers(first)] += 0.2
        p[i, first:] = rng.random(n - first) * (rng.random(n - first) < 0.5)
    p /= p.sum(axis=1, keepdims=True)
    order = rng.permutation(n)
    p = p[np.ix_(order, order)]
    position = np.argsort(order)
    start = draw(st.one_of(st.integers(first, n - 1), st.integers(0, n - 1)))
    return p, int(position[start])


class TestStationary:
    def test_two_state_swap(self):
        tm = _toy_matrix([[0, 1], [1, 0]])
        pi = stationary_distribution(tm, tm.states[0])
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_absorbing_state(self):
        tm = _toy_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
        pi = stationary_distribution(tm, tm.states[0])
        assert pi == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_periodic_class_with_random_entry(self):
        # 0 jumps into a period-2 cycle {1,2}: the long-run average is uniform on it.
        tm = _toy_matrix([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        pi = stationary_distribution(tm, tm.states[0])
        assert pi == pytest.approx([0.0, 0.5, 0.5], abs=1e-9)

    def test_matches_oracle_on_random_chain(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 6)) + 0.01
        rows = raw / raw.sum(axis=1, keepdims=True)
        tm = _toy_matrix(rows.tolist())
        pi = stationary_distribution(tm, tm.states[0])
        assert np.abs(pi - stationary_oracle(tm.matrix, 0)).max() <= 1e-8

    def test_absorption_weighting(self):
        # From 0: 30% into absorbing 1, 70% into absorbing 2.
        tm = _toy_matrix([[0.0, 0.3, 0.7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pi = stationary_distribution(tm, tm.states[0])
        assert pi == pytest.approx([0.0, 0.3, 0.7], abs=1e-10)
        assert stationary_oracle(tm.matrix, 0) == pytest.approx([0.0, 0.3, 0.7], abs=1e-10)

    def test_start_inside_a_closed_class(self):
        # Starting in the absorbing state 2 never sees the other class.
        tm = _toy_matrix([[0.0, 0.3, 0.7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pi = stationary_distribution(tm, tm.states[2])
        assert pi.tolist() == [0.0, 0.0, 1.0]

    @settings(max_examples=150, deadline=None)
    @given(_multi_class_chains())
    def test_matches_oracle_on_multi_class_chains(self, chain):
        p, start = chain
        tm = _toy_matrix(p)
        pi = stationary_distribution(tm, tm.states[start])
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi - stationary_oracle(p, start)).max() <= 1e-8

    def test_scenario_chain_residual_and_solver_agreement(self):
        scenario = make_scenario(interval_m=10.0, p1=0.4, p2=0.3, turn_on_fraction=0.62)
        tm = build_transition_matrix(scenario, 200)
        pi = stationary_distribution(tm)
        assert float(np.abs(pi @ tm.matrix - pi).max()) < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)
        assert np.abs(pi - stationary_oracle(tm.matrix, 0)).max() <= 1e-8


class TestChainMetrics:
    def test_no_downlink_probabilities(self):
        result = solve_chain(make_scenario(interval_m=9.0), 200)
        assert result.pdl1 == 0.0
        assert result.pdl2 == 0.0

    def test_energy_never_binding(self):
        result = solve_chain(make_scenario(power_w=10.0, p1=1.0, interval_m=5.0), 200)
        assert result.pdr == pytest.approx(1.0, abs=1e-12)
        assert result.pdl1 == pytest.approx(1.0, abs=1e-12)

    def test_case_a_very_high_interval_pdr_one(self):
        # Case A at M = 40 s and threshold 70%: chain and simulator both
        # deliver every uplink (the simulator loses only its cold start).
        scenario = make_scenario(ul_pl=8, interval_m=40.0, turn_on_fraction=0.70)
        result = solve_chain(scenario, G)
        assert result.pdr == pytest.approx(1.0, abs=1e-9)
        stats, _ = run_simulation(scenario, seed=1, n_scheduled=1000)
        assert abs(result.pdr - stats.pdr) < 0.003

    def test_strict_rx2_flag_never_increases(self):
        scenario = make_scenario(interval_m=9.0, p2=1.0, turn_on_fraction=0.58)
        printed = solve_chain(scenario, 200)
        strict = solve_chain(scenario, 200, strict_rx2_threshold=True)
        assert strict.pdl2 <= printed.pdl2
        assert strict.pdr == printed.pdr
