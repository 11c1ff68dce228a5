import dataclasses
import math
import pathlib
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, event, example, given, reject, settings,
                        strategies as st)

from caplora import characterize, cycle, defaults, markov, simulator
from caplora.characterize import ACCURACY_CASES, M_CLASSES, accuracy_case_edits, edit_scenario
from caplora.cli import f_val
from caplora.config import load_scenario
from caplora.energy import DeviceState, compile_phase, time_to_voltage, voltage_after, wake_time
from caplora.errors import InfeasibleScenario, ScenarioError
from caplora.markov import (
    OFF,
    SL0,
    SL1,
    ChainState,
    Rewards,
    TransitionMatrix,
    _affine,
    _closed_classes,
    _Quantized,
    _search,
    build_transition_matrix,
    chain_metrics,
    level_of,
    long_run_metrics,
    solve_chain,
    stationary_distribution,
)
from caplora.cycle import min_interval_bound
from caplora.simulator import run_simulation

from conftest import (
    ReferenceRowBuilder,
    _dense_classes,
    dense_matrix,
    exact_stationary,
    make_circuit,
    make_scenario,
    phase_with,
    reference_build,
    reference_chain,
    reference_closed_classes,
    reference_stationary,
    reference_thresholds,
    stationary_oracle,
    turn_on,
    with_phases,
)

G = 750
PARASITIC_INI = str(pathlib.Path(__file__).parent / "data" / "parasitic.ini")
EVEN_INI = str(pathlib.Path(__file__).parent / "data" / "stochastic_even.ini")


def _step(phase, level, *t, g=G):
    """One step of the chain's level map, min(max(round((offset + level / g
    * decay) * g), 0), v_max), which the build inlines: a timed phase's own
    affine constants, a recharge phase's _affine over its time t."""
    offset, decay = _affine(phase, *t) if t else (phase.offset, phase.decay)
    nxt = round((offset + level / g * decay) * g)
    return min(max(nxt, 0), level_of(defaults.OPERATING_VOLTAGE, g))


def _row(scenario, g, state):
    """The build's row of `state`: the first row of the chain searched from it."""
    tm = _search(scenario, g, start=state)
    return {tm.states[j]: p for j, p in zip(tm.successors[0], tm.probabilities[0])}, \
        tm.rewards[0]


def _awake(scenario, g, level):
    """The kind and Rewards the build gives the awake state at `level`."""
    tm = _search(scenario, g, start=ChainState(SL1, level))
    return tm.states[0].kind, tm.rewards[0]


def _least_sl1(scenario, g):
    """The least awake level the build calls SL1, by bisection over the
    levels from v_min to v_max: the uplink's end is monotone in its start."""
    lo, hi = level_of(scenario.circuit.v_min, g), level_of(scenario.circuit.operating_voltage, g)
    while lo < hi:
        mid = (lo + hi) // 2
        if _awake(scenario, g, mid)[0] == SL1:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestDiscreteOps:
    """The one-step discrete voltage map the chain compiles from phases."""

    def test_zero_time_is_identity(self):
        circuit = make_scenario(interval_m=9.0).circuit
        for state in DeviceState:
            timed, recharge = compile_phase(circuit, state, 0.0), compile_phase(circuit, state)
            for level in (1350, 1732, 2400):
                assert _step(timed, level) == level
                assert _step(recharge, level, 0.0) == level

    def test_wakeup_level_at_100mw(self):
        # 17 ms in Off at 100 mW lifts 1.8 V to ~1.848 V = level 1386 at 1 mV/level.
        scenario = make_scenario(power_w=0.1, interval_m=9.0)
        got = _step(scenario.phases["off"], level_of(1.8, 1000), 0.017, g=1000)
        assert abs(got - 1848) <= 2

    def test_composition_error_at_most_one_level(self):
        circuit = make_scenario(interval_m=9.0).circuit
        for state in (DeviceState.OFF, DeviceState.TX, DeviceState.LISTEN):
            for level in (1400, 1800, 2200):
                for t1, t2 in ((0.05, 0.4), (1.0, 2.5), (0.01, 0.01)):
                    first, second, both = (compile_phase(circuit, state, t)
                                           for t in (t1, t2, t1 + t2))
                    two = _step(second, _step(first, level))
                    one = _step(both, level)
                    assert abs(two - one) <= 1

    def test_time_between_levels(self):
        scenario = make_scenario(power_w=0.1, c_farads=1.0, interval_m=9.0)
        circuit = scenario.circuit
        start, target = level_of(1.8, G), level_of(0.56 * 3.3, G)
        assert time_to_voltage(circuit, DeviceState.OFF, start / G, start / G) == 0.0
        t = time_to_voltage(circuit, DeviceState.OFF, start / G, target / G)
        assert t == pytest.approx(3.55, rel=0.02)
        assert _step(scenario.phases["off"], start, t) == target
        assert time_to_voltage(circuit, DeviceState.OFF, start / G, level_of(3.3, G) / G) \
            == math.inf

    @pytest.mark.parametrize("esr,epr", [(0.0, math.inf), (20.0, math.inf), (20.0, 50e3)])
    def test_matches_the_phase_primitive(self, esr, epr):
        circuit = make_circuit(esr=esr, epr=epr)
        for state in DeviceState:
            recharge = compile_phase(circuit, state)
            for level in (1350, 1600, 2100, 2400):
                for t in (0.0, 0.046, 1.0, 9.0):
                    want = level_of(voltage_after(circuit, state, level / G, t), G)
                    assert _step(compile_phase(circuit, state, t), level) == want
                    assert _step(recharge, level, t) == want

    def test_ties_round_to_even(self):
        # v_limit 4 V and decay 1/2 take level 1 at g = 1 to exactly 2.5 V,
        # a tie, which goes to the even level as level_of rounds it.
        tie = phase_with(compile_phase(make_circuit(), DeviceState.IDLE, 1.0),
                         v_limit=4.0, decay=0.5)
        assert _step(tie, 1, g=1) == level_of(2.5, 1) == 2

    def test_granularity_validated(self):
        scenario = make_scenario(interval_m=9.0)
        with pytest.raises(ScenarioError):
            build_transition_matrix(scenario, 0)

    # A bool is an int to isinstance: solve_chain(s, True) once ran at g = 1.
    @pytest.mark.parametrize("g", [True, False])
    def test_granularity_is_a_whole_number_not_a_bool(self, g):
        scenario = make_scenario(interval_m=9.0)
        for call in (build_transition_matrix, solve_chain):
            with pytest.raises(ScenarioError, match=f"granularity must be an integer >= 1, "
                                                    f"got {g!r}"):
                call(scenario, g)


class TestThresholdLevels:
    """Where the chain's one survival rule puts its decisions: the least
    level whose uplink completes, and the capacitors that fund none."""

    def test_negligible_discharge_needs_one_level(self):
        # 1 F at 100 mW barely sags during a 26 ms uplink: the minimal
        # surviving level is exactly one above the turn-off level.
        scenario = make_scenario(ul_pl=1, power_w=0.1, c_farads=1.0, interval_m=9.0)
        v_min = level_of(scenario.circuit.v_min, G)
        assert _least_sl1(scenario, G) == v_min + 1
        assert [_awake(scenario, G, level)[0] for level in (v_min, v_min + 1)] == [SL0, SL1]

    def test_tx_threshold_agrees_with_cycle_engine(self):
        scenario = make_scenario(interval_m=9.0)
        v_min, v_tx = level_of(scenario.circuit.v_min, G), _least_sl1(scenario, G)
        v_end = voltage_after(scenario.circuit, DeviceState.TX, v_tx / G, scenario.schedule.t_tx)
        assert abs(level_of(v_end, G) - (v_min + 1)) <= 1
        # one level lower must not survive
        v_below = voltage_after(scenario.circuit, DeviceState.TX,
                                (v_tx - 1) / G, scenario.schedule.t_tx)
        assert level_of(v_below, G) <= v_min + 1

    def test_tiny_capacitor_infeasible(self):
        scenario = make_scenario(sf=11, ul_pl=48, c_farads=0.1e-3, interval_m=30.0)
        with pytest.raises(InfeasibleScenario, match="can fund a 1069.1 ms transmission"):
            build_transition_matrix(scenario, G)

    def test_ordering(self):
        scenario = make_scenario(interval_m=9.0)
        circuit = scenario.circuit
        v_min, v_max = level_of(circuit.v_min, G), level_of(circuit.operating_voltage, G)
        assert v_min < level_of(scenario.v_on, G) <= v_max
        assert v_min < _least_sl1(scenario, G) <= v_max
        assert [_awake(scenario, G, level)[0] for level in (v_min, v_max)] == [SL0, SL1]


def _scanned_threshold(phase, g, v_min, v_max):
    """The least level in [v_min, v_max] whose Phase.after end, rounded and
    clipped, lies above the level of the phase's v_off; v_max + 1 if none.
    Every level is tried from v_min up."""
    target = level_of(phase.v_off, g) + 1
    return next((level for level in range(v_min, v_max + 1)
                 if min(max(level_of(phase.after(level / g), g), 0), v_max) >= target),
                v_max + 1)


@settings(max_examples=60, deadline=None)
@given(capacitor=st.sampled_from(({}, {"esr": 20.0}, {"esr": 20.0, "epr": 50e3})),
       frame=st.sampled_from(((7, 16, 1), (7, 8, 1), (9, 48, 1), (12, 16, 51))),
       c_farads=st.sampled_from([0.1e-3, 1e-3, 4.7e-3, 47e-3]),
       power_w=st.sampled_from([1e-3, 1e-2]), threshold=st.sampled_from([0.56, 0.7, 0.9]),
       g=st.integers(1, 20_000))
# The sentinel: window 2's packet drains 1 mF at every level, window 1's does not.
@example(capacitor={}, frame=(7, 16, 1), c_farads=1e-3, power_w=1e-3, threshold=0.7, g=50)
# No level funds the uplink: InfeasibleScenario.
@example(capacitor={}, frame=(7, 16, 1), c_farads=0.1e-3, power_w=1e-3, threshold=0.7, g=50)
@example(capacitor={"esr": 20.0, "epr": 50e3}, frame=(7, 8, 1), c_farads=4.7e-3, power_w=1e-3,
         threshold=0.7, g=20_000)
@example(capacitor={}, frame=(7, 16, 1), c_farads=4.7e-3, power_w=1e-3, threshold=0.7, g=1)
def test_the_chain_decides_as_the_scanned_levels(capacitor, frame, c_farads, power_w, threshold,
                                                 g):
    # Each awake state's kind and each window's reward, in the built chain and
    # at each scanned threshold's edge, are those of the thresholds scanned
    # level by level: SL1 from the least level whose uplink survives, and a
    # detected window receives where listening survives and its packet
    # starts at or above the least level that packet survives from.
    sf, ul_pl, dl_pl = frame
    scenario = _parasitic(make_scenario(sf=sf, ul_pl=ul_pl, dl_pl=dl_pl, c_farads=c_farads,
                                        power_w=power_w, interval_m=300.0, p1=0.5, p2=0.5),
                          threshold=threshold, **capacitor)
    circuit, phases = scenario.circuit, scenario.phases
    v_min, v_max = level_of(circuit.v_min, g), level_of(circuit.operating_voltage, g)
    v_tx, v_rx1, v_rx2 = (_scanned_threshold(phases[slot], g, v_min, v_max)
                          for slot in ("tx", "rx1", "rx2"))
    if v_tx > v_max:
        with pytest.raises(InfeasibleScenario):
            build_transition_matrix(scenario, g)
        return
    q1, q2 = scenario.branch_odds["rx1"][0], scenario.branch_odds["rx2"][0]

    def step(slot, level):
        return min(max(level_of(phases[slot].after(level / g), g), 0), v_max)

    def survives(slot, level):
        return level > level_of(phases[slot].v_off, g)

    def starts(level):
        """Each window's packet start level: where its listening ends."""
        w1 = step("listen1", step("idle1", step("tx", level)))
        return w1, step("listen2", step("idle2", w1))

    def scanned(level):
        if level < v_tx:
            return SL0, Rewards(lost=1.0)
        w1, w2 = starts(level)
        got1 = survives("listen1", w1) and w1 >= v_rx1
        got2 = survives("listen1", w1) and survives("listen2", w2) and w2 >= v_rx2
        return SL1, Rewards(0.0, q1 if got1 else 0.0, q2 if got2 else 0.0)

    tm = build_transition_matrix(scenario, g)
    for state, reward in zip(tm.states, tm.rewards):
        if state.kind != OFF:
            assert (state.kind, reward) == scanned(state.level), state
    # The levels on either side of v_tx, and of the least SL1 level whose
    # packet starts at v_rx in each window; starts(level) is monotone.
    edges = {max(v_tx - 1, v_min), v_tx}
    for window, v_rx in enumerate((v_rx1, v_rx2)):
        lo, hi = v_tx, v_max + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if starts(mid)[window] >= v_rx else (mid + 1, hi)
        edges |= {level for level in (lo - 1, lo) if v_tx <= level <= v_max}
    for level in sorted(edges):
        assert _awake(scenario, g, level) == scanned(level), level


class TestTransitionMatrix:
    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                       (0.5, 0.0), (0.3, 0.6)])
    def test_rows_stochastic(self, p1, p2):
        scenario = make_scenario(interval_m=9.0, p1=p1, p2=p2)
        tm = build_transition_matrix(scenario, 200)
        sums = dense_matrix(tm).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just({}), st.fixed_dictionaries({"esr": st.floats(0.1, 20.0),
                                                         "epr": st.floats(5e4, 1e6)})),
           st.floats(2e-3, 50e-3), st.floats(1e-3, 1e-2), st.floats(0.56, 0.9),
           st.floats(5.0, 60.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(20, 300))
    def test_rows_stochastic_over_generated_scenarios(self, capacitor, c_farads, power_w,
                                                      threshold, m, p1, p2, g):
        try:
            circuit = make_circuit(c_farads=c_farads, power_w=power_w, **capacitor)
            scenario = make_scenario(interval_m=m, p1=p1, p2=p2, turn_on_fraction=threshold,
                                     circuit=circuit)
            tm = build_transition_matrix(scenario, g)
        except (ScenarioError, InfeasibleScenario):
            assume(False)
        matrix = dense_matrix(tm)
        assert np.all(matrix >= 0.0)
        assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-12)
        for i, row in enumerate(tm.successors):
            assert sorted(row) == np.flatnonzero(matrix[i]).tolist()

    def test_deterministic_chain_has_single_entry_rows(self):
        scenario = make_scenario(interval_m=9.0)
        tm = build_transition_matrix(scenario, 200)
        assert np.all(np.count_nonzero(dense_matrix(tm), axis=1) == 1)

    def test_branch_counts(self):
        scenario = make_scenario(interval_m=9.0, p1=0.5, p2=0.25, turn_on_fraction=0.6)
        tm = build_transition_matrix(scenario, 200)
        counts = np.count_nonzero(dense_matrix(tm), axis=1)
        for i, state in enumerate(tm.states):
            if state.kind in (OFF, SL0):
                assert counts[i] == 1
            else:
                assert counts[i] <= 6

    def test_single_bernoulli_split(self):
        # p1 = 0.5, p2 = 0: SL1 rows split into at most two half-weight branches.
        scenario = make_scenario(interval_m=9.0, p1=0.5, turn_on_fraction=0.6)
        tm = build_transition_matrix(scenario, 200)
        matrix = dense_matrix(tm)
        counts = np.count_nonzero(matrix, axis=1)
        for i, state in enumerate(tm.states):
            if state.kind == SL1:
                assert counts[i] <= 2
                row = matrix[i]
                assert all(p in (0.5, 1.0) for p in row[row > 0])

    def test_state_space_bound_and_ranges(self):
        scenario = make_scenario(interval_m=9.0, p1=0.5, p2=0.5)
        tm = build_transition_matrix(scenario, 200)
        thr = reference_thresholds(scenario, 200)
        assert len(tm.states) <= 3 * (thr.v_max + 1)
        for state in tm.states:
            if state.kind == OFF:
                assert 0 <= state.level < thr.v_on
            elif state.kind == SL0:
                assert thr.v_min <= state.level < thr.v_tx
            else:
                assert thr.v_tx <= state.level <= thr.v_max

    def test_coordinate_dump_shape(self):
        scenario = make_scenario(interval_m=9.0, p1=0.3, p2=0.6)
        tm = build_transition_matrix(scenario, 100)
        lines = list(tm.coordinate_lines())
        matrix = dense_matrix(tm)
        assert len(lines) == np.count_nonzero(matrix)
        for i, row in enumerate(tm.successors):
            assert sorted(row) == np.flatnonzero(matrix[i]).tolist()
        kinds = {OFF, SL0, SL1}
        for line in lines:
            src_kind, src_level, dst_kind, dst_level, prob = line.split(",")
            assert src_kind in kinds and dst_kind in kinds
            assert 0.0 < float(prob) <= 1.0


def _toy_matrix(rows, kinds=None, rewards=()):
    matrix = np.asarray(rows, dtype=float)
    n = len(matrix)
    states = tuple(ChainState(kinds[i] if kinds else OFF, i) for i in range(n))
    successors = tuple(tuple(np.flatnonzero(row).tolist()) for row in matrix)
    probabilities = tuple(tuple(row[list(cols)].tolist()) for row, cols in zip(matrix, successors))
    return TransitionMatrix(states=states, successors=successors, probabilities=probabilities,
                            rewards=tuple(rewards))


@st.composite
def _multi_class_chains(draw):
    """Row-stochastic matrices with transient states, a periodic closed
    class, one or two aperiodic closed classes, and a shuffled order whose
    state 0, the start, is a transient state or any state.
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
    start = draw(st.one_of(st.integers(first, n - 1), st.integers(0, n - 1)))
    order = [start, *rng.permutation([i for i in range(n) if i != start])]
    return p[np.ix_(order, order)]


class TestStationary:
    def test_two_state_swap(self):
        tm = _toy_matrix([[0, 1], [1, 0]])
        pi = stationary_distribution(tm)
        assert pi == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_absorbing_state(self):
        tm = _toy_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
        pi = stationary_distribution(tm)
        assert pi == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_periodic_class_with_random_entry(self):
        # 0 jumps into a period-2 cycle {1,2}: the long-run average is uniform on it.
        tm = _toy_matrix([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        pi = stationary_distribution(tm)
        assert pi == pytest.approx([0.0, 0.5, 0.5], abs=1e-9)

    def test_matches_oracle_on_random_chain(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 6)) + 0.01
        rows = raw / raw.sum(axis=1, keepdims=True)
        tm = _toy_matrix(rows.tolist())
        pi = stationary_distribution(tm)
        assert np.abs(pi - stationary_oracle(dense_matrix(tm), 0)).max() <= 1e-8

    def test_absorption_weighting(self):
        # From 0: 30% into absorbing 1, 70% into absorbing 2.
        tm = _toy_matrix([[0.0, 0.3, 0.7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pi = stationary_distribution(tm)
        assert pi == pytest.approx([0.0, 0.3, 0.7], abs=1e-10)
        assert stationary_oracle(dense_matrix(tm), 0) == pytest.approx([0.0, 0.3, 0.7], abs=1e-10)

    def test_absorption_through_a_transient_loop(self):
        # 0 and 1 are transient and feed each other: from 0 the chain is
        # absorbed into 2 with odds x = 0.2 + 0.5 * 0.5 * x, so x = 4/15.
        tm = _toy_matrix([[0.0, 0.5, 0.2, 0.3], [0.5, 0.0, 0.0, 0.5],
                          [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        pi = stationary_distribution(tm)
        assert pi == pytest.approx([0.0, 0.0, 4 / 15, 11 / 15], rel=4 * 2.0**-53)

    def test_start_inside_a_closed_class(self):
        # Starting in the absorbing state 0 never sees the other class.
        tm = _toy_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.7, 0.3, 0.0]])
        pi = stationary_distribution(tm)
        assert list(pi) == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("tiny", [1e-200, 1e-160])
    def test_a_way_back_that_underflows(self, tiny):
        # 1 leaves only for 2, with odds `tiny`, and 2 returns to 0 with odds
        # `tiny`.  Eliminating 2 routes 1's way back to 0 through tiny * tiny,
        # which underflows: to 0.0 at 1e-200, so 1's exit sum is 0.0, and to
        # a subnormal at 1e-160, over which 1's mass overflows.  Either way 1
        # holds the mass of the class censored on {0, 1}, and pi_0 is
        # tiny**2, past or at the edge of the float range.
        tm = _toy_matrix([[0.0, 1.0, 0.0], [0.0, 1.0, tiny], [tiny, 1.0, 0.0]])
        pi = stationary_distribution(tm)
        assert pi == [0.0, 1.0, tiny]
        exact = [float(q) for q in exact_stationary(tm, [0, 1, 2])]
        assert pi == pytest.approx(exact, rel=1e-15, abs=1e-300)

    @settings(max_examples=150, deadline=None)
    @given(_multi_class_chains())
    def test_matches_oracle_on_multi_class_chains(self, p):
        tm = _toy_matrix(p)
        pi = stationary_distribution(tm)
        assert min(pi) >= 0.0
        assert sum(pi) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pi - stationary_oracle(p, 0)).max() <= 1e-8

    def test_scenario_chain_residual_and_solver_agreement(self):
        scenario = make_scenario(interval_m=10.0, p1=0.4, p2=0.3, turn_on_fraction=0.62)
        tm = build_transition_matrix(scenario, 200)
        pi = stationary_distribution(tm)
        assert float(np.abs(pi @ dense_matrix(tm) - pi).max()) < 1e-10
        assert sum(pi) == pytest.approx(1.0, abs=1e-12)
        assert min(pi) >= 0
        assert np.abs(pi - stationary_oracle(dense_matrix(tm), 0)).max() <= 1e-8


def _grid_chains(p_combos, granularities):
    """The accuracy grid's chains at a 70 % threshold, infeasible cells left out."""
    base = make_scenario(interval_m=9.0)
    for case_id in ACCURACY_CASES:
        for m_class in M_CLASSES:
            for p1, p2 in p_combos:
                scenario = edit_scenario(base, {**accuracy_case_edits((case_id, m_class)),
                                                "p1": p1, "p2": p2, "threshold": 0.70})
                for g in granularities:
                    try:
                        yield build_transition_matrix(scenario, g)
                    except InfeasibleScenario:
                        pass


def _carries_no_dense_matrix(tm) -> bool:
    """TransitionMatrix has no dense-matrix attribute, and none of `tm`'s
    fields is an array: the chain is kept as its rows only."""
    return not hasattr(TransitionMatrix, "matrix") and not any(
        isinstance(value, np.ndarray) for value in vars(tm).values())


# GTH adds, multiplies and divides nonnegative floats and never subtracts,
# so each entry of its answer is accurate relative to itself (O'Cinneide,
# Numer. Math. 65, 1993): its relative error is at most the unit roundoff
# u times a count of the operations it rests on.  On a class of k states,
# k - 1 eliminations each update at most (k - 1)**2 entries with a multiply
# and an add; with the divisions, exit sums, back-substitution and
# normalization that is fewer than 2 k**3 operations, the bound allowed.
# The rational solve of a class past 160 states takes seconds (9 s at 340
# states on a 2-vCPU host), so larger classes skip it.
_EXACT_STATES = 160


def _relative_bound(k: int) -> float:
    return 2 * k**3 * 2.0**-53


def _check_solve(tm, pi):
    """pi against the dense LU solve the solver once was, within 1e-12, with
    the same printed metrics, and, on a class of at most _EXACT_STATES,
    against the rational solve within _relative_bound, entry by entry."""
    want = reference_stationary(dense_matrix(tm), 0)
    assert np.abs(np.array(pi) - want).max() <= 1e-12
    printed = [[f_val(x) for x in (r.pdr, r.pdl1, r.pdl2)]
               for r in (chain_metrics(pi, tm), chain_metrics(want.tolist(), tm))]
    assert printed[0] == printed[1]
    (members,) = tm.closed_classes
    assert all(p == 0.0 for i, p in enumerate(pi) if i not in set(members))
    if len(members) <= _EXACT_STATES:
        bound = Fraction(_relative_bound(len(members)))
        for i, q in zip(members, exact_stationary(tm, members)):
            assert abs(Fraction(pi[i]) - q) <= bound * q, (tm.states[i], pi[i], float(q))


class TestSolveFromRows:
    """The solver reads the rows: its answer is the rational solve's within
    GTH's entrywise bound and the dense solve's within 1e-12, a cycle
    takes its closed form, and the chain carries no dense matrix."""

    def test_stochastic_chains_match_the_exact_and_dense_solves(self):
        parasitic = edit_scenario(load_scenario(PARASITIC_INI).scenario,
                                  {"threshold": 0.7, "interval_m": 15.0})
        chains = [tm for tm in (*_grid_chains(((0.5, 0.5), (0.3, 0.7)), (750, 2000)),
                                build_transition_matrix(parasitic, G))
                  if any(len(row) > 1 for row in tm.successors)]
        assert len(chains) > 60
        assert sum(len(tm.closed_classes[0]) <= _EXACT_STATES for tm in chains) > 50
        for tm in chains:
            pi = stationary_distribution(tm)
            assert _carries_no_dense_matrix(tm)
            _check_solve(tm, pi)

    def test_the_largest_chain_matches_the_dense_solve(self):
        # tests/data/chain_even5000_matrix.csv: 665 states, a closed class of
        # 664 behind the transient start, chain_grid's largest class; too
        # large for the rational solve.
        with pytest.warns(UserWarning, match="ul_payload_bytes = 8"):
            base = load_scenario(EVEN_INI).scenario
        scenario = edit_scenario(base, {"threshold": 0.7, "interval_m": 35.0})
        tm = build_transition_matrix(scenario, 5000)
        assert len(tm.states) == 665 and sum(map(len, tm.successors)) == 1964
        pi = stationary_distribution(tm)
        assert sum(p > 0.0 for p in pi) == 664
        _check_solve(tm, pi)

    def test_cycle_chains_take_one_over_their_length(self):
        chains = list(_grid_chains(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (G,)))
        assert len(chains) > 40
        for tm in chains:
            assert all(len(row) == 1 for row in tm.successors)
            pi = stationary_distribution(tm)
            chain_metrics(pi, tm)
            assert _carries_no_dense_matrix(tm)
            cycle = [p for p in pi if p > 0.0]
            assert cycle == [1.0 / len(cycle)] * len(cycle)
            want = reference_stationary(dense_matrix(tm), 0).tolist()
            assert all(abs(p - q) <= 2 * math.ulp(q) for p, q in zip(pi, want))

    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (0.3, 0.5)])
    def test_solve_chain_leaves_the_matrix_unbuilt(self, p1, p2, monkeypatch):
        built = []

        def recording(scenario, g):
            built.append(build_transition_matrix(scenario, g))
            return built[-1]

        monkeypatch.setattr(markov, "build_transition_matrix", recording)
        result = solve_chain(make_scenario(interval_m=40.0, p1=p1, p2=p2), G)
        assert type(result.pi) is list and len(result.pi) == len(built[0].states)
        assert _carries_no_dense_matrix(built[0])


# Rewards of the hand-built chains: a lost uplink, and two delivering ones.
_LOST, _RX1, _RX2 = Rewards(lost=1.0), Rewards(pdl1=0.25), Rewards(pdl2=0.5)


# long_run_metrics reads the rewards of a class only when it is the one
# closed class the start reaches and its states carry one Rewards.
@pytest.mark.parametrize("rows,rewards,want", [
    # A transient start absorbed 30 % into state 1 and 70 % into state 2,
    # each a class of one Rewards: the metrics weigh both.
    ([[0.0, 0.3, 0.7], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (_LOST, _LOST, _RX1),
     (0.7, 0.175, 0.0)),
    # The start in the cycle 0 <-> 1; the closed state 2 lies out of its reach.
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], (_RX1, _RX1, _LOST),
     (1.0, 0.25, 0.0)),
    # A transient start that reaches state 2 only; state 1 is closed and unreached.
    ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], (_LOST, _LOST, _RX2),
     (1.0, 0.0, 0.5)),
    # One class, the cycle 1 -> 2 -> 1 behind the start, with two Rewards.
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], (_LOST, _LOST, _RX2),
     (0.5, 0.0, 0.25)),
])
def test_long_run_metrics_weigh_the_reached_classes(rows, rewards, want):
    tm = _toy_matrix(rows, rewards=rewards)
    result = long_run_metrics(tm)
    assert (result.pdr, result.pdl1, result.pdl2) == pytest.approx(want, abs=1e-12)
    solved = chain_metrics(stationary_distribution(tm), tm)
    assert (result.pdr, result.pdl1, result.pdl2) == (solved.pdr, solved.pdl1, solved.pdl2)
    assert result.pi == stationary_distribution(tm)


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


def _parasitic(scenario, threshold=None, **capacitor):
    circuit = scenario.circuit
    cap = dataclasses.replace(circuit.capacitor, **capacitor)
    v_sl = scenario.v_sl if threshold is None else turn_on(threshold)
    return dataclasses.replace(scenario, circuit=dataclasses.replace(circuit, capacitor=cap),
                               v_sl=v_sl)


class TestParasiticEdgeCases:
    """ESR 20 ohm puts the Tx turn-off voltage (~2.10 V) above the wake
    target (~1.98 V at a 60 % threshold)."""

    def _builder(self):
        scenario = _parasitic(make_scenario(interval_m=9.0), threshold=0.6, esr=20.0)
        thr = reference_thresholds(scenario, G)
        assert thr.v_off[DeviceState.TX] > thr.v_on
        return scenario, thr, SimpleNamespace(row=partial(_row, scenario, G))

    def _sleep_from(self, scenario, level, t):
        return level_of(voltage_after(scenario.circuit, DeviceState.SLEEP, level / G, t), G)

    def test_entered_below_turn_off_dies_at_once(self):
        # An uplink started below the Tx turn-off level dies at t = 0 and
        # leaves the capacitor where it was: it wakes at once and sleeps
        # out the whole interval from that level.
        scenario, thr, builder = self._builder()
        level = thr.v_off[DeviceState.TX] - 20
        ((_, got), prob), = builder.row(ChainState(SL0, level))[0].items()
        assert prob == 1.0
        assert got == self._sleep_from(scenario, level, 9.0)

    def test_turn_off_above_wake_target_wakes_at_once(self):
        # A mid-air turn-off leaves the capacitor at the Tx v_off, above
        # the wake target, so the device sleeps from there at once.
        scenario, thr, builder = self._builder()
        level = thr.v_tx - 1
        v_off = scenario.circuit.state_params(DeviceState.TX).v_off
        t_abort = time_to_voltage(scenario.circuit, DeviceState.TX, level / G, v_off)
        assert 0.0 < t_abort < scenario.schedule.t_tx
        ((_, got), _), = builder.row(ChainState(SL0, level))[0].items()
        assert got == self._sleep_from(scenario, thr.v_off[DeviceState.TX], 9.0 - t_abort)


    def test_listen_turns_off_at_its_own_level(self):
        # An SL1 level whose window-2 preamble ends between the v_min level
        # and the Listen turn-off level: the device is off.
        scenario, thr, builder = self._builder()
        circuit, sched = scenario.circuit, scenario.schedule

        def level_after(state, level, t):
            return level_of(voltage_after(circuit, state, level / G, t), G)

        def window2(level):
            v1 = level_after(DeviceState.IDLE, level_after(DeviceState.TX, level, sched.t_tx),
                             sched.t_id1)
            v2 = level_after(DeviceState.IDLE, level_after(DeviceState.LISTEN, v1, sched.t_l1),
                             sched.t_id2)
            return v2, level_after(DeviceState.LISTEN, v2, sched.t_l2)

        level = next(level for level in range(thr.v_tx, thr.v_max)
                     if thr.v_min < window2(level)[1] <= thr.v_off[DeviceState.LISTEN])
        v2 = window2(level)[0]
        v_off = circuit.state_params(DeviceState.LISTEN).v_off
        t_off = (sched.t_tx + sched.t_id1 + sched.t_l1 + sched.t_id2
                 + time_to_voltage(circuit, DeviceState.LISTEN, v2 / G, v_off))
        t_wake = time_to_voltage(circuit, DeviceState.OFF, v_off, scenario.v_on)
        want = self._sleep_from(scenario, thr.v_on, 9.0 - t_off - t_wake)
        ((_, got), _), = builder.row(ChainState(SL1, level))[0].items()
        assert abs(got - want) <= 1


def _pdl_oracle(scenario, g, tm, pi):
    """The model's delivery metrics over the chain's states, from voltage_after
    and level_of alone.  An SL1 state steps Tx, idle and listen; its window-1
    downlink is delivered when listening ends above the Listen v_off level
    and the packet, from there, ends above the Rx v_off level.  Window 2
    opens after the listen survives, and its downlink is delivered by the
    same two tests.  pdl1 sums p1 * pi over the states that deliver in
    window 1, pdl2 (1 - p1) * p2 * pi over those that deliver in window 2."""
    circuit, sched = scenario.circuit, scenario.schedule
    v_max = level_of(circuit.operating_voltage, g)

    def after(state, level, t):
        return min(max(level_of(voltage_after(circuit, state, level / g, t), g), 0), v_max)

    def survives(state, level):
        return level > level_of(circuit.state_params(state).v_off, g)

    pdr = pdl1 = pdl2 = 0.0
    for state, mass in zip(tm.states, pi):
        if state.kind != SL1:
            continue
        v1 = after(DeviceState.IDLE, after(DeviceState.TX, state.level, sched.t_tx), sched.t_id1)
        w1 = after(DeviceState.LISTEN, v1, sched.t_l1)
        w2 = after(DeviceState.LISTEN, after(DeviceState.IDLE, w1, sched.t_id2), sched.t_l2)
        opened2 = survives(DeviceState.LISTEN, w1)
        got1 = opened2 and survives(DeviceState.RX, after(DeviceState.RX, w1, sched.t_rx1))
        got2 = (opened2 and survives(DeviceState.LISTEN, w2)
                and survives(DeviceState.RX, after(DeviceState.RX, w2, sched.t_rx2)))
        pdr += mass
        pdl1 += scenario.p1 * mass * got1
        pdl2 += (1.0 - scenario.p1) * scenario.p2 * mass * got2
    return pdr, pdl1, pdl2


class TestMetricsOracle:
    # Cells chosen so that, at p2 > 0, some states with stationary mass enter
    # window 2 above the Listen turn-off level and yet lose the downlink:
    # the listen or the packet from there turns the device off.
    @pytest.mark.parametrize("g", [100, 750])
    @pytest.mark.parametrize("p1,p2", [(1.0, 0.0), (0.0, 1.0), (0.3, 0.6)])
    @pytest.mark.parametrize("capacitor", [{}, {"esr": 20.0, "epr": 50e3}])
    def test_chain_metrics_match_the_model_formula(self, capacitor, p1, p2, g):
        for threshold, m, c_farads in ((0.56, 8.0, 4.7e-3), (0.7, 8.0, 15e-3),
                                       (0.7, 9.0, 15e-3), (0.7, 15.0, 15e-3)):
            scenario = _parasitic(make_scenario(interval_m=m, p1=p1, p2=p2, c_farads=c_farads),
                                  threshold=threshold, **capacitor)
            tm = build_transition_matrix(scenario, g)
            pi = stationary_distribution(tm)
            got = chain_metrics(pi, tm)
            want = _pdl_oracle(scenario, g, tm, pi)
            assert (got.pdr, got.pdl1, got.pdl2) == pytest.approx(want, abs=1e-12), (threshold, m)


# perfbench's parasitic chain cells: (threshold, M) at ESR 20 ohm / EPR 50 kohm.
PERFBENCH_PARASITIC = [(0.6, 9.0), (0.6, 20.0), (0.7, 9.0), (0.7, 20.0)]


class TestParasiticAgreement:
    def test_perfbench_cells(self):
        for threshold, m in PERFBENCH_PARASITIC:
            scenario = _parasitic(make_scenario(interval_m=m), threshold=threshold,
                                  esr=20.0, epr=50e3)
            sim = run_simulation(scenario, 1, 1000)[0].pdr
            for g in (750, 2000, 5000):
                assert abs(solve_chain(scenario, g).pdr - sim) < 0.01, (threshold, m, g)

    def test_accuracy_grid(self):
        # Criterion 6's tolerance (|dPDR| < 0.01 on >= 95 % of the cells) on
        # the accuracy cases at a 70 % threshold with two parasitic capacitors,
        # plus the perfbench cells.
        base = make_scenario(interval_m=9.0)
        cells = [_parasitic(make_scenario(interval_m=m), threshold=threshold,
                            esr=20.0, epr=50e3)
                 for threshold, m in PERFBENCH_PARASITIC]
        for capacitor in ({"esr": 20.0, "epr": 50e3}, {"esr": 1.5, "epr": 550e3}):
            for case_id in ACCURACY_CASES:
                for m_class in M_CLASSES:
                    for p1, p2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
                        scenario = edit_scenario(base, {
                            **accuracy_case_edits((case_id, m_class)),
                            "p1": p1, "p2": p2, "threshold": 0.70})
                        cells.append(_parasitic(scenario, **capacitor))
        good = sum(abs(solve_chain(s, G).pdr - run_simulation(s, 1, 1000)[0].pdr) < 0.01
                   for s in cells)
        assert good >= math.ceil(0.95 * len(cells)), f"only {good}/{len(cells)} cells agree"


# The oracle's capacitors: ideal, ESR only, and ESR with EPR leakage.
ORACLE_CAPACITORS = ({}, {"esr": 20.0}, {"esr": 20.0, "epr": 50e3})
# (sf, ul_pl, dl_pl): the stock SF7 frame, and three whose branch end times
# change if their durations are summed in another order: at 20 B the rx1
# and window-2 ends, at 36 B the rx2 and window-2 ends, at SF12 rx1 and rx2.
ORACLE_FRAMES = ((7, 16, 1), (7, 16, 20), (7, 16, 36), (12, 16, 41))


@settings(max_examples=150, deadline=None)
@given(capacitor=st.sampled_from(ORACLE_CAPACITORS), frame=st.sampled_from(ORACLE_FRAMES),
       p=st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.5)]),
       g=st.sampled_from([50, 750, 5000]), threshold=st.sampled_from([0.56, 0.7, 0.9]),
       c_farads=st.sampled_from([4.7e-3, 15e-3]), m=st.floats(0.0, 60.0))
# Two chains that receive in both windows and in neither.
@example(capacitor={}, frame=(7, 16, 20), p=(0.3, 0.5), g=50, threshold=0.56,
         c_farads=15e-3, m=40.0)
@example(capacitor={}, frame=(7, 16, 36), p=(0.3, 0.5), g=50, threshold=0.9,
         c_farads=15e-3, m=20.0)
# The heaviest chain_grid cells of the benchmark: case A at p = (0.5, 0.5)
# (665 states) and case D at p = (0.3, 0.7), both at g = 5000.
@example(capacitor={}, frame=(7, 8, 1), p=(0.5, 0.5), g=5000, threshold=0.7,
         c_farads=4.7e-3, m=35.0)
@example(capacitor={}, frame=(7, 16, 1), p=(0.3, 0.7), g=5000, threshold=0.7,
         c_farads=4.7e-3, m=40.0)
def test_the_compiled_chain_is_the_reference_chain(capacitor, frame, p, g, threshold, c_farads,
                                                   m):
    sf, ul_pl, dl_pl = frame
    base = make_scenario(sf=sf, ul_pl=ul_pl, dl_pl=dl_pl, p1=p[0], p2=p[1], c_farads=c_farads,
                         interval_m=60.0)
    # M runs from one float above the interval bound up to 60 s.
    least = math.nextafter(min_interval_bound(base.schedule, base.branches), math.inf)
    scenario = _parasitic(dataclasses.replace(base, interval_m=max(m, least)),
                          threshold=threshold, **capacitor)
    try:
        tm = build_transition_matrix(scenario, g)
    except InfeasibleScenario:
        with pytest.raises(InfeasibleScenario):
            reference_chain(scenario, g)
        return
    ref = reference_chain(scenario, g)
    assert tm.states == ref.states
    assert tm.successors == ref.successors
    assert tm.rewards == ref.rewards
    assert dense_matrix(tm).tobytes() == ref.matrix.tobytes()
    # Every sleep-out the reference took ends at the same float, and the
    # compiled (offset, decay) of each step, walked as the row walks it,
    # clips like the reference's at the edges of the range.
    table = _Quantized(scenario, g)
    assert {branch: table.ends[branch] for branch in ref.ends} == ref.ends
    v_max = level_of(scenario.circuit.operating_voltage, g)
    edges = (-1, 0, v_max, v_max + 1)

    def compiled(affine, level):
        offset, decay = affine
        return min(max(round((offset + level / g * decay) * g), 0), v_max)

    for phase in scenario.phases.values():
        if phase.duration is not None:
            assert [compiled((phase.offset, phase.decay), level) for level in edges] == \
                [ref.step(phase, level) for level in edges]
    sleep = scenario.phases["sleep"]
    for branch in scenario.branches:
        elapsed = scenario.interval_m - table.ends[branch]
        want = [ref.step(sleep, level, elapsed) for level in edges]
        assert [compiled(_affine(sleep, elapsed), level) for level in edges] == want


# The one-pass build against the builder it replaced (conftest.reference_build):
# every state, successor, probability bit, reward and closed class, on random
# scenarios with ideal and ESR/EPR parts, certain and interior odds.  The
# start is transient in most chains; no scenario of the model drawn so far
# reaches two closed classes, which test_closed_classes_are_the_dense_ones
# covers on random digraphs.
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sf=st.integers(7, 9), ul_pl=st.integers(1, 48), c_farads=st.floats(4.7e-3, 47e-3),
       power_w=st.floats(1e-3, 10e-3), threshold=st.floats(0.56, 0.9), m=st.floats(3.0, 90.0),
       p=st.one_of(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
                   st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
       capacitor=st.sampled_from(({}, {"esr": 20.0, "epr": 50e3})), g=st.integers(100, 5000))
# chain_grid's largest chain: case A at p = (0.5, 0.5), 665 states.
@example(sf=7, ul_pl=8, c_farads=4.7e-3, power_w=1e-3, threshold=0.7, m=35.0, p=(0.5, 0.5),
         capacitor={}, g=5000)
# An ESR/EPR chain that forks in both windows.
@example(sf=7, ul_pl=16, c_farads=4.7e-3, power_w=1e-3, threshold=0.7, m=20.0, p=(0.3, 0.7),
         capacitor={"esr": 20.0, "epr": 50e3}, g=2000)
# A recurrent start: on 42 mF at M = 3 s the device charges Off for five
# slots, sends one uplink and turns off at v_min again, so (OFF,
# level(v_min)) lies on the chain's one cycle of 6 states.
@example(sf=7, ul_pl=1, c_farads=0.041811000779908104, power_w=1e-3, threshold=0.56, m=3.0,
         p=(0.0, 0.0), capacitor={}, g=100)
# A chain of 3,200 states on interior odds, larger than any the draws reach.
@example(sf=7, ul_pl=1, c_farads=0.031998040513454284, power_w=1e-3, threshold=0.56,
         m=32.84068657751581, p=(0.20916034696257252, 0.9366546006434646), capacitor={}, g=3180)
def test_the_one_pass_build_is_the_reference_build(sf, ul_pl, c_farads, power_w, threshold, m,
                                                    p, capacitor, g):
    try:
        circuit = make_circuit(c_farads=c_farads, power_w=power_w, **capacitor)
        scenario = dataclasses.replace(make_scenario(sf=sf, ul_pl=ul_pl, interval_m=90.0,
                                                     p1=p[0], p2=p[1], circuit=circuit,
                                                     turn_on_fraction=threshold),
                                       interval_m=m)
    except ScenarioError:
        reject()
    try:
        tm = build_transition_matrix(scenario, g)
    except InfeasibleScenario:
        with pytest.raises(InfeasibleScenario):
            reference_build(scenario, g)
        return
    ref = reference_build(scenario, g)
    event("forks" if any(len(row) > 1 for row in tm.successors) else "one successor per row")
    event("transient start" if 0 not in reference_closed_classes(ref.successors)[0]
          else "recurrent start")
    assert tm.states == ref.states
    assert all(type(state.level) is int for state in tm.states)
    assert tm.successors == ref.successors
    assert [[q.hex() for q in row] for row in tm.probabilities] == \
        [[q.hex() for q in row] for row in ref.probabilities]
    assert tm.rewards == ref.rewards
    assert _closed_classes(tm.successors) == reference_closed_classes(ref.successors)


# long_run_metrics against the solve on random scenarios, drawn as for the
# one-pass build: where the start reaches one closed class whose states all
# carry one Rewards r, the metrics are r exactly, and the oracle's pi . r
# within 1e-12; every other chain's metrics are
# chain_metrics(stationary_distribution(tm), tm) bit for bit.  Either way
# pi, once read, is stationary_distribution(tm).
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sf=st.integers(7, 9), ul_pl=st.integers(1, 48), c_farads=st.floats(4.7e-3, 47e-3),
       power_w=st.floats(1e-3, 10e-3), threshold=st.floats(0.56, 0.9), m=st.floats(3.0, 90.0),
       p=st.one_of(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]),
                   st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))),
       capacitor=st.sampled_from(({}, {"esr": 20.0, "epr": 50e3})), g=st.integers(100, 2000))
# tests/data/stochastic.ini at g = 100: at M = 40 s a class of 23 states
# with one Rewards, at its own 10 s a class of 16 states with two.
@example(sf=7, ul_pl=16, c_farads=4.7e-3, power_w=1e-3, threshold=0.7, m=40.0, p=(0.3, 0.5),
         capacitor={}, g=100)
@example(sf=7, ul_pl=16, c_farads=4.7e-3, power_w=1e-3, threshold=0.7, m=10.0, p=(0.3, 0.5),
         capacitor={}, g=100)
# Two large classes whose states carry two or three Rewards, 1,121 and
# 1,676 states: the solve's fill-in, and so its cost, grows with the class.
@example(sf=8, ul_pl=30, c_farads=0.02138677421624265, power_w=0.008110817534657006,
         threshold=0.5687762299417004, m=5.397086544218402,
         p=(0.7692965912649417, 0.4894360743525107), capacitor={}, g=1705)
@example(sf=7, ul_pl=9, c_farads=0.03788574143027626, power_w=0.006216814794583635,
         threshold=0.6189466270051979, m=4.25, p=(0.49824023936994755, 0.9175316398472857),
         capacitor={}, g=1643)
# A subnormal p2: products of odds underflow, and in the elimination a
# state's exit sum comes out 0.0.
@example(sf=8, ul_pl=6, c_farads=0.03125, power_w=0.009765625, threshold=0.875, m=4.0,
         p=(0.25, 5e-324), capacitor={}, g=100)
def test_a_class_with_one_reward_is_its_reward(sf, ul_pl, c_farads, power_w, threshold, m, p,
                                               capacitor, g):
    try:
        circuit = make_circuit(c_farads=c_farads, power_w=power_w, **capacitor)
        scenario = dataclasses.replace(make_scenario(sf=sf, ul_pl=ul_pl, interval_m=90.0,
                                                     p1=p[0], p2=p[1], circuit=circuit,
                                                     turn_on_fraction=threshold),
                                       interval_m=m)
        tm = build_transition_matrix(scenario, g)
    except (ScenarioError, InfeasibleScenario):
        reject()
    classes = reference_closed_classes(tm.successors)
    rewards = {tm.rewards[i] for members in classes for i in members}
    if len(classes) == 1 and len(rewards) == 1:
        event("one reward")
        (reward,) = rewards
        result = long_run_metrics(tm)
        assert (result.pdr, result.pdl1, result.pdl2) == \
            (1.0 - reward.lost, reward.pdl1, reward.pdl2)
        oracle = stationary_oracle(dense_matrix(tm), 0) @ np.array(tm.rewards)
        assert (result.pdr, result.pdl1, result.pdl2) == \
            pytest.approx((1.0 - oracle[0], oracle[1], oracle[2]), abs=1e-12)
        solved = stationary_distribution(tm)
    else:
        event("two or more rewards" if len(classes) == 1 else "two or more classes")
        result = long_run_metrics(tm)
        solved = stationary_distribution(tm)
        want = chain_metrics(solved, tm)
        assert [x.hex() for x in (result.pdr, result.pdl1, result.pdl2)] == \
            [x.hex() for x in (want.pdr, want.pdl1, want.pdl2)]
    assert result.states == tm.states
    pi = result.pi
    assert result.pi is pi and [q.hex() for q in pi] == [q.hex() for q in solved]


# Timed slots with decay 1/2 at g = 16 levels per volt: level L steps to
# 8 v_limit + L / 2 exactly, a tie for every odd L.  At 1 V many rows turn
# off, at 2 V the steps settle on 32 through ties, and at 4 V they overrun
# v_max = 53, which the step clips.
@pytest.mark.parametrize("v_limit", [1.0, 2.0, 4.0])
def test_every_row_rounds_ties_to_even(v_limit):
    base = make_scenario(interval_m=9.0, p1=0.5, p2=0.5)
    tie = {slot: phase if phase.duration is None else phase_with(phase, v_limit=v_limit, decay=0.5)
           for slot, phase in base.phases.items()}
    scenario = with_phases(base, tie)
    thr = reference_thresholds(scenario, 16)
    reference = ReferenceRowBuilder(scenario, 16)
    states = [ChainState(OFF, level) for level in range(thr.v_on)] + \
        [ChainState(SL1 if level >= thr.v_tx else SL0, level)
         for level in range(thr.v_min, thr.v_max + 1)]
    for state in states:
        assert _row(scenario, 16, state) == reference.row(state), state
    # An Off phase that settles at 1 V, below the wake target, and halves its
    # distance to it over the 9 s interval: every OFF row stays Off, and
    # level L ends at 8 + L / 2, a tie for every odd L.
    tau = 12.984255368000671
    assert math.exp(-9.0 / tau) == 0.5
    off = phase_with(base.phases["off"], v_limit=1.0, tau=tau)
    stays_off = with_phases(base, {**tie, "off": off})
    reference = ReferenceRowBuilder(stays_off, 16)
    assert _row(stays_off, 16, ChainState(OFF, 1)) == ({ChainState(OFF, 8): 1.0}, Rewards(1.0))
    for state in states[:thr.v_on]:
        assert _row(stays_off, 16, state) == reference.row(state), state


def test_a_turn_off_sums_the_rest_of_its_interval_from_the_right():
    # From SL1 level 1475 the window-1 packet turns the device off t into
    # it, where the window opens at t_base and listening lasts t_lead.  At
    # this M the rest of the interval m - (t_base + (t_lead + t)) ends at or
    # before the Off wake time, so the device stays Off; summed as
    # m - ((t_base + t_lead) + t) it would end one float past it and wake.
    scenario = make_scenario(p1=1.0, turn_on_fraction=0.6, interval_m=7.784478601117753)
    table = _Quantized(scenario, G)
    off_level, v_off, cross, duration = table.turn_offs["rx1"]
    t_wake = wake_time(scenario.phases["off"], v_off, scenario.v_on)
    end = 1475
    for slot in ("tx", "idle1", "listen1"):
        end = _step(scenario.phases[slot], end)
    t_base, t_lead, t = table.opens["rx1"], scenario.phases["listen1"].duration, cross(end / G)
    assert off_level <= end < reference_thresholds(scenario, G).v_rx1 and t < duration
    assert _step(scenario.phases["rx1"], end) <= off_level
    m = scenario.interval_m
    assert m - (t_base + (t_lead + t)) <= t_wake < m - ((t_base + t_lead) + t)
    want = {ChainState(OFF, 1484): 1.0}, Rewards(0.0)
    assert _row(scenario, G, ChainState(SL1, 1475)) == want
    assert ReferenceRowBuilder(scenario, G).row((SL1, 1475)) == want


class TestSharedQuantization:
    """A phase table keeps the chain's quantized constants per g, which no
    threshold changes, so every chain on the table shares them, with no
    store passed in, and chains on different tables never share them."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(g, wake target, table) of every _Quantized built."""
        built = []
        init = _Quantized.__init__

        def counted(self, scenario, g):
            built.append((g, scenario.v_on, scenario.table))
            init(self, scenario, g)

        monkeypatch.setattr(_Quantized, "__init__", counted)
        return built

    def test_a_library_loop_shares_with_no_store(self, built):
        base = make_scenario(interval_m=40.0, p1=0.3, p2=0.5)
        results = {(g, m): solve_chain(edit_scenario(base, {"interval_m": m}), g)
                   for g in (100, 200) for m in (9.0, 20.0, 40.0)}
        assert [(g, table) for g, _, table in built] == [(100, base.table), (200, base.table)]
        for (g, m), result in results.items():
            alone = solve_chain(dataclasses.replace(base, interval_m=m), g)
            assert (result.states, result.pdr, result.pdl1, result.pdl2) == \
                (alone.states, alone.pdr, alone.pdl1, alone.pdl2)

    def test_scenarios_on_different_tables_never_share(self, built):
        base = make_scenario(interval_m=40.0)
        larger = edit_scenario(base, {"capacitance": 0.01})
        assert larger.table is not base.table
        for scenario in (base, larger, base, larger):
            build_transition_matrix(scenario, 100)
        assert [table for _, _, table in built] == [base.table, larger.table]
        for scenario in (base, larger):
            [quantized] = scenario.table.quantized.values()
            assert {slot: cross.__self__ for slot, (*_, cross, _) in
                    quantized.turn_offs.items()} == {slot: scenario.phases[slot]
                                                     for slot in quantized.turn_offs}
        assert base.table.quantized[100] is not larger.table.quantized[100]

    def test_a_threshold_sweep_builds_one_per_g(self, built):
        # Nothing the table quantizes reads the wake target: the sweep's
        # first cell at each g quantizes the table for its other thresholds.
        base = make_scenario(interval_m=40.0, p1=0.3, p2=0.5)
        thresholds = (0.6, 0.65, 0.7)
        sweep = partial(characterize.threshold_sweep, base, axis="threshold", values=thresholds,
                        m_values=(9.0, 40.0), engine="chain")
        rows = {g: sweep(granularity=g) for g in (100, 200)}
        first = edit_scenario(base, {"threshold": thresholds[0]}).v_on
        assert [(g, v_on) for g, v_on, _ in built] == [(100, first), (200, first)]
        assert {table for _, _, table in built} == {base.table}
        assert list(base.table.quantized) == [100, 200]
        assert sweep(granularity=100) == rows[100] and len(built) == 2
        for g, cells in rows.items():
            for row in cells:
                alone = solve_chain(make_scenario(interval_m=row["m_s"], p1=0.3, p2=0.5,
                                                  turn_on_fraction=row["value"]), g)
                assert (row["pdr"], row["pdl1"], row["pdl2"]) == \
                    (alone.pdr, alone.pdl1, alone.pdl2)

@st.composite
def _digraphs(draw):
    """Successor rows, each nonempty and without repeats: a functional graph
    in breadth-first numbering (a path, then a cycle or a self-loop);
    strongly connected blocks behind a transient prefix whose rows lead on
    or into the blocks; or rows drawn at random.  Half are relabelled."""
    kind = draw(st.sampled_from(("functional", "blocks", "random")))
    if kind == "functional":
        n = draw(st.integers(1, 12))
        rows = [[i + 1] for i in range(n - 1)] + [[draw(st.integers(0, n - 1))]]
    elif kind == "blocks":
        n_transient = draw(st.integers(0, 5))
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        n = n_transient + sum(sizes)
        rows = [draw(st.lists(st.integers(i, n - 1), min_size=1, max_size=3, unique=True))
                for i in range(n_transient)]
        first = n_transient
        for size in sizes:
            block = list(range(first, first + size))
            for r in range(size):
                extra = draw(st.lists(st.sampled_from(block), max_size=2))
                rows.append(list(dict.fromkeys([block[(r + 1) % size], *extra])))
            first += size
    else:
        n = draw(st.integers(1, 10))
        rows = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
                for _ in range(n)]
    if draw(st.booleans()):
        label = draw(st.permutations(range(n)))
        relabelled = [None] * n
        for i, row in enumerate(rows):
            relabelled[label[i]] = [label[j] for j in row]
        rows = relabelled
    return tuple(tuple(row) for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_digraphs())
@example(((0,),))                       # one self-loop
@example(((1,), (2,), (3,), (1,)))      # a path into a cycle
@example(((1,), (2,), (2,)))            # a path into a self-loop
@example(((1,), (0,), (0,)))            # one successor each, not breadth-first
@example(((1, 2), (1,), (3,), (2,)))    # a transient start, two closed classes
def test_closed_classes_are_the_dense_ones(successors):
    n = len(successors)
    p = np.zeros((n, n))
    for i, row in enumerate(successors):
        p[i, list(row)] = 1.0 / len(row)
    classes, _ = _dense_classes(p)
    got = _closed_classes(successors)
    assert sorted(got) == [members.tolist() for members in classes]
    assert got == reference_closed_classes(successors)


# Differential check of the engines on random deterministic scenarios: the
# chain against 20,000 simulated uplinks, within 0.01 on every metric.  The
# chain's long run drops the simulator's cold start, which 20,000 uplinks
# dilute below 0.01.  The chain runs at g = 5000.  Where an orbit turns on
# a voltage margin finer than its 0.2 mV level step, that chain can settle
# into another orbit; the chain at 10**9 levels per volt resolves the margin
# and answers there instead.
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(sf=st.integers(7, 9), ul_pl=st.integers(1, 48), dl_pl=st.integers(1, 16),
       c_farads=st.floats(4.7e-3, 47e-3), power_w=st.floats(1e-3, 10e-3),
       threshold=st.floats(0.56, 0.9), m=st.floats(3.0, 90.0),
       p=st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
# The stock device with every downlink in window 2, which a gate on the level
# entering the window credited with pdl2 = 1 while the simulator receives none.
@example(sf=7, ul_pl=16, dl_pl=1, c_farads=4.7e-3, power_w=1e-3, threshold=0.56, m=8.0,
         p=(0.0, 1.0))
# Two margins below the g = 5000 level step.  The first cold-start turn-off
# wakes 0.6 ms after a slot: at g = 5000 the chain wakes before it and
# settles with PDR 1/4 where the simulator gives 1/7.  An uplink ends 9 uV
# above the turn-off voltage: at g = 5000 every uplink aborts, PDR 0 against
# the simulator's 1/2.
@example(sf=7, ul_pl=33, dl_pl=1, c_farads=0.04307542300858672, power_w=1e-3,
         threshold=0.5728936944863968, m=5.0, p=(0.0, 0.0))
@example(sf=7, ul_pl=7, dl_pl=7, c_farads=4.7e-3, power_w=1e-3, threshold=0.56,
         m=3.7162881263669583, p=(0.0, 0.0))
def test_the_chain_and_the_simulator_agree(sf, ul_pl, dl_pl, c_farads, power_w, threshold, m,
                                          p):
    try:
        scenario = make_scenario(sf=sf, ul_pl=ul_pl, dl_pl=dl_pl, interval_m=m, p1=p[0],
                                 p2=p[1], power_w=power_w, c_farads=c_farads,
                                 turn_on_fraction=threshold)
        chain = solve_chain(scenario, 5000)
    except (ScenarioError, InfeasibleScenario):
        reject()
    sim = run_simulation(scenario, seed=1, n_scheduled=20_000)[0]
    metrics = ("pdr", "pdl1", "pdl2")

    def gaps(chain):
        return [abs(getattr(chain, k) - getattr(sim, k)) for k in metrics]

    if max(gaps(chain)) >= 0.01:
        chain = solve_chain(scenario, 10**9)
    assert max(gaps(chain)) < 0.01, dict(zip(metrics, gaps(chain)))


def test_the_window_2_cycle_fills_the_least_admitted_interval():
    # At one float above the bound, the chain's longest cycle, a window-2
    # reception, sleeps out what is left of the interval from the bound.
    base = make_scenario(p2=1.0, power_w=10.0)
    bound = min_interval_bound(base.schedule, base.branches)
    scenario = dataclasses.replace(base, interval_m=math.nextafter(bound, math.inf))
    ends = _Quantized(scenario, 100).ends
    assert {branch: ends[branch] for branch in scenario.branches} == {"rx2": bound}
    tm = build_transition_matrix(scenario, 100)
    assert chain_metrics(stationary_distribution(tm), tm).pdl2 == 1.0


def test_sums_add_left_to_right(monkeypatch):
    """Python 3.12's sum compensates while 3.10 and 3.11 add left to right,
    so the builtin would print other floats on 3.12.  The chain metrics,
    the window-2 total, the branch table's window and cycle times and
    min-interval add left to right instead."""
    def compensated(*args):
        raise AssertionError("the builtin sum of floats is compensated since Python 3.12")

    for module in (markov, characterize, simulator, cycle):
        monkeypatch.setattr(module, "sum", compensated, raising=False)
    pi = [1e16, 1.0, -1e16]
    assert math.fsum(pi) == 1.0          # what a compensated sum gives
    tm = SimpleNamespace(states=(None,) * 3, rewards=(Rewards(lost=1.0, pdl1=1.0),) * 3)
    result = chain_metrics(pi, tm)
    assert (result.pdr, result.pdl1) == (1.0, 0.0)   # (1e16 + 1.0) rounds back to 1e16
    with pytest.raises(ScenarioError, match="bound 3.111296 s"):
        make_scenario(interval_m=3.0, p2=1.0)
    assert characterize.min_tx_interval(make_scenario(), "rx2") > 0.0
    scenario = make_scenario(interval_m=40.0, p1=0.3, p2=0.5)
    assert set(_Quantized(scenario, 50).ends) == set(scenario.branches) == \
        {"rx1", "rx2", "silent"}
    assert len(build_transition_matrix(scenario, 50).states) > 1
    assert run_simulation(scenario, 1, 20, trace=True)[0].n_scheduled == 20
