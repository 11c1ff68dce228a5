import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from caplora import simulator
from caplora.characterize import CycleCheck, edit_scenario
from caplora.cli import main
from caplora.config import parse_scenario
from caplora.energy import (ASYMPTOTE_GUARD_V, DeviceState, compile_phase, time_to_voltage,
                            voltage_after, wake_time)
from caplora.errors import ScenarioError
from caplora.cycle import _SLOTS, BRANCHES, PATH, min_interval_bound
from caplora.simulator import SimStats, TracePoint, run_simulation, single_cycle_trace

from conftest import (REFERENCE_TALLY, PhaseWalk, make_circuit, make_loads, make_scenario,
                      reference_count_tail)


class TestScenarioValidation:
    def test_interval_bound_enforced(self):
        with pytest.raises(ScenarioError, match="interval"):
            make_scenario(interval_m=2.0)  # SF7 bound is ~2.71 s

    def test_probability_ranges(self):
        with pytest.raises(ScenarioError):
            make_scenario(p1=1.5)
        with pytest.raises(ScenarioError):
            make_scenario(p2=-0.1)

    @pytest.mark.parametrize("p1, p2, branches", [
        (0.0, 0.0, ("silent",)), (1.0, 0.0, ("rx1",)), (1.0, 1.0, ("rx1",)),
        (0.0, 1.0, ("rx2",)), (0.5, 0.0, ("rx1", "silent")), (0.0, 0.5, ("rx2", "silent")),
        (0.5, 1.0, ("rx1", "rx2")), (0.5, 0.5, ("rx1", "rx2", "silent")),
        (1 - 2**-53, 1e-310, ("rx1", "rx2", "silent"))])
    def test_the_interval_bound_covers_a_reachable_window_2_reception(self, p1, p2, branches):
        # The stock SF7 sequence is 2.709888 s as the analytic cycle counts
        # it, and 3.111296 s with a window-2 preamble and packet.  The last
        # case reaches rx2 though its odds (1 - p1) * p2 underflow to 0.
        assert make_scenario(p1=p1, p2=p2).branches == branches
        if "rx2" in branches:
            with pytest.raises(ScenarioError, match="bound 3.111296 s"):
                make_scenario(interval_m=3.0, p1=p1, p2=p2)
        else:
            assert make_scenario(interval_m=3.0, p1=p1, p2=p2).interval_m == 3.0

    @pytest.mark.parametrize("p1, p2", [(p1, p2) for p1 in (0.0, 0.3, 1.0)
                                        for p2 in (0.0, 0.5, 1.0)] + [(1 - 2**-53, 1e-310)])
    def test_the_branch_odds_are_the_draw_order_products(self, p1, p2):
        # rx1 is detected by its own draw, rx2 by its draw after a window-1
        # miss, silent by two misses; each is reachable when every factor of
        # its product is above 0, whether or not the product underflows.
        scenario = make_scenario(p1=p1, p2=p2)
        assert scenario.branch_odds == {
            "rx1": (p1, p1 > 0),
            "rx2": ((1.0 - p1) * p2, p1 < 1 and p2 > 0),
            "silent": ((1.0 - p1) * (1.0 - p2), p1 < 1 and p2 < 1),
        }
        assert scenario.branches == tuple(
            b for b, (_, reachable) in scenario.branch_odds.items() if reachable)

    def test_the_fork_path_forks_each_detected_branch_at_its_listening_slot(self):
        assert PATH == (("tx", None), ("idle1", None), ("listen1", "rx1"),
                                   ("idle2", None), ("listen2", "rx2"))

    @pytest.mark.parametrize("sf, dl_pl", [(7, 1), (9, 48), (12, 222)])
    def test_the_window_2_bound_is_the_walks_rx2_cycle(self, sf, dl_pl):
        # Bit for bit: the walk adds the rx2 branch's durations from t = 0
        # in the order the bound adds them.
        scenario = make_scenario(sf=sf, dl_pl=dl_pl, interval_m=60.0, p2=1.0,
                                 power_w=0.01, c_farads=1.0)
        cycle, _ = simulator._compile_walk(scenario, 1, None)
        rx2 = simulator._path(scenario.phases, BRANCHES["rx2"].slots)
        _, stop, _, t = cycle(scenario.circuit.charge_ceiling(), 0.0, rx2, None)
        bound = min_interval_bound(scenario.schedule, scenario.branches)
        assert stop is None and t.hex() == bound.hex()
        assert bound > min_interval_bound(scenario.schedule)

    @pytest.mark.parametrize("m, n, trace", [(1e306, 1000, False), (1e308, 5, False),
                                             (1e308, 3, True)])
    def test_a_horizon_past_the_largest_float_is_rejected(self, m, n, trace):
        # k * M would turn inf part way through the run (at k = 180 for
        # 1e306 s), and with it every later slot and the settle margins.
        scenario = make_scenario(interval_m=m)
        with pytest.raises(ScenarioError, match="finite"):
            run_simulation(scenario, 1, n, trace=trace)
        with pytest.raises(ScenarioError, match="finite"):
            simulator.run_seeds(dataclasses.replace(scenario, p1=0.5), (1, 2), n)
        assert run_simulation(make_scenario(interval_m=1e305), 1, 1000)[0].pdr > 0.99


    @pytest.mark.parametrize("n", [True, False, 2.5, 1000.0, "10", None])
    def test_n_scheduled_is_a_whole_number_of_slots(self, n):
        # True once counted as one slot and ran with pdr 0.0; 2.5 raised a bare TypeError.
        message = f"n_scheduled must be a whole number of slots, got {n!r}"
        with pytest.raises(ScenarioError) as raised:
            run_simulation(make_scenario(), 1, n)
        assert str(raised.value) == message
        for trace in (False, True):
            with pytest.raises(ScenarioError, match="whole number"):
                run_simulation(make_scenario(), 1, n, trace=trace)
        with pytest.raises(ScenarioError, match="whole number"):
            simulator.run_seeds(make_scenario(p1=0.5), (1, 2), n)

    # random.Random(-s) draws what Random(s) draws: run_seeds once ran
    # seeds (1, -1) as seed 1 twice, (True, 2) as seeds 1 and 2 and 2.5 as
    # a seed of its own.
    @pytest.mark.parametrize("seeds, message", [
        ([1, -1], "seeds must be >= 0, got [1, -1]"), ((-3,), "seeds must be >= 0, got [-3]"),
        ([2.5, 3], "seeds must be whole numbers, got [2.5, 3]"),
        ([True, 2], "seeds must be whole numbers, got [True, 2]"),
        (["1"], "seeds must be whole numbers, got ['1']"),
        ((1, 1), "seeds must not repeat a value, got [1, 1]"),
        ([3, 1, 3], "seeds must not repeat a value, got [3, 1, 3]")])
    @pytest.mark.parametrize("p1", [0.0, 0.5])
    def test_run_seeds_rejects_negative_or_repeated_seeds(self, seeds, message, p1):
        with pytest.raises(ScenarioError) as raised:
            simulator.run_seeds(make_scenario(p1=p1), seeds, 10)
        assert str(raised.value) == message
        with pytest.raises(ScenarioError) as raised:
            simulator.check_seeds(seeds)
        assert str(raised.value) == message

    # run_simulation once returned seed 1's counters for seed -1, and ran
    # 1.5, True and "7" as seeds of their own.
    @pytest.mark.parametrize("seed, message", [
        (-1, "seeds must be >= 0, got [-1]"), (1.5, "seeds must be whole numbers, got [1.5]"),
        (True, "seeds must be whole numbers, got [True]"),
        ("7", "seeds must be whole numbers, got ['7']")])
    @pytest.mark.parametrize("trace", [False, True])
    def test_run_simulation_checks_its_seed_as_run_seeds_does(self, seed, message, trace):
        with pytest.raises(ScenarioError) as raised:
            run_simulation(make_scenario(p1=0.5), seed, 10, trace=trace)
        assert str(raised.value) == message


class TestDeterminism:
    def test_bit_identical_reruns(self):
        scenario = make_scenario(p1=0.5, p2=0.5, interval_m=9.0, turn_on_fraction=0.58)
        a_stats, a_trace = run_simulation(scenario, seed=42, n_scheduled=300, trace=True)
        b_stats, b_trace = run_simulation(scenario, seed=42, n_scheduled=300, trace=True)
        assert a_stats == b_stats
        assert a_trace == b_trace

    def test_seed_changes_fractional_outcomes(self):
        scenario = make_scenario(p1=0.5, interval_m=9.0, turn_on_fraction=0.58)
        runs = {run_simulation(scenario, seed=s, n_scheduled=200)[0].n_dl1_success
                for s in range(6)}
        assert len(runs) > 1


class TestOutcomeAccounting:
    def test_counters_partition_schedule(self):
        for p1, p2, thr in [(0.0, 0.0, 0.58), (1.0, 0.0, 0.7), (0.0, 1.0, 0.6), (0.4, 0.7, 0.65)]:
            scenario = make_scenario(p1=p1, p2=p2, interval_m=9.0, turn_on_fraction=thr)
            stats, _ = run_simulation(scenario, seed=7, n_scheduled=400)
            assert (stats.n_tx_success + stats.n_tx_lost_off + stats.n_tx_aborted
                    == stats.n_scheduled)
            assert stats.pdr == stats.n_tx_success / 400

    def test_enormous_harvester_loses_only_the_cold_start(self):
        # 10 W means energy is never binding; only the t=0 uplink (device
        # boots Off at v_min) is lost.
        scenario = make_scenario(power_w=10.0, p1=1.0, interval_m=5.0)
        stats, _ = run_simulation(scenario, seed=1, n_scheduled=100)
        assert stats.n_tx_lost_off == 1
        assert stats.n_tx_success == 99
        assert stats.n_dl1_success == 99

    def test_aborted_transmissions_counted(self):
        # Waking barely above the turn-off threshold cannot finish a 16 B
        # uplink at 1 mW, so early attempts abort mid-air.
        scenario = make_scenario(turn_on_fraction=0.56, interval_m=5.0)
        stats, _ = run_simulation(scenario, seed=3, n_scheduled=200)
        assert stats.n_tx_aborted > 0


class TestWindowStructure:
    def test_p1_one_never_opens_window2(self):
        scenario = make_scenario(power_w=10.0, p1=1.0, p2=1.0, interval_m=5.0)
        stats, _ = run_simulation(scenario, seed=11, n_scheduled=150)
        assert stats.n_dl2_success == 0
        assert stats.n_dl2_aborted == 0
        assert stats.n_dl1_success == stats.n_tx_success

    def test_no_downlink_listens_twice_per_cycle(self):
        scenario = make_scenario(power_w=10.0, interval_m=5.0)
        stats, trace = run_simulation(scenario, seed=11, n_scheduled=50, trace=True)
        listens = sum(1 for p in trace if p.device_state is DeviceState.LISTEN)
        assert listens == 2 * stats.n_tx_success

    @pytest.mark.parametrize("p1, p2, branch, slots, counter", [
        (1.0, 0.0, "rx1", (("TX", "t_tx"), ("IDLE", "t_id1"), ("LISTEN", "t_l1"), ("RX", "t_rx1")),
         "n_dl1_success"),
        (0.0, 1.0, "rx2", (("TX", "t_tx"), ("IDLE", "t_id1"), ("LISTEN", "t_l1"), ("IDLE", "t_id2"),
                           ("LISTEN", "t_l2"), ("RX", "t_rx2")), "n_dl2_success"),
        (0.0, 0.0, "silent", (("TX", "t_tx"), ("IDLE", "t_id1"), ("LISTEN", "t_l1"),
                              ("IDLE", "t_id2"), ("LISTEN", "t_l2")), None)],
        ids=["rx1", "rx2", "silent"])
    def test_a_completed_cycle_walks_its_branch_slots(self, p1, p2, branch, slots, counter):
        # The one on-slot at 10 W completes and walks its branch's slots in
        # order, each for its schedule duration, then sleeps; the table
        # lists the same (state, duration) slots.
        scenario = make_scenario(power_w=10.0, p1=p1, p2=p2, interval_m=5.0)
        stats, trace = run_simulation(scenario, seed=1, n_scheduled=2, trace=True)
        assert (stats.n_tx_lost_off, stats.n_tx_success) == (1, 1)
        assert [name for name in ("n_dl1_success", "n_dl2_success")
                if getattr(stats, name)] == ([counter] if counter else [])
        cycle = [point for point in trace if point.time >= scenario.interval_m]
        assert [point.device_state for point in cycle] == \
            [DeviceState[state] for state, _ in slots] + [DeviceState.SLEEP]
        s = scenario.schedule
        assert [b.time - a.time for a, b in zip(cycle, cycle[1:])] == \
            pytest.approx([getattr(s, name) for _, name in slots], rel=1e-9)
        assert [_SLOTS[slot] for slot in BRANCHES[branch].slots] == \
            [(DeviceState[state], name) for state, name in slots]

    def test_pdr_nondecreasing_in_interval(self):
        pdrs = []
        for m in (5.0, 10.0, 40.0):
            scenario = make_scenario(ul_pl=8, interval_m=m)
            stats, _ = run_simulation(scenario, seed=5, n_scheduled=300)
            pdrs.append(stats.pdr)
        assert pdrs == sorted(pdrs)


class TestReferenceBehaviour:
    def test_every_9s_at_58pct_threshold(self):
        # 4.7 mF / 1 mW / SF7 / 16 B up, no downlink: transmitting every
        # 9 s works once the turn-on threshold is ~58%; only the cold
        # start is lost.
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58)
        stats, _ = run_simulation(scenario, seed=2, n_scheduled=1000)
        assert stats.n_tx_lost_off == 1
        assert stats.pdr >= 0.998

    def test_second_window_starves_at_4p7mf(self):
        # The same capacitor can never fund an SF12 reception in window 2:
        # every attempt aborts.
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58, p2=1.0)
        stats, _ = run_simulation(scenario, seed=2, n_scheduled=500)
        assert stats.n_dl2_success == 0
        assert stats.n_dl2_aborted > 0


class TestTrace:
    def test_times_strictly_increasing_and_voltage_bounded(self):
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58, p1=0.3, p2=0.5)
        _, trace = run_simulation(scenario, seed=9, n_scheduled=120, trace=True)
        assert len(trace) > 10
        times = [p.time for p in trace]
        assert all(a < b for a, b in zip(times, times[1:]))
        e = scenario.circuit.operating_voltage
        assert all(0.0 <= p.voltage <= e for p in trace)

    def test_csv_shape(self, tmp_path):
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.58)
        _, trace = run_simulation(scenario, seed=9, n_scheduled=5, trace=True)
        out = tmp_path / "trace.csv"
        assert main(["trace", "--m", "9", "--threshold", "0.58", "--seed", "9",
                     "--n", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time_s,voltage_v,state"
        assert len(lines) == len(trace) + 1
        assert all(line.count(",") == 2 for line in lines)
        assert lines[1:] == [f"{p.time:.9g},{p.voltage:.6g},{p.device_state}" for p in trace]


class TestSingleCycle:
    def test_from_turn_off_voltage_aborts_in_tx(self):
        scenario = make_scenario(interval_m=9.0)
        trace, v_end, completed = single_cycle_trace(
            scenario, scenario.circuit.v_min, "none")
        assert not completed
        assert v_end == scenario.circuit.v_min
        assert trace[-1].device_state is DeviceState.OFF

    def test_full_cycle_from_near_asymptote(self):
        scenario = make_scenario(interval_m=9.0)
        v_hi = scenario.circuit.charge_ceiling() - 1e-6
        trace, v_end, completed = single_cycle_trace(scenario, v_hi, "none")
        assert completed
        assert v_end > scenario.circuit.v_min

    def test_final_voltage_matches_closed_form_chain(self):
        scenario = make_scenario(interval_m=9.0)
        circuit = scenario.circuit
        v_hi = circuit.charge_ceiling() - 1e-6
        for dl_case in ("none", "rx1", "rx2"):
            _, v_end, completed = single_cycle_trace(scenario, v_hi, dl_case)
            v = v_hi
            for state, duration in CycleCheck(circuit, scenario.schedule, dl_case).phases:
                v = voltage_after(circuit, state, v, duration)
            if completed:
                assert v_end == pytest.approx(v, abs=1e-9)

    def test_rejects_out_of_range_start(self):
        scenario = make_scenario(interval_m=9.0)
        with pytest.raises(ScenarioError):
            single_cycle_trace(scenario, 0.5, "none")
        with pytest.raises(ScenarioError):
            single_cycle_trace(scenario, 2.0, "bogus")


class _ReferenceWalk:
    """The simulator's algorithm stepped with the public closed forms.

    Every phase calls voltage_after / time_to_voltage afresh on the
    capacitor voltage; the device turns off where it reaches the state's
    v_off (at once when entered at or below it, staying where it is) and
    wakes at v_on (at once when already there).  Draws follow the README
    order (one when window 1 opens, one more only if window 1 stayed
    silent).  A point replaces one at the same instant unless that one
    is a turn-off.  The compiled phase-table walk must match it exactly.
    """

    def __init__(self, scenario, v, off):
        self.c, self.v, self.off, self.t = scenario.circuit, v, off, 0.0
        self.v_on = scenario.v_on
        self.trace = []

    def mark(self, t, state):
        point = TracePoint(t, self.v, state)
        if self.trace and self.trace[-1].time == t \
                and self.trace[-1].device_state is not DeviceState.OFF:
            self.trace[-1] = point
        else:
            self.trace.append(point)

    def phase(self, state, duration):
        c = self.c
        self.mark(self.t, state)
        v_off = c.state_params(state).v_off
        dt = time_to_voltage(c, state, self.v, v_off) if self.v > v_off else 0.0
        if dt <= duration:
            self.v, self.off, self.t = min(self.v, v_off), True, self.t + dt
            self.mark(self.t, DeviceState.OFF)
            return False
        self.v = voltage_after(c, state, self.v, duration)
        self.t += duration
        return True

    def recharge(self, t_to):
        c, v_on = self.c, self.v_on
        if t_to > self.t and self.off:
            t_wake = time_to_voltage(c, DeviceState.OFF, self.v, v_on) if self.v < v_on \
                else 0.0
            if self.t + t_wake > t_to:
                self.v = voltage_after(c, DeviceState.OFF, self.v, t_to - self.t)
            else:
                self.v, self.off = max(self.v, v_on), False
                self.t += t_wake
                self.mark(self.t, DeviceState.SLEEP)
        if t_to > self.t and not self.off:
            self.v = voltage_after(c, DeviceState.SLEEP, self.v, t_to - self.t)
        self.t = t_to


def reference_run(scenario, seed, n_scheduled):
    s = scenario.schedule
    rng = random.Random(seed)
    walk = _ReferenceWalk(scenario, scenario.circuit.v_min, off=True)
    walk.mark(0.0, DeviceState.OFF)
    n = dict.fromkeys(("ok", "lost", "aborted"), 0)
    dl_ok, dl_aborted = [0, 0], [0, 0]
    windows = ((scenario.p1, s.t_l1, s.t_rx1), (scenario.p2, s.t_l2, s.t_rx2))
    for k in range(n_scheduled):
        t_k = k * scenario.interval_m
        if walk.t > t_k:
            n["lost"] += 1
            continue
        walk.recharge(t_k)
        if walk.off:
            n["lost"] += 1
            continue
        if not walk.phase(DeviceState.TX, s.t_tx):
            n["aborted"] += 1
            continue
        n["ok"] += 1
        if not walk.phase(DeviceState.IDLE, s.t_id1):
            continue
        for w, (p, t_listen, t_rx) in enumerate(windows):
            if w == 1 and not walk.phase(DeviceState.IDLE, s.t_id2):
                break
            detected = rng.random() < p
            if not walk.phase(DeviceState.LISTEN, t_listen):
                dl_aborted[w] += detected
                break
            if detected:
                if walk.phase(DeviceState.RX, t_rx):
                    dl_ok[w] += 1
                    walk.mark(walk.t, DeviceState.SLEEP)
                else:
                    dl_aborted[w] += 1
                break
        else:
            walk.mark(walk.t, DeviceState.SLEEP)
    stats = SimStats(n_scheduled, n["ok"], n["lost"], n["aborted"],
                     dl_ok[0], dl_aborted[0], dl_ok[1], dl_aborted[1])
    return stats, walk.trace


def reference_cycle(scenario, v_start, dl_case):
    walk = _ReferenceWalk(scenario, v_start, off=False)
    for state, duration in CycleCheck(scenario.circuit, scenario.schedule, dl_case).phases:
        if not walk.phase(state, duration):
            return walk.trace, walk.v, False
    walk.mark(walk.t, DeviceState.SLEEP)
    return walk.trace, walk.v, True


CAPACITORS = {"ideal": {}, "esr_epr": {"esr": 20.0, "epr": 50e3},
              "esr_only": {"esr": 1.5}, "esr_high": {"esr": 20.0}}


def _scenario(capacitor, threshold, m, p1, p2, c_farads=4.7e-3):
    circuit = make_circuit(c_farads=c_farads, **CAPACITORS[capacitor])
    return make_scenario(interval_m=m, p1=p1, p2=p2, turn_on_fraction=threshold, circuit=circuit)


_P = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _generated_runs(draw):
    """(scenario, seed, n): a generated operating point and a run of n <= 200 uplinks."""
    p = _P
    try:
        c_farads, power_w = draw(st.floats(2e-3, 50e-3)), draw(st.floats(1e-3, 1e-2))
        threshold = draw(st.floats(0.56, 0.9))
        circuit = make_circuit(c_farads=c_farads, power_w=power_w,
                               **CAPACITORS[draw(st.sampled_from(sorted(CAPACITORS)))])
        scenario = make_scenario(interval_m=draw(st.floats(3.0, 60.0)), p1=draw(p), p2=draw(p),
                                 turn_on_fraction=threshold, circuit=circuit)
    except ScenarioError:
        assume(False)
    return scenario, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 200))


@st.composite
def _single_branch_runs(draw):
    """(scenario, seed, n) with one reachable branch, through the on/off
    regimes whose on-slot voltages cycle with a period."""
    p1, p2 = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))
    try:
        threshold = draw(st.floats(0.55, 0.98))
        circuit = make_circuit(**CAPACITORS[draw(st.sampled_from(["ideal", "esr_only",
                                                                  "esr_epr"]))])
        scenario = make_scenario(interval_m=draw(st.floats(5.0, 40.0)), p1=p1, p2=p2,
                                 turn_on_fraction=threshold, circuit=circuit)
    except ScenarioError:
        assume(False)
    return scenario, draw(st.integers(0, 2**32 - 1)), 1


class TestCounterProperties:
    @settings(max_examples=150, deadline=None)
    @given(_generated_runs())
    def test_counters_partition_and_bound(self, run):
        scenario, seed, n = run
        s, _ = run_simulation(scenario, seed, n)
        assert s.n_tx_success + s.n_tx_lost_off + s.n_tx_aborted == n
        assert (s.n_dl1_success + s.n_dl1_aborted + s.n_dl2_success + s.n_dl2_aborted
                <= s.n_tx_success)
        if scenario.p1 == 0.0:
            assert s.n_dl1_success == s.n_dl1_aborted == 0
        if scenario.p2 == 0.0 or scenario.p1 == 1.0:
            assert s.n_dl2_success == s.n_dl2_aborted == 0

    @settings(max_examples=75, deadline=None)
    @given(_generated_runs())
    def test_same_seed_same_run(self, run):
        scenario, seed, n = run
        first = run_simulation(scenario, seed, n, trace=True)
        assert run_simulation(scenario, seed, n, trace=True) == first
        assert run_simulation(scenario, seed, n)[0] == first[0]


class TestReferenceOracle:
    @pytest.mark.parametrize("capacitor", ["ideal", "esr_epr", "esr_high"])
    @pytest.mark.parametrize("p1,p2", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                       (1.0, 1.0), (0.3, 0.5)])
    def test_run_matches_reference_walk(self, capacitor, p1, p2):
        n = 300
        for m in (5.0, 9.0, 40.0):
            for threshold in (0.56, 0.6, 0.7, 0.9):
                scenario = _scenario(capacitor, threshold, m, p1, p2)
                for seed in (1, 7):
                    want = reference_run(scenario, seed, n)
                    assert run_simulation(scenario, seed, n, trace=True) == want
                    assert run_simulation(scenario, seed, n)[0] == want[0]

    @pytest.mark.parametrize("capacitor", ["ideal", "esr_epr"])
    def test_large_capacitor_window2_matches_reference_walk(self, capacitor):
        scenario = _scenario(capacitor, 0.7, 60.0, 0.0, 1.0, c_farads=47e-3)
        want = reference_run(scenario, 3, 150)
        assert want[0].n_dl2_success > 0
        assert run_simulation(scenario, 3, 150, trace=True) == want

    @pytest.mark.parametrize("capacitor", sorted(CAPACITORS))
    @pytest.mark.parametrize("dl_case", ["none", "rx1", "rx2"])
    def test_single_cycle_matches_reference_cycle(self, capacitor, dl_case):
        scenario = _scenario(capacitor, 0.7, 600.0, 0.0, 0.0)
        circuit = scenario.circuit
        ceiling = circuit.charge_ceiling() - 1e-6
        for k in range(11):
            v_start = circuit.v_min + (ceiling - circuit.v_min) * k / 10
            assert single_cycle_trace(scenario, v_start, dl_case) == \
                reference_cycle(scenario, v_start, dl_case)


def _compiled_phase(scenario, phase, v, t):
    """The compiled walk's step through the timed `phase` from v at time t:
    (completed, v, t, Off, trace points), floats as hex."""
    points = []
    cycle, _ = simulator._compile_walk(scenario, 1, points)
    _, stop, v, t = cycle(v, t, (("slot", phase, None),), None)
    return stop is None, v.hex(), t.hex(), stop is not None, points


def _oracle_phase(scenario, phase, v, t):
    """PhaseWalk's step through `phase`, with the Sleep point a completed cycle ends on."""
    walk = PhaseWalk(scenario, v, off=False, trace=True)
    walk.t = t
    completed = walk.phase(phase)
    if completed:
        walk.record(walk.t, DeviceState.SLEEP)
    return completed, walk.v.hex(), walk.t.hex(), walk.off, walk.points


def _compiled_recharge(scenario, v, t, off, j, n):
    """The compiled walk from v at time t, Off or on, through slots j, ...,
    n - 1: (the slot an uplink can start in, or n; v; the clock and Off
    flag at that slot; trace points), floats as hex."""
    points = []
    _, next_on = simulator._compile_walk(scenario, n, points)
    j, v = next_on(v, t, off, j)
    return j, v.hex(), ((j * scenario.interval_m).hex(), False) if j < n else None, points


def _oracle_recharge(scenario, v, t, off, j, n):
    walk = PhaseWalk(scenario, v, off, trace=True)
    walk.t = t
    table = scenario.phases
    while j < n and not walk.ready(j * scenario.interval_m, table["off"], table["sleep"]):
        j += 1
    return j, walk.v.hex(), (walk.t.hex(), walk.off) if j < n else None, walk.points


@st.composite
def _walk_scenarios(draw):
    """A scenario on an ideal, ESR-only or ESR/EPR part, whose Off state
    may settle below the wake target."""
    try:
        c_farads, power_w = draw(st.floats(1e-3, 0.1)), draw(st.floats(1e-3, 0.1))
        threshold = draw(st.floats(0.56, 0.98))
        circuit = make_circuit(c_farads=c_farads, power_w=power_w,
                               **CAPACITORS[draw(st.sampled_from(["ideal", "esr_only",
                                                                  "esr_epr"]))])
        return make_scenario(interval_m=draw(st.floats(3.0, 60.0)), turn_on_fraction=threshold,
                             circuit=circuit)
    except ScenarioError:
        assume(False)


def _around(*marks):
    """A voltage at, or one float either side of, one of `marks`, or anywhere in [0, 3.6]."""
    edges = sorted({x for mark in marks
                    for x in (mark, math.nextafter(mark, -math.inf), math.nextafter(mark, math.inf))})
    return st.one_of(st.sampled_from(edges), st.floats(0.0, 3.6))


class TestCompiledWalk:
    """The compiled walk (simulator._compile_walk, unpacking each Phase's
    constants) steps bit for bit as conftest.PhaseWalk steps through the
    Phases' after and cross: voltage, clock and Off flag as float hex, and
    the trace."""

    @pytest.mark.parametrize("capacitor", ["ideal", "esr_only", "esr_epr"])
    def test_each_phase_case(self, capacitor):
        scenario = _scenario(capacitor, 0.7, 9.0, 0.0, 0.0)
        tx, idle = scenario.phases["tx"], scenario.phases["idle1"]
        assert tx.v_guard == math.inf and idle.v_guard == idle.v_off
        # A Tx phase whose turn-off from 2.6 V falls exactly at its end.
        crossing = compile_phase(scenario.circuit, DeviceState.TX, tx.cross(2.6))
        assert crossing.cross(2.6) == crossing.duration
        cases = [(tx, tx.v_off), (tx, math.nextafter(tx.v_off, 0.0)), (tx, tx.v_off - 0.1),
                 (tx, tx.v_off + 1e-4), (tx, 3.0), (idle, idle.v_off), (idle, 2.5),
                 (crossing, 2.6), (crossing, math.nextafter(2.6, 3.0))]
        outcomes = set()
        for phase, v in cases:
            for t in (0.0, 27.0):
                got = _compiled_phase(scenario, phase, v, t)
                assert got == _oracle_phase(scenario, phase, v, t), (phase.state, v, t)
                outcomes.add(got[0])
        assert not _compiled_phase(scenario, crossing, 2.6, 0.0)[0]
        assert outcomes == {True, False}

    @pytest.mark.parametrize("capacitor", ["ideal", "esr_only", "esr_epr"])
    def test_each_recharge_case(self, capacitor):
        m = 9.0
        scenario = _scenario(capacitor, 0.7, m, 0.0, 0.0)
        circuit, off = scenario.circuit, scenario.phases["off"]
        v_min, v_on = circuit.v_min, scenario.v_on
        # Off from v_on - 10 mV wakes within a slot; from v_min it takes
        # more than two slots; at 98 % the ESR/EPR part never wakes.
        assert wake_time(off, v_on - 0.01, v_on) < m < 2 * m < wake_time(off, v_min, v_on)
        never = _scenario(capacitor, 0.98, m, 0.0, 0.0)
        assert (wake_time(never.phases["off"], v_min, never.v_on) == math.inf) == \
            (capacitor == "esr_epr")
        cases = [
            (scenario, v_on - 0.01, 0.0, True, 1, 2),      # Off, wakes inside the interval
            (scenario, v_min, 0.0, True, 1, 2),            # Off, does not wake
            (scenario, v_min, 0.0, True, 1, 6),            # Off, wakes slots later
            (scenario, v_on, 0.5, True, 1, 2),             # Off at v_on: wakes at once
            (scenario, v_on + 0.1, 0.5, True, 1, 2),       # Off above v_on: wakes at once
            (scenario, 2.5, m + 0.5, False, 1, 3),         # busy at slot 1
            (scenario, 2.5, m, False, 1, 3),               # t_to == t, on
            (scenario, 2.5, m, True, 1, 3),                # t_to == t, Off
            (scenario, 2.5, 0.5, False, 1, 2),             # Sleep
            (never, v_min, 0.0, True, 1, 4),
        ]
        for case in cases:
            assert _compiled_recharge(*case) == _oracle_recharge(*case), case[1:]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_the_compiled_step_is_the_phase_walk(self, data):
        scenario = data.draw(_walk_scenarios())
        phase = scenario.phases[data.draw(st.sampled_from(sorted(_SLOTS)))]
        v = data.draw(_around(phase.v_off, 2.6))
        if data.draw(st.booleans()):
            # A duration up to and past the turn-off from v, when it turns off.
            t_cross = phase.cross(v)
            duration = data.draw(st.one_of(st.floats(0.0, 1.0), st.just(t_cross)) if
                                 t_cross < math.inf else st.floats(0.0, 1.0))
            phase = compile_phase(scenario.circuit, phase.state, duration)
        t = data.draw(st.floats(0.0, 1e4))
        assert _compiled_phase(scenario, phase, v, t) == _oracle_phase(scenario, phase, v, t)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_the_compiled_recharge_is_the_phase_walk(self, data):
        scenario = data.draw(_walk_scenarios())
        circuit, m = scenario.circuit, scenario.interval_m
        j = data.draw(st.integers(0, 200))
        # At the slot, busy past it, or between the slot before and the slot.
        t = data.draw(st.one_of(st.just(j * m), st.floats(max(0.0, (j - 1) * m), (j + 1) * m)))
        v = data.draw(_around(circuit.v_min, scenario.v_on, scenario.phases["off"].v_limit))
        case = (scenario, v, t, data.draw(st.booleans()), j, j + data.draw(st.integers(1, 4)))
        assert _compiled_recharge(*case) == _oracle_recharge(*case)


def _guard_edge_scenario(capacitor):
    """A scenario whose Tx state settles 0 < v_off - v_limit <= ASYMPTOTE_GUARD_V
    below its turn-off voltage: its Tx load resistance, bisected."""
    scenario = make_scenario(interval_m=9.0)
    lo, hi = 1.0, 1e6   # Tx settles far below v_off, and above it
    for _ in range(200):
        r_tx = 0.5 * (lo + hi)
        circuit = make_circuit(loads=make_loads(tx=r_tx), **CAPACITORS[capacitor])
        p = circuit.state_params(DeviceState.TX)
        gap = p.v_off - p.v_limit
        if gap > ASYMPTOTE_GUARD_V:
            lo = r_tx
        elif gap <= 0.0:
            hi = r_tx
        else:
            return dataclasses.replace(scenario, circuit=circuit)
    raise AssertionError("no Tx load puts the asymptote within the guard")


class TestAsymptoteGuard:
    """A timed phase that settles less than ASYMPTOTE_GUARD_V below v_off
    turns the device off at once when entered at or below v_off, and never
    when entered above it, in the walk, the settle probe, the sizing cycle
    check and the PhaseWalk oracle alike."""

    @pytest.mark.parametrize("capacitor", ["ideal", "esr_epr"])
    def test_every_engine_reads_one_guard(self, capacitor):
        scenario = _guard_edge_scenario(capacitor)
        circuit, tx = scenario.circuit, scenario.phases["tx"]
        assert 0.0 < tx.gap <= ASYMPTOTE_GUARD_V and tx.v_guard == tx.v_off
        # off_time's own guard says the same: from above v_off, never.
        assert tx.cross(3.0) == math.inf and tx.cross(tx.v_off) == 0.0
        settler = simulator._Settler(scenario, 10)
        check = CycleCheck(circuit, scenario.schedule, "none")
        c = circuit.capacitor.capacitance
        v_off = tx.v_off
        starts = (math.nextafter(v_off, 0.0), v_off, math.nextafter(v_off, 3.0), v_off + 1e-9,
                  3.0)
        for v in starts:
            below = v <= v_off
            got = _compiled_phase(scenario, tx, v, 0.0)
            assert got == _oracle_phase(scenario, tx, v, 0.0), v
            assert got[0] is not below
            if below:   # off at once, where it was
                assert got[1:3] == (v.hex(), 0.0.hex())
            (fate, _), _, _ = settler._probe((tx,), v, 0)
            assert fate == ((0, True, v >= scenario.v_on) if below else None), v
            if v < circuit.v_min:
                continue
            trace, v_end, completed = single_cycle_trace(scenario, v, "none")
            v_check, check_completed = check.step(v, c)
            assert (v_check.hex(), check_completed) == (v_end.hex(), completed)
            if below:
                assert trace == [TracePoint(0.0, v, DeviceState.OFF)] and v_end == v
            else:   # Tx runs its full length
                assert trace[1].time == tx.duration


class TestParasiticEdgeCases:
    """ESR 20 ohm puts the Tx turn-off voltage (~2.10 V) above the wake
    target (~1.98 V at a 60 % threshold)."""

    def _scenario(self, m=9.0):
        scenario = _scenario("esr_high", 0.6, m, 0.0, 0.0)
        v_off_tx = scenario.circuit.state_params(DeviceState.TX).v_off
        assert scenario.circuit.v_min < scenario.v_on < v_off_tx
        return scenario, v_off_tx

    def test_phase_entered_below_turn_off_dies_at_once(self):
        scenario, v_off_tx = self._scenario()
        v_start = 0.5 * (scenario.circuit.v_min + v_off_tx)
        trace, v_end, completed = single_cycle_trace(scenario, v_start, "none")
        assert trace == [TracePoint(0.0, v_start, DeviceState.OFF)]
        assert (v_end, completed) == (v_start, False)
        cycle = CycleCheck(scenario.circuit, scenario.schedule, "none")
        assert cycle.run(v_start) == (v_start, False)

    def test_run_turns_off_at_once_and_wakes_at_once(self):
        scenario, v_off_tx = self._scenario()
        stats, trace = run_simulation(scenario, 1, 40, trace=True)
        assert stats.n_tx_aborted > 0
        # An Off point left at or above v_on must be followed by a Sleep
        # point at the same instant, or the device failed to wake at once.
        assert all(nxt.device_state is DeviceState.SLEEP and nxt.time == p.time
                   for p, nxt in zip(trace, trace[1:])
                   if p.device_state is DeviceState.OFF and p.voltage >= scenario.v_on)
        # A mid-air Tx turn-off wakes at v_off (a Sleep point at the
        # instant of its Off point); an uplink started below v_off turns
        # off and wakes at its scheduled instant.
        mid_air = [p for p in trace if p.device_state is DeviceState.SLEEP
                   and p.voltage == v_off_tx]
        at_once = [p for p in trace if p.device_state is DeviceState.SLEEP
                   and p.voltage < v_off_tx and p.time % scenario.interval_m == 0.0]
        assert mid_air and at_once
        assert stats.n_tx_aborted - (len(mid_air) + len(at_once)) in (0, 1)


    @pytest.mark.parametrize("capacitor", sorted(CAPACITORS))
    def test_every_aborted_uplink_shows_an_off_point(self, capacitor):
        # A Tx turn-off is an Off point right after the Tx point, or, for an
        # uplink started below the Tx v_off, an Off point at its scheduled
        # instant; a wake at once must not hide it.
        aborted = 0
        for threshold in (0.56, 0.6, 0.7):
            for m in (5.0, 9.0):
                scenario = _scenario(capacitor, threshold, m, 0.0, 0.0)
                n = 300
                stats, trace = run_simulation(scenario, 1, n, trace=True)
                scheduled = {k * m for k in range(n)}
                tx_off = [p for prev, p in zip(trace, trace[1:])
                          if p.device_state is DeviceState.OFF
                          and (prev.device_state is DeviceState.TX or p.time in scheduled)]
                assert len(tx_off) == stats.n_tx_aborted, (threshold, m)
                aborted += stats.n_tx_aborted
        assert aborted > 0


class TestTraceFreeCycle:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(CAPACITORS)), st.sampled_from(["none", "rx1", "rx2"]),
           st.floats(1e-3, 0.1), st.floats(1e-3, 1e-2), st.floats(0.0, 1.0))
    def test_matches_single_cycle_trace(self, capacitor, dl_case, c_farads, power_w, u):
        scenario = make_scenario(interval_m=600.0, power_w=power_w)
        scenario = dataclasses.replace(scenario, circuit=make_circuit(
            c_farads=c_farads, power_w=power_w, **CAPACITORS[capacitor]))
        circuit = scenario.circuit
        v_start = min(circuit.v_min + u * (circuit.operating_voltage - circuit.v_min),
                      circuit.operating_voltage)
        cycle = CycleCheck(circuit, scenario.schedule, dl_case)
        _, v_end, completed = single_cycle_trace(scenario, v_start, dl_case)
        assert cycle.run(v_start) == (v_end, completed)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(CAPACITORS)), st.sampled_from(["none", "rx1", "rx2"]),
           st.floats(1e-4, 1.0), st.floats(1e-3, 1e-2), st.floats(0.0, 1.0))
    def test_a_trial_capacitance_matches_a_rebuilt_circuit(self, capacitor, dl_case, c_farads,
                                                           power_w, u):
        # One check compiled at 4.7 mF answers, at any trial capacitance,
        # what single_cycle_trace answers on the circuit rebuilt at it.
        base = make_scenario(interval_m=600.0, power_w=power_w)
        base = dataclasses.replace(base, circuit=make_circuit(
            c_farads=4.7e-3, power_w=power_w, **CAPACITORS[capacitor]))
        rebuilt = dataclasses.replace(base, circuit=make_circuit(
            c_farads=c_farads, power_w=power_w, **CAPACITORS[capacitor]))
        circuit = base.circuit
        cycle = CycleCheck(circuit, base.schedule, dl_case)
        # The drawn start voltage and a ladder up to the charging ceiling:
        # a tau one rounding off shows in few final voltages.
        for w in (u, *(k / 16 for k in range(17))):
            v_start = min(circuit.v_min + w * (circuit.charge_ceiling() - circuit.v_min),
                          circuit.operating_voltage)
            _, v_end, completed = single_cycle_trace(rebuilt, v_start, dl_case)
            v_got, completed_got = cycle.run(v_start, c_farads)
            assert (v_got.hex(), completed_got) == (v_end.hex(), completed)

    def test_rejects_out_of_range_start(self):
        scenario = make_scenario()
        circuit = scenario.circuit
        cycle = CycleCheck(circuit, scenario.schedule, "none")
        with pytest.raises(ScenarioError, match="v_start"):
            cycle.run(circuit.v_min - 1e-6)
        with pytest.raises(ScenarioError, match="v_start"):
            cycle.run(circuit.operating_voltage + 1e-6)
        for c in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ScenarioError, match="capacitance"):
                cycle.run(circuit.v_min, c)

    def test_cycle_table_lists_the_analytic_cycle(self):
        # A downlink replaces its listening window; rx1 ends the cycle.
        scenario = make_scenario(interval_m=9.0)
        s = scenario.schedule
        tx, idle, listen, rx = (DeviceState.TX, DeviceState.IDLE, DeviceState.LISTEN,
                                DeviceState.RX)
        want = {
            "none": [(tx, s.t_tx), (idle, s.t_id1), (listen, s.t_l1), (idle, s.t_id2),
                     (listen, s.t_l2)],
            "rx1": [(tx, s.t_tx), (idle, s.t_id1), (rx, s.t_rx1)],
            "rx2": [(tx, s.t_tx), (idle, s.t_id1), (listen, s.t_l1), (idle, s.t_id2),
                    (rx, s.t_rx2)],
        }
        for dl_case, phases in want.items():
            assert list(CycleCheck(scenario.circuit, s, dl_case).phases) == phases
        with pytest.raises(ScenarioError, match="dl_case"):
            CycleCheck(scenario.circuit, scenario.schedule, "bogus")


def _settled_slots(monkeypatch) -> list:
    """Record (on-slot, settled cycle of branch outcomes) where each later
    run_simulation call settles."""
    slots = []
    settle = simulator._Settler.__call__

    def spy(self, v, k, history=None):
        result = settle(self, v, k, history)
        if result[0] is not None:
            slots.append((k, result[0]))
        return result

    monkeypatch.setattr(simulator._Settler, "__call__", spy)
    return slots


# The benchmark's sim_sweep operating points: criteria 5a-5d and a stochastic one.
SWEEP_POINTS = ({"interval_m": 8.0, "p1": 1.0, "p2": 0.0, "capacitance": 4.7e-3},
                {"interval_m": 9.0, "p1": 0.0, "p2": 0.0, "capacitance": 4.7e-3},
                {"interval_m": 9.0, "p1": 0.0, "p2": 1.0, "capacitance": 4.7e-3},
                {"interval_m": 60.0, "p1": 0.0, "p2": 1.0, "capacitance": 47e-3},
                {"interval_m": 40.0, "p1": 0.3, "p2": 0.5, "capacitance": 4.7e-3})
SETTLE_P = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.5))
THRESHOLDS = [round(0.55 + 0.01 * i, 2) for i in range(44)]


class TestSettling:
    """With the trace off the walk stops once every branch's outcome is fixed;
    the counters must equal the full walk's (trace=True never settles)."""

    @pytest.mark.parametrize("cells, runs, least, most", [
        # A regression back to the full walk would leave these cells unsettled.
        ([dict(point, threshold=t) for point in SWEEP_POINTS for t in THRESHOLDS], (100,),
         180, 220),
        # The README sweep's on/off cells, M = 5 and 9 s (sim_sweep's point
        # 5b) at thresholds 0.76-0.98, settle at periods 2 and 3.
        ([{"interval_m": m, "threshold": t} for m in (5.0, 9.0) for t in THRESHOLDS[21:]],
         (1000, 3000), 92, 92),
        # Orbits with no period up to _MAX_PERIOD on-slots (none up to 40,
        # and 17) walk to the end.
        ([{"interval_m": 5.0, "capacitance": 47e-3, "threshold": 0.6, "p1": 1.0},
          {"interval_m": 8.0, "capacitance": 47e-3, "threshold": 0.9}], (1000,), 0, 0)],
        ids=["sweep_points", "on_off", "no_period"])
    def test_exit_fires_on_the_sweep_points(self, cells, runs, least, most, monkeypatch):
        base = parse_scenario("").scenario
        slots = _settled_slots(monkeypatch)
        settled = 0
        for cell in cells:
            scenario = edit_scenario(base, cell)
            for n in runs:
                slots.clear()
                stats = run_simulation(scenario, 1, n)[0]
                settled += bool(slots)
                assert stats == run_simulation(scenario, 1, n, trace=True)[0], (cell, n)
        assert least <= settled <= most

    @pytest.mark.parametrize("capacitor", sorted(CAPACITORS))
    def test_counters_equal_the_full_walk_on_a_grid(self, capacitor, monkeypatch):
        # 4 parts x 250 cells: on/off and steady regimes, p in {0, 1} and
        # stochastic, three run lengths.
        slots = _settled_slots(monkeypatch)
        cells = 0
        for threshold in (0.56, 0.62, 0.7, 0.8, 0.9):
            for m in (5.0, 9.0, 20.0, 40.0, 60.0):
                for p1, p2 in SETTLE_P:
                    for c_farads in (4.7e-3, 47e-3):
                        scenario = _scenario(capacitor, threshold, m, p1, p2, c_farads)
                        n = (50, 300, 1000)[cells % 3]
                        seed = cells
                        cells += 1
                        assert run_simulation(scenario, seed, n)[0] == \
                            run_simulation(scenario, seed, n, trace=True)[0], (threshold, m, p1, p2)
        assert cells == 250 and len(slots) >= 100

    @pytest.mark.parametrize("runs", [_generated_runs(), _single_branch_runs()],
                             ids=["generated", "single_branch"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.sampled_from([300, 1500]))
    def test_settled_counters_equal_the_full_walk(self, runs, data, n):
        scenario, seed, _ = data.draw(runs)
        assert run_simulation(scenario, seed, n)[0] == run_simulation(scenario, seed, n, trace=True)[0]

    def test_a_cycle_ending_on_the_next_slot_keeps_the_full_walk(self):
        # M is one float above the rx2 cycle as the walk adds it up, the
        # least interval the bound admits: whether the radio is still busy
        # at the next slot flips with each slot's rounding.
        scenario = make_scenario(p2=1.0)
        s, m = scenario.schedule, 0.0
        for duration in (s.t_tx, s.t_id1, s.t_l1, s.t_id2, s.t_l2, s.t_rx2):
            m += duration
        scenario = dataclasses.replace(scenario, interval_m=math.nextafter(m, math.inf),
                                       circuit=make_circuit(c_farads=47e-3, power_w=0.01))
        settler = simulator._Settler(scenario, 3000)
        assert settler._probe(settler.branches[0], 3.0, 5)[2]
        assert run_simulation(scenario, 1, 3000)[0] == run_simulation(scenario, 1, 3000, trace=True)[0]

    @pytest.mark.parametrize("edits, slot, cycle", [
        # A 70 % threshold at 9 s: from on-slot 3 a cycle that listens in
        # window 2 turns off there and loses the next two slots.
        ({"p1": 0.0, "p2": 0.0}, 3, ({"silent": ("listen2", 2)},)),
        ({"p1": 0.3, "p2": 0.5}, 3,
         ({"rx1": (None, 0), "rx2": ("listen2", 2), "silent": ("listen2", 2)},)),
        # On/off orbits: at 80 % a completing cycle alternates with one that
        # turns off in window 2 and loses five slots (sim_sweep's 5b); at
        # 5 s and 76 % the period has three on-slots.  Each settles at the
        # first on-slot whose history shows the orbit's return.
        ({"turn_on_fraction": 0.8}, 40, ({"silent": (None, 0)}, {"silent": ("listen2", 5)})),
        ({"interval_m": 5.0, "turn_on_fraction": 0.76}, 47,
         ({"silent": (None, 0)}, {"silent": ("tx", 6)}, {"silent": ("listen2", 7)}))],
        ids=["silent", "stochastic", "period_2", "period_3"])
    def test_a_settled_tail_is_cut_off_at_every_offset(self, edits, slot, cycle, monkeypatch):
        # Every n up to three periods past the settle slot ends the run at
        # each offset of a period, the cut-off included.
        scenario = make_scenario(**{"interval_m": 9.0, "turn_on_fraction": 0.7, **edits})
        period = sum(max(1 + lost for _, lost in outcomes.values()) for outcomes in cycle)
        slots = _settled_slots(monkeypatch)
        for n in range(slot, slot + 3 * period + 1):
            for seed in range(10):
                slots.clear()
                assert run_simulation(scenario, seed, n)[0] == \
                    run_simulation(scenario, seed, n, trace=True)[0], (n, seed)
                # A shorter run caps the lost slots of the probes, and the
                # image of a period's last on-slot must reach the on-slot
                # after the period.
                if n >= slot + period + (len(cycle) > 1):
                    assert slots == [(slot, cycle)]

    def test_branches_that_lose_different_slots_are_counted_apart(self, monkeypatch):
        # From on-slot 2, a window-1 reception turns off and loses one slot,
        # a window-2 reception turns off and loses two, and a silent cycle
        # completes and loses none.
        circuit = make_circuit(c_farads=8e-3, power_w=12e-3, esr=5.0, epr=10e3)
        scenario = make_scenario(sf=10, dl_pl=222, interval_m=10.0, p1=0.7, p2=0.5,
                                 turn_on_fraction=0.89, circuit=circuit)
        outcomes = ({"rx1": ("rx1", 1), "rx2": ("rx2", 2), "silent": (None, 0)},)
        slots = _settled_slots(monkeypatch)
        for n in (*range(2, 2 + 3 * 3 + 1), 300):
            for seed in range(10):
                slots.clear()
                assert run_simulation(scenario, seed, n)[0] == \
                    run_simulation(scenario, seed, n, trace=True)[0], (n, seed)
                if n >= 5:
                    assert slots == [(2, outcomes)]

    @settings(max_examples=300, deadline=None)
    @given(p1=_P, p2=_P, data=st.data(), remaining=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_the_tail_counts_what_the_reference_tail_counts(self, p1, p2, data, remaining,
                                                             seed):
        # Random outcomes and lost slots per reachable branch; the same
        # counts from the same seed, with the same draws taken.
        lossless = data.draw(st.booleans())
        outcomes = {b: (data.draw(st.sampled_from([stop for (branch, stop) in REFERENCE_TALLY
                                                   if branch == b])),
                        0 if lossless else data.draw(st.integers(0, 4)))
                    for b in make_scenario(p1=p1, p2=p2).branches}
        ours, reference = random.Random(seed), random.Random(seed)
        assert simulator._count_tail((outcomes,), remaining, ours.random, p1, p2) == \
            [reference_count_tail(outcomes, remaining, reference.random, p1, p2)]
        assert ours.random() == reference.random()

    def test_the_tally_is_the_reference_tally(self):
        # Every (branch, stop) of the branch table adds the reference's counters.
        ends = {(branch, stop) for branch, spec in BRANCHES.items()
                for stop in (None, *spec.slots)}
        assert ends == set(REFERENCE_TALLY)
        for branch, stop in ends:
            assert simulator._tally(branch, stop) == REFERENCE_TALLY[branch, stop]

    def _settler(self, monkeypatch=None, branch=None):
        settler = simulator._Settler(make_scenario(interval_m=9.0), 1000)
        if branch is not None:
            monkeypatch.setattr(settler, "_probe", lambda phases, x, k: branch(x))
        return settler

    def test_outcomes_are_judged_a_margin_outside_the_interval(self, monkeypatch):
        # A synthetic branch: turns off in tx below 1.5 V, maps x to x/2 + 1.
        settler = self._settler(monkeypatch, lambda x: (
            (None if x >= 1.5 else (0, False, False), 0), 0.5 * x + 1.0, False))
        assert settler._ends(1.6, 2.5, 1) is not None
        assert settler._ends(1.5 + 1e-13, 2.5, 1) is None

    def test_images_keep_a_margin_inside_the_interval(self):
        settler = self._settler()
        assert settler._inside([1.7, 2.4], 1.6, 2.5)
        assert not settler._inside([1.7, 2.5 - 1e-13], 1.6, 2.5)
        assert not settler._inside([1.6 + 1e-13, 2.4], 1.6, 2.5)

    def test_only_an_interval_that_maps_into_itself_settles(self, monkeypatch):
        # The drifting map's history never returns, so no period is tested.
        drifting = self._settler(monkeypatch, lambda x: ((None, 0), x + 0.1, False))
        assert drifting(2.0, 8, [1.7, 1.8, 1.9]) == (None, 16)
        contracting = self._settler(monkeypatch, lambda x: ((None, 0), 0.5 * x + 1.0, False))
        settled, next_check = contracting(2.0, 8, [2.0, 2.0])
        assert settled == ({"silent": (None, 0)},) and next_check == math.inf

    def test_intervals_that_map_into_one_another_in_turn_settle(self, monkeypatch):
        # A synthetic on/off branch: completes below 2.25 V and maps x to
        # x/10 + 2.7; turns off in tx above, loses two slots and maps x to
        # x/10 + 1.5.  Its orbit 1.77/0.99, 2.878... has period 2, and each
        # step is probed at its own on-slot.
        probed = []

        def step(x):
            off = x >= 2.25
            return (((0, False, False) if off else None, 2 * off),
                    0.1 * x + (1.5 if off else 2.7), False)

        def on_off(phases, x, k):
            probed.append(k)
            return step(x)

        settler = self._settler()
        monkeypatch.setattr(settler, "_probe", on_off)
        low = 1.77 / 0.99
        high = 0.1 * low + 2.7
        settled, next_check = settler(low, 8, [high, low, high])
        assert settled == ({"silent": (None, 0)}, {"silent": ("tx", 2)})
        assert next_check == math.inf
        # The history holds the orbit, so nothing is probed past its period.
        assert set(probed) == {8, 9}
        probed.clear()
        assert settler._test([low, high], 8) == settled and set(probed) == {8, 9}
        # Two on-slots after 2 V the orbit has not yet converged: its return
        # misses the pad, and no period is tested.
        history = [2.0, step(2.0)[1]]
        assert settler(step(history[-1])[1], 8, history) == (None, 16)
        assert settler.period(step(history[-1])[1], history) == 0

    def test_the_period_is_the_least_return_in_the_history(self):
        settler = self._settler()
        pad = settler.pad
        assert settler.period(1.0, []) == settler.period(1.0, [1.0]) == 0
        # A return one on-slot back is period 1, which the history does not test.
        assert settler.period(1.0, [2.0, 1.0]) == 0
        assert settler.period(1.0, [1.0 + pad, 2.0]) == 2
        assert settler.period(1.0, [1.0 - 2 * pad, 2.0]) == 0
        assert settler.period(1.0, [1.0, 3.0, 1.5, 2.5, 2.0]) == 5
        assert settler.period(1.0, [1.0, 3.0, 1.0, 2.5, 2.0]) == 3

    def test_a_phase_entered_at_its_turn_off_level_is_near(self):
        settler = self._settler()
        silent, v_off = settler.branches[-1], settler.branches[-1][0].v_off
        assert settler._probe(silent, v_off, 1)[2]
        below, above = (settler._probe(silent, v_off + d, 1) for d in (-1e-6, 1e-6))
        assert not below[2] and not above[2]
        assert below[0][0] == (0, True, False) and above[0][0] == (0, False, False)


class TestSharedStart:
    """run_seeds tests the seed-free start once per cell; each seed's
    counters must equal its own full walk's."""

    # Seed 0, an ordinary seed and one past 2**53; the cells settle at their
    # first test, settle later, or never (M = 40 s at 94 % for the ideal part,
    # 9 s at 70 % for the ESR/EPR one).
    SEEDS = (0, 1, 2**53 + 1)
    CELLS = ((9.0, 0.57), (9.0, 0.7), (9.0, 0.98), (40.0, 0.7), (40.0, 0.94))

    @pytest.mark.parametrize("capacitor", ["ideal", "esr_epr"])
    @pytest.mark.parametrize("p1, p2", [(0.3, 0.5), (0.5, 0.5)])
    def test_each_seed_equals_its_own_full_walk(self, capacitor, p1, p2, monkeypatch):
        tests = []
        real = simulator._Settler._test

        def spy(self, orbit, k):
            cycle = real(self, orbit, k)
            tests.append(cycle)
            return cycle

        monkeypatch.setattr(simulator._Settler, "_test", spy)
        first_fails = differs = 0
        for m, threshold in self.CELLS:
            scenario = _scenario(capacitor, threshold, m, p1, p2)
            tests.clear()
            runs = simulator.run_seeds(scenario, self.SEEDS, 1000)
            # The shared first-on-slot test failed (a cell that never wakes tests nothing).
            first_fails += tests[:1] == [None]
            for seed, stats in zip(self.SEEDS, runs):
                want = run_simulation(scenario, seed, 1000, trace=True)[0]
                assert dataclasses.astuple(stats) == dataclasses.astuple(want), \
                    (m, threshold, seed)
            differs += len(set(runs)) > 1
        assert first_fails >= 2 and differs >= 2

    def test_the_shared_walk_matches_the_reference_walk(self):
        # Independent of the compiled walk: the public closed forms, stepped.
        for capacitor in ("ideal", "esr_epr"):
            scenario = _scenario(capacitor, 0.7, 9.0, 0.3, 0.5)
            runs = simulator.run_seeds(scenario, self.SEEDS, 300)
            assert runs == [reference_run(scenario, seed, 300)[0] for seed in self.SEEDS]

    def test_a_cell_settled_at_its_first_on_slot_is_tested_once(self, monkeypatch):
        # sim_sweep's stochastic point at 70 %: every seed settles at the
        # first on-slot, which the five seeds share.
        scenario = _scenario("ideal", 0.7, 40.0, 0.3, 0.5)
        want = [run_simulation(scenario, seed, 1000)[0] for seed in range(1, 6)]
        slots = _settled_slots(monkeypatch)
        tests = []
        real = simulator._Settler._test
        monkeypatch.setattr(simulator._Settler, "_test",
                            lambda self, orbit, k: tests.append(k) or real(self, orbit, k))
        assert simulator.run_seeds(scenario, range(1, 6), 1000) == want
        assert len(tests) == 1 and slots == [(tests[0], slots[0][1])] * 5
        assert len(set(want)) > 1

    @pytest.mark.parametrize("p1", [0.0, 0.5])
    def test_no_seed_is_an_error(self, p1):
        with pytest.raises(ScenarioError, match="at least one seed"):
            simulator.run_seeds(make_scenario(p1=p1), (), 100)

    def test_a_run_that_drew_before_settling_ignores_a_stored_tail(self, monkeypatch):
        # SF7, 51 B downlinks, 4.7 mF at 3 mW, threshold 0.69, M = 5 s: the
        # run walks (and draws in) five on-slots before its branches settle
        # apart.  A tail planted on its phase table under the key the run
        # looks up, the answer its seed gives from a fresh generator, must
        # not be read.
        scenario = make_scenario(dl_pl=51, interval_m=5.0, p1=0.7, p2=0.5, c_farads=4.7e-3,
                                 power_w=3e-3, turn_on_fraction=0.69)
        seed, n = 1, 300
        tails = []
        real = simulator._count_tail

        def spy(cycle, remaining, draw, p1, p2):
            counted = real(cycle, remaining, draw, p1, p2)
            tails.append((cycle, remaining, counted))
            return counted

        monkeypatch.setattr(simulator, "_count_tail", spy)
        want = simulator.run_seeds(scenario, (seed,), n)
        [(cycle, remaining, counted)] = tails
        assert not simulator._ends_alike(cycle) and remaining < n - 1
        fresh = real(cycle, remaining, random.Random(seed).random, 0.7, 0.5)
        assert fresh != counted
        assert not scenario.table.tails
        scenario.table.tails[simulator._tail_key(seed, remaining, cycle, 0.7, 0.5)] = fresh
        assert simulator.run_seeds(scenario, (seed,), n) == want
        assert len(tails) == 2

    def test_a_run_that_settles_before_any_draw_stores_its_tail(self, monkeypatch):
        # sim_sweep's stochastic point at 70 %: the first on-slot settles,
        # so each seed's tail goes to the phase table, and the next runs on
        # the table read it.
        scenario = _scenario("ideal", 0.7, 40.0, 0.3, 0.5)
        seeds, stored = (1, 2, 3), scenario.table.tails
        want = [run_simulation(scenario, seed, 1000, trace=True)[0] for seed in seeds]
        assert not stored
        assert simulator.run_seeds(scenario, seeds, 1000) == want
        assert [key[0] for key in stored] == list(seeds)
        monkeypatch.setattr(simulator, "_count_tail", None)   # read, never counted again
        assert simulator.run_seeds(scenario, seeds, 1000) == want

    def test_one_reachable_branch_walks_once_for_every_seed(self, monkeypatch):
        # p1 = 1 never opens window 2, so p2 = 0.5 is never drawn.
        scenario = make_scenario(interval_m=9.0, turn_on_fraction=0.8, p1=1.0, p2=0.5)
        want = run_simulation(scenario, 0, 1000)[0]
        slots = _settled_slots(monkeypatch)
        assert simulator.run_seeds(scenario, range(5), 1000) == [want] * 5
        assert len(slots) == 1

    def test_the_periodic_search_probes_nothing_ahead(self, monkeypatch):
        # The README sweep's on/off cells (M = 5 and 9 s, thresholds
        # 0.76-0.98).  Searching 16 on-slots ahead at each failed test, the
        # forward search took 54-74 probes per run (2,745 over the 46 runs);
        # read off the walk's history, the period costs only the probes of
        # the tests that settle or fail.
        probes = []
        real = simulator._Settler._probe
        monkeypatch.setattr(simulator._Settler, "_probe",
                            lambda self, *args: probes.append(1) or real(self, *args))
        base = parse_scenario("").scenario
        per_run = []
        for m in (5.0, 9.0):
            for threshold in THRESHOLDS[21:]:
                probes.clear()
                run_simulation(edit_scenario(base, {"interval_m": m, "threshold": threshold}), 1)
                per_run.append(len(probes))
        assert len(per_run) == 46 and max(per_run) < 54 and sum(per_run) < 2745 // 2
