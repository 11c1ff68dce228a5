import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from caplora.errors import NegativeIdleError, ScenarioError
from caplora.cycle import min_interval_bound
from caplora.timing import (
    RadioConfig,
    class_a_schedule,
    coding_rate_to_index,
    payload_symbols,
    preamble_time,
    symbol_time,
    time_on_air,
)

from conftest import make_scenario, reference_interval_bound


def oracle_payload_symbols(pl, sf, ih, de, cr):
    """Independent symbol-count oracle using Fraction + math.ceil."""
    numerator = 8 * pl - 4 * sf + 28 + 16 - 20 * ih
    term = math.ceil(Fraction(numerator, 4 * (sf - 2 * de))) * (cr + 4)
    return 8 + max(term, 0)


def oracle_airtime_us(pl, sf, ih, de, cr, bw=125000, n_preamble=8):
    """Exact airtime in microseconds as a Fraction."""
    t_sym_us = Fraction(2**sf * 1_000_000, bw)
    preamble_syms = Fraction(4 * n_preamble + 17, 4)  # n_preamble + 4.25
    return (preamble_syms + oracle_payload_symbols(pl, sf, ih, de, cr)) * t_sym_us


class TestSymbolAndPreamble:
    def test_symbol_time(self):
        assert symbol_time(7, 125e3) == pytest.approx(1.024e-3, rel=1e-12)
        assert symbol_time(12, 125e3) == pytest.approx(32.768e-3, rel=1e-12)
        assert symbol_time(7, 250e3) == pytest.approx(0.512e-3, rel=1e-12)

    def test_preamble_time(self):
        assert preamble_time(7, 125e3, 8) == pytest.approx(12.544e-3, rel=1e-12)
        # Window 2 preamble at SF12 lasts about 400 ms.
        assert preamble_time(12, 125e3, 8) == pytest.approx(401.408e-3, rel=1e-12)
        assert preamble_time(7, 125e3, 0) == pytest.approx(4.352e-3, rel=1e-12)


class TestPayloadSymbols:
    @pytest.mark.parametrize("pl,sf,ih,de,cr,expected", [
        (16, 7, 1, 0, 1, 33),
        (1, 12, 1, 0, 1, 8),   # negative ceiling clamps to zero
        (51, 7, 1, 0, 1, 83),
        (8, 7, 1, 0, 1, 23),
        (1, 7, 1, 0, 1, 13),
    ])
    def test_known_counts(self, pl, sf, ih, de, cr, expected):
        assert payload_symbols(pl, sf, ih, de, cr) == expected

    def test_matches_oracle_everywhere(self):
        for sf in range(7, 13):
            for pl in range(1, 52):
                for cr in range(1, 5):
                    for ih in (0, 1):
                        for de in (0, 1):
                            assert payload_symbols(pl, sf, ih, de, cr) == \
                                oracle_payload_symbols(pl, sf, ih, de, cr)

    def test_rejects_empty_payload(self):
        with pytest.raises(ScenarioError):
            payload_symbols(0, 7, 1, 0, 1)


class TestTimeOnAir:
    def test_known_airtimes(self):
        sf7 = RadioConfig(sf=7)
        sf12 = RadioConfig(sf=12)
        assert time_on_air(sf7, 16) == pytest.approx(46.336e-3, rel=1e-12)
        assert time_on_air(sf12, 1) == pytest.approx(663.552e-3, rel=1e-12)
        assert time_on_air(sf7, 8) == pytest.approx(36.096e-3, rel=1e-12)

    def test_airtime_oracle_equivalence(self):
        # Full grid, exact to 1 microsecond (acceptance criterion 1).
        for sf in range(7, 13):
            for cr in range(1, 5):
                for ih in (0, 1):
                    for de in (0, 1):
                        radio = RadioConfig(sf=sf, cr_index=cr, ih=ih, de=de)
                        for pl in range(1, 52):
                            want_us = oracle_airtime_us(pl, sf, ih, de, cr)
                            got_us = time_on_air(radio, pl) * 1e6
                            assert abs(got_us - float(want_us)) < 1.0

    def test_strictly_increasing_in_payload(self):
        for sf in range(7, 13):
            radio = RadioConfig(sf=sf)
            times = [time_on_air(radio, pl) for pl in range(1, 52)]
            assert all(a <= b for a, b in zip(times, times[1:]))
            assert times[0] < times[-1]

    def test_nondecreasing_in_sf(self):
        for pl in (1, 16, 51):
            times = [time_on_air(RadioConfig(sf=sf), pl) for sf in range(7, 13)]
            assert all(a < b for a, b in zip(times, times[1:]))


class TestSchedule:
    def test_sf7_schedule(self):
        sched = class_a_schedule(RadioConfig(sf=7), ul_pl=16, dl_pl=1)
        assert sched.t_tx == pytest.approx(46.336e-3, rel=1e-12)
        assert sched.t_id1 == 1.0
        assert sched.t_l1 == pytest.approx(12.544e-3, rel=1e-12)
        assert sched.t_id2 == pytest.approx(987.456e-3, rel=1e-12)
        assert sched.t_l2 == pytest.approx(401.408e-3, rel=1e-12)
        # 13 payload symbols for a 1-byte downlink at SF7
        assert sched.t_rx1 == pytest.approx(25.856e-3, rel=1e-12)
        assert sched.t_rx2 == pytest.approx(663.552e-3, rel=1e-12)

    def test_idle_split_is_exact(self):
        for sf in range(7, 13):
            sched = class_a_schedule(RadioConfig(sf=sf), 16, 1)
            assert sched.t_l1 + sched.t_id2 == 1.0

    def test_sf12_large_payloads_fit(self):
        class_a_schedule(RadioConfig(sf=12), 51, 51)  # t_l1 = 401 ms < 1 s

    def test_negative_idle_rejected(self):
        # Enough preamble symbols push the SF12 listening window past 1 s.
        with pytest.raises(NegativeIdleError):
            class_a_schedule(RadioConfig(sf=12, n_preamble=32), 16, 1)


class TestMinIntervalBound:
    def test_sf7_bound(self):
        sched = class_a_schedule(RadioConfig(sf=7), 16, 1)
        assert min_interval_bound(sched) == pytest.approx(2.709888, abs=1e-6)

    def test_max_branch(self):
        sched = class_a_schedule(RadioConfig(sf=7), 16, 1)
        shrunk = type(sched)(**{**sched.__dict__, "t_rx2": 0.1})
        assert min_interval_bound(shrunk) == pytest.approx(
            sched.t_tx + 2.0 + sched.t_l2, rel=1e-12)

    def test_monotone_in_airtime(self):
        small = min_interval_bound(class_a_schedule(RadioConfig(sf=7), 16, 1))
        large = min_interval_bound(class_a_schedule(RadioConfig(sf=12), 48, 48))
        assert large > small

    @settings(max_examples=400, deadline=None)
    @given(sf=st.integers(7, 12), ul_pl=st.integers(1, 250), dl_pl=st.integers(1, 250),
           bw=st.sampled_from([125e3, 250e3, 500e3]), n_preamble=st.sampled_from([0, 6, 8, 16]),
           de=st.integers(0, 1), cr_index=st.integers(1, 4),
           p=st.sampled_from([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.0),
                              (0.3, 0.5), (1 - 2**-53, 1e-310)]))
    def test_the_table_bound_is_the_hand_written_bound(self, sf, ul_pl, dl_pl, bw, n_preamble,
                                                      de, cr_index, p):
        # The longest cycle of the slot tables is the hand-written formula,
        # bit for bit, and no reachable branch's cycle runs past it.
        sched = class_a_schedule(RadioConfig(sf=sf, bw=bw, n_preamble=n_preamble, de=de,
                                             cr_index=cr_index), ul_pl, dl_pl)
        branches = make_scenario(p1=p[0], p2=p[1]).branches
        bound = min_interval_bound(sched, branches)
        assert bound.hex() == reference_interval_bound(sched, "rx2" in branches).hex()
        head = sched.t_tx + sched.t_id1 + sched.t_l1 + sched.t_id2
        cycles = {"rx1": sched.t_tx + sched.t_id1 + sched.t_l1 + sched.t_rx1,
                  "rx2": head + sched.t_l2 + sched.t_rx2, "silent": head + sched.t_l2}
        assert all(cycles[branch] <= bound for branch in branches)


class TestRadioConfig:
    def test_coding_rate_mapping(self):
        assert coding_rate_to_index("4/5") == 1
        assert coding_rate_to_index("4/8") == 4
        with pytest.raises(ScenarioError):
            coding_rate_to_index("5/6")
        with pytest.raises(ScenarioError):
            coding_rate_to_index("4/9")
        assert RadioConfig(cr_index=1).coding_rate == "4/5"

    def test_range_checks(self):
        with pytest.raises(ScenarioError):
            RadioConfig(sf=6)
        with pytest.raises(ScenarioError):
            RadioConfig(sf=13)
        with pytest.raises(ScenarioError):
            RadioConfig(cr_index=5)
        with pytest.raises(ScenarioError):
            RadioConfig(ih=2)
