"""Properties of the scenario file format, driven by config.FORMAT."""

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import assume, example, given, settings, strategies as st

from caplora import defaults
from caplora.cli import main
from caplora.config import (
    FINITE,
    FLOAT_OR_INF,
    FORMAT,
    INTEGER,
    dump_scenario,
    parse_scenario,
)
from caplora.errors import ScenarioError

KEPT = {(section, key) for section, rows in FORMAT.items()
        for key, (_, _, kept) in rows.items() if kept is not None}


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


_INF = st.sampled_from(["inf", "Infinity", "INF", "infinite", "1e999"])

# Values a scenario file may hold, one strategy per kept key.  The ranges
# keep most draws inside the model; the rest raise ScenarioError and are
# skipped.
VALID = {
    "e_volts": _floats(2.5, 5.0),
    "power_watts": _floats(1e-4, 0.1),
    "c_farads": _floats(1e-4, 1.0),
    "esr_ohms": st.one_of(st.just("0"), _floats(0.0, 20.0)),
    "epr_ohms": st.one_of(_INF, _floats(1e4, 1e7)),
    **{f"{state}_ohms": _floats(0.5 * stock, 2.0 * stock)
       for state, stock in defaults.LOAD_OHMS.items()},
    "sf": st.integers(7, 12).map(str),
    "bw_hz": st.one_of(st.sampled_from(["125000", "250000.0", "500e3"]), _floats(1e5, 6e5)),
    "coding_rate": st.sampled_from(["4/5", "4/6", "4/7", "4/8"]),
    "n_preamble": st.integers(0, 20).map(str),
    "ih": st.sampled_from(["0", "1"]),
    "de": st.sampled_from(["0", "1"]),
    "ul_payload_bytes": st.integers(1, 60).map(str),
    "dl_payload_bytes": st.integers(1, 60).map(str),
    "interval_s": _floats(1.0, 120.0),
    "p1": _floats(0.0, 1.0),
    "p2": _floats(0.0, 1.0),
    "v_min": _floats(1.0, 2.4),
    "turn_on_fraction": _floats(0.5, 0.98),
    "granularity": st.integers(1, 5000).map(str),
}


# Values each kept key rejects although they are numbers of its kind.
OUT_OF_MODEL = {
    "e_volts": ["0", "-3.3"],
    "power_watts": ["0", "-1e-3"],
    "c_farads": ["0", "-0.0047"],
    "esr_ohms": ["-1"],
    "epr_ohms": ["0", "-550000", "-inf"],
    **{f"{state}_ohms": ["0", "-100"] for state in defaults.LOAD_OHMS},
    "sf": ["6", "13"],
    "bw_hz": ["0", "-125000"],
    "coding_rate": ["4/4", "4/9", "5/4", "4"],
    "n_preamble": ["-1"],
    "ih": ["2", "-1"],
    "de": ["2"],
    "ul_payload_bytes": ["0", "-16"],
    "dl_payload_bytes": ["0", "-1"],
    "interval_s": ["0", "-10", "1.5"],
    "p1": ["1.5", "-0.1"],
    "p2": ["1.0001", "-1"],
    "v_min": ["0", "2.4", "3.3"],
    "turn_on_fraction": ["0.5", "1", "1.2"],
    "granularity": ["0", "-750"],
}
NOT_A_NUMBER = st.sampled_from(["abc", "", "1.2.3", "0x10", "3,3", "one"])
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "Infinity"])


@st.composite
def scenario_files(draw):
    lines = []
    for section, rows in FORMAT.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {draw(VALID[key])}" for key in rows if (section, key) in KEPT]
    return "\n".join(lines) + "\n"


def _parse_quietly(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # out-of-range payloads warn
        return parse_scenario(text)


def test_every_kept_key_has_a_valid_and_an_out_of_model_strategy():
    assert {key for _, key in KEPT} == set(VALID) == set(OUT_OF_MODEL)


@settings(max_examples=200, deadline=None)
@given(scenario_files())
def test_dump_parse_round_trip(text):
    try:
        loaded = _parse_quietly(text)
    except ScenarioError:
        assume(False)
    dumped = dump_scenario(loaded)
    again = _parse_quietly(dumped)
    assert again == loaded
    assert dump_scenario(again) == dumped


@st.composite
def one_fault_files(draw):
    section, key = draw(st.sampled_from(sorted(KEPT)))
    kind = FORMAT[section][key][0]
    bad = [st.sampled_from(OUT_OF_MODEL[key]), NOT_A_NUMBER]
    if kind == FINITE:
        bad.append(NON_FINITE)
    elif kind == FLOAT_OR_INF:
        bad.append(st.just("nan"))
    elif kind == INTEGER:
        bad += [NON_FINITE, st.sampled_from(["2.5", "7.0", "1e3"])]
    return f"[{section}]\n{key} = {draw(st.one_of(bad))}\n"


@settings(max_examples=200, deadline=None)
@given(one_fault_files())
@example("[DEFAULT]\nbogus = 1\n")       # configparser's defaults section is not special
@example("[DEFAULT]\nsf = 9\n[radio]\n")
def test_invalid_input_exits_2(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore")
            code = main(["simulate", "--scenario", path, "--n", "1"])
    assert code == 2
    assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    assert out.getvalue() == ""
