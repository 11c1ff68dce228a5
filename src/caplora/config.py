"""Scenario file parsing and dumping.

Scenario files are INI-style text with fixed sections; every key is
optional and defaults to the packaged values, so an empty file is the
stock device.  Unknown sections or keys are rejected rather than ignored:
a typo should fail loudly, not silently fall back to a default.

FORMAT declares the file format once, in dump order: each section's keys
with the kind of value they take, their stock value and where a loaded
scenario keeps them.  The key check, parsing, the stock fallback, the
payload warning and dump_scenario all read it.

The CAPLORA_SCENARIO_DIR environment variable names a directory in which
bare relative paths are looked up when they do not resolve directly.
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass
from operator import attrgetter

from . import defaults
from .energy import CapacitorConfig, CircuitConfig, HarvesterConfig, LoadTable
from .cycle import Scenario
from .errors import ScenarioError
from .timing import LORAWAN_PL_MAX, LORAWAN_PL_MIN, RadioConfig, coding_rate_to_index

SCENARIO_DIR_ENV = "CAPLORA_SCENARIO_DIR"

# The kinds of value a key takes.  Only FLOAT_OR_INF accepts "inf" (and
# its spellings, or an overflowing literal such as 1e999): an ideal part.
INTEGER, FINITE, FLOAT_OR_INF, TEXT = "integer", "finite", "float or inf", "text"


def _fraction(loaded: LoadedScenario) -> float:
    scenario = loaded.scenario
    return scenario.v_sl / scenario.circuit.harvester.operating_voltage


def _in(path: str):
    return attrgetter(f"scenario.{path}")


# section -> key -> (kind, stock value, where a LoadedScenario keeps it).
FORMAT = {
    "harvester": {
        "e_volts": (FINITE, defaults.OPERATING_VOLTAGE,
                    _in("circuit.harvester.operating_voltage")),
        "power_watts": (FINITE, defaults.HARVEST_POWER_W, _in("circuit.harvester.harvest_power")),
    },
    "capacitor": {
        "c_farads": (FINITE, defaults.CAPACITANCE_F, _in("circuit.capacitor.capacitance")),
        "esr_ohms": (FINITE, defaults.ESR_OHMS, _in("circuit.capacitor.esr")),
        "epr_ohms": (FLOAT_OR_INF, defaults.EPR_OHMS, _in("circuit.capacitor.epr")),
    },
    "loads": {
        "off_ohms": (FINITE, defaults.LOAD_OHMS["off"], _in("circuit.loads.off")),
        "sleep_ohms": (FINITE, defaults.LOAD_OHMS["sleep"], _in("circuit.loads.sleep")),
        "idle_ohms": (FINITE, defaults.LOAD_OHMS["idle"], _in("circuit.loads.idle")),
        "tx_ohms": (FINITE, defaults.LOAD_OHMS["tx"], _in("circuit.loads.tx")),
        "listen_ohms": (FINITE, defaults.LOAD_OHMS["listen"], _in("circuit.loads.listen")),
        "rx_ohms": (FINITE, defaults.LOAD_OHMS["rx"], _in("circuit.loads.rx")),
    },
    "radio": {
        "sf": (INTEGER, defaults.SPREADING_FACTOR, _in("radio.sf")),
        "bw_hz": (FINITE, defaults.BANDWIDTH_HZ, _in("radio.bw")),
        "coding_rate": (TEXT, defaults.CODING_RATE, _in("radio.coding_rate")),
        "n_preamble": (INTEGER, defaults.N_PREAMBLE, _in("radio.n_preamble")),
        "ih": (INTEGER, defaults.IMPLICIT_HEADER, _in("radio.ih")),
        "de": (INTEGER, defaults.LOW_DR_OPTIMIZE, _in("radio.de")),
    },
    "traffic": {
        "ul_payload_bytes": (INTEGER, defaults.UL_PAYLOAD_BYTES, _in("ul_pl")),
        "dl_payload_bytes": (INTEGER, defaults.DL_PAYLOAD_BYTES, _in("dl_pl")),
        "interval_s": (FINITE, defaults.INTERVAL_S, _in("interval_m")),
        "p1": (FINITE, defaults.P1, _in("p1")),
        "p2": (FINITE, defaults.P2, _in("p2")),
    },
    "device": {
        "v_min": (FINITE, defaults.TURN_OFF_VOLTAGE, _in("circuit.v_min")),
        "turn_on_fraction": (FINITE, defaults.TURN_ON_FRACTION, _fraction),
    },
    "markov": {
        "granularity": (INTEGER, defaults.GRANULARITY, attrgetter("granularity")),
    },
}


@dataclass(frozen=True)
class LoadedScenario:
    """A fully validated scenario plus the chain quantization it asked for."""

    scenario: Scenario
    granularity: int


def _parse(kind: str, section: str, key: str, raw: str) -> int | float | str:
    """One file value of the given kind."""
    if kind == TEXT:
        return raw
    text = raw.strip()
    if kind == FLOAT_OR_INF and text.lower() in ("inf", "infinite", "infinity"):
        return math.inf
    try:
        value = int(text) if kind == INTEGER else float(text)
    except ValueError:
        expected = "an integer" if kind == INTEGER else "a number"
        raise ScenarioError(f"[{section}] {key}: expected {expected}, got {raw!r}")
    if kind != INTEGER and (math.isnan(value) or (kind == FINITE and math.isinf(value))):
        raise ScenarioError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _resolve_path(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(SCENARIO_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def parse_scenario(text: str, source: str = "<string>") -> LoadedScenario:
    # No header can name "", so [DEFAULT] is checked like any other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse {source}: {exc}")

    for section in parser.sections():
        if section not in FORMAT:
            raise ScenarioError(f"unknown section [{section}] in {source}")
        for key in parser[section]:
            if key not in FORMAT[section]:
                raise ScenarioError(f"unknown key [{section}] {key} in {source}")

    v = {}
    for section, rows in FORMAT.items():
        for key, (kind, stock, _) in rows.items():
            raw = parser.get(section, key, fallback=None)
            v[key] = stock if raw is None else _parse(kind, section, key, raw)

    circuit = CircuitConfig(
        capacitor=CapacitorConfig(v["c_farads"], v["esr_ohms"], v["epr_ohms"]),
        loads=LoadTable(**{key.removesuffix("_ohms"): v[key] for key in FORMAT["loads"]}),
        harvester=HarvesterConfig(v["e_volts"], v["power_watts"]),
        v_min=v["v_min"],
    )
    radio = RadioConfig(sf=v["sf"], bw=v["bw_hz"], cr_index=coding_rate_to_index(v["coding_rate"]),
                        n_preamble=v["n_preamble"], ih=v["ih"], de=v["de"])
    # Warn only for values the file sets away from the stock defaults; those
    # (notably the 1-byte ACK downlink) are deliberate, and dump_scenario
    # writes them back out.
    for key in ("ul_payload_bytes", "dl_payload_bytes"):
        if v[key] != FORMAT["traffic"][key][1] and not LORAWAN_PL_MIN <= v[key] <= LORAWAN_PL_MAX:
            warnings.warn(f"{source}: {key} = {v[key]} is outside the usual LoRaWAN frame "
                          f"range [{LORAWAN_PL_MIN}, {LORAWAN_PL_MAX}]", stacklevel=2)
    scenario = Scenario(circuit=circuit, radio=radio, ul_pl=v["ul_payload_bytes"],
                        dl_pl=v["dl_payload_bytes"], interval_m=v["interval_s"],
                        v_sl=v["turn_on_fraction"] * v["e_volts"], p1=v["p1"], p2=v["p2"])
    if v["granularity"] < 1:
        raise ScenarioError(f"[markov] granularity must be >= 1, got {v['granularity']}")
    return LoadedScenario(scenario=scenario, granularity=v["granularity"])


def load_scenario(path: str) -> LoadedScenario:
    """Load and validate a scenario file; missing keys take defaults."""
    resolved = _resolve_path(path)
    try:
        with open(resolved, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}")
    return parse_scenario(text, source=resolved)


def dump_scenario(loaded: LoadedScenario) -> str:
    """Render the effective configuration; reloading it reproduces the
    same Scenario (floats are written with full precision, inf as "inf")."""
    lines = []
    for section, rows in FORMAT.items():
        lines.append(f"[{section}]")
        for key, (kind, _, kept) in rows.items():
            value = kept(loaded)
            lines.append(f"{key} = {value if kind in (INTEGER, TEXT) else repr(value)}")
        lines.append("")
    return "\n".join(lines)
