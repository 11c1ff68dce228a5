"""Scenario file parsing and dumping.

Scenario files are INI-style text with fixed sections; every key is
optional and defaults to the packaged values, so an empty file is the
stock device.  Unknown sections or keys are rejected rather than ignored:
a typo should fail loudly, not silently fall back to a default.

    [harvester] e_volts, power_watts
    [capacitor] c_farads, esr_ohms, epr_ohms ("inf" for an ideal part)
    [loads]     off_ohms, sleep_ohms, idle_ohms, tx_ohms, listen_ohms, rx_ohms
    [radio]     sf, bw_hz, coding_rate (4/5..4/8), n_preamble, ih, de, tx_power_dbm
    [traffic]   ul_payload_bytes, dl_payload_bytes, interval_s, p1, p2
    [device]    v_min, turn_on_fraction
    [markov]    granularity

The CAPLORA_SCENARIO_DIR environment variable names a directory in which
bare relative paths are looked up when they do not resolve directly.
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass

from . import defaults
from .energy import (
    CapacitorConfig,
    CircuitConfig,
    DeviceThresholds,
    HarvesterConfig,
    LoadTable,
)
from .errors import ScenarioError
from .simulator import Scenario
from .timing import (
    LORAWAN_PL_MAX,
    LORAWAN_PL_MIN,
    RadioConfig,
    coding_rate_to_index,
)

SCENARIO_DIR_ENV = "CAPLORA_SCENARIO_DIR"

_SCHEMA: dict[str, tuple[str, ...]] = {
    "harvester": ("e_volts", "power_watts"),
    "capacitor": ("c_farads", "esr_ohms", "epr_ohms"),
    "loads": ("off_ohms", "sleep_ohms", "idle_ohms", "tx_ohms", "listen_ohms", "rx_ohms"),
    "radio": ("sf", "bw_hz", "coding_rate", "n_preamble", "ih", "de", "tx_power_dbm"),
    "traffic": ("ul_payload_bytes", "dl_payload_bytes", "interval_s", "p1", "p2"),
    "device": ("v_min", "turn_on_fraction"),
    "markov": ("granularity",),
}


@dataclass(frozen=True)
class LoadedScenario:
    """A fully validated scenario plus the chain quantization it asked for."""

    scenario: Scenario
    granularity: int


def _parse_float(section: str, key: str, raw: str, allow_inf: bool = False) -> float:
    """A finite number; "inf" (and its spellings) only where allow_inf is set."""
    text = raw.strip()
    if allow_inf and text.lower() in ("inf", "infinite", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: expected a number, got {raw!r}")
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise ScenarioError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: expected an integer, got {raw!r}")


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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse {source}: {exc}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}] in {source}")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"unknown key [{section}] {key} in {source}")

    def get(section: str, key: str, fallback: str) -> str:
        return parser.get(section, key, fallback=fallback)

    e = _parse_float("harvester", "e_volts", get("harvester", "e_volts",
                                                 repr(defaults.OPERATING_VOLTAGE)))
    power = _parse_float("harvester", "power_watts", get("harvester", "power_watts",
                                                         repr(defaults.HARVEST_POWER_W)))
    capacitor = CapacitorConfig(
        capacitance=_parse_float("capacitor", "c_farads",
                                 get("capacitor", "c_farads", repr(defaults.CAPACITANCE_F))),
        esr=_parse_float("capacitor", "esr_ohms",
                         get("capacitor", "esr_ohms", repr(defaults.ESR_OHMS))),
        epr=_parse_float("capacitor", "epr_ohms",
                         get("capacitor", "epr_ohms", "inf"), allow_inf=True),
    )
    loads = LoadTable(**{
        state: _parse_float("loads", f"{state}_ohms",
                            get("loads", f"{state}_ohms", repr(defaults.LOAD_OHMS[state])))
        for state in ("off", "sleep", "idle", "tx", "listen", "rx")
    })
    v_min = _parse_float("device", "v_min", get("device", "v_min",
                                                repr(defaults.TURN_OFF_VOLTAGE)))
    fraction = _parse_float("device", "turn_on_fraction",
                            get("device", "turn_on_fraction",
                                repr(defaults.TURN_ON_FRACTION)))
    circuit = CircuitConfig(
        harvester=HarvesterConfig(e, power),
        capacitor=capacitor,
        loads=loads,
        thresholds=DeviceThresholds(v_min=v_min, v_sl=fraction * e),
    )
    radio = RadioConfig(
        sf=_parse_int("radio", "sf", get("radio", "sf", str(defaults.SPREADING_FACTOR))),
        bw=_parse_float("radio", "bw_hz", get("radio", "bw_hz", repr(defaults.BANDWIDTH_HZ))),
        cr_index=coding_rate_to_index(get("radio", "coding_rate", defaults.CODING_RATE)),
        n_preamble=_parse_int("radio", "n_preamble",
                              get("radio", "n_preamble", str(defaults.N_PREAMBLE))),
        ih=_parse_int("radio", "ih", get("radio", "ih", str(defaults.IMPLICIT_HEADER))),
        de=_parse_int("radio", "de", get("radio", "de", str(defaults.LOW_DR_OPTIMIZE))),
        tx_power_dbm=_parse_float("radio", "tx_power_dbm",
                                  get("radio", "tx_power_dbm", repr(defaults.TX_POWER_DBM))),
    )
    ul_pl = _parse_int("traffic", "ul_payload_bytes",
                       get("traffic", "ul_payload_bytes", str(defaults.UL_PAYLOAD_BYTES)))
    dl_pl = _parse_int("traffic", "dl_payload_bytes",
                       get("traffic", "dl_payload_bytes", str(defaults.DL_PAYLOAD_BYTES)))
    # Warn only for values the file sets away from the stock defaults; those
    # (notably the 1-byte ACK downlink) are deliberate, and dump_scenario
    # writes them back out.
    for name, pl, stock in (("ul_payload_bytes", ul_pl, defaults.UL_PAYLOAD_BYTES),
                            ("dl_payload_bytes", dl_pl, defaults.DL_PAYLOAD_BYTES)):
        explicit = parser.has_section("traffic") and name in parser["traffic"]
        if explicit and pl != stock and not LORAWAN_PL_MIN <= pl <= LORAWAN_PL_MAX:
            warnings.warn(
                f"{name} = {pl} is outside the usual LoRaWAN frame range "
                f"[{LORAWAN_PL_MIN}, {LORAWAN_PL_MAX}]",
                stacklevel=2,
            )
    scenario = Scenario(
        circuit=circuit,
        radio=radio,
        ul_pl=ul_pl,
        dl_pl=dl_pl,
        interval_m=_parse_float("traffic", "interval_s",
                                get("traffic", "interval_s", repr(defaults.INTERVAL_S))),
        p1=_parse_float("traffic", "p1", get("traffic", "p1", "0")),
        p2=_parse_float("traffic", "p2", get("traffic", "p2", "0")),
    )
    granularity = _parse_int("markov", "granularity",
                             get("markov", "granularity", str(defaults.GRANULARITY)))
    if granularity < 1:
        raise ScenarioError(f"[markov] granularity must be >= 1, got {granularity}")
    return LoadedScenario(scenario=scenario, granularity=granularity)


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
    same Scenario (floats are written with full precision)."""
    s = loaded.scenario
    circuit, radio = s.circuit, s.radio
    epr = circuit.capacitor.epr
    lines = [
        "[harvester]",
        f"e_volts = {circuit.harvester.operating_voltage!r}",
        f"power_watts = {circuit.harvester.harvest_power!r}",
        "",
        "[capacitor]",
        f"c_farads = {circuit.capacitor.capacitance!r}",
        f"esr_ohms = {circuit.capacitor.esr!r}",
        f"epr_ohms = {'inf' if math.isinf(epr) else repr(epr)}",
        "",
        "[loads]",
    ]
    for state in ("off", "sleep", "idle", "tx", "listen", "rx"):
        lines.append(f"{state}_ohms = {getattr(circuit.loads, state)!r}")
    lines += [
        "",
        "[radio]",
        f"sf = {radio.sf}",
        f"bw_hz = {radio.bw!r}",
        f"coding_rate = {radio.coding_rate}",
        f"n_preamble = {radio.n_preamble}",
        f"ih = {radio.ih}",
        f"de = {radio.de}",
        f"tx_power_dbm = {radio.tx_power_dbm!r}",
        "",
        "[traffic]",
        f"ul_payload_bytes = {s.ul_pl}",
        f"dl_payload_bytes = {s.dl_pl}",
        f"interval_s = {s.interval_m!r}",
        f"p1 = {s.p1!r}",
        f"p2 = {s.p2!r}",
        "",
        "[device]",
        f"v_min = {circuit.v_min!r}",
        f"turn_on_fraction = {circuit.v_sl / circuit.harvester.operating_voltage!r}",
        "",
        "[markov]",
        f"granularity = {loaded.granularity}",
        "",
    ]
    return "\n".join(lines)
