"""LoRa PHY airtime arithmetic and the Class A uplink/downlink schedule.

Airtime follows the standard LoRa equations: a symbol lasts 2^SF / BW
seconds, the preamble (n_preamble + 4.25) symbols, and the payload

    S = 8 + max(ceil((8*PL - 4*SF + 28 + 16 - 20*IH) / (4*(SF - 2*DE))) * (CR + 4), 0)

symbols, where CR is 1..4 for coding rates 4/5..4/8.  The symbol count is
computed in exact integer arithmetic.

A Class A uplink opens two receive windows: window 1 one second after the
transmission ends (preamble listened at the uplink SF), window 2 two
seconds after the transmission ends, always at SF12.  The second idle gap
is therefore 1 s minus the first listening window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NegativeIdleError, ScenarioError
from . import defaults

RX2_SF = 12  # window 2 is pinned to the slowest spreading factor

# LoRaWAN frames are normally 13..51 bytes; the model deliberately accepts
# any payload >= 1 (e.g. a 1-byte ACK) and leaves warning to config load.
LORAWAN_PL_MIN = 13
LORAWAN_PL_MAX = 51


@dataclass(frozen=True)
class RadioConfig:
    """LoRa modem settings relevant to airtime."""

    sf: int = defaults.SPREADING_FACTOR
    bw: float = defaults.BANDWIDTH_HZ
    cr_index: int = 1                      # 1..4 <=> coding rate 4/5..4/8
    n_preamble: int = defaults.N_PREAMBLE
    ih: int = defaults.IMPLICIT_HEADER     # 1 = low-level header disabled
    de: int = defaults.LOW_DR_OPTIMIZE     # 1 = low-data-rate optimization

    def __post_init__(self):
        if not 7 <= self.sf <= 12:
            raise ScenarioError(f"sf must be in 7..12, got {self.sf}")
        if not 0 < self.bw < math.inf:
            raise ScenarioError(f"bandwidth must be finite and > 0, got {self.bw}")
        if not 1 <= self.cr_index <= 4:
            raise ScenarioError(f"cr_index must be in 1..4, got {self.cr_index}")
        if self.n_preamble < 0:
            raise ScenarioError(f"n_preamble must be >= 0, got {self.n_preamble}")
        if self.ih not in (0, 1) or self.de not in (0, 1):
            raise ScenarioError("ih and de must be 0 or 1")

    @property
    def coding_rate(self) -> str:
        return f"4/{4 + self.cr_index}"


def coding_rate_to_index(coding_rate: str) -> int:
    """Map the human form '4/5'..'4/8' to the formula's CR integer 1..4."""
    parts = coding_rate.split("/")
    if len(parts) != 2 or parts[0].strip() != "4":
        raise ScenarioError(f"coding rate must look like '4/5'..'4/8', got {coding_rate!r}")
    try:
        denom = int(parts[1])
    except ValueError:
        raise ScenarioError(f"coding rate must look like '4/5'..'4/8', got {coding_rate!r}")
    if not 5 <= denom <= 8:
        raise ScenarioError(f"coding rate denominator must be 5..8, got {coding_rate!r}")
    return denom - 4


def symbol_time(sf: int, bw: float) -> float:
    """Duration of one symbol, 2^sf / bw seconds."""
    return (1 << sf) / bw


def preamble_time(sf: int, bw: float, n_preamble: int) -> float:
    """Time to send or listen for the preamble: (n_preamble + 4.25) symbols."""
    return (n_preamble + 4.25) * symbol_time(sf, bw)


def payload_symbols(pl: int, sf: int, ih: int, de: int, cr_index: int) -> int:
    """Number of payload symbols, exact integer arithmetic (CRC on).

    The ceiling term can go negative for tiny payloads at high SF; it is
    clamped at zero, leaving the 8 mandatory symbols.
    """
    if pl < 1:
        raise ScenarioError(f"payload must be >= 1 byte, got {pl}")
    numerator = 8 * pl - 4 * sf + 28 + 16 - 20 * ih
    denominator = 4 * (sf - 2 * de)
    ceil_term = -(-numerator // denominator)  # exact ceil for any sign
    return 8 + max(ceil_term * (cr_index + 4), 0)


def time_on_air(radio: RadioConfig, pl: int, sf: int | None = None) -> float:
    """Total frame duration: preamble plus payload symbols.

    `sf` overrides the configured spreading factor (used for window 2,
    which always runs at SF12 regardless of the uplink setting).
    """
    sf = radio.sf if sf is None else sf
    t_sym = symbol_time(sf, radio.bw)
    n_payload = payload_symbols(pl, sf, radio.ih, radio.de, radio.cr_index)
    return (radio.n_preamble + 4.25) * t_sym + n_payload * t_sym


@dataclass(frozen=True)
class TimingSchedule:
    """Durations of the seven Class A phases, in seconds.

    t_id1 is exactly 1 s; t_id2 = 1 - t_l1 so that window 2 opens two
    seconds after the transmission ends.  t_l2 and t_rx2 are at SF12.
    """

    t_tx: float
    t_id1: float
    t_l1: float
    t_id2: float
    t_l2: float
    t_rx1: float
    t_rx2: float


def class_a_schedule(radio: RadioConfig, ul_pl: int, dl_pl: int) -> TimingSchedule:
    """Phase durations for an uplink of ul_pl bytes and downlinks of dl_pl bytes."""
    if ul_pl < 1 or dl_pl < 1:
        raise ScenarioError(f"payloads must be >= 1 byte, got ul={ul_pl}, dl={dl_pl}")
    t_l1 = preamble_time(radio.sf, radio.bw, radio.n_preamble)
    if t_l1 >= 1.0:
        raise NegativeIdleError(
            f"first listening window ({t_l1:.3f} s) does not fit in the 1 s "
            f"gap before window 1"
        )
    return TimingSchedule(
        t_tx=time_on_air(radio, ul_pl),
        t_id1=1.0,
        t_l1=t_l1,
        t_id2=1.0 - t_l1,
        t_l2=preamble_time(RX2_SF, radio.bw, radio.n_preamble),
        t_rx1=time_on_air(radio, dl_pl),
        t_rx2=time_on_air(radio, dl_pl, sf=RX2_SF),
    )

