"""Default parameter values for the modeled device.

Single source of truth for every default the rest of the package uses:
electrical load table (Semtech SX1272/73 radio + STM32L162xE MCU class
hardware), radio settings, traffic pattern and solver knobs.  Changing a
hardware assumption should be a one-line edit here.
"""

import math

# Supply / thresholds (volts).  1.8 V is the minimum operating voltage of
# the radio/MCU, 3.3 V the typical operating voltage.
OPERATING_VOLTAGE = 3.3
TURN_OFF_VOLTAGE = 1.8
TURN_ON_FRACTION = 0.70  # turn-on threshold as a fraction of OPERATING_VOLTAGE

# Harvester
HARVEST_POWER_W = 1e-3  # 1 mW, in line with indoor light harvesting

# Capacitor (ideal by default; self-discharge modeled via finite EPR)
CAPACITANCE_F = 4.7e-3
ESR_OHMS = 0.0
EPR_OHMS = math.inf

# Per-state load resistances (ohms), MCU + radio combined.
LOAD_OHMS = {
    "off": 600e3,
    "sleep": 589.286e3,
    "idle": 471.428e3,
    "tx": 117.811,  # at +13 dBm transmit power
    "listen": 313.957,
    "rx": 294.354,
}

# Radio
SPREADING_FACTOR = 7
BANDWIDTH_HZ = 125e3
CODING_RATE = "4/5"
N_PREAMBLE = 8
IMPLICIT_HEADER = 1   # IH=1: low-level header disabled
LOW_DR_OPTIMIZE = 0   # DE=0 for every SF (override in the radio section if needed)

# Traffic
UL_PAYLOAD_BYTES = 16
DL_PAYLOAD_BYTES = 1
INTERVAL_S = 10.0
P1 = 0.0
P2 = 0.0

# Markov chain quantization (voltage levels per volt)
GRANULARITY = 750

# Numerical knobs (overridable through the library API)
CAPACITANCE_SEARCH_LO_F = 0.1e-3
CAPACITANCE_SEARCH_HI_F = 1.0
CAPACITANCE_TOL_F = 0.01e-3
CYCLE_VOLTAGE_TOL_V = 0.1e-3
