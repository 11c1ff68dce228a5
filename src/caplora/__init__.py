"""Performance model of capacitor-powered (battery-less) LoRaWAN Class A
devices: circuit closed forms, airtime arithmetic, an event-based
simulator, a discrete-voltage Markov chain and characterization drivers.
"""

from .energy import (
    CapacitorConfig,
    CircuitConfig,
    DeviceState,
    HarvesterConfig,
    LoadTable,
    equivalent_resistance,
    load_resistance,
    time_to_voltage,
    voltage_after,
)
from .errors import (
    InfeasibleScenario,
    NegativeIdleError,
    NoFeasibleCapacitance,
    ScenarioError,
)
from .timing import (
    RadioConfig,
    TimingSchedule,
    class_a_schedule,
    payload_symbols,
    preamble_time,
    symbol_time,
    time_on_air,
)
from .cycle import Scenario, min_interval_bound
from .simulator import SimStats, TracePoint, run_simulation, single_cycle_trace
from .markov import (
    ChainResult,
    ChainState,
    TransitionMatrix,
    build_transition_matrix,
    chain_metrics,
    solve_chain,
    stationary_distribution,
)
from .characterize import (
    CycleCheck,
    accuracy_study,
    accuracy_summary,
    min_capacitance,
    min_tx_interval,
    required_cycle_voltage,
    threshold_sweep,
    wakeup_time,
)
from .config import LoadedScenario, dump_scenario, load_scenario, parse_scenario

__version__ = "1.0.0"
