"""Command-line interface.

Every subcommand emits one CSV table (stdout by default, --out FILE to
write a file, --json to emit a JSON array instead); `simulate` and
`chain` additionally print a one-line `pdr=... pdl1=... pdl2=...`
summary.  Exit codes: 0 success, 2 invalid configuration or arguments,
3 physically infeasible request.

Numeric formatting is fixed so outputs are stable: times use 9
significant digits, voltages and probabilities 6.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

# The chain's dense solves are small, and BLAS worker threads roughly double
# their CPU time.  BLAS reads these variables once, when numpy loads, which
# caplora does only when a chain is built; a value already set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import defaults
from .characterize import (
    DL_CASES,
    M_CLASSES,
    SweepSpec,
    accuracy_study,
    accuracy_summary,
    edit_scenario,
    evaluate_grid,
    min_capacitance,
    min_tx_interval,
    threshold_sweep,
    wakeup_time,
)
from .config import LoadedScenario, load_scenario, parse_scenario
from .errors import InfeasibleScenario, ScenarioError
from .markov import build_transition_matrix, chain_metrics, stationary_distribution
from .simulator import run_simulation, single_cycle_trace
from .timing import RadioConfig, coding_rate_to_index, time_on_air

HEADERS = {
    "airtime": ("sf", "bw_hz", "payload_bytes", "time_on_air_s"),
    "trace": ("time_s", "voltage_v", "state"),
    "simulate": ("n_scheduled", "n_tx_success", "n_tx_lost_off", "n_tx_aborted",
                 "n_dl1_success", "n_dl1_aborted", "n_dl2_success", "n_dl2_aborted",
                 "pdr", "pdl1", "pdl2"),
    "chain": ("granularity", "m_s", "threshold", "pdr", "pdl1", "pdl2"),
    "sweep": ("axis", "value", "m_s", "engine", "pdr", "pdl1", "pdl2", "feasible"),
    "min-cap": ("sf", "ul_payload_bytes", "dl_payload_bytes", "dl_case", "power_w",
                "min_capacitance_f"),
    "min-interval": ("capacitance_f", "power_w", "dl_case", "min_interval_s"),
    "wakeup": ("capacitance_f", "power_w", "threshold", "wakeup_s"),
    "accuracy": ("case", "m_class", "m_s", "p1", "p2", "threshold", "granularity",
                 "pdr_sim", "pdr_mc", "abs_error", "chain_seconds"),
}


def f_time(v: float) -> str:
    return f"{v:.9g}"


def f_val(v: float) -> str:
    return f"{v:.6g}"


def _parse_values(text: str, option: str) -> list[float]:
    """Parse the value of grid option `option`, 'a,b,c' or 'start:stop:step'
    (stop inclusive), into one or more finite floats."""
    is_range = ":" in text
    parts = text.split(":") if is_range else [p for p in text.split(",") if p.strip()]
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ScenarioError(f"expected numbers, got {text!r}")
    if not all(math.isfinite(v) for v in numbers):
        raise ScenarioError(f"values must be finite numbers, got {text!r}")
    if not is_range:
        values = numbers
    elif len(numbers) != 3:
        raise ScenarioError(f"range must be start:stop:step, got {text!r}")
    else:
        start, stop, step = numbers
        if step <= 0:
            raise ScenarioError(f"range step must be positive, got {text!r}")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12 * max(1.0, abs(stop)):
                break
            values.append(round(v, 12))
            k += 1
    if not values:
        raise ScenarioError(f"{option} needs at least one value, got {text!r}")
    return values


def _parse_ints(text: str, option: str) -> list[int]:
    values = _parse_values(text, option)
    if any(v != int(v) for v in values):
        raise ScenarioError(f"expected whole numbers, got {text!r}")
    return [int(v) for v in values]


def _grid(text: str | None, option: str, default: float) -> list[float]:
    """The values of one grid option, or its default when it is not given."""
    return [default] if text is None else _parse_values(text, option)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit code 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _emit(args, command: str, rows: list[dict]) -> None:
    header = HEADERS[command]
    for row in rows:
        if tuple(row) != header:
            raise RuntimeError(f"row fields {tuple(row)} do not match the {command} header")
    if args.json:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(str(row[key]) for key in header) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> LoadedScenario:
    """The scenario file, or the stock one, with single-value overrides applied."""
    loaded = load_scenario(args.scenario) if args.scenario else parse_scenario("")
    edits = {}
    for option, name in (("m", "interval_m"), ("threshold", "threshold"),
                         ("ul_pl", "ul_pl"), ("dl_pl", "dl_pl")):
        value = getattr(args, option, None)
        if value is not None:
            edits[name] = value
    scenario = edit_scenario(loaded.scenario, edits)
    granularity = getattr(args, "granularity", None)
    if granularity is None:
        granularity = loaded.granularity
    return LoadedScenario(scenario=scenario, granularity=granularity)


def _add_common(parser, scenario=True, out=True):
    if scenario:
        parser.add_argument("--scenario", help="scenario file (defaults used if omitted)")
    if out:
        parser.add_argument("--out", help="write CSV here instead of stdout")
        parser.add_argument("--json", action="store_true",
                            help="emit a JSON array instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caplora",
        description="Battery-less LoRaWAN Class A device model: simulator, "
                    "Markov chain and characterization sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("airtime", help="LoRa frame time on air")
    p.add_argument("--sf", type=int, required=True)
    p.add_argument("--pl", type=int, required=True, help="payload bytes")
    p.add_argument("--bw", type=float, default=defaults.BANDWIDTH_HZ)
    p.add_argument("--coding-rate", default=defaults.CODING_RATE)
    p.add_argument("--n-preamble", type=int, default=defaults.N_PREAMBLE)
    p.add_argument("--ih", type=int, default=defaults.IMPLICIT_HEADER)
    p.add_argument("--de", type=int, default=defaults.LOW_DR_OPTIMIZE)
    _add_common(p, scenario=False)

    p = sub.add_parser("trace", help="voltage/state trajectory as CSV")
    _add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=_positive_int, default=5, help="scheduled uplinks to simulate")
    p.add_argument("--m", type=float, help="override transmission interval (s)")
    p.add_argument("--threshold", type=float, help="override turn-on fraction")
    p.add_argument("--single-cycle", action="store_true",
                   help="trace one analytic cycle instead of a full run")
    p.add_argument("--v-start", type=float,
                   help="start voltage for --single-cycle (default: charge ceiling)")
    p.add_argument("--dl-case", choices=DL_CASES, default="none")

    p = sub.add_parser("simulate", help="event-based simulation statistics")
    _add_common(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--m", type=float)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("chain", help="Markov chain delivery metrics")
    _add_common(p)
    p.add_argument("--granularity", type=_positive_int)
    p.add_argument("--m", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--strict-rx2", action="store_true",
                   help="gate pdl2 on the window-2 reception threshold")
    p.add_argument("--dump-matrix", help="also write the transition matrix here")

    p = sub.add_parser("sweep", help="one-axis parameter sweep")
    _add_common(p)
    p.add_argument("--axis", required=True,
                   choices=("threshold", "interval_m", "capacitance", "power",
                            "ul_pl", "dl_pl", "granularity"))
    p.add_argument("--values", required=True, help="'a,b,c' or 'start:stop:step'")
    p.add_argument("--m", dest="m_grid", help="interval grid for threshold sweeps, e.g. '5,9,40'")
    p.add_argument("--engine", choices=("simulator", "chain", "both"),
                   default="simulator")
    p.add_argument("--granularity", type=_positive_int)
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("min-cap", help="minimum capacitance per spreading factor")
    _add_common(p)
    p.add_argument("--sf", default="7", help="spreading factors, e.g. '7,9,11'")
    p.add_argument("--ul-pl", type=int)
    p.add_argument("--dl-pl", type=int)
    p.add_argument("--dl-case", choices=DL_CASES, default="none")
    p.add_argument("--power", help="harvest powers in watts, e.g. '0.001,0.01'")

    p = sub.add_parser("min-interval", help="fastest feasible transmission interval")
    _add_common(p)
    p.add_argument("--dl-case", choices=DL_CASES, default="none")
    p.add_argument("--capacitance", help="capacitances in farads")
    p.add_argument("--power", help="harvest powers in watts")

    p = sub.add_parser("wakeup", help="off-state charge time to the turn-on threshold")
    _add_common(p)
    p.add_argument("--thresholds", default="0.55:0.98:0.01")
    p.add_argument("--capacitance", help="capacitances in farads")
    p.add_argument("--power", help="harvest powers in watts")

    p = sub.add_parser("accuracy", help="chain vs simulator PDR error grid")
    _add_common(p)
    p.add_argument("--cases", default="ABCDE")
    p.add_argument("--m-classes", default=",".join(M_CLASSES))
    p.add_argument("--thresholds", default="0.70")
    p.add_argument("--granularities", default="100,500,750")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--jobs", type=_positive_int, default=1)

    return parser


def _cmd_airtime(args) -> int:
    radio = RadioConfig(sf=args.sf, bw=args.bw,
                        cr_index=coding_rate_to_index(args.coding_rate),
                        n_preamble=args.n_preamble, ih=args.ih, de=args.de)
    toa = time_on_air(radio, args.pl)
    if args.out or args.json:
        _emit(args, "airtime", [{
            "sf": args.sf, "bw_hz": f_val(args.bw), "payload_bytes": args.pl,
            "time_on_air_s": f_time(toa),
        }])
    if not args.json or args.out:
        print(f_time(toa))
    return 0


def _cmd_trace(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    if args.single_cycle:
        v_start = args.v_start
        if v_start is None:
            v_start = scenario.circuit.charge_ceiling() - 1e-6
        points, _, _ = single_cycle_trace(scenario, v_start, args.dl_case)
    else:
        _, points = run_simulation(scenario, seed=args.seed, n_scheduled=args.n,
                                   trace=True)
    rows = [{"time_s": f_time(p.time), "voltage_v": f_val(p.voltage),
             "state": str(p.device_state)} for p in points]
    _emit(args, "trace", rows)
    return 0


def _cmd_simulate(args) -> int:
    loaded = _load(args)
    stats, _ = run_simulation(loaded.scenario, seed=args.seed, n_scheduled=args.n)
    row = {key: getattr(stats, key) for key in HEADERS["simulate"][:8]}
    row.update(pdr=f_val(stats.pdr), pdl1=f_val(stats.pdl1), pdl2=f_val(stats.pdl2))
    _emit(args, "simulate", [row])
    print(f"pdr={f_val(stats.pdr)} pdl1={f_val(stats.pdl1)} pdl2={f_val(stats.pdl2)}")
    return 0


def _cmd_chain(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    tm = build_transition_matrix(scenario, loaded.granularity)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("src_kind,src_level,dst_kind,dst_level,prob\n")
            for line in tm.coordinate_lines():
                handle.write(line + "\n")
    pi = stationary_distribution(tm)
    result = chain_metrics(pi, tm, strict_rx2_threshold=args.strict_rx2)
    threshold = scenario.circuit.v_sl / scenario.circuit.operating_voltage
    _emit(args, "chain", [{
        "granularity": loaded.granularity,
        "m_s": f_time(scenario.interval_m),
        "threshold": f_val(threshold),
        "pdr": f_val(result.pdr),
        "pdl1": f_val(result.pdl1),
        "pdl2": f_val(result.pdl2),
    }])
    print(f"pdr={f_val(result.pdr)} pdl1={f_val(result.pdl1)} pdl2={f_val(result.pdl2)}")
    return 0


def _cmd_sweep(args) -> int:
    loaded = _load(args)
    spec = SweepSpec(
        scenario=loaded.scenario,
        axis=args.axis,
        values=tuple(_parse_values(args.values, "--values")),
        m_values=() if args.m_grid is None else tuple(_parse_values(args.m_grid, "--m")),
        granularity=loaded.granularity,
        n_scheduled=args.n,
        seeds=tuple(_parse_ints(args.seeds, "--seeds")),
    )
    rows = threshold_sweep(spec, engine=args.engine, jobs=args.jobs)
    _emit(args, "sweep", [{
        "axis": r.axis, "value": f_val(r.value), "m_s": f_time(r.m_s),
        "engine": r.engine, "pdr": f_val(r.pdr), "pdl1": f_val(r.pdl1),
        "pdl2": f_val(r.pdl2), "feasible": int(r.feasible),
    } for r in rows])
    return 0


def _cmd_min_cap(args) -> int:
    base = _load(args).scenario

    def row(cell):
        sf, power = cell.point
        return {
            "sf": sf, "ul_payload_bytes": cell.scenario.ul_pl,
            "dl_payload_bytes": cell.scenario.dl_pl, "dl_case": args.dl_case,
            "power_w": f_val(power),
            "min_capacitance_f": f_val(min_capacitance(cell.scenario, args.dl_case)),
        }

    _emit(args, "min-cap", evaluate_grid(base, [
        ("sf", _parse_ints(args.sf, "--sf")),
        ("power", _grid(args.power, "--power", base.circuit.harvester.harvest_power)),
    ], row))
    return 0


def _sizing_axes(args, base) -> list[tuple]:
    """The capacitance x power grid of min-interval and wakeup."""
    return [("capacitance", _grid(args.capacitance, "--capacitance",
                                  base.circuit.capacitor.capacitance)),
            ("power", _grid(args.power, "--power", base.circuit.harvester.harvest_power))]


def _cmd_min_interval(args) -> int:
    base = _load(args).scenario

    def row(cell):
        c, power = cell.point
        return {
            "capacitance_f": f_val(c), "power_w": f_val(power), "dl_case": args.dl_case,
            "min_interval_s": f_time(min_tx_interval(cell.scenario, args.dl_case)),
        }

    _emit(args, "min-interval", evaluate_grid(base, _sizing_axes(args, base), row))
    return 0


def _cmd_wakeup(args) -> int:
    base = _load(args).scenario

    def row(cell):
        c, power, threshold = cell.point
        return {
            "capacitance_f": f_val(c), "power_w": f_val(power), "threshold": f_val(threshold),
            "wakeup_s": f_time(wakeup_time(cell.scenario.circuit)),
        }

    axes = _sizing_axes(args, base) + [("threshold",
                                        _parse_values(args.thresholds, "--thresholds"))]
    _emit(args, "wakeup", evaluate_grid(base, axes, row))
    return 0


def _cmd_accuracy(args) -> int:
    loaded = _load(args)
    rows = accuracy_study(
        loaded.scenario,
        cases=tuple(args.cases),
        m_classes=tuple(args.m_classes.split(",")),
        thresholds=tuple(_parse_values(args.thresholds, "--thresholds")),
        granularities=tuple(_parse_ints(args.granularities, "--granularities")),
        n_scheduled=args.n,
        seeds=tuple(_parse_ints(args.seeds, "--seeds")),
        jobs=args.jobs,
    )
    _emit(args, "accuracy", [{
        "case": r.case_id, "m_class": r.m_class, "m_s": f_time(r.m_s),
        "p1": f_val(r.p1), "p2": f_val(r.p2), "threshold": f_val(r.threshold),
        "granularity": r.granularity, "pdr_sim": f_val(r.pdr_sim),
        "pdr_mc": f_val(r.pdr_mc), "abs_error": f_val(r.abs_error),
        "chain_seconds": f_val(r.chain_seconds),
    } for r in rows])
    for s in accuracy_summary(rows):
        print(f"threshold={f_val(s.threshold)} granularity={s.granularity} "
              f"cells={s.n_cells} p50={f_val(s.p50)} p90={f_val(s.p90)} "
              f"max={f_val(s.max)}")
    return 0


_COMMANDS = {
    "airtime": _cmd_airtime,
    "trace": _cmd_trace,
    "simulate": _cmd_simulate,
    "chain": _cmd_chain,
    "sweep": _cmd_sweep,
    "min-cap": _cmd_min_cap,
    "min-interval": _cmd_min_interval,
    "wakeup": _cmd_wakeup,
    "accuracy": _cmd_accuracy,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleScenario as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
