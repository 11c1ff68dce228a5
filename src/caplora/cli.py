"""Command-line interface.

Every subcommand emits one table in the columns COLUMNS declares for it:
CSV on stdout by default, --out FILE to write a file, --json for a JSON
array instead; `airtime` prints only its seconds value unless --out or
--json is given.  `simulate` and `chain` also print a one-line
`pdr=... pdl1=... pdl2=...` summary, `accuracy` its error percentiles and
`airtime` its seconds value, except when stdout carries the JSON.
Exit codes: 0 success, 2 invalid configuration or arguments, such as an
option outside the modes OPTIONS gives it, or an output path that cannot
be written or that --out and --dump-matrix share (checked before any
work), 3 physically infeasible request.

main(argv) returns the exit code (--help and argparse's usage errors
raise SystemExit with theirs) and may be called repeatedly in one
process: it builds each command's parser once and reuses it.

Numeric formatting is fixed so outputs are stable: times use 9
significant digits, voltages and probabilities 6.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
from operator import attrgetter
from typing import Iterable, Sequence

from . import defaults
from .characterize import (
    M_CLASSES,
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
from .cycle import DL_CASES
from .errors import InfeasibleScenario, ScenarioError
from .markov import build_transition_matrix, long_run_metrics
from .simulator import run_simulation, single_cycle_trace
from .timing import RadioConfig, coding_rate_to_index, time_on_air


def f_time(v: float) -> str:
    return f"{v:.9g}"


def f_val(v: float) -> str:
    return f"{v:.6g}"


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit code 2 otherwise)."""
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """argparse type for a seed, at least 0 (exit code 2 otherwise)."""
    return _int_at_least(text, 0)


# Each command's output columns, in order: (name, format) or (name, format,
# get).  format is f_time or f_val for a float, None for an int or text
# printed as it is, or a conversion; get reads the value off a row, by
# default the row's `name` item (a dict) or attribute (any other row).
COLUMNS = {
    "airtime": (("sf", None), ("bw_hz", f_val), ("payload_bytes", None),
                ("time_on_air_s", f_time)),
    "trace": (("time_s", f_time, attrgetter("time")), ("voltage_v", f_val, attrgetter("voltage")),
              ("state", str, attrgetter("device_state"))),
    "simulate": (("n_scheduled", None), ("n_tx_success", None), ("n_tx_lost_off", None),
                 ("n_tx_aborted", None), ("n_dl1_success", None), ("n_dl1_aborted", None),
                 ("n_dl2_success", None), ("n_dl2_aborted", None),
                 ("pdr", f_val), ("pdl1", f_val), ("pdl2", f_val)),
    "chain": (("granularity", None), ("m_s", f_time), ("threshold", f_val),
              ("pdr", f_val), ("pdl1", f_val), ("pdl2", f_val)),
    "sweep": (("axis", None), ("value", f_val), ("m_s", f_time), ("engine", None),
              ("pdr", f_val), ("pdl1", f_val), ("pdl2", f_val), ("feasible", int)),
    "min-cap": (("sf", None), ("ul_payload_bytes", None), ("dl_payload_bytes", None),
                ("dl_case", None), ("power_w", f_val), ("min_capacitance_f", f_val)),
    "min-interval": (("capacitance_f", f_val), ("power_w", f_val), ("dl_case", None),
                     ("min_interval_s", f_time)),
    "wakeup": (("capacitance_f", f_val), ("power_w", f_val), ("threshold", f_val),
               ("wakeup_s", f_time)),
    "accuracy": (("case", None), ("m_class", None), ("m_s", f_time), ("p1", f_val),
                 ("p2", f_val), ("threshold", f_val), ("granularity", None),
                 ("pdr_sim", f_val), ("pdr_mc", f_val), ("abs_error", f_val),
                 ("chain_seconds", f_val)),
}


# Each command's options, in help order: (flag, add_argument keywords), or
# (flag, keywords, (where, applies)) for an option that applies only in some
# modes.  applies(args) says whether the parsed arguments are in one; main
# rejects the option elsewhere with "<flag> applies only <where>".  argparse
# gives it a None default, so that a default never counts as given, and
# _check_modes then fills in the keywords' default.
_FULL_RUN = ("without --single-cycle", lambda args: not args.single_cycle)
_ONE_CYCLE = ("with --single-cycle", attrgetter("single_cycle"))
_SEEDED = ("with --engine simulator or both", lambda args: args.engine != "chain")
_ONE_GRANULARITY = ("with --engine chain or both and an --axis other than granularity",
                    lambda args: args.engine != "simulator" and args.axis != "granularity")
_CHAINED = ("with --engine chain or both",
            lambda args: args.engine != "simulator" or args.axis != "granularity")

_SCENARIO = ("--scenario", dict(help="scenario file (defaults used if omitted)"))
_OUTPUT = (("--out", dict(help="write CSV here instead of stdout")),
           ("--json", dict(action="store_true", help="emit a JSON array instead of CSV")))
_GRID = (("--capacitance", dict(help="capacitances in farads")),
         ("--power", dict(help="harvest powers in watts")))

OPTIONS = {
    "airtime": (("--sf", dict(type=int, required=True)),
                ("--pl", dict(type=int, required=True, help="payload bytes")),
                ("--bw", dict(type=float, default=defaults.BANDWIDTH_HZ)),
                ("--coding-rate", dict(default=defaults.CODING_RATE)),
                ("--n-preamble", dict(type=int, default=defaults.N_PREAMBLE)),
                ("--ih", dict(type=int, default=defaults.IMPLICIT_HEADER)),
                ("--de", dict(type=int, default=defaults.LOW_DR_OPTIMIZE)),
                *_OUTPUT),
    "trace": (_SCENARIO, *_OUTPUT,
              ("--seed", dict(type=_seed, default=1), _FULL_RUN),
              ("--n", dict(type=_positive_int, default=5, help="scheduled uplinks to simulate"),
               _FULL_RUN),
              ("--m", dict(type=float, help="override transmission interval (s)"), _FULL_RUN),
              ("--threshold", dict(type=float, help="override turn-on fraction"), _FULL_RUN),
              ("--single-cycle", dict(action="store_true",
                                      help="trace one analytic cycle instead of a full run")),
              ("--v-start", dict(type=float, help="start voltage for --single-cycle "
                                                  "(default: charge ceiling)"), _ONE_CYCLE),
              ("--dl-case", dict(choices=DL_CASES, default="none",
                                 help="downlink of --single-cycle (default: none)"), _ONE_CYCLE)),
    "simulate": (_SCENARIO, *_OUTPUT,
                 ("--seed", dict(type=_seed, default=1)),
                 ("--n", dict(type=_positive_int, default=1000)),
                 ("--m", dict(type=float)),
                 ("--threshold", dict(type=float))),
    "chain": (_SCENARIO, *_OUTPUT,
              ("--granularity", dict(type=_positive_int)),
              ("--m", dict(type=float)),
              ("--threshold", dict(type=float)),
              ("--dump-matrix", dict(help="also write the transition matrix here"))),
    "sweep": (_SCENARIO, *_OUTPUT,
              ("--axis", dict(required=True, choices=("threshold", "interval_m", "capacitance",
                                                      "power", "ul_pl", "dl_pl", "granularity")),
               _CHAINED),
              ("--values", dict(required=True, help="'a,b,c' or 'start:stop:step'")),
              ("--m", dict(dest="m_grid",
                           help="interval grid for threshold sweeps, e.g. '5,9,40'")),
              ("--engine", dict(choices=("simulator", "chain", "both"), default="simulator")),
              ("--granularity", dict(type=_positive_int), _ONE_GRANULARITY),
              ("--n", dict(type=_positive_int, default=1000), _SEEDED),
              ("--seeds", dict(default="1,2,3,4,5"), _SEEDED),
              ("--jobs", dict(type=_positive_int, default=1))),
    "min-cap": (_SCENARIO, *_OUTPUT,
                ("--sf", dict(default="7", help="spreading factors, e.g. '7,9,11'")),
                ("--ul-pl", dict(type=int)),
                ("--dl-pl", dict(type=int)),
                ("--dl-case", dict(choices=DL_CASES, default="none")),
                ("--power", dict(help="harvest powers in watts, e.g. '0.001,0.01'"))),
    "min-interval": (_SCENARIO, *_OUTPUT,
                     ("--dl-case", dict(choices=DL_CASES, default="none")),
                     *_GRID),
    "wakeup": (_SCENARIO, *_OUTPUT,
               ("--thresholds", dict(default="0.55:0.98:0.01")),
               *_GRID),
    "accuracy": (_SCENARIO, *_OUTPUT,
                 ("--cases", dict(default="ABCDE")),
                 ("--m-classes", dict(default=",".join(M_CLASSES))),
                 ("--thresholds", dict(default="0.70")),
                 ("--granularities", dict(default="100,500,750")),
                 ("--n", dict(type=_positive_int, default=1000)),
                 ("--seeds", dict(default="1,2,3,4,5")),
                 ("--jobs", dict(type=_positive_int, default=1))),
}


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
    """Parse `option` like _parse_values into whole numbers; a list of
    plain integers is read exactly, also past the 2**53 a float holds."""
    try:
        values = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        values = []
    if values:
        return values
    numbers = _parse_values(text, option)
    if any(v != int(v) for v in numbers):
        raise ScenarioError(f"expected whole numbers, got {text!r}")
    return [int(v) for v in numbers]


def _grid(text: str | None, option: str, default: float) -> list[float]:
    """The values of one grid option, or its default when it is not given."""
    return [default] if text is None else _parse_values(text, option)


def _check_writable(path: str) -> None:
    """Raise _write's error for a path that it could not write, before any
    work is done and without creating or truncating the file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ScenarioError(f"cannot write {path!r}: {os.strerror(code)}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path!r}: {exc.strerror}")


def _emit(args, command: str, rows: Iterable, summary: Sequence[str] = ()) -> None:
    """Write `rows` in the command's columns, as CSV or with --json as a JSON
    array, to --out or stdout; then print the summary lines, unless stdout
    carries the JSON."""
    table = []
    for row in rows:
        record = {}
        for name, fmt, *get in COLUMNS[command]:
            if get:
                value = get[0](row)
            else:
                value = row[name] if isinstance(row, dict) else getattr(row, name)
            record[name] = value if fmt is None else fmt(value)
        table.append(record)
    if args.json:
        text = json.dumps(table, indent=2) + "\n"
    else:
        lines = [",".join(name for name, *_ in COLUMNS[command])]
        lines += [",".join(map(str, record.values())) for record in table]
        text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.out or not args.json:
        for line in summary:
            print(line)


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


def build_parser(commands: Iterable[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand registered and its
    help listed, but only the arguments of `commands` (all when None)
    filled in.  argparse builds a help formatter, which asks for the
    terminal size, for each argument it adds, so main fills in only the
    invoked command's; help and error messages are the same either way."""
    parser = argparse.ArgumentParser(
        prog="caplora",
        description="Battery-less LoRaWAN Class A device model: simulator, "
                    "Markov chain and characterization sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if commands is None or name in commands:
            for flag, kwargs, *mode in OPTIONS[name]:
                p.add_argument(flag, **({**kwargs, "default": None} if mode else kwargs))
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """main's parser for `command` (None: argv names none), built on first
    use and reused: parse_args leaves a parser as it was, every OPTIONS
    default is immutable, and argparse takes the help width when it
    formats help or an error, not from the build."""
    return build_parser([command] if command else [])


def _check_modes(args) -> None:
    """Reject an option given outside its modes; fill in the default of one not given."""
    for flag, kwargs, (where, applies) in (row for row in OPTIONS[args.command] if len(row) == 3):
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, kwargs.get("default"))
        elif not applies(args):
            # A mode-bound choice, such as --axis granularity, names its value.
            name = f"{flag} {value}" if "choices" in kwargs else flag
            raise ScenarioError(f"{name} applies only {where}")


def _cmd_airtime(args) -> int:
    radio = RadioConfig(sf=args.sf, bw=args.bw,
                        cr_index=coding_rate_to_index(args.coding_rate),
                        n_preamble=args.n_preamble, ih=args.ih, de=args.de)
    toa = time_on_air(radio, args.pl)
    if args.out or args.json:
        _emit(args, "airtime", [{"sf": args.sf, "bw_hz": args.bw, "payload_bytes": args.pl,
                                 "time_on_air_s": toa}], [f_time(toa)])
    else:
        print(f_time(toa))
    return 0


def _cmd_trace(args) -> int:
    scenario = _load(args).scenario
    if args.single_cycle:
        v_start = args.v_start
        if v_start is None:
            v_start = scenario.circuit.charge_ceiling() - 1e-6
        points, _, _ = single_cycle_trace(scenario, v_start, args.dl_case)
    else:
        _, points = run_simulation(scenario, seed=args.seed, n_scheduled=args.n, trace=True)
    _emit(args, "trace", points)
    return 0


def _ratios(result) -> str:
    return f"pdr={f_val(result.pdr)} pdl1={f_val(result.pdl1)} pdl2={f_val(result.pdl2)}"


def _cmd_simulate(args) -> int:
    stats, _ = run_simulation(_load(args).scenario, seed=args.seed, n_scheduled=args.n)
    _emit(args, "simulate", [stats], [_ratios(stats)])
    return 0


def _cmd_chain(args) -> int:
    loaded = _load(args)
    scenario = loaded.scenario
    tm = build_transition_matrix(scenario, loaded.granularity)
    if args.dump_matrix:
        _write(args.dump_matrix, "src_kind,src_level,dst_kind,dst_level,prob\n"
               + "".join(line + "\n" for line in tm.coordinate_lines()))
    result = long_run_metrics(tm)
    _emit(args, "chain", [{
        "granularity": loaded.granularity, "m_s": scenario.interval_m,
        "threshold": scenario.v_sl / scenario.circuit.operating_voltage,
        "pdr": result.pdr, "pdl1": result.pdl1, "pdl2": result.pdl2,
    }], [_ratios(result)])
    return 0


def _cmd_sweep(args) -> int:
    loaded = _load(args)
    _emit(args, "sweep", threshold_sweep(
        loaded.scenario,
        axis=args.axis,
        values=_parse_values(args.values, "--values"),
        m_values=() if args.m_grid is None else _parse_values(args.m_grid, "--m"),
        granularity=loaded.granularity,
        n_scheduled=args.n,
        seeds=_parse_ints(args.seeds, "--seeds"),
        engine=args.engine,
        jobs=args.jobs,
    ))
    return 0


def _cmd_min_cap(args) -> int:
    base = _load(args).scenario

    def row(cell):
        sf, power = cell.point
        return {"sf": sf, "ul_payload_bytes": cell.scenario.ul_pl,
                "dl_payload_bytes": cell.scenario.dl_pl, "dl_case": args.dl_case,
                "power_w": power,
                "min_capacitance_f": min_capacitance(cell.scenario, args.dl_case)}

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
        return {"capacitance_f": c, "power_w": power, "dl_case": args.dl_case,
                "min_interval_s": min_tx_interval(cell.scenario, args.dl_case)}

    _emit(args, "min-interval", evaluate_grid(base, _sizing_axes(args, base), row))
    return 0


def _cmd_wakeup(args) -> int:
    base = _load(args).scenario

    def row(cell):
        c, power, threshold = cell.point
        return {"capacitance_f": c, "power_w": power, "threshold": threshold,
                "wakeup_s": wakeup_time(cell.scenario)}

    axes = _sizing_axes(args, base) + [("threshold",
                                        _parse_values(args.thresholds, "--thresholds"))]
    _emit(args, "wakeup", evaluate_grid(base, axes, row))
    return 0


def _cmd_accuracy(args) -> int:
    rows = accuracy_study(
        _load(args).scenario,
        cases=tuple(args.cases),
        m_classes=tuple(args.m_classes.split(",")),
        thresholds=tuple(_parse_values(args.thresholds, "--thresholds")),
        granularities=tuple(_parse_ints(args.granularities, "--granularities")),
        n_scheduled=args.n,
        seeds=tuple(_parse_ints(args.seeds, "--seeds")),
        jobs=args.jobs,
    )
    _emit(args, "accuracy", rows, [
        f"threshold={f_val(s.threshold)} granularity={s.granularity} cells={s.n_cells} "
        f"p50={f_val(s.p50)} p90={f_val(s.p90)} max={f_val(s.max)}"
        for s in accuracy_summary(rows)])
    return 0


# Each subcommand, in help order: (help, its handler).
_COMMANDS = {
    "airtime": ("LoRa frame time on air", _cmd_airtime),
    "trace": ("voltage/state trajectory as CSV", _cmd_trace),
    "simulate": ("event-based simulation statistics", _cmd_simulate),
    "chain": ("Markov chain delivery metrics", _cmd_chain),
    "sweep": ("one-axis parameter sweep", _cmd_sweep),
    "min-cap": ("minimum capacitance per spreading factor", _cmd_min_cap),
    "min-interval": ("fastest feasible transmission interval", _cmd_min_interval),
    "wakeup": ("off-state charge time to the turn-on threshold", _cmd_wakeup),
    "accuracy": ("chain vs simulator PDR error grid", _cmd_accuracy),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only options of the top parser (--help) can come before the command.
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    args = _parser(command).parse_args(argv)
    try:
        _check_modes(args)
        paths = [path for path in (args.out, getattr(args, "dump_matrix", None)) if path]
        for path in paths:
            _check_writable(path)
        if len({os.path.realpath(path) for path in paths}) < len(paths):
            raise ScenarioError(f"--out and --dump-matrix both name {paths[1]!r}")
        return _COMMANDS[args.command][1](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleScenario as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
