import concurrent.futures
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from caplora import characterize, cli, defaults
from caplora.cli import COLUMNS, main
from caplora.config import dump_scenario, load_scenario, parse_scenario
from caplora.energy import CapacitorConfig, HarvesterConfig
from caplora.errors import ScenarioError
from caplora.timing import RadioConfig

from conftest import make_loads, make_scenario


def csv_header(command: str) -> str:
    return ",".join(name for name, *_ in COLUMNS[command])


CASE_C = """
[radio]
sf = 9

[traffic]
ul_payload_bytes = 48

[harvester]
power_watts = 0.01
"""


class TestScenarioFiles:
    def test_empty_file_gives_stock_defaults(self):
        loaded = parse_scenario("")
        s = loaded.scenario
        assert s.circuit.harvester.operating_voltage == defaults.OPERATING_VOLTAGE
        assert s.circuit.harvester.harvest_power == defaults.HARVEST_POWER_W
        assert s.circuit.capacitor.capacitance == defaults.CAPACITANCE_F
        assert math.isinf(s.circuit.capacitor.epr)
        assert s.circuit.loads.tx == 117.811
        assert s.circuit.v_min == 1.8
        assert s.radio.sf == 7 and s.radio.bw == 125e3 and s.radio.cr_index == 1
        assert s.radio.n_preamble == 8 and s.radio.ih == 1 and s.radio.de == 0
        assert (s.ul_pl, s.dl_pl) == (16, 1)
        assert (s.p1, s.p2) == (0.0, 0.0)
        assert loaded.granularity == 750

    def test_case_c_overrides(self):
        loaded = parse_scenario(CASE_C)
        s = loaded.scenario
        assert s.radio.sf == 9
        assert s.ul_pl == 48
        assert s.circuit.harvester.harvest_power == 0.01
        assert s.circuit.capacitor.capacitance == defaults.CAPACITANCE_F

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ScenarioError, match=r"unknown section"):
            parse_scenario("[power]\nwatts = 1\n")
        with pytest.raises(ScenarioError, match=r"unknown key"):
            parse_scenario("[radio]\nspreading = 7\n")
        for text in ("[DEFAULT]\nbogus = 1\n", "[DEFAULT]\nsf = 9\n[radio]\n"):
            with pytest.raises(ScenarioError, match=r"unknown section \[DEFAULT\]"):
                parse_scenario(text)

    def test_threshold_below_turn_off_rejected(self):
        with pytest.raises(ScenarioError, match="v_min < v_sl"):
            parse_scenario("[device]\nturn_on_fraction = 0.50\n")

    def test_bad_number_names_section_and_key(self):
        with pytest.raises(ScenarioError, match=r"\[capacitor\] c_farads"):
            parse_scenario("[capacitor]\nc_farads = tiny\n")

    def test_out_of_range_payload_warns(self, tmp_path):
        with pytest.warns(UserWarning, match="dl_payload_bytes = 52"):
            parse_scenario("[traffic]\ndl_payload_bytes = 52\n")
        cfg = tmp_path / "ack.ini"
        cfg.write_text("[traffic]\ndl_payload_bytes = 52\n")
        with pytest.warns(UserWarning, match=re.escape(f"{cfg}: dl_payload_bytes = 52")):
            load_scenario(str(cfg))

    def test_reloading_a_dump_is_silent(self):
        text = dump_scenario(parse_scenario(""))
        assert "dl_payload_bytes = 1\n" in text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_scenario(text) == parse_scenario("")

    def test_explicit_nonstock_payload_in_a_dump_still_warns(self):
        text = dump_scenario(parse_scenario("")).replace(
            "dl_payload_bytes = 1\n", "dl_payload_bytes = 60\n")
        with pytest.warns(UserWarning, match="dl_payload_bytes = 60"):
            parse_scenario(text)

    @pytest.mark.parametrize("text", [
        "[harvester]\npower_watts = nan\n",
        "[traffic]\ninterval_s = inf\n",
        "[traffic]\ninterval_s = nan\n",
        "[capacitor]\nc_farads = nan\n",
        "[capacitor]\nesr_ohms = nan\n",
        "[capacitor]\nepr_ohms = nan\n",
        "[capacitor]\nc_farads = -inf\n",
        "[loads]\noff_ohms = inf\n",
    ])
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario(text)

    @pytest.mark.parametrize("build", [
        lambda: HarvesterConfig(3.3, math.nan),
        lambda: HarvesterConfig(math.inf, 1e-3),
        lambda: CapacitorConfig(math.nan),
        lambda: CapacitorConfig(math.inf),
        lambda: CapacitorConfig(4.7e-3, esr=math.nan),
        lambda: CapacitorConfig(4.7e-3, epr=math.nan),
        lambda: make_loads(tx=math.nan),
        lambda: RadioConfig(bw=math.nan),
        lambda: make_scenario(interval_m=math.nan),
        lambda: make_scenario(interval_m=math.inf),
    ])
    def test_library_validators_reject_non_finite(self, build):
        with pytest.raises(ScenarioError):
            build()

    @pytest.mark.parametrize("value", ["14", "nan"])
    def test_retired_tx_power_is_an_unknown_key(self, value, tmp_path, capsys):
        text = f"[radio]\nsf = 9\ntx_power_dbm = {value}\n"
        with pytest.raises(ScenarioError, match=r"unknown key \[radio\] tx_power_dbm"):
            parse_scenario(text)
        cfg = tmp_path / "tx_power.ini"
        cfg.write_text(text)
        assert main(["simulate", "--scenario", str(cfg), "--n", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown key [radio] tx_power_dbm" in captured.err
        assert "tx_power_dbm" not in dump_scenario(parse_scenario("[radio]\nsf = 9\n"))

    def test_infinite_epr_spelled_out(self):
        loaded = parse_scenario("[capacitor]\nepr_ohms = inf\n")
        assert math.isinf(loaded.scenario.circuit.capacitor.epr)
        loaded = parse_scenario("[capacitor]\nepr_ohms = 550000\n")
        assert loaded.scenario.circuit.capacitor.epr == 550000.0

    @pytest.mark.parametrize("fraction", ["0.56", "0.7", "0.7123", "0.98"])
    def test_dump_round_trips(self, fraction):
        loaded = parse_scenario(
            f"[device]\nturn_on_fraction = {fraction}\n"
            "[capacitor]\nesr_ohms = 1.5\nepr_ohms = 550000\n"
            "[traffic]\np1 = 0.25\ninterval_s = 12.5\n"
        )
        text = dump_scenario(loaded)
        again = parse_scenario(text)
        assert again == loaded

    def test_load_scenario_from_env_directory(self, tmp_path, monkeypatch):
        (tmp_path / "caseC.cfg").write_text(CASE_C)
        monkeypatch.setenv("CAPLORA_SCENARIO_DIR", str(tmp_path))
        loaded = load_scenario("caseC.cfg")
        assert loaded.scenario.radio.sf == 9

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/file.cfg")


class TestCli:
    def test_airtime_prints_known_value(self, capsys):
        assert main(["airtime", "--sf", "7", "--pl", "16"]) == 0
        assert capsys.readouterr().out.strip() == "0.046336"

    def test_airtime_csv(self, tmp_path, capsys):
        out = tmp_path / "airtime.csv"
        assert main(["airtime", "--sf", "12", "--pl", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == csv_header("airtime")
        assert lines[1].endswith("0.663552")

    def test_simulate_summary_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("[traffic]\ninterval_s = 9\n[device]\nturn_on_fraction = 0.58\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["simulate", "--scenario", str(cfg), "--seed", "1",
                     "--n", "300", "--out", str(out_a)]) == 0
        first = capsys.readouterr().out
        assert first.startswith("pdr=")
        assert main(["simulate", "--scenario", str(cfg), "--seed", "1",
                     "--n", "300", "--out", str(out_b)]) == 0
        assert capsys.readouterr().out == first
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().split("\n")[0]
        assert header == csv_header("simulate")

    def test_chain_command_and_matrix_dump(self, tmp_path, capsys):
        out = tmp_path / "chain.csv"
        dump = tmp_path / "matrix.csv"
        code = main(["chain", "--granularity", "200", "--m", "40",
                     "--threshold", "0.70", "--out", str(out),
                     "--dump-matrix", str(dump)])
        assert code == 0
        assert "pdr=1" in capsys.readouterr().out
        assert out.read_text().split("\n")[0] == csv_header("chain")
        matrix_lines = dump.read_text().strip().split("\n")
        assert matrix_lines[0] == "src_kind,src_level,dst_kind,dst_level,prob"
        assert len(matrix_lines) > 2

    def test_sweep_json_mirror(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--axis", "threshold", "--values", "0.58,0.70",
                     "--m", "9", "--engine", "chain", "--granularity", "150",
                     "--json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert ",".join(rows[0]) == csv_header("sweep")

    def test_wakeup_rows(self, capsys):
        code = main(["wakeup", "--thresholds", "0.56", "--capacitance", "0.0047,1",
                     "--power", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == csv_header("wakeup")
        values = [float(line.split(",")[-1]) for line in lines[1:]]
        assert values[0] == pytest.approx(0.017, rel=0.1)
        assert values[1] == pytest.approx(3.55, rel=0.1)

    def test_min_interval_command(self, capsys):
        code = main(["min-interval", "--capacitance", "0.02", "--dl-case", "none"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == csv_header("min-interval")

    def test_validation_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[device]\nturn_on_fraction = 0.5\n")
        assert main(["simulate", "--scenario", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_leaky_capacitor_exits_2_at_load(self, tmp_path, capsys):
        # EPR = 2 kohm settles the Off state at 0.51 V: the scenario itself
        # is rejected, before any search probes a start voltage.
        cfg = tmp_path / "leaky.cfg"
        cfg.write_text("[capacitor]\nepr_ohms = 2000\n")
        assert main(["min-cap", "--scenario", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "off-state equilibrium voltage 0.5106 V" in captured.err
        assert "v_start" not in captured.err and captured.out == ""

    def test_leaky_capacitor_min_cap_is_infeasible(self, tmp_path, capsys):
        # ESR 16.67 ohm / EPR 16.37 kohm at 1 mW cannot charge above the Tx
        # turn-off voltage: exit 3, never the 0.1 mF search floor.
        cfg = tmp_path / "leaky.cfg"
        cfg.write_text("[capacitor]\nesr_ohms = 16.67\nepr_ohms = 16370\n")
        assert main(["min-cap", "--scenario", str(cfg), "--sf", "7", "--ul-pl", "60",
                     "--power", "0.001,0.025"]) == 3
        captured = capsys.readouterr()
        assert "infeasible:" in captured.err and "0.0001" not in captured.out

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[capacitor]\nc_farads = 0.001\n[traffic]\ninterval_s = 60\n")
        assert main(["min-interval", "--scenario", str(cfg)]) == 3
        assert "infeasible:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chain", "--granularity", "0"],
        ["sweep", "--axis", "threshold", "--values", "0.7", "--engine", "chain",
         "--granularity", "0"],
        ["sweep", "--axis", "threshold", "--values", "0.7", "--jobs", "0"],
        ["accuracy", "--cases", "A", "--jobs", "-1"],
        ["sweep", "--axis", "threshold", "--values", "0.7", "--engine", "chain", "--n", "0"],
        ["simulate", "--n", "0"],
        ["trace", "--n", "0"],
        ["accuracy", "--cases", "A", "--n", "0"],
    ])
    def test_nonpositive_granularity_and_jobs_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["power_watts = nan", "interval_s = inf"])
    def test_non_finite_scenario_exits_2(self, tmp_path, capsys, setting):
        section = "harvester" if "power" in setting else "traffic"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{setting}\n")
        assert main(["simulate", "--scenario", str(cfg), "--n", "50"]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [["simulate", "--m", "1e306", "--n", "1000"],
                                      ["simulate", "--m", "1e308", "--n", "5"],
                                      ["trace", "--m", "1e308", "--n", "3"]])
    def test_a_horizon_past_the_largest_float_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("axis,values", [
        ("granularity", "0,750"),
        ("granularity", "0.5,750"),
        ("ul_pl", "0,16"),
        ("dl_pl", "0,1"),
        ("threshold", "0.5,0.7"),
        ("threshold", "nan"),
        ("capacitance", "0:inf:1"),
        ("interval_m", "a:b:1"),
    ])
    def test_invalid_sweep_values_exit_2(self, axis, values, capsys):
        code = main(["sweep", "--axis", axis, "--values", values, "--m", "40",
                     "--engine", "chain", "--granularity", "100"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_chain_interval_too_short_for_window_2_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "w2.cfg"
        cfg.write_text("[traffic]\np2 = 0.5\n")
        assert main(["chain", "--scenario", str(cfg), "--m", "3.1",
                     "--granularity", "100"]) == 2
        assert "sequence bound 3.111296 s" in capsys.readouterr().err

    # At 10 W energy never binds.  M = 3.0 s holds the stock SF7 sequence as
    # the analytic cycle counts it (2.709888 s) but not a window-2 preamble
    # and packet (3.111296 s).
    @pytest.mark.parametrize("command", [
        ["simulate", "--n", "100"], ["chain"],
        ["sweep", "--axis", "threshold", "--values", "0.7", "--engine", "both", "--n", "100",
         "--seeds", "1"]])
    def test_an_interval_without_room_for_a_window_2_reception_exits_2(self, command,
                                                                      tmp_path, capsys):
        cfg = tmp_path / "w2.ini"
        cfg.write_text("[harvester]\npower_watts = 10\n[traffic]\np2 = 1\n")
        assert main([*command, "--scenario", str(cfg), "--m", "3.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "sequence bound 3.111296 s" in captured.err

    @pytest.mark.parametrize("command, pdr", [(["simulate", "--n", "1000"], "0.999"),
                                              (["chain"], "1")])
    def test_window_2_never_opens_when_window_1_always_receives(self, command, pdr,
                                                                tmp_path, capsys):
        cfg = tmp_path / "w1.ini"
        cfg.write_text("[harvester]\npower_watts = 10\n[traffic]\np1 = 1\np2 = 1\n")
        assert main([*command, "--scenario", str(cfg), "--m", "3.0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"pdr={pdr} pdl1={pdr} pdl2=0"

    def test_accuracy_cell_that_never_wakes_exits_3(self, capsys):
        # A threshold beyond the Off state's charging ceiling is no cell to
        # score, not a perfect agreement of two zeros; the sweep keeps the
        # same cell as a feasible = 0 row.
        assert main(["accuracy", "--cases", "A", "--m-classes", "very_high", "--thresholds",
                     "0.999", "--granularities", "100", "--n", "50", "--seeds", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible:") and "never wakes" in captured.err
        assert main(["sweep", "--axis", "threshold", "--values", "0.7,0.999", "--m", "40",
                     "--engine", "both", "--n", "50", "--seeds", "1",
                     "--granularity", "100"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["1", "1", "0", "0"]

    def test_sweep_without_seeds_exits_2(self, capsys):
        code = main(["sweep", "--axis", "threshold", "--values", "0.7", "--seeds", ""])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    # random.Random(-s) draws what Random(s) draws: a negative seed, like a
    # repeated one, would run one seed twice.
    @pytest.mark.parametrize("seeds, message", [
        ("1,-1", "must be >= 0"), ("-1", "must be >= 0"), ("1,1", "repeat"),
        ("3,1,3", "repeat")])
    @pytest.mark.parametrize("command", [
        ["sweep", "--axis", "threshold", "--values", "0.6", "--m", "40", "--n", "20"],
        ["accuracy", "--cases", "A", "--m-classes", "very_high", "--granularities", "100",
         "--n", "20"]])
    def test_negative_or_repeated_seeds_exit_2(self, command, seeds, message, capsys):
        assert main([*command, "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("command", ["simulate", "trace"])
    def test_negative_seed_exits_2(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--n", "5"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_seeds_are_read_exactly(self, capsys):
        # 2**53 + 1 has no float: read through one it ran seed 2**53.
        seed = str(2**53 + 1)
        assert cli._parse_ints(f"{seed},7", "--seeds") == [2**53 + 1, 7]
        assert main(["simulate", "--scenario", STOCHASTIC, "--m", "40", "--threshold", "0.6",
                     "--n", "200", "--seed", seed, "--json"]) == 0
        pdl1 = json.loads(capsys.readouterr().out)[0]["pdl1"]
        for given, same in ((seed, True), (str(2**53), False)):
            assert main(["sweep", "--scenario", STOCHASTIC, "--axis", "threshold",
                         "--values", "0.6", "--m", "40", "--n", "200", "--seeds", given]) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert (row[5] == pdl1) is same

    # Without --single-cycle the trace is a full run from the cold start,
    # which neither option shapes.
    @pytest.mark.parametrize("option", [["--v-start", "2.5"], ["--dl-case", "rx1"],
                                        ["--dl-case", "none"]])
    def test_single_cycle_options_need_single_cycle(self, option, capsys):
        assert main(["trace", "--n", "1", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "only with --single-cycle" in captured.err

    # With --single-cycle the trace is one analytic cycle, which takes no
    # draw and schedules no uplinks.
    @pytest.mark.parametrize("option", [["--seed", "5"], ["--n", "3"], ["--seed", "1"],
                                        ["--seed", "5", "--n", "3"]])
    def test_full_run_options_refuse_single_cycle(self, option, capsys):
        assert main(["trace", "--single-cycle", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "only without --single-cycle" in captured.err

    def test_the_full_run_trace_defaults_to_seed_1_and_5_uplinks(self, capsys):
        assert main(["trace"]) == 0
        default = capsys.readouterr().out
        assert main(["trace", "--seed", "1", "--n", "5"]) == 0
        assert capsys.readouterr().out == default

    def test_trace_single_cycle(self, capsys):
        code = main(["trace", "--single-cycle", "--dl-case", "rx1", "--m", "9"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == csv_header("trace")
        states = [line.split(",")[2] for line in lines[1:]]
        assert states[0] == "tx" and "rx" in states


# One invalid value per grid option of every grid command, plus the inputs
# that used to run: a zero payload read as "not given", fractions truncated
# to whole numbers, unknown accuracy cases ending in a KeyError, empty grid
# options printing a bare header, and an interval grid that overrode an
# interval_m axis while its rows printed the axis values.
INVALID_GRID_VALUES = {
    "sweep-values-empty": ["sweep", "--axis", "threshold", "--values", ","],
    "sweep-interval-m-with-m": ["sweep", "--axis", "interval_m", "--values", "5,9", "--m", "20"],
    "accuracy-cases-empty": ["accuracy", "--cases", ""],
    "min-cap-sf-empty": ["min-cap", "--sf", ""],
    "wakeup-thresholds-empty": ["wakeup", "--thresholds", ","],
    "sweep-values": ["sweep", "--axis", "threshold", "--values", "0.7,1.2"],
    "sweep-m": ["sweep", "--axis", "threshold", "--values", "0.7", "--m", "40,0"],
    "sweep-seeds": ["sweep", "--axis", "threshold", "--values", "0.7", "--seeds", "1.9"],
    "accuracy-cases": ["accuracy", "--cases", "Z"],
    "accuracy-m-classes": ["accuracy", "--cases", "A", "--m-classes", "small,tiny"],
    "accuracy-thresholds": ["accuracy", "--cases", "A", "--thresholds", "0.7,0.5"],
    "accuracy-granularities": ["accuracy", "--cases", "A", "--granularities", "100.7"],
    "accuracy-seeds": ["accuracy", "--cases", "A", "--seeds", "1.9"],
    # A repeated value would count its cells twice in the summary.
    "accuracy-cases-repeat": ["accuracy", "--cases", "AA"],
    "accuracy-m-classes-repeat": ["accuracy", "--cases", "A", "--m-classes", "small,small"],
    "accuracy-thresholds-repeat": ["accuracy", "--cases", "A", "--thresholds", "0.7,0.70"],
    "accuracy-granularities-repeat": ["accuracy", "--cases", "A", "--m-classes", "small",
                                      "--granularities", "10,10", "--n", "10"],
    "min-cap-sf": ["min-cap", "--sf", "7,7.5"],
    "min-cap-power": ["min-cap", "--power", "0.001,-1"],
    "min-cap-ul-pl": ["min-cap", "--ul-pl", "0"],
    "min-cap-dl-pl": ["min-cap", "--dl-pl", "0"],
    "min-interval-capacitance": ["min-interval", "--capacitance", "0.02,0"],
    "min-interval-power": ["min-interval", "--power", "nan"],
    "wakeup-thresholds": ["wakeup", "--thresholds", "0.6,0.5"],
    "wakeup-capacitance": ["wakeup", "--capacitance", "0.0047,-1"],
    "wakeup-power": ["wakeup", "--power", "0"],
}


@pytest.mark.parametrize("name", sorted(INVALID_GRID_VALUES))
def test_invalid_grid_value_exits_2_before_any_cell(name, monkeypatch, capsys):
    from caplora import cli

    real = characterize.evaluate_grid

    def unmeasured(base, axes, measure, *args, **kwargs):
        def fail(cell):
            raise AssertionError(f"{name}: a cell was measured before validation")
        return real(base, axes, fail, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_grid", unmeasured)
    monkeypatch.setattr(characterize, "evaluate_grid", unmeasured)
    assert main(INVALID_GRID_VALUES[name]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_serial_sweep_leaves_the_process_pool_unloaded(tmp_path):
    code = ("import sys; from caplora.cli import main; "
            "main(['sweep', '--axis', 'threshold', '--values', '0.6,0.7', '--m', '9', "
            "'--engine', 'both', '--n', '50', '--seeds', '1', '--out', sys.argv[1]]); "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sweep.csv")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 5


def test_cli_import_leaves_scipy_unloaded():
    code = "import caplora.cli, sys; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


def _python(code: str, *args: str, env=None) -> str:
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Commands that never build a chain, so they must not pay the numpy import.
NUMPY_FREE_CALLS = [
    ["airtime", "--sf", "7", "--pl", "16"],
    ["min-cap", "--sf", "7", "--ul-pl", "48", "--dl-pl", "48", "--dl-case", "rx2"],
    ["min-interval", "--capacitance", "0.02", "--power", "0.001", "--dl-case", "rx2"],
    ["wakeup", "--capacitance", "0.0047", "--power", "0.1", "--thresholds", "0.56"],
    ["trace", "--single-cycle"],
    ["simulate", "--m", "9", "--n", "50"],
    ["sweep", "--axis", "threshold", "--values", "0.6,0.7", "--m", "9", "--engine",
     "simulator", "--n", "50", "--seeds", "1"],
]


def test_numpy_loads_only_when_a_chain_is_solved():
    code = """if True:
        import contextlib, io, json, sys
        import caplora
        seen = [["import caplora", 0, "numpy" in sys.modules]]
        import caplora.cli
        seen.append(["import caplora.cli", 0, "numpy" in sys.modules])
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = caplora.cli.main(argv)
            seen.append([argv[0], code, "numpy" in sys.modules])
        print(json.dumps(seen))
    """
    calls = NUMPY_FREE_CALLS + [["chain", "--granularity", "100", "--m", "40"]]
    seen = json.loads(_python(code, json.dumps(calls)))
    assert seen[:-1] == [["import caplora", 0, False], ["import caplora.cli", 0, False]] + \
        [[argv[0], 0, False] for argv in NUMPY_FREE_CALLS]
    assert seen[-1] == ["chain", 0, True]


CHAIN_NAMES = ("ChainResult", "ChainState", "ThresholdLevels", "TransitionMatrix",
               "build_transition_matrix", "chain_metrics", "solve_chain",
               "stationary_distribution", "threshold_levels")


def test_chain_names_are_the_markov_objects():
    import caplora
    from caplora import markov

    for name in CHAIN_NAMES:
        assert getattr(caplora, name) is getattr(markov, name)
        assert name in dir(caplora)
    with pytest.raises(AttributeError, match="caplora"):
        caplora.no_such_name


def test_library_solve_loads_numpy_on_first_solve():
    code = """if True:
        import sys
        from caplora import parse_scenario, solve_chain
        before = "numpy" in sys.modules
        result = solve_chain(parse_scenario("").scenario, 100)
        print(before, "numpy" in sys.modules, 0 <= result.pdr <= 1)
    """
    assert _python(code).split() == ["False", "True", "True"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset,expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_cli_import_defaults_blas_to_one_thread(preset, expected):
    # This test process has imported caplora.cli too, so the variables are
    # removed from the child's environment before the preset is applied.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    code = "import os, sys, caplora.cli; print(*(os.environ.get(v, '-') for v in sys.argv[1:]))"
    assert _python(code, *BLAS_VARS, env={**env, **preset}).split() == expected


def test_library_import_leaves_the_environment_alone():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    code = ("import os; before = dict(os.environ); import caplora; "
            "print(dict(os.environ) == before)")
    assert _python(code, env=env).strip() == "True"


def test_chain_seconds_leaves_out_the_numpy_import():
    code = """if True:
        import sys
        from caplora import characterize, parse_scenario
        clock, calls = characterize.time.perf_counter, []

        def checked():
            assert "numpy" in sys.modules, "the chain timer started before numpy loaded"
            calls.append(1)
            return clock()

        characterize.time.perf_counter = checked
        assert "numpy" not in sys.modules
        rows = characterize.accuracy_study(parse_scenario("").scenario, cases="A",
                                           m_classes=("small",), p_combos=((0.0, 0.0),),
                                           granularities=(100,), n_scheduled=20, seeds=(1,))
        print(len(rows), len(calls))
    """
    assert _python(code).split() == ["1", "2"]


GOLDEN = pathlib.Path(__file__).parent / "data"
# An ESR 20 ohm / EPR 50 kohm capacitor with p1 = 0.3, p2 = 0.5: the files
# recorded from it pin the parasitic path of every engine.
PARASITIC = str(GOLDEN / "parasitic.ini")

# Each file under tests/data holds the recorded stdout of its command line:
# outputs may change only with a documented fix, never by a refactor or a
# speed-up.  Sizing: the README min-cap example and its reference behaviours.
GOLDEN_CALLS = {
    "min_cap_readme.csv": ["min-cap", "--sf", "7,9,11", "--ul-pl", "48", "--dl-pl", "48",
                           "--dl-case", "rx2"],
    "min_interval.csv": ["min-interval", "--capacitance", "0.02", "--power", "0.001",
                         "--dl-case", "rx2"],
    "wakeup.csv": ["wakeup", "--capacitance", "0.0047,1", "--power", "0.1",
                   "--thresholds", "0.56"],
    "min_interval_parasitic.csv": ["min-interval", "--scenario", PARASITIC,
                                   "--capacitance", "0.02,0.047", "--power", "0.001,0.01",
                                   "--dl-case", "rx2"],
    "wakeup_parasitic.csv": ["wakeup", "--scenario", PARASITIC, "--capacitance", "0.0047,1",
                             "--power", "0.1", "--thresholds", "0.56,0.7"],
    "min_cap_parasitic.csv": ["min-cap", "--scenario", PARASITIC, "--sf", "7,9,11",
                              "--ul-pl", "48", "--dl-pl", "48", "--dl-case", "rx2"],
}
# Engines: the README simulate and chain examples, a small two-engine sweep
# and a single-cycle trace.
ENGINE_GOLDEN_CALLS = {
    "simulate_readme.csv": ["simulate", "--m", "9", "--threshold", "0.58", "--n", "1000"],
    "chain_readme.csv": ["chain", "--granularity", "750", "--m", "40", "--threshold", "0.70"],
    "sweep_both.csv": ["sweep", "--axis", "threshold", "--values", "0.56:0.64:0.02",
                       "--m", "5,9", "--engine", "both", "--n", "200", "--seeds", "1,2"],
    "trace_single_cycle.csv": ["trace", "--single-cycle", "--dl-case", "rx2"],
    "chain_parasitic_strict.csv": ["chain", "--scenario", PARASITIC, "--granularity", "750",
                                   "--m", "15", "--threshold", "0.7", "--strict-rx2"],
    # The README sweep example, and simulator threshold sweeps through the
    # stochastic and on/off regimes (every rx2 reception aborts at p2 > 0).
    "sweep_readme.csv": ["sweep", "--axis", "threshold", "--values", "0.55:0.98:0.01",
                         "--m", "5,9,40", "--engine", "both"],
    "sweep_stochastic_simulator.csv": ["sweep", "--scenario", str(GOLDEN / "stochastic.ini"),
                                       "--axis", "threshold", "--values", "0.55:0.98:0.01",
                                       "--m", "9,40", "--engine", "simulator"],
    "sweep_parasitic_simulator.csv": ["sweep", "--scenario", PARASITIC, "--axis", "threshold",
                                      "--values", "0.55:0.98:0.01", "--m", "9,40",
                                      "--engine", "simulator"],
    # Simulator threshold sweeps through on/off orbits whose on-slot
    # voltages cycle with a period: window 1 always detected, and the ESR/EPR
    # part without downlinks.
    "sweep_rx1_simulator.csv": ["sweep", "--scenario", str(GOLDEN / "rx1.ini"), "--axis",
                                "threshold", "--values", "0.55:0.98:0.01", "--m", "5,20",
                                "--engine", "simulator"],
    "sweep_parasitic_quiet_simulator.csv": ["sweep", "--scenario",
                                            str(GOLDEN / "parasitic_quiet.ini"), "--axis",
                                            "threshold", "--values", "0.55:0.98:0.01",
                                            "--m", "9,40", "--engine", "simulator"],
}


STOCHASTIC = str(GOLDEN / "stochastic.ini")
# One call per subcommand, recorded with --json --out FILE: the files pin
# each column's JSON type (formatted floats are strings, ints and the sweep's
# feasible flag are numbers).
JSON_GOLDEN_CALLS = {
    "json_airtime.json": ["airtime", "--sf", "12", "--pl", "1"],
    "json_trace.json": ["trace", "--single-cycle", "--dl-case", "rx1", "--m", "9"],
    "json_simulate.json": ["simulate", "--m", "9", "--threshold", "0.58", "--n", "100"],
    "json_chain.json": ["chain", "--scenario", STOCHASTIC, "--granularity", "100", "--m", "40",
                        "--threshold", "0.7"],
    "json_sweep.json": ["sweep", "--axis", "threshold", "--values", "0.58,0.999", "--m", "9",
                        "--engine", "both", "--n", "100", "--seeds", "1",
                        "--granularity", "100"],
    "json_min_cap.json": ["min-cap", "--sf", "7,9", "--ul-pl", "48", "--dl-pl", "48",
                          "--dl-case", "rx2"],
    "json_min_interval.json": ["min-interval", "--capacitance", "0.02", "--power", "0.001",
                               "--dl-case", "rx2"],
    "json_wakeup.json": ["wakeup", "--capacitance", "0.0047", "--power", "0.1",
                         "--thresholds", "0.56,0.7"],
    "json_accuracy.json": ["accuracy", "--cases", "A", "--m-classes", "very_high",
                           "--granularities", "100", "--n", "50", "--seeds", "1,2"],
}
# The README accuracy example (run serially: --jobs does not change the rows).
ACCURACY_README = ["accuracy", "--cases", "AD", "--m-classes", "small,very_high",
                   "--granularities", "100,500,750"]


def _without_chain_seconds(text: str) -> str:
    """The output with every chain_seconds value, a wall time, blanked."""
    text = re.sub(r'"chain_seconds": "[^"]*"', '"chain_seconds": ""', text)
    lines = text.split("\n")
    if "chain_seconds" not in lines[0].split(","):
        return text
    column = lines[0].split(",").index("chain_seconds")
    for i, line in enumerate(lines):
        fields = line.split(",")
        if i and len(fields) > column:
            fields[column] = ""
            lines[i] = ",".join(fields)
    return "\n".join(lines)


def _assert_golden(argv, name, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(JSON_GOLDEN_CALLS))
def test_json_file_output_is_identical(name, tmp_path):
    out = tmp_path / name
    assert main(JSON_GOLDEN_CALLS[name] + ["--json", "--out", str(out)]) == 0
    got = out.read_text(encoding="utf-8")
    assert _without_chain_seconds(got) == _without_chain_seconds(
        (GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(JSON_GOLDEN_CALLS))
def test_json_on_stdout_is_only_the_json(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(JSON_GOLDEN_CALLS[name] + ["--json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(JSON_GOLDEN_CALLS[name] + ["--json"]) == 0
    stdout = capsys.readouterr().out
    assert isinstance(json.loads(stdout), list)
    assert _without_chain_seconds(stdout) == _without_chain_seconds(
        out.read_text(encoding="utf-8"))


def _never_called(*args, **kwargs):
    raise AssertionError("a cell ran before the output path was checked")


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "threshold", "--values", "0.55:0.98:0.01", "--m", "5,9,40",
     "--engine", "both", "--out", "{tmp}"],
    ["accuracy", "--cases", "A", "--out", "{tmp}/missing/a.csv"],
    ["min-cap", "--sf", "7,9", "--out", "{tmp}/file.csv/x.csv"],
    ["chain", "--granularity", "100", "--m", "40", "--dump-matrix", "{tmp}/missing/m.csv"],
    ["chain", "--granularity", "100", "--m", "40", "--out", "{tmp}/ok.csv",
     "--dump-matrix", "{tmp}"],
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(characterize, "_measure", _never_called)
    monkeypatch.setattr(cli, "min_capacitance", _never_called)
    monkeypatch.setattr(cli, "build_transition_matrix", _never_called)
    (tmp_path / "file.csv").write_text("")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write '{tmp_path}")
    assert captured.err.rstrip().endswith(
        ("Is a directory", "No such file or directory", "Not a directory"))
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.csv"]


def test_a_run_that_fails_leaves_the_output_file_alone(tmp_path, capsys):
    leaky = tmp_path / "leaky.cfg"
    leaky.write_text("[capacitor]\nesr_ohms = 16.67\nepr_ohms = 16370\n")
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")
    assert main(["sweep", "--axis", "threshold", "--values", "0.6,0.2", "--m", "9",
                 "--out", str(out)]) == 2
    # Exit 3 from the second cell's search, after the first cell ran.
    assert main(["min-cap", "--sf", "7", "--dl-case", "rx2", "--power", "0.025,0.001",
                 "--ul-pl", "60", "--scenario", str(leaky), "--out", str(out)]) == 3
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().out == ""


# Help pages and argparse's usage errors: main builds only the invoked
# command's arguments, and must print what the fully built parser prints.
PARSER_CALLS = [["--help"], [], ["bogus"], ["--", "min-cap"], ["min-cap", "--bogus"],
                ["min-cap", "--sf"], ["airtime"], ["airtime", "--sf", "x", "--pl", "1"],
                ["sweep", "--values", "1"], ["sweep", "--axis", "bogus", "--values", "1"],
                ["chain", "--granularity", "0"], ["min-cap", "--dl-case", "bad"]]
PARSER_CALLS += [[name, "--help"] for name in COLUMNS]


def _parser_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CALLS, ids=lambda argv: " ".join(argv) or "nothing")
def test_help_and_usage_errors_match_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = _parser_exit(cli.build_parser().parse_args, argv, capsys)
    assert want[0] == (0 if "--help" in argv else 2)
    assert (want[1] if "--help" in argv else want[2]).startswith("usage: caplora")
    assert _parser_exit(main, argv, capsys) == want


def test_main_fills_in_only_the_invoked_commands_arguments(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda commands=None: built.append(commands)
                        or build(commands))
    assert main(["airtime", "--sf", "7", "--pl", "16"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert built == [["airtime"], []]
    capsys.readouterr()


def test_readme_lists_each_commands_columns():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = dict(re.findall(r"^\| `([a-z-]+)` \| .* \| ([a-z0-9_,]+) \|$", readme, re.M))
    assert listed == {command: csv_header(command) for command in COLUMNS}


def test_accuracy_readme_example_is_identical_but_for_chain_seconds(capsys):
    assert main(ACCURACY_README) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    want = (GOLDEN / "accuracy_readme.csv").read_text(encoding="utf-8")
    assert _without_chain_seconds(captured.out) == _without_chain_seconds(want)
    assert captured.out.count("\nthreshold=0.7 granularity=") == 3


@pytest.mark.parametrize("name", sorted(GOLDEN_CALLS))
def test_sizing_output_is_byte_identical(name, capsys):
    _assert_golden(GOLDEN_CALLS[name], name, capsys)


@pytest.mark.parametrize("name", sorted(ENGINE_GOLDEN_CALLS))
def test_engine_output_is_byte_identical(name, capsys):
    _assert_golden(ENGINE_GOLDEN_CALLS[name], name, capsys)


# g = 2000 gives a 224-state chain with 670 entries.
@pytest.mark.parametrize("granularity,golden", [("100", "chain_matrix.csv"),
                                                ("2000", "chain_stochastic_matrix.csv")])
def test_matrix_dump_is_byte_identical(granularity, golden, tmp_path, capsys):
    # stochastic.ini sets p1 = 0.3, p2 = 0.5, so every branch kind is dumped.
    dump = tmp_path / "matrix.csv"
    assert main(["chain", "--scenario", str(GOLDEN / "stochastic.ini"), "--granularity",
                 granularity, "--m", "40", "--threshold", "0.7", "--dump-matrix", str(dump)]) == 0
    assert capsys.readouterr().err == ""
    assert dump.read_bytes() == (GOLDEN / golden).read_bytes()


def test_parasitic_matrix_dump_is_byte_identical(tmp_path, capsys):
    dump = tmp_path / "matrix.csv"
    assert main(["chain", "--scenario", PARASITIC, "--granularity", "750", "--m", "15",
                 "--threshold", "0.7", "--dump-matrix", str(dump)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN / "chain_parasitic.csv").read_bytes()
    assert dump.read_bytes() == (GOLDEN / "chain_parasitic_matrix.csv").read_bytes()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "threshold", "--values", "0.6,0.7", "--m", "9",
     "--engine", "chain", "--granularity", "100"],
    ["accuracy", "--cases", "A", "--m-classes", "very_high", "--granularities", "100",
     "--n", "20", "--seeds", "1"],
])
def test_jobs_are_capped_at_the_cpu_count(argv, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    assert main(argv + ["--jobs", "3"]) == 0
    assert _RecordingPool.max_workers == [1]
