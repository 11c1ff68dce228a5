"""Correctness checks for the benchmark's answers.

Every check compares a printed answer with a computation made here, or
with a property the model must have; none compares with a stored copy of
earlier output.  The checks call the CLI through ``invoke``, which the
worker runs with tracing off, so their calls are never counted.

Known fault kept in ``chain_grid``: at p1 = p2 = 0 the chain and the
simulator answer the same question, yet with ESR/EPR parasitics their
PDRs differ (``energy.voltage_after_parasitic`` returns the load voltage
where its callers expect the capacitor voltage, and the chain's
``_VoltageSteps`` ignores ESR/EPR).  Each parasitic cell whose chain PDR
is 0.01 or more away from a single-seed ``simulate`` run is counted as a
failed operation.  Those cells do not depend on the seed.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
from collections import defaultdict

import numpy as np

from workloads import GRANULARITIES, N_UPLINKS, SIZING_DL_PL, Workload

AGREEMENT_BOUND = 0.01      # criterion 6: |PDR_chain - PDR_sim| below this ...
AGREEMENT_SHARE = 0.90      # ... on at least this share of the deterministic cells
SAMPLES = 3                 # sampled rows per seed-independence / min-interval check


class Report:
    """Problems found and operations counted as failed, per round."""

    def __init__(self):
        self.problems: list[str] = []
        self.failed_ops = 0
        self.notes: dict[str, object] = {}

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def summary_line(text: str) -> dict[str, float]:
    """The 'pdr=... pdl1=... pdl2=...' line that simulate and chain print last."""
    fields = text.strip().splitlines()[-1].split()
    return {k: float(v) for k, v in (f.split("=") for f in fields)}


def printed_tolerance(value: float, digits: int) -> float:
    """Half a unit in the last place of a value printed with `digits` significant digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def wakeup_closed_form(scenario, c_farads: float, power_w: float, fraction: float) -> float:
    """R_eq C ln((V_inf - V_min) / (V_inf - V_th)) for the Off-state charge."""
    e = float(scenario["harvester"]["e_volts"])
    r_off = float(scenario["loads"]["off_ohms"])
    v_min = float(scenario["device"]["v_min"])
    r_i = e * e / power_w
    r_eq = r_off * r_i / (r_off + r_i)
    v_inf = e * r_eq / r_i
    v_th = fraction * e
    if v_th >= v_inf:
        return math.inf
    return r_eq * c_farads * math.log((v_inf - v_min) / (v_inf - v_th))


def run_checks(workload: Workload, outputs: list[tuple[int, str]], invoke,
               want_residual: bool = False) -> Report:
    """Check one round's outputs; ``outputs[i]`` is (exit code, stdout) of call i."""
    report = Report()
    {"sim_sweep": _sim_sweep, "chain_grid": _chain_grid, "sizing": _sizing}[workload.name](
        workload, outputs, invoke, report, want_residual)
    return report


def _answered(workload, outputs, report):
    """(invocation, rows) of each call that answered fully; the rest count as failed."""
    for inv, (code, text) in zip(workload.invocations, outputs):
        rows = parse_csv(text) if code == 0 else []
        if len(rows) != inv.rows:
            report.failed_ops += inv.rows
            report.problems.append(f"{inv.argv[0]} exited {code} with "
                                   f"{len(rows)}/{inv.rows} rows: {inv.argv}")
            continue
        yield inv, rows


# -- sim_sweep ----------------------------------------------------------------

def _sim_sweep(workload, outputs, invoke, report, want_residual):
    by_point = {}
    for inv, rows in _answered(workload, outputs, report):
        point = inv.info
        by_point[point["id"]] = (point, rows)
        for r in rows:
            pdr, pdl1, pdl2 = float(r["pdr"]), float(r["pdl1"]), float(r["pdl2"])
            where = f"sim_sweep {point['id']} threshold {r['value']}"
            report.expect(r["feasible"] == "1", f"{where}: infeasible")
            report.expect(0.0 <= pdl1 + pdl2 <= pdr + 1e-6 and pdr <= 1.0,
                          f"{where}: not 0 <= pdl1+pdl2 <= pdr <= 1 ({pdr}, {pdl1}, {pdl2})")
            if point["p1"] == 0.0:
                report.expect(pdl1 == 0.0, f"{where}: pdl1 {pdl1} with p1 = 0")
            if point["p2"] == 0.0 or point["p1"] == 1.0:
                report.expect(pdl2 == 0.0, f"{where}: pdl2 {pdl2} with p2 = 0 or p1 = 1")

    def allowance(point, fraction):
        """Cold-start loss budget: the first charge to the threshold, in packets."""
        scenario = workload.scenarios[point["path"]]
        power = float(scenario["harvester"]["power_watts"])
        t = wakeup_closed_form(scenario, point["c"], power, fraction)
        return 1.0 if not math.isfinite(t) else (math.floor(t / point["m"]) + 2) / N_UPLINKS

    def reference(point_id, check):
        if report.expect(point_id in by_point, f"sim_sweep {point_id}: no rows"):
            check(*by_point[point_id])

    def five_a(point, rows):
        bad = [r["value"] for r in rows
               if min(float(r["pdr"]), float(r["pdl1"])) + allowance(point, float(r["value"]))
               < 1.0 - 1e-9]
        report.expect(not bad, f"5a: pdr/pdl1 below 1 net of warm-up at thresholds {bad}")

    def five_b(point, rows):
        winners = [r["value"] for r in rows if 0.56 <= float(r["value"]) <= 0.60
                   and float(r["pdr"]) + allowance(point, float(r["value"])) >= 1.0 - 1e-9]
        report.expect(bool(winners), "5b: no threshold in [0.56, 0.60] sustains 9 s uplinks")
        at_98 = [float(r["pdr"]) for r in rows if float(r["value"]) == 0.98]
        report.expect(len(at_98) == 1 and at_98[0] < 0.9, f"5b: pdr at 0.98 is {at_98}, not < 0.9")

    def five_c(point, rows):
        worst = max(float(r["pdl2"]) for r in rows)
        report.expect(worst == 0.0, f"5c: window-2 downlink delivered at 4.7 mF (pdl2 {worst})")

    def five_d(point, rows):
        best = max(rows, key=lambda r: min(float(r["pdr"]), float(r["pdl2"])))
        allow = allowance(point, float(best["value"]))
        report.expect(float(best["pdr"]) + allow >= 1.0 - 1e-9
                      and float(best["pdl2"]) + allow >= 1.0 - 1e-9,
                      f"5d: best threshold {best['value']} gives pdr {best['pdr']} "
                      f"pdl2 {best['pdl2']}")

    for point_id, check in (("5a", five_a), ("5b", five_b), ("5c", five_c), ("5d", five_d)):
        reference(point_id, check)

    # Seed independence: with p1, p2 in {0, 1} every draw is decided, so a
    # single run with a seed outside the sweep's seeds gives the same row.
    for point, rows in by_point.values():
        if point["p1"] not in (0.0, 1.0) or point["p2"] not in (0.0, 1.0):
            continue
        other = workload.rng.randrange(1, 1_000_000)
        while other in point["seeds"]:
            other = workload.rng.randrange(1, 1_000_000)
        for r in workload.rng.sample(rows, SAMPLES):
            code, text = invoke(["simulate", "--scenario", point["path"], "--m", repr(point["m"]),
                                 "--threshold", r["value"], "--seed", str(other),
                                 "--n", str(N_UPLINKS)])
            if not report.expect(code == 0, f"simulate exited {code} at {point['id']}"):
                continue
            single = summary_line(text)
            for key in ("pdr", "pdl1", "pdl2"):
                report.expect(abs(single[key] - float(r[key])) <= 1e-6,
                              f"sim_sweep {point['id']} threshold {r['value']}: {key} "
                              f"{r[key]} differs from seed {other} ({single[key]})")


# -- chain_grid ---------------------------------------------------------------

def _simulate_pdr(invoke, report, path: str, m: float, seed: int) -> float | None:
    code, text = invoke(["simulate", "--scenario", path, "--m", repr(m), "--seed", str(seed),
                         "--n", str(N_UPLINKS)])
    if not report.expect(code == 0, f"simulate exited {code} for {path} at M = {m}"):
        return None
    return summary_line(text)["pdr"]


def _chain_grid(workload, outputs, invoke, report, want_residual):
    seed = workload.rng.randrange(1, 1_000_000)
    matrix_path = os.path.join(workload.workdir, "matrix.csv")
    agree = cells = 0
    residual = 0.0
    for inv, rows in _answered(workload, outputs, report):
        info = inv.info
        p1, p2 = info["p1"], info["p2"]
        deterministic = p1 in (0.0, 1.0) and p2 in (0.0, 1.0)
        for m in info["m"]:
            cell_rows = [r for r in rows if float(r["m_s"]) == m]
            where = f"chain_grid {info['case']} p=({p1}, {p2}) M={m}"
            if not report.expect(len(cell_rows) == len(GRANULARITIES), f"{where}: rows missing"):
                continue
            for r in cell_rows:
                pdr, pdl1, pdl2 = float(r["pdr"]), float(r["pdl1"]), float(r["pdl2"])
                if not info["parasitic"]:
                    report.expect(r["feasible"] == "1" and 0.0 <= pdr <= 1.0,
                                  f"{where} g={r['value']}: infeasible or pdr {pdr}")
                    report.expect(pdl1 <= p1 * pdr + 1e-6 and
                                  pdl2 <= (1.0 - p1) * p2 * pdr + 1e-6,
                                  f"{where} g={r['value']}: pdl1 {pdl1} / pdl2 {pdl2} above "
                                  f"their share of pdr {pdr}")
            row_750 = next(r for r in cell_rows if r["value"] == "750")
            cell_residual = _check_dense(invoke, report, info["path"], m, float(row_750["pdr"]),
                                         matrix_path, workload, want_residual, where)
            if cell_residual is None:
                residual = None
            elif residual is not None:
                residual = max(residual, cell_residual)
            if info["parasitic"] or deterministic:
                sim = _simulate_pdr(invoke, report, info["path"], m, seed)
                if sim is None:
                    continue
                for r in cell_rows:
                    ok = r["feasible"] == "1" and abs(float(r["pdr"]) - sim) < AGREEMENT_BOUND
                    if info["parasitic"]:
                        report.failed_ops += 0 if ok else 1
                    else:
                        cells += 1
                        agree += ok
    report.notes["deterministic_cells_agreeing"] = f"{agree}/{cells}"
    report.expect(cells > 0 and agree >= math.ceil(AGREEMENT_SHARE * cells),
                  f"chain_grid: only {agree}/{cells} deterministic ideal cells agree with "
                  f"simulate within {AGREEMENT_BOUND}")
    report.notes["parasitic_cells_failed"] = report.failed_ops
    if want_residual:
        report.notes["residual_max"] = residual


def _check_dense(invoke, report, path, m, printed_pdr, matrix_path, workload,
                 want_residual, where) -> float | None:
    """Dumped matrix rows sum to 1 and the printed PDR equals the dense answer.

    Returns the residual of the program's own stationary vector against the
    dumped matrix when ``want_residual`` is set (None when unavailable).
    """
    g = GRANULARITIES[0]
    code, _ = invoke(["chain", "--scenario", path, "--granularity", str(g), "--m", repr(m),
                      "--dump-matrix", matrix_path])
    if not report.expect(code == 0, f"{where}: chain --dump-matrix exited {code}"):
        return None
    index: dict[tuple[str, int], int] = {}
    entries = []
    with open(matrix_path, encoding="utf-8") as handle:
        for r in csv.DictReader(handle):
            src = index.setdefault((r["src_kind"], int(r["src_level"])), len(index))
            dst = index.setdefault((r["dst_kind"], int(r["dst_level"])), len(index))
            entries.append((src, dst, float(r["prob"])))
    n = len(index)
    p = np.zeros((n, n))
    for i, j, prob in entries:
        p[i, j] += prob
    report.expect(np.abs(p.sum(axis=1) - 1.0).max() <= 1e-9, f"{where}: rows do not sum to 1")
    v_min = float(workload.scenarios[path]["device"]["v_min"])
    start = index.get(("OFF", round(v_min * g)))
    if not report.expect(start is not None, f"{where}: no start state (OFF, v_min)"):
        return None
    pi = long_run_distribution(p, start)
    lost = sum(pi[k] for (kind, _), k in index.items() if kind in ("OFF", "SL0"))
    dense_pdr = 1.0 - lost
    report.expect(abs(dense_pdr - printed_pdr) <= printed_tolerance(dense_pdr, 6) + 1e-8,
                  f"{where}: printed pdr {printed_pdr} but the dense solve gives {dense_pdr:.9f}")
    return _program_residual(path, m, g, p, index) if want_residual else 0.0


def long_run_distribution(p: np.ndarray, start: int) -> np.ndarray:
    """Cesaro-limit distribution of the chain started in ``start``, dense.

    Closed classes come from the transitive closure of the transition
    graph; each class's stationary vector solves pi (P - I) = 0 with
    sum(pi) = 1, and classes are weighted by their absorption
    probability from ``start``.
    """
    n = p.shape[0]
    reach = (p > 0) | np.eye(n, dtype=bool)
    while True:
        wider = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
        if (wider == reach).all():
            break
        reach = wider
    mutual = reach & reach.T
    recurrent = np.array([mutual[i, reach[i]].all() for i in range(n)])
    transient = np.flatnonzero(~recurrent)
    pi = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(recurrent):
        if seen[i]:
            continue
        members = np.flatnonzero(mutual[i])
        seen[members] = True
        k = len(members)
        a = np.vstack([p[np.ix_(members, members)].T - np.eye(k), np.ones((1, k))])
        b = np.zeros(k + 1)
        b[-1] = 1.0
        class_pi = np.linalg.lstsq(a, b, rcond=None)[0]
        if recurrent[start]:
            weight = 1.0 if start in members else 0.0
        else:
            q = p[np.ix_(transient, transient)]
            into = p[np.ix_(transient, members)].sum(axis=1)
            absorb = np.linalg.solve(np.eye(len(transient)) - q, into)
            weight = absorb[np.flatnonzero(transient == start)[0]]
        pi[members] += weight * class_pi
    return pi


def _program_residual(path, m, g, p, index) -> float | None:
    """max |pi P - pi| for the program's own stationary vector and the dumped P."""
    try:
        import dataclasses

        from caplora.config import load_scenario
        from caplora.markov import build_transition_matrix, stationary_distribution

        scenario = dataclasses.replace(load_scenario(path).scenario, interval_m=m)
        tm = build_transition_matrix(scenario, g)
        program_pi = stationary_distribution(tm)
        pi = np.zeros(len(index))
        for state, value in zip(tm.states, program_pi):
            pi[index[(state.kind, state.level)]] = value
    except (ImportError, AttributeError, TypeError, KeyError):
        return None
    return float(np.abs(pi @ p - pi).max())


# -- sizing -------------------------------------------------------------------

MIN_CAP_REFERENCE = {   # README, 48 B uplinks at 1 mW; criterion 3 tolerance
    (7, "none"): 3.5e-3, (9, "none"): 6.7e-3, (11, "none"): 18.4e-3,
    (7, "rx2"): 12.7e-3, (9, "rx2"): 15.9e-3, (11, "rx2"): 27.6e-3,
}
MIN_INTERVAL_REFERENCE = {"none": 32.0, "rx2": 50.0}   # 20 mF, 1 mW; criterion 4
WAKEUP_REFERENCE = {4.7e-3: 0.017, 1.0: 3.5}           # 0.56 at 100 mW; criterion 2
REFERENCE_TOLERANCE = {"min-cap": 0.15, "min-interval": 0.15, "wakeup": 0.10}


def _sizing(workload, outputs, invoke, report, want_residual):
    ideal, parasitic, interval, wakeup = {}, {}, {}, []
    for inv, rows in _answered(workload, outputs, report):
        kind = inv.info["kind"]
        for r in rows:
            if kind == "min-cap":
                key = (int(r["sf"]), int(r["ul_payload_bytes"]), r["dl_case"], float(r["power_w"]))
                (parasitic if inv.info["parasitic"] else ideal)[key] = float(r["min_capacitance_f"])
            elif kind == "min-interval":
                key = (float(r["capacitance_f"]), float(r["power_w"]), r["dl_case"])
                interval[key] = float(r["min_interval_s"])
            else:
                wakeup.append((inv, r))

    def near(got, want, tolerance, what):
        report.expect(got is not None and abs(got - want) <= tolerance * want,
                      f"{what}: {got} not within {tolerance:.0%} of {want}")

    for (sf, dl), want in MIN_CAP_REFERENCE.items():
        near(ideal.get((sf, 48, dl, 1e-3)), want, REFERENCE_TOLERANCE["min-cap"],
             f"min-cap SF{sf} 48 B {dl} at 1 mW")
    for dl, want in MIN_INTERVAL_REFERENCE.items():
        near(interval.get((20e-3, 1e-3, dl)), want, REFERENCE_TOLERANCE["min-interval"],
             f"min-interval 20 mF 1 mW {dl}")

    # Monotonicity of the ideal min-cap grid along each axis.
    axes = {"SF": 0, "payload": 1, "power": 3}
    for axis, pos in axes.items():
        lines = defaultdict(list)
        for key, c in ideal.items():
            lines[key[:pos] + key[pos + 1:]].append((key[pos], c))
        for rest, line in lines.items():
            values = [c for _, c in sorted(line)]
            ordered = (all(a >= b for a, b in zip(values, values[1:])) if axis == "power"
                       else all(a <= b for a, b in zip(values, values[1:])))
            report.expect(ordered, f"min-cap not monotone in {axis} at {rest}: {values}")
    for (sf, pl, dl, power), c in ideal.items():
        if dl == "rx2":
            none = ideal.get((sf, pl, "none", power))
            report.expect(none is not None and c >= none,
                          f"min-cap rx2 {c} below none {none} at SF{sf} {pl} B {power} W")
    for key, c in parasitic.items():
        report.expect(key in ideal and c >= ideal[key],
                      f"parasitic min-cap {c} below ideal {ideal.get(key)} at {key}")

    for inv, r in wakeup:
        scenario = workload.scenarios[inv.info["path"]]
        c, fraction, got = float(r["capacitance_f"]), float(r["threshold"]), float(r["wakeup_s"])
        want = wakeup_closed_form(scenario, c, float(r["power_w"]), fraction)
        report.expect(got == want if math.isinf(want) else
                      abs(got - want) <= printed_tolerance(want, 9) + 1e-12 * want,
                      f"wakeup {c} F threshold {fraction}: {got} s, closed form {want!r}")
        if fraction == 0.56 and c in WAKEUP_REFERENCE:
            near(got, WAKEUP_REFERENCE[c], REFERENCE_TOLERANCE["wakeup"], f"wakeup {c} F at 0.56")

    # The reported minimum capacitance must be the feasibility boundary:
    # min-interval answers there and refuses 2 % below it.
    base = next(inv.info["path"] for inv in workload.invocations
                if inv.info["kind"] == "min-cap" and not inv.info["parasitic"])
    path = os.path.join(workload.workdir, "sizing_check.ini")
    eligible = sorted(k for k, c in ideal.items() if c >= 1e-3)
    for key in workload.rng.sample(eligible, min(SAMPLES, len(eligible))):
        sf, pl, dl, power = key
        scenario = configparser.ConfigParser(interpolation=None)
        scenario.read_dict(workload.scenarios[base])
        scenario.set("radio", "sf", str(sf))
        scenario.set("traffic", "ul_payload_bytes", str(pl))
        scenario.set("traffic", "dl_payload_bytes", str(SIZING_DL_PL))
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            scenario.write(handle)
        for factor, want in ((1.0, 0), (0.98, 3)):
            code, _ = invoke(["min-interval", "--scenario", path, "--capacitance",
                              repr(ideal[key] * factor), "--power", repr(power),
                              "--dl-case", dl])
            report.expect(code == want, f"min-interval at {factor} x min-cap {ideal[key]} "
                                        f"(SF{sf} {pl} B {dl} {power} W) exited {code}, "
                                        f"not {want}")
