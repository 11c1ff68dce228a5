"""Layer tracing for the traced benchmark run.

Wraps caplora's public layer functions from outside the package: each
target is replaced, by identity, in every ``caplora`` module that binds
it, so calls made through a re-export or a ``from .x import y`` binding
are seen as well.  The package itself is never edited.

Two kinds of target:

* span targets record one span per call (id, name, start, end, parent,
  time covered by child calls, energy calls inside it, an optional note
  such as the number of uplinks simulated);
* leaf targets (the per-phase energy functions, called millions of times
  per simulator sweep) are only counted and timed, and charge their time
  to the enclosing span so that self times stay exact.

Spans are kept in memory and written out once at the end.  A target that
no longer exists is listed in ``missing`` and every metric that needs it
is left out, so renaming an internal never crashes the benchmark.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

ENERGY = ("energy.voltage_after", "energy.time_to_voltage")


def _note_uplinks(args, kwargs, result):
    return result[0].n_scheduled


def _note_chain_size(args, kwargs, result):
    return (len(result.states), int(result.matrix.nnz))


def _note_solve_kind(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    deterministic = scenario.p1 in (0.0, 1.0) and scenario.p2 in (0.0, 1.0)
    return "det" if deterministic else "stoch"


# name -> function computing the span note from (args, kwargs, result)
SPAN_TARGETS = {
    "cli.main": None,
    "config.load_scenario": None,
    "timing.class_a_schedule": None,
    "simulator.run_simulation": _note_uplinks,
    "simulator.single_cycle_trace": None,
    "markov.solve_chain": _note_solve_kind,
    "markov.build_transition_matrix": _note_chain_size,
    "markov.stationary_distribution": None,
    "markov.chain_metrics": None,
    "characterize.threshold_sweep": None,
    "characterize.min_capacitance": None,
    "characterize.min_tx_interval": None,
    "characterize.wakeup_time": None,
}


class Tracer:
    """Records spans and leaf statistics while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        # (id, name index, start, end, parent id, covered, energy calls, note)
        self.spans: list[tuple] = []
        self.leaves: dict[str, list[float]] = {}   # name -> [calls, inclusive s]
        self.missing: list[str] = []
        self._stack: list[list] = []               # [span id, covered, energy calls]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self, package: str = "caplora") -> None:
        """Wrap every target in every loaded module of ``package``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        targets = [(name, True) for name in SPAN_TARGETS] + [(name, False) for name in ENERGY]
        for name, is_span in targets:
            module_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            if is_span:
                wrapper = self._span_wrapper(name, original, SPAN_TARGETS[name])
            else:
                wrapper = self._leaf_wrapper(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, note_fn):
        self.names.append(name)
        name_index = len(self.names) - 1
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, 0]
            stack.append(frame)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                note = None
                if note_fn is not None and result is not None:
                    try:
                        note = note_fn(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        note = None
                spans.append((span_id, name_index, start, end,
                              parent[0] if parent else -1, frame[1], frame[2], note))
                if parent is not None:
                    parent[1] += end - start
                    parent[2] += frame[2]

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn):
        stat = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [None, 0.0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                    stack[-1][2] += frame[2] + 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as handle:
            handle.write("id,name,start_s,end_s,parent,covered_s,energy_calls,note\n")
            for span_id, idx, start, end, parent, covered, calls, note in self.spans:
                note_text = "" if note is None else str(note).replace(",", ";")
                handle.write(f"{span_id},{self.names[idx]},{start:.9f},{end:.9f},"
                             f"{parent},{covered:.9f},{calls},{note_text}\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans, per workload round.

    Times and counts are totals per round; ``*_per_call`` and rates are
    over the whole traced run.  Metrics whose targets are missing are
    left out.
    """
    by_name: dict[str, list[tuple]] = {name: [] for name in tracer.names}
    by_id: dict[int, tuple] = {}
    for span in tracer.spans:
        by_name[tracer.names[span[1]]].append(span)
        by_id[span[0]] = span

    def spans(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s[3] - s[2] for s in spans(name))

    def self_time(name):
        return sum(s[3] - s[2] - s[5] for s in spans(name))

    def per_call_us(seconds, calls):
        return seconds / calls * 1e6 if calls else 0.0

    def have(*names):
        return not any(n in tracer.missing for n in names)

    out: dict[str, float] = {}

    if have("cli.main"):
        out["cli.self_s"] = self_time("cli.main") / rounds
    if have("config.load_scenario"):
        loads = spans("config.load_scenario")
        out["config.load_scenario_ms"] = total("config.load_scenario") / len(loads) * 1e3 \
            if loads else 0.0
    if have("timing.class_a_schedule"):
        out["timing.class_a_schedule.calls"] = len(spans("timing.class_a_schedule")) / rounds
    for name in ENERGY:
        if have(name):
            calls, seconds = tracer.leaves[name]
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.us_per_call"] = per_call_us(seconds, calls)
    if have("simulator.run_simulation"):
        runs = spans("simulator.run_simulation")
        uplinks = sum(s[7] or 0 for s in runs)
        busy = total("simulator.run_simulation")
        out["simulator.run_simulation.self_s"] = self_time("simulator.run_simulation") / rounds
        out["simulator.uplinks_per_s"] = uplinks / busy if busy > 0 else 0.0
        if have(*ENERGY):
            out["energy.calls_per_uplink"] = \
                sum(s[6] for s in runs) / uplinks if uplinks else 0.0
    if have("simulator.single_cycle_trace"):
        traces = spans("simulator.single_cycle_trace")
        out["simulator.single_cycle_trace.calls"] = len(traces) / rounds
        out["simulator.single_cycle_trace.us_per_call"] = per_call_us(
            total("simulator.single_cycle_trace"), len(traces))
    if have("markov.build_transition_matrix"):
        builds = [s[7] for s in spans("markov.build_transition_matrix") if s[7]]
        out["markov.build_s"] = total("markov.build_transition_matrix") / rounds
        out["markov.states_max"] = max((n for n, _ in builds), default=0)
        out["markov.nnz_sum"] = sum(nnz for _, nnz in builds) / rounds
    if have("markov.stationary_distribution", "markov.solve_chain"):
        det = stoch = 0.0
        for s in spans("markov.stationary_distribution"):
            parent = by_id.get(s[4])
            if parent is not None and parent[7] == "det":
                det += s[3] - s[2]
            else:
                stoch += s[3] - s[2]
        out["markov.solve_det_s"] = det / rounds
        out["markov.solve_stoch_s"] = stoch / rounds
    if have("markov.chain_metrics"):
        out["markov.metrics_s"] = total("markov.chain_metrics") / rounds
    for name in ("threshold_sweep", "min_capacitance", "min_tx_interval", "wakeup_time"):
        if have(f"characterize.{name}"):
            out[f"characterize.{name}.self_s"] = self_time(f"characterize.{name}") / rounds
    if have("characterize.min_capacitance", "simulator.single_cycle_trace"):
        min_caps = spans("characterize.min_capacitance")
        cap_ids = {s[0] for s in min_caps}
        under = sum(1 for s in spans("simulator.single_cycle_trace")
                    if _has_ancestor(s, by_id, cap_ids))
        out["characterize.cycle_traces_per_min_cap"] = under / len(min_caps) if min_caps else 0.0
    return out


def _has_ancestor(span, by_id, wanted_ids) -> bool:
    parent = span[4]
    while parent != -1:
        if parent in wanted_ids:
            return True
        parent = by_id[parent][4]
    return False
