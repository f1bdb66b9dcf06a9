"""In-process span tracer around the public functions of each ``phasebound`` module.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
each traced function by a wrapper in every ``phasebound`` module namespace
that holds it (a name imported with ``from .model import tally_pmf_matrix``
is a separate binding in the importing module), wraps ``Estimator.values``
on the class, and puts everything back in ``uninstall``.

Each wrapper records a span (name, start, end, parent span, command id).
Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the time covered by its child spans.

Run as a script, it is the child process of a traced or untraced pass: it
runs one CLI command through ``phasebound.cli.main`` in a fresh interpreter,
as the CLI would, and writes its wall time (and, traced, its counts, times
and spans) next to the CSV:

    python3 perfbench/tracer.py RESULT.json TRACED COMMAND_ID fig3 --prior.alpha 10 ...
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs; the span name is "<module>.<function>".
TRACED = [
    ("model", "tally_pmf_matrix"),
    ("model", "tally_pmf_dtheta_matrix"),
    ("engine", "expect_values_over_tallies"),
    ("estimate", "posterior_table"),
    ("estimate", "frequentist_risk"),
    ("bbound", "ghosh_table"),
    ("fbound", "chrb"),
    ("fbound", "echrb"),
    ("fbound", "barankin"),
    ("fbound", "barankin_at"),
    ("fbound", "hierarchy_report"),
    ("rbound", "ziv_zakai"),
    ("rbound", "tally_marginal"),
    ("rbound", "bayes_chain_report"),
    ("numerics", "maximize_1d"),
    ("numerics", "solve_spd"),
    ("numerics", "family45_prior"),
    ("numerics", "flat_prior"),
    ("cli", "_emit"),
]
KERNELS = ("model.tally_pmf_matrix", "model.tally_pmf_dtheta_matrix")
OBJECTIVE = "numerics.maximize_1d.objective"
ESTIMATOR_VALUES = "estimate.estimator_values"


class Tracer:
    def __init__(self, command_id: int = 0):
        self.spans: list[list] = []       # [name, start, end, parent index, command id]
        self._stack: list[list] = []      # [span index, time covered by children]
        self.command_id = command_id
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.kernel_cells = 0
        self.ridged_solves = 0
        self.csv_bytes = 0
        self.csv_rows = 0
        self.posterior_keys: set = set()
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.command_id])
        frame = [index, 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = self.spans[index]
            span[2] = end
            duration = end - span[1]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,command\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for name, start, end, parent, cmd in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{cmd}\n")

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name, original):
        if name in KERNELS:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                out = self.call(name, original, *args, **kwargs)
                self.kernel_cells += out.size
                return out
        elif name == "estimate.posterior_table":
            @functools.wraps(original)
            def wrapper(prior, m, *args, **kwargs):
                self.posterior_keys.add((self.command_id, id(prior), m))
                return self.call(name, original, prior, m, *args, **kwargs)
        elif name == "numerics.maximize_1d":
            @functools.wraps(original)
            def wrapper(f, *args, **kwargs):
                objective = functools.partial(self.call, OBJECTIVE, f)
                return self.call(name, original, objective, *args, **kwargs)
        elif name == "numerics.solve_spd":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                sol = self.call(name, original, *args, **kwargs)
                self.ridged_solves += bool(sol.ridge_used)
                return sol
        elif name == "cli._emit":
            @functools.wraps(original)
            def wrapper(lines, *args, **kwargs):
                text = "\n".join(lines) + "\n"
                self.csv_bytes += len(text.encode("utf-8"))
                self.csv_rows += sum(not line.startswith("#") for line in lines) - 1
                return self.call(name, original, lines, *args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
        return wrapper

    def install(self) -> dict:
        """Bind every wrapper; returns {span name: number of namespaces bound}."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if (key == "phasebound" or key.startswith("phasebound.")) and mod is not None]
        bound = {}
        for module_name, func_name in TRACED:
            home = sys.modules[f"phasebound.{module_name}"]
            original = getattr(home, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        count += 1
            bound[f"{module_name}.{func_name}"] = count
        estimator = sys.modules["phasebound.estimate"].Estimator
        original_values = estimator.values

        @functools.wraps(original_values)
        def values(est, m):
            return self.call(ESTIMATOR_VALUES, original_values, est, m)

        self._restore.append((estimator, "values", original_values))
        estimator.values = values
        bound[ESTIMATOR_VALUES] = 1
        return bound

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def raw(self) -> dict:
        """Accumulated counts and times, mergeable across processes with ``merge``."""
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "kernel_cells": self.kernel_cells,
                "ridged_solves": self.ridged_solves, "csv_bytes": self.csv_bytes,
                "csv_rows": self.csv_rows, "posterior_distinct": len(self.posterior_keys)}


def merge(raws: list[dict]) -> dict:
    """Sum the ``Tracer.raw`` records of several commands."""
    out = {}
    for raw in raws:
        for key, value in raw.items():
            if isinstance(value, dict):
                acc = out.setdefault(key, Counter())
                for name, v in value.items():
                    acc[name] += v
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics (the ``per_layer`` names of BENCHMARK.json, minus import and overhead)."""
    calls, total_s, self_s = (Counter(raw.get(k, {})) for k in ("calls", "total_s", "self_s"))

    def pair(prefix, name=None):
        name = name or prefix
        return {f"{prefix}.calls": calls[name], f"{prefix}.self_s": self_s[name]}

    solves = calls["numerics.solve_spd"]
    posterior_calls = calls["estimate.posterior_table"]
    out = {}
    out.update(pair("model.tally_pmf_matrix"))
    out.update(pair("model.tally_pmf_dtheta_matrix"))
    out["model.kernel_cells"] = raw.get("kernel_cells", 0)
    out["model.kernel_mb"] = raw.get("kernel_cells", 0) * 8 / 1e6
    out.update(pair("estimate.posterior_table"))
    out["estimate.posterior_table.reuse_ratio"] = (
        raw.get("posterior_distinct", 0) / posterior_calls if posterior_calls else 0.0)
    out.update(pair("bbound.ghosh_table"))
    out.update(pair("rbound.ziv_zakai"))
    out.update(pair("rbound.tally_marginal"))
    out["rbound.bayes_chain_report.total_s"] = total_s["rbound.bayes_chain_report"]
    out.update(pair("numerics.maximize_1d"))
    out["numerics.maximize_1d.evals"] = calls[OBJECTIVE]
    out["numerics.maximize_1d.objective_s"] = total_s[OBJECTIVE]
    out.update(pair("fbound.chrb"))
    out.update(pair("fbound.echrb"))
    out.update(pair("fbound.barankin"))
    out["fbound.barankin_at.calls"] = calls["fbound.barankin_at"]
    out["fbound.hierarchy_report.total_s"] = total_s["fbound.hierarchy_report"]
    out.update(pair("numerics.solve_spd"))
    out["numerics.solve_spd.ridge_share"] = raw.get("ridged_solves", 0) / solves if solves else 0.0
    out.update(pair("estimate.estimator_values", ESTIMATOR_VALUES))
    out.update(pair("estimate.frequentist_risk"))
    out.update(pair("engine.expect_values_over_tallies"))
    out["numerics.prior_build_s"] = total_s["numerics.family45_prior"] + total_s["numerics.flat_prior"]
    out["cli.emit.self_s"] = self_s["cli._emit"]
    out["cli.csv_bytes"] = raw.get("csv_bytes", 0)
    out["cli.rows"] = raw.get("csv_rows", 0)
    return out


def _child(argv) -> int:
    import json

    result_path, traced, command_id, cli_argv = argv[0], argv[1] == "1", int(argv[2]), argv[3:]
    import phasebound.cli as cli

    tracer = Tracer(command_id) if traced else None
    bound = tracer.install() if tracer else {}
    start = time.perf_counter()
    code = cli.main(cli_argv)
    wall = time.perf_counter() - start
    result = {"code": code, "wall_s": wall, "bound": bound}
    if tracer:
        tracer.uninstall()
        result["raw"] = tracer.raw()
        tracer.write_spans(result_path[:-len(".json")] + ".spans.csv")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1:]))
