"""phasebound benchmark: one workload of CLI commands, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fixed_theta --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads and their inputs are in
``workloads.py``; ``perfbench/README.md`` says why each was chosen and under
which conditions the bounds in ``BENCHMARK.json`` were set.

``--trace 0`` times the workload in fresh processes, one interpreter per
command, the way a user runs it.  It first measures set-up (``setup_s``) by
running ``setup_probe.py`` for each command, three times, and then repeats
the whole command list until ``--seconds`` have passed and reports medians
over those repetitions: ``wall_s``, ``cpu_s`` (user plus system time of the
children, from ``os.wait4``), ``peak_rss_mb`` (the largest ``ru_maxrss`` of
a child) and ``cells_per_s`` (numeric CSV cells over ``wall_s``).
``bayes_sweep`` is then run once more, untimed, with two threads, and its
CSVs must be byte-identical to the one-thread ones.

``--trace 1`` runs each command through ``phasebound.cli.main`` in a fresh
interpreter started from ``tracer.py``, untraced and then traced, and repeats
such passes over the command list until ``--seconds`` have passed.  It
reports the per-layer metrics of ``tracer.py`` (medians over passes), import
time from fresh interpreters, and ``trace.overhead_s``, the traced minus the
untraced time spent in ``cli.main``.

Checks, in both modes: a command fails when it exits nonzero, writes
anything to stderr, or writes a CSV cell outside the reference tolerance;
repeated runs must also write byte-identical CSVs.  Failures are listed by
file, row and column, and counted in ``failed``.  A wrong or missing output
makes ``correct`` false and the exit code 1.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import NamedTuple

from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC, child_env, compare_to_reference, \
    inputs_for, numeric_cells, WORKLOADS

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
THREAD_CHECK = {"bayes_sweep": 2}     # workload -> thread count of the byte-identity check
SCIPY_SPECIAL = "scipy.special"
MAX_LISTED = 40                       # failure lines printed before the result


class Checker:
    """Counts attempted and failed commands and checks every CSV they write."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: Counter = Counter()
        self.first: dict[str, bytes] = {}

    def check(self, cmd, path: str, returncode: int, stderr_text: str, label: str):
        self.attempted += 1
        problems, wrong = [], False
        if returncode != 0:
            problems.append(f"{label} {cmd.name}: exit code {returncode}")
            wrong = True
        if stderr_text.strip():
            lines = stderr_text.strip().splitlines()
            first = next((ln for ln in lines if "Warning" in ln or "Error" in ln), lines[-1])
            problems.append(f"{label} {cmd.name}: stderr: {first.strip()}")
        if returncode == 0:
            if not os.path.isfile(path):
                problems.append(f"{label} {cmd.name}: no output file")
                wrong = True
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
                if cmd.name not in self.first:
                    self.first[cmd.name] = data
                    ref = os.path.join(self.inputs.reference_dir, f"{cmd.name}.csv")
                    mismatches = compare_to_reference(path, ref)
                    problems += [f"{label} {m}" for m in mismatches]
                    wrong = wrong or bool(mismatches)
                elif data != self.first[cmd.name]:
                    problems.append(f"{label} {cmd.name}.csv: not byte-identical to the first run")
                    wrong = True
        if problems:
            self.failed += 1
            self.problems.update(problems)
        self.correct = self.correct and not wrong


class Child(NamedTuple):
    wall: float       # s, spawn to exit
    cpu: float        # s, user plus system
    rss_mb: float     # ru_maxrss
    code: int
    stderr: str


def _spawn(argv, cwd, env, stderr_path) -> Child:
    """Run a child to completion, reaping it with ``os.wait4`` for its resource usage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)    # reaped here, not by Popen
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        stderr_text = fh.read()
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, stderr_text)


def _cli_argv(cmd):
    return [sys.executable, "-m", "phasebound.cli", *cmd.argv()]


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _warm_up(workdir):
    """Import once untimed, so that byte-compiling the sources is not timed."""
    child = _spawn([sys.executable, "-c", "import phasebound.cli"], workdir, child_env(),
                   os.path.join(workdir, "warmup.err"))
    if child.code != 0:
        raise SystemExit(f"perfbench: cannot import phasebound.cli: {child.stderr.strip()}")


def measure_setup(inputs, workdir) -> list[float]:
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    totals = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for cmd in inputs.commands:
            child = _spawn([sys.executable, probe, *cmd.args], workdir, child_env(),
                           os.path.join(workdir, "setup.err"))
            if child.code != 0:
                raise SystemExit(f"perfbench: set-up probe failed for {cmd.name}: "
                                 f"{child.stderr.strip()}")
            total += child.wall
        totals.append(total)
    return totals


def timed_run(inputs, seconds, workdir, checker) -> dict:
    _warm_up(workdir)
    setup = measure_setup(inputs, workdir)
    walls, cpus, rss = [], [], []
    cells = 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        rep_dir = _fresh_dir(os.path.join(workdir, f"rep{len(walls)}"))
        children = []
        rep_start = time.perf_counter()
        for cmd in inputs.commands:
            children.append(_spawn(_cli_argv(cmd), rep_dir, child_env(),
                                   os.path.join(rep_dir, f"{cmd.name}.err")))
        walls.append(time.perf_counter() - rep_start)
        cpus.append(sum(c.cpu for c in children))
        rss.append(max(c.rss_mb for c in children))
        for cmd, child in zip(inputs.commands, children):
            path = os.path.join(rep_dir, f"{cmd.name}.csv")
            checker.check(cmd, path, child.code, child.stderr, "timed")
            if len(walls) == 1 and child.code == 0 and os.path.isfile(path):
                cells += numeric_cells(path)

    threads = THREAD_CHECK.get(inputs.workload)
    if threads:
        thread_dir = _fresh_dir(os.path.join(workdir, f"threads{threads}"))
        for cmd in inputs.commands:
            child = _spawn(_cli_argv(cmd), thread_dir, child_env(threads),
                           os.path.join(thread_dir, f"{cmd.name}.err"))
            checker.check(cmd, os.path.join(thread_dir, f"{cmd.name}.csv"), child.code,
                          child.stderr, f"threads={threads}")

    wall = statistics.median(walls)
    return {
        "metrics": {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
            "cells_per_s": cells / wall,
        },
        "notes": [f"{len(walls)} timed repetitions, wall s: "
                  + ", ".join(f"{w:.3f}" for w in walls),
                  f"{SETUP_REPEATS} set-up repetitions, s: " + ", ".join(f"{t:.3f}" for t in setup),
                  f"{cells} numeric cells per repetition"],
    }


def measure_imports(workdir) -> tuple[float, float]:
    """(fresh interpreter importing phasebound.cli, wall s; scipy.special import s), medians."""
    walls, scipy_s = [], []
    for _ in range(IMPORT_REPEATS):
        child = _spawn([sys.executable, "-X", "importtime", "-c", "import phasebound.cli"],
                       workdir, child_env(), os.path.join(workdir, "importtime.err"))
        if child.code != 0:
            raise SystemExit(f"perfbench: cannot import phasebound.cli: {child.stderr.strip()}")
        walls.append(child.wall)
        for line in child.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == SCIPY_SPECIAL:
                scipy_s.append(int(parts[1]) / 1e6)
                break
    return statistics.median(walls), (statistics.median(scipy_s) if scipy_s else 0.0)


def _pass_pair(inputs, workdir, checker, index: int) -> tuple[float, list, dict]:
    """Each command untraced, then traced, each in its own child running ``tracer.py``.

    Running the two back to back per command keeps machine-speed drift out of
    their difference.  Returns (traced minus untraced s, traced raws, bindings).
    """
    script = os.path.join(BENCH_DIR, "tracer.py")
    overhead, raws, bound = 0.0, [], {}
    for i, cmd in enumerate(inputs.commands):
        for traced in (False, True):
            label = "traced" if traced else "untraced"
            run_dir = os.path.join(workdir, f"{label}{index}")
            os.makedirs(run_dir, exist_ok=True)
            result_path = os.path.join(run_dir, f"{cmd.name}.json")
            child = _spawn([sys.executable, script, result_path, str(int(traced)), str(i),
                            *cmd.argv()], run_dir, child_env(),
                           os.path.join(run_dir, f"{cmd.name}.err"))
            checker.check(cmd, os.path.join(run_dir, f"{cmd.name}.csv"), child.code,
                          child.stderr, label)
            if not os.path.isfile(result_path):
                raise SystemExit(f"perfbench: {label} run of {cmd.name} wrote no result: "
                                 f"{child.stderr.strip()}")
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            overhead += result["wall_s"] if traced else -result["wall_s"]
            if traced:
                raws.append(result["raw"])
                bound = result["bound"]
    return overhead, raws, bound


def traced_run(inputs, seconds, workdir, checker) -> dict:
    """Repeat untraced/traced pass pairs until ``seconds`` have passed; medians over passes."""
    from tracer import layer_metrics, merge

    _warm_up(workdir)
    import_s, scipy_s = measure_imports(workdir)
    overheads, layers, bound = [], [], {}
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        overhead, raws, bound = _pass_pair(inputs, workdir, checker, len(layers))
        overheads.append(overhead)
        layers.append(layer_metrics(merge(raws)))

    # median_low keeps counts whole and reports a value that was measured
    metrics = {name: statistics.median_low([rep[name] for rep in layers]) for name in layers[0]}
    metrics["import.phasebound_s"] = import_s
    metrics["import.scipy_special_s"] = scipy_s
    metrics["trace.overhead_s"] = statistics.median_low(overheads)
    notes = [f"{len(layers)} untraced/traced pass pairs, one fresh interpreter per command; "
             f"spans in {os.path.relpath(workdir)}/traced*/*.spans.csv",
             "wrapper bindings: " + ", ".join(f"{k}={v}" for k, v in bound.items())]
    unbound = sorted(name for name, count in bound.items() if count == 0)
    if unbound:
        checker.correct = False
        checker.problems.update([f"tracer: no binding for {', '.join(unbound)}"])
    return {"metrics": metrics, "notes": notes}


def _declared_units(trace: bool) -> dict:
    """{metric name: unit} that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phasebound", "cli.py")):
        print(f"perfbench: no phasebound sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    inputs = inputs_for(args.workload, args.seed)
    if not os.path.isdir(inputs.reference_dir):
        print(f"perfbench: no reference outputs in {inputs.reference_dir}", file=sys.stderr)
        return 2

    workdir = _fresh_dir(os.path.join(OUT_DIR, args.workload))
    checker = Checker(inputs)
    run = traced_run if args.trace else timed_run
    result = run(inputs, args.seconds, workdir, checker)
    units = _declared_units(bool(args.trace))
    if set(units) != set(result["metrics"]):
        print(f"perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(result['metrics']))}", file=sys.stderr)
        return 3
    metrics = {name: (value, units[name]) for name, value in result["metrics"].items()}

    print(f"workload {args.workload}, seed {args.seed}, input {inputs.tag}, "
          f"{'traced' if args.trace else 'untraced'}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    fail_rate = checker.failed / checker.attempted
    print(f"  {'fail_rate':44s} {fail_rate:14.6g} ratio ({checker.failed} of "
          f"{checker.attempted} commands failed)")
    problems = sorted(checker.problems.items())
    for problem, count in problems[:MAX_LISTED]:
        print(f"  FAIL {problem}" + (f" (x{count})" if count > 1 else ""))
    if len(problems) > MAX_LISTED:
        print(f"  ... and {len(problems) - MAX_LISTED} more failures")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
