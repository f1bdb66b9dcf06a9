"""Workload definitions, seeded inputs and output checks shared by the benchmark scripts.

A workload is a fixed list of ``phasebound`` CLI commands.  The seed picks
one input from a small fixed set (the true phase for ``fixed_theta``, the
prior parameter alpha for the other two); seed 0 is the canonical input.
Every input in each set has reference CSVs under ``perfbench/reference``,
recorded with ``record.py``, so every seed's outputs are checked against a
reference, not only the canonical one.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# ROADMAP golden tolerance: |got - ref| <= ABS_TOL + REL_TOL * |ref|
REL_TOL = 1e-12
ABS_TOL = 1e-15

# Pinned so that a change of CLI defaults does not silently change the workload.
COMMON = ["--model.N", "2", "--domain.a", "0", "--domain.b", repr(math.pi / 2),
          "--grid.nodes", "2001"]

# (tag, value); the first entry of each set is the canonical seed-0 input.
THETA0_SET = [("pi_4", math.pi / 4), ("pi_8", math.pi / 8), ("pi_6", math.pi / 6),
              ("pi_3", math.pi / 3), ("3pi_8", 3 * math.pi / 8)]
ALPHA_SET = [("alpha10", 10.0), ("alpha-10", -10.0), ("alpha1", 1.0), ("alpha100", 100.0)]


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``name`` is also the CSV file it writes."""

    name: str
    args: tuple

    def argv(self) -> list[str]:
        return [*self.args, "--out", f"{self.name}.csv"]


def _fixed_theta(theta0: float) -> list[Command]:
    th = ["--theta0", repr(theta0)]
    cmds = [Command("fig1", ("fig1", "--m.max", "300", *th, *COMMON)),
            Command("fig2", ("fig2", "--m.max", "300", *th, *COMMON))]
    cmds += [Command(f"bounds_m{m}", ("bounds", "--prior.alpha", "10", "--m.list", str(m),
                                      *th, *COMMON))
             for m in (1, 2, 20, 100)]
    return cmds


def _bayes_sweep(alpha: float) -> list[Command]:
    a = ["--prior.alpha", repr(alpha), "--m.max", "100"]
    return [Command("fig3", ("fig3", *a, *COMMON)), Command("fig4", ("fig4", *a, *COMMON))]


def _large_m(alpha: float) -> list[Command]:
    a = ["--prior.alpha", repr(alpha)]
    return [Command("fig3_m5000", ("fig3", *a, "--m.list", "5000", *COMMON)),
            Command("fig4_m5000", ("fig4", *a, "--m.list", "5000", *COMMON)),
            Command("bounds_m1000", ("bounds", *a, "--m.list", "1000", *COMMON))]


WORKLOADS = {
    "fixed_theta": (THETA0_SET, _fixed_theta),
    "bayes_sweep": (ALPHA_SET, _bayes_sweep),
    "large_m": (ALPHA_SET, _large_m),
}


@dataclass(frozen=True)
class Inputs:
    workload: str
    tag: str
    commands: list

    @property
    def reference_dir(self) -> str:
        return os.path.join(REFERENCE_DIR, self.workload, self.tag)


def inputs_for(workload: str, seed: int) -> Inputs:
    """The command list of ``workload`` for ``seed``; seed 0 is canonical."""
    choices, build = WORKLOADS[workload]
    tag, value = choices[0] if seed == 0 else random.Random(seed).choice(choices)
    return Inputs(workload, tag, build(value))


def all_inputs(workload: str) -> list[Inputs]:
    choices, build = WORKLOADS[workload]
    return [Inputs(workload, tag, build(value)) for tag, value in choices]


# numpy's BLAS would otherwise start one thread per core for the matrix-vector
# products; on two shared cores those threads made timings wander by 10-15 %.
BLAS_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(threads: int | None = None) -> dict:
    """Environment for a CLI child: the checkout's sources, a fixed thread count."""
    env = dict(os.environ)
    env.update(BLAS_SINGLE_THREAD)
    env["PYTHONPATH"] = SRC
    env.pop("PHASEBOUND_THREADS", None)
    if threads is not None:
        env["PHASEBOUND_THREADS"] = str(threads)
    return env


def read_csv(path: str) -> tuple[str, list[list[str]]]:
    """(column header, data rows) of a CLI CSV; the echoed config comments are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def numeric_cells(path: str) -> int:
    _, rows = read_csv(path)
    return sum(_number(c) is not None for row in rows for c in row)


def compare_to_reference(got_path: str, ref_path: str) -> list[str]:
    """Mismatches of a CSV against its reference, each naming file, row and column."""
    name = os.path.basename(got_path)
    ref_header, ref_rows = read_csv(ref_path)
    header, rows = read_csv(got_path)
    if header != ref_header:
        return [f"{name}: header {header!r} != reference {ref_header!r}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    columns = header.split(",")
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows), 1):
        if len(row) != len(ref):
            problems.append(f"{name}: row {i} has {len(row)} cells, reference {len(ref)}")
            continue
        for col, got, want in zip(columns, row, ref):
            g, w = _number(got), _number(want)
            if g is None or w is None:
                ok = got == want
            else:
                ok = abs(g - w) <= ABS_TOL + REL_TOL * abs(w) or (g == w)
            if not ok:
                problems.append(f"{name}: row {i} ({row[0]}) column {col}: {got} != reference {want}")
    return problems
