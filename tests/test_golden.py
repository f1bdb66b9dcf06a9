"""Golden values: every seed-0 command of the fixed_theta and bayes_sweep workloads.

The commands and their references are the benchmark's own:
``workloads.inputs_for(workload, 0)`` gives the pinned argument lists, and
``perfbench/reference/<workload>/<tag>`` holds the recorded CSVs, compared
with the benchmark's tolerance (rel 1e-12 plus abs 1e-15).  That covers
fig1 and fig2 at theta0 = pi/4 on m = 1..300, ``bounds`` at m = 1, 2, 20
and 100, and fig3 and fig4 at alpha = 10 on m = 1..100.  The test only reads
under ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from phasebound.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being created
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_workloads()


def _seed0(workload):
    inputs = WORKLOADS.inputs_for(workload, 0)
    return [pytest.param(inputs, command, id=command.name) for command in inputs.commands]


def _check(tmp_path, inputs, command):
    out = tmp_path / f"{command.name}.csv"
    assert main([*command.args, "--out", str(out)]) == 0
    reference = Path(inputs.reference_dir) / f"{command.name}.csv"
    assert WORKLOADS.compare_to_reference(str(out), str(reference)) == []


@pytest.mark.parametrize("inputs,command", _seed0("fixed_theta"))
def test_fixed_theta_matches_reference(tmp_path, inputs, command):
    _check(tmp_path, inputs, command)


@pytest.mark.parametrize("inputs,command", _seed0("bayes_sweep"))
def test_bayes_sweep_matches_reference(tmp_path, inputs, command):
    _check(tmp_path, inputs, command)
