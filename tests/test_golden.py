"""Golden values: fig1 and fig2 at theta0 = pi/4, m = 1..300, against the recorded references.

The references are the benchmark's ``perfbench/reference/fixed_theta/pi_4``
CSVs, compared with the benchmark's own tolerance (rel 1e-12 plus abs 1e-15)
and its pinned flags.  The test only reads under ``perfbench/``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from phasebound.cli import main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being created
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_fixed_theta_matches_reference(tmp_path, monkeypatch, command):
    workloads = _workloads(monkeypatch)
    out = tmp_path / f"{command}.csv"
    argv = [command, "--m.max", "300", "--theta0", repr(math.pi / 4), *workloads.COMMON,
            "--out", str(out)]
    assert main(argv) == 0
    reference = BENCH / "reference" / "fixed_theta" / "pi_4" / f"{command}.csv"
    assert workloads.compare_to_reference(str(out), str(reference)) == []
