import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "phasebound"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module,name", _tracer_module().TRACED)
def test_traced_function_exists(module, name):
    # the benchmark's --trace 1 pass wraps each of these by name
    assert callable(getattr(importlib.import_module(f"phasebound.{module}"), name, None))


def test_chrb_objective_calls_stay_batched(tmp_path):
    # the coarse grid is one objective call, so a chrb costs 1 + ~40
    # golden-section calls; a per-point coarse loop would cost ~440
    import phasebound.cli as cli
    from phasebound import GhzParityModel, fbound

    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        fbound.chrb(math.pi / 4, 20, GhzParityModel(2))
        chrb_evals = tracer.calls[tracer_module.OBJECTIVE]
        assert cli.main(["fig2", "--m.list", "20", "--out", str(tmp_path / "fig2.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["fbound.chrb"] == 2
    assert 1 < chrb_evals <= 60
    assert tracer.calls[tracer_module.OBJECTIVE] <= 60 * tracer.calls["fbound.chrb"]


# Fixed grid sizes and tolerances, each a constant of the module that owns it.
CONSTANTS = [
    ("numerics", "POSTERIOR_NODES"), ("numerics", "DERIVATIVE_NOISE_REL"),
    ("numerics", "_GOLDEN_REL_TOL"), ("numerics", "_RIDGE_SCALE"), ("numerics", "_CONDITION_CAP"),
    ("rbound", "_OUTER_NODES"), ("rbound", "_OUTER_MASS_TOL"),
    ("fbound", "_CHRB_COARSE"), ("fbound", "_ECHRB_GRID"), ("fbound", "_ECHRB_REFINE_ROUNDS"),
    ("fbound", "_OFFSET_SEPARATION"), ("fbound", "_OFFSET_FLOOR"), ("fbound", "_CHAIN_SLACK"),
]


@pytest.mark.parametrize("module,name", CONSTANTS)
def test_constant_is_read(module, name):
    # a constant no code reads is a setting that changes nothing; docstrings,
    # imports and the assignment itself do not count as reads
    assert hasattr(importlib.import_module(f"phasebound.{module}"), name)
    reads = sum(isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                for path in SRC.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    assert reads > 0, f"{module}.{name} is never read"


def test_no_public_callable_takes_tol():
    # the grid sizes and tolerances are fixed; no call can set them
    import phasebound

    modules = [phasebound] + [importlib.import_module(f"phasebound.{p.stem}")
                              for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    offenders = []
    for mod in modules:
        assert not hasattr(mod, "Tolerances") and not hasattr(mod, "DEFAULTS"), mod.__name__
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not callable(value):
                continue
            try:
                params = inspect.signature(value).parameters
            except (TypeError, ValueError):
                continue
            if "tol" in params:
                offenders.append(f"{mod.__name__}.{attr}")
    assert offenders == []


def test_streamed_kernel_work_stays_traced(tmp_path):
    # a large-m posterior table is built in blocks of tallies through the traced
    # tally_pmf_matrix; each block after the first re-reads one row of B_(m-1)
    import phasebound.bbound as bbound
    import phasebound.cli as cli

    m, nodes = 1000, 2001
    blocks = -(-(m + 1) // (bbound._BLOCK_CELLS // nodes))
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        assert cli.main(["fig3", "--prior.alpha", "10", "--grid.nodes", str(nodes),
                         "--m.list", str(m), "--out", str(tmp_path / "fig3.csv")]) == 0
    finally:
        tracer.uninstall()
    assert blocks > 1
    assert tracer.calls["model.tally_pmf_matrix"] >= blocks
    assert tracer.total_s["model.tally_pmf_matrix"] > 0.0
    assert tracer.kernel_cells <= (m + 1 + blocks) * nodes
