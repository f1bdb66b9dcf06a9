import ast
import importlib
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "phasebound"


def _perfbench_module(name: str):
    """``perfbench/<name>.py`` as a module, loaded without writing a bytecode cache there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("module,name", _perfbench_module("tracer").TRACED)
def test_traced_function_exists(module, name):
    # the benchmark's --trace 1 pass wraps each of these by name
    assert callable(getattr(importlib.import_module(f"phasebound.{module}"), name, None))


@pytest.mark.parametrize("command", ["fig1", "fig2", "fig3", "fig4", "bounds"])
def test_setup_probe_runs(tmp_path, command):
    # every benchmark run times set-up through perfbench/setup_probe.py, which calls
    # RunConfig(), set_key, sample_sizes, build and make_prior: it must run cleanly on
    # the command's first seed-0 workload input
    workloads = _perfbench_module("workloads")
    args = next(cmd.args for name in workloads.WORKLOADS
                for cmd in workloads.inputs_for(name, 0).commands if cmd.args[0] == command)
    child = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), *args], cwd=tmp_path,
                           env=workloads.child_env(), capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (0, "")


def test_chrb_objective_calls_stay_batched(tmp_path, monkeypatch):
    # fig2 hands its whole sweep to one chrb and one echrb call, each a traced
    # span, whose ChRB searches step in lock-step: one coarse call plus ~45
    # golden-section calls for all 300 m, where one search per m made ~13,000;
    # and the Barankin coordinate search evaluates its placements as stacks, so
    # one hierarchy_report calls barankin_at only for its start and its result
    import phasebound.cli as cli
    from phasebound import GhzParityModel, fbound

    tracer_module = _perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert cli.main(["fig2", "--m.max", "300", "--out", str(tmp_path / "fig2.csv")]) == 0
        fig2_calls = dict(tracer.calls)
        tracer.calls.clear()
        fbound.hierarchy_report(math.pi / 4, 20, GhzParityModel(2))
    finally:
        tracer.uninstall()
    assert fig2_calls["numerics.maximize_1d"] == 1
    assert (fig2_calls["fbound.chrb"], fig2_calls["fbound.echrb"]) == (1, 1)
    assert 1 < fig2_calls[tracer_module.OBJECTIVE] <= 60
    assert tracer.calls["fbound.barankin_at"] <= 2
    assert tracer.calls["numerics.maximize_1d"] >= 3    # chrb and the coordinate searches


def test_bounds_reaches_the_estimator_chain(tmp_path):
    # bounds asserts variance >= aCRLB >= fVTB for both estimators, so the pmf
    # derivative kernel behind aCRLB and fVTB is reached by a command
    import phasebound.cli as cli

    tracer = _perfbench_module("tracer").Tracer()
    tracer.install()
    try:
        assert cli.main(["bounds", "--prior.alpha", "10", "--m.list", "3", "--grid.nodes", "401",
                         "--out", str(tmp_path / "bounds.csv")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["model.tally_pmf_dtheta_matrix"] >= 4    # aCRLB and fVTB, two each


# Fixed grid sizes and tolerances, each a constant of the module that owns it.
CONSTANTS = [
    ("model", "_BLOCK_CELLS"), ("model", "_GRID_LOGS_KEPT"), ("model", "_EXP_ZERO_BELOW"),
    ("model", "_WINDOW_ALIGN"), ("model", "_BLAS_ALIGN"), ("model", "_PEAK_CUT"),
    ("numerics", "POSTERIOR_NODES"), ("numerics", "DERIVATIVE_NOISE_REL"),
    ("numerics", "_PRIOR_MASS_TOL"), ("numerics", "_GOLDEN_REL_TOL"), ("numerics", "_RIDGE_SCALE"),
    ("numerics", "_CONDITION_CAP"), ("rbound", "_OUTER_NODES"),
    ("fbound", "_CHRB_COARSE"), ("fbound", "_ECHRB_GRID"), ("fbound", "_ECHRB_REFINE_ROUNDS"),
    ("fbound", "_OFFSET_SEPARATION"), ("fbound", "_CHAIN_SLACK"), ("fbound", "_SEARCH_CELLS"),
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


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def _readme_value(cell: str) -> float:
    """A value cell of README's constants table: ``1e-9``, ``−745.2`` or a power ``2¹⁶``."""
    cell = cell.replace("−", "-")
    if cell[:1] == "2" and not cell[1:].isascii():
        return float(2 ** int(cell[1:].translate(_SUPERSCRIPTS)))
    return float(cell)


def test_readme_lists_every_constant():
    # README's "Numerical notes" table names each constant as `module.name`, and no
    # other, with the constant's own value in its first cell
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    notes = readme.split("## Numerical notes", 1)[1].split("\n## ", 1)[0]
    table = [line for line in notes.splitlines() if line.lstrip().startswith("|")]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in table[2:]]
    listed = {row[-1].strip("`"): row[0] for row in rows}
    values = {f"{m}.{n}": getattr(importlib.import_module(f"phasebound.{m}"), n)
              for m, n in CONSTANTS}
    assert sorted(listed) == sorted(values)
    assert {name: (listed[name], value) for name, value in values.items()
            if _readme_value(listed[name]) != value} == {}


@pytest.mark.parametrize("setting", ["tol", "config"])
def test_no_public_callable_takes_setting(setting):
    # the grid sizes, tolerances and bound family are fixed; no call can set them
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
            if setting in params:
                offenders.append(f"{mod.__name__}.{attr}")
    assert offenders == []


def test_streamed_kernel_work_stays_traced(tmp_path, monkeypatch):
    # a large-m posterior table is built in blocks of tallies through the traced
    # tally_pmf_matrix, each on its window of nodes into a window-shaped array, so
    # the traced cells are the window's: 38% of the (m+1) x 2001 table at m = 1000
    # and 19% at m = 5000
    import phasebound.cli as cli
    import phasebound.estimate as estimate

    nodes = 2001
    table = estimate.posterior_table
    layout = []

    def counting(*args, **kwargs):
        layout.append(args[3:5])
        return table(*args, **kwargs)

    monkeypatch.setattr(estimate, "posterior_table", counting)
    for m, share in ((1000, 0.42), (5000, 0.20)):
        layout.clear()
        tracer = _perfbench_module("tracer").Tracer()
        tracer.install()
        try:
            assert cli.main(["fig3", "--prior.alpha", "10", "--grid.nodes", str(nodes),
                             "--m.list", str(m), "--out", str(tmp_path / "fig3.csv")]) == 0
        finally:
            tracer.uninstall()
        blocks = len(layout)
        assert blocks > 1 and layout[-1][1] == m + 1
        assert tracer.calls["model.tally_pmf_matrix"] >= blocks
        assert tracer.total_s["model.tally_pmf_matrix"] > 0.0
        # with the row's one fixed-theta0 column, shared by its five expectations, and
        # the column of its theta0-derivative
        assert tracer.kernel_cells <= share * (m + 1) * nodes, m


def test_ziv_zakai_peak_memory():
    # the pmf goes through in blocks of at most 2^16 cells of the workspace
    # (320 rows of 201 phases, 0.5 MiB), with the per-pair rows there too: about
    # 3.2 MiB at m = 5000 when this first call makes the workspace and the pairs.  One
    # (m+1) x 201 pmf in memory is 7.7 MiB, and a loop over shifts that builds
    # (m+1)-row temporaries per shift peaks near 30 MiB
    from phasebound import GhzParityModel, QuadratureGrid, family45_prior
    from phasebound.rbound import ziv_zakai

    prior = family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2))
    model = GhzParityModel(2)
    tracemalloc.start()
    try:
        ziv_zakai(prior, 5000, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_posterior_summary_peak_memory():
    # 2.2 MiB at m = 5000 when the workspace is made here: three float
    # buffers of 2^16 cells (0.5 MiB each: the kernel's log-sums, the density and the
    # products) and the kernel's bool exp mask, each allocated whole on first use,
    # although a block writes only its window's cells (about 160 rows of about 366
    # nodes), and the summary's length-(m+1) vectors; 0.5 MiB once they exist.
    # Allocating each block's arrays anew while the last block's are alive passes
    # 4 MiB; one whole (m+1) x 2001 table is 76 MiB
    from phasebound import GhzParityModel, QuadratureGrid, family45_prior
    from phasebound.estimate import posterior_summary

    prior = family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2))
    model = GhzParityModel(2)
    tracemalloc.start()
    try:
        posterior_summary(prior, 5000, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_whole_table_kernel_peak_memory():
    # the whole (m+1) x 2001 pmf at m = 5000 is 76.3 MiB; the kernel writes it in row
    # blocks of one workspace block, so its log-sums and exp mask never exceed one
    # block (77.1 MiB in all).  Whole-table log-sums and a whole mask beside the
    # result peaked at 162.3 MiB
    from phasebound import GhzParityModel, QuadratureGrid
    from phasebound.model import tally_pmf_matrix

    nodes = QuadratureGrid.simpson(0.0, math.pi / 2).nodes
    tracemalloc.start()
    try:
        pmf = tally_pmf_matrix(GhzParityModel(2), 5000, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pmf.shape == (5001, 2001)
    assert peak < pmf.nbytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_whole_table_derivative_peak_memory():
    # the derivative scores the kernel's whole m = 5000 table in its row blocks, each
    # block's score and second product in the workspace, so no temporary exceeds one
    # block (77.6 MiB in all).  A score of the whole table's shape beside the result
    # peaked at 229.9 MiB
    from phasebound import GhzParityModel, QuadratureGrid
    from phasebound.model import tally_pmf_dtheta_matrix

    nodes = QuadratureGrid.simpson(0.0, math.pi / 2).nodes
    tracemalloc.start()
    try:
        dpmf = tally_pmf_dtheta_matrix(GhzParityModel(2), 5000, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dpmf.shape == (5001, 2001)
    assert peak < dpmf.nbytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("prior_name,m,blocks,ends_left_out", [
    ("alpha=10", 100, 4, 2), ("alpha=10", 5000, 33, 1),
    ("off-branch", 100, 4, 1), ("off-branch", 5000, 39, 11)])
def test_posterior_summary_reads_one_pmf_window_per_block(monkeypatch, prior_name, m, blocks,
                                                          ends_left_out):
    # each block reads the pmf once, on its window, into its density; after the blocks one
    # two-column read gives the density at both end nodes for every tally, for the
    # boundary term, which would otherwise need a read for each end node of nonzero
    # prior that a block's span holds but its window leaves out (the alpha = 10 prior
    # vanishes at 0 and not at pi/2).  No derivative table is built
    import phasebound.estimate as estimate
    import phasebound.model as model_module
    from oracles import likelihood_span
    from phasebound import GhzParityModel, QuadratureGrid, family45_prior, flat_prior
    from phasebound.model import PhaseDomain

    if prior_name == "off-branch":
        domain = PhaseDomain(-0.3, 1.2)
        prior = flat_prior(domain, QuadratureGrid.simpson(domain.a, domain.b))
    else:
        prior = family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2))
    n = prior.grid.node_count
    reads, windows, rows = [], [], []
    kernel, table = estimate.tally_pmf_matrix, estimate.posterior_table

    def counting_kernel(*args, cols=None, out=None, **kwargs):
        reads.append((len(windows), cols))
        return kernel(*args, cols=cols, out=out, **kwargs)

    def counting_block(*args, cols, **kwargs):
        rows.append(args[3:5])
        windows.append(cols)
        return table(*args, cols=cols, **kwargs)

    def no_derivative_table(*args, **kwargs):
        raise AssertionError("tally_pmf_dtheta_matrix called")

    monkeypatch.setattr(estimate, "tally_pmf_matrix", counting_kernel)
    monkeypatch.setattr(estimate, "posterior_table", counting_block)
    monkeypatch.setattr(model_module, "tally_pmf_dtheta_matrix", no_derivative_table)
    estimate.posterior_summary(prior, m, GhzParityModel(2))
    assert len(windows) == blocks
    assert reads[:-1] == list(enumerate(windows, start=1))
    assert reads[-1] == (blocks, slice(0, n, n - 1))
    assert len(reads) == blocks + 1

    left_out = 0
    for (k0, k1), cols in zip(rows, windows):
        span = likelihood_span(GhzParityModel(2), m, prior.grid.nodes, k0, k1)
        left_out += sum(span.start <= j < span.stop and not cols.start <= j < cols.stop
                        and prior.values[j] != 0.0 for j in (0, n - 1))
    assert left_out == ends_left_out


@pytest.mark.parametrize("stage", ["ziv_zakai", "bayes_chain_report", "avg_estimator_variance",
                                   "avg_mse", "acrlb", "fvtb"])
def test_theta0_stage_allocates_within_budget(stage):
    # the whole (m+1) x 201 pmf is 1.5 MiB at m = 1000 and 7.7 MiB at m = 5000; every
    # theta0-grid stage streams it through one workspace block (written by the
    # posterior summary before these stages run, as in fig4 and bounds) and allocates
    # under 2 MiB beyond it.  acrlb and fvtb take the pmf derivative in workspace
    # blocks of phases too: 0.2 MiB at m = 5000 (two new (m+1) x 16 arrays per block
    # took 1.4 MiB, two whole 7.7 MiB arrays 15.7 MiB).  The first stage to take a
    # (5001 x 16) block grows the workspace to it, so each stage is first called once
    # untraced at the same m, as a sweep's earlier rows call it, and its peak does not
    # depend on what ran before
    from phasebound import GhzParityModel, PosteriorMeanEstimator, QuadratureGrid, family45_prior
    from phasebound import rbound

    model = GhzParityModel(2)
    prior = family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2))
    bayes = PosteriorMeanEstimator(model, prior)
    rbound._ziv_zakai_pairs(prior, model)       # the m-free pairs, kept for every m
    for m in (1000, 5000):
        bayes.summary(m)
        call = {"ziv_zakai": lambda: rbound.ziv_zakai(prior, m, model),
                "bayes_chain_report": lambda: rbound.bayes_chain_report(bayes, m),
                "avg_estimator_variance": lambda: rbound.avg_estimator_variance(bayes, prior, m,
                                                                                model),
                "avg_mse": lambda: rbound.avg_mse(bayes, prior, m, model),
                "acrlb": lambda: rbound.acrlb(bayes, prior, m, model),
                "fvtb": lambda: rbound.fvtb(bayes, prior, m, model)}[stage]
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"m={m}: peak {peak / 2**20:.2f} MiB"


def test_large_m_outputs_independent_of_blas_threads(tmp_path):
    # the streamed gemvs have new shapes; one and two OpenBLAS threads write the same bytes
    workloads = _perfbench_module("workloads")
    commands = [cmd for cmd in workloads.inputs_for("large_m", 0).commands
                if cmd.args[0] in ("fig4", "bounds")]
    outputs = {}
    for threads in ("1", "2"):
        env = {**workloads.child_env(), "OPENBLAS_NUM_THREADS": threads}
        (tmp_path / threads).mkdir()
        for cmd in commands:
            child = subprocess.run([sys.executable, "-m", "phasebound.cli", *cmd.argv()],
                                   cwd=tmp_path / threads, env=env, capture_output=True,
                                   text=True)
            assert (child.returncode, child.stderr) == (0, "")
            csv = tmp_path / threads / f"{cmd.name}.csv"
            outputs.setdefault(cmd.name, []).append(csv.read_bytes())
    assert [name for name, (one, two) in outputs.items() if one != two] == []


def test_posterior_table_independent_of_blas_threads(tmp_path):
    # the default call forms its marginals in the summary's aligned blocks of rows, not by
    # one gemv over the whole table, which two OpenBLAS threads sum differently
    probe = (
        "import hashlib, math\n"
        "from phasebound import GhzParityModel, PhaseDomain, QuadratureGrid, family45_prior\n"
        "from phasebound import flat_prior\n"
        "from phasebound.estimate import posterior_table\n"
        "grid, off = QuadratureGrid.simpson(0.0, math.pi / 2), QuadratureGrid.simpson(-0.3, 1.2)\n"
        "cells = [(family45_prior(1.0, grid), 500), (family45_prior(-10.0, grid), 500),\n"
        "         (flat_prior(PhaseDomain(-0.3, 1.2), off), 500)]\n"
        "for prior, m in cells:\n"
        "    arrays = posterior_table(prior, m, GhzParityModel(2))\n"
        "    print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest())\n")
    workloads = _perfbench_module("workloads")
    outputs = []
    for threads in ("1", "2"):
        env = {**workloads.child_env(), "OPENBLAS_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                               capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, "")
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]


def test_mean_slope_bounds_independent_of_blas_threads(tmp_path):
    # acrlb and fvtb sum d<est>/dtheta0 over k in aligned blocks of phases, not by one gemv
    # over the whole (m+1) x 201 derivative, which two OpenBLAS threads sum differently
    probe = (
        "import math\n"
        "from phasebound import GhzParityModel, PhaseDomain, PosteriorMeanEstimator\n"
        "from phasebound import QuadratureGrid, family45_prior\n"
        "from phasebound.estimate import MaximumLikelihoodEstimator\n"
        "from phasebound.rbound import acrlb, fvtb\n"
        "model, grid = GhzParityModel(2), QuadratureGrid.simpson(0.0, math.pi / 2)\n"
        "for alpha in (10.0, 1.0):\n"
        "    prior = family45_prior(alpha, grid)\n"
        "    for est in (MaximumLikelihoodEstimator(model, PhaseDomain()),\n"
        "                PosteriorMeanEstimator(model, prior)):\n"
        "        print(alpha, type(est).__name__, repr(acrlb(est, prior, 5000, model)),\n"
        "              repr(fvtb(est, prior, 5000, model)))\n")
    workloads = _perfbench_module("workloads")
    outputs = []
    for threads in ("1", "2"):
        env = {**workloads.child_env(), "OPENBLAS_NUM_THREADS": threads}
        child = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                               capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, "")
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]


def test_cli_imports_no_private_name():
    # the CLI reaches the library through its public functions only: every kernel input
    # is built by the stage that owns it, not handed down from a command (the package's
    # dunder metadata, such as __version__, is public)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


@pytest.mark.parametrize("function", ["posterior_summary", "ziv_zakai"])
def test_second_row_allocates_less_than_one_table(function):
    # after a first call has set up the workspace, a second m = 100 call
    # writes its blocks, or its per-pair rows, there: it allocates less than one
    # 101 x 2001 float64 table (1.6 MB), where allocating per row took several
    from phasebound import GhzParityModel, QuadratureGrid, family45_prior
    from phasebound.estimate import posterior_summary
    from phasebound.rbound import ziv_zakai

    call = {"posterior_summary": posterior_summary, "ziv_zakai": ziv_zakai}[function]
    prior = family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2))
    model = GhzParityModel(2)
    call(prior, 100, model)
    tracemalloc.start()
    try:
        call(prior, 100, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 101 * 2001 * 8, f"peak {peak / 1e6:.2f} MB"


def test_sweep_takes_each_grids_logs_once(tmp_path, monkeypatch):
    # the kernels read log p_+ and log p_- of each (model, grid) from a per-process
    # cache: a 100-row fig3 sweep takes them once on the 2001-node prior grid and
    # once at theta0, not once per kernel call
    import phasebound.cli as cli
    import phasebound.model as model_module

    sizes = []
    real_log = model_module._log

    def counting_log(p):
        sizes.append(p.size)
        return real_log(p)

    monkeypatch.setattr(model_module, "_grid_log_cache", {})
    monkeypatch.setattr(model_module, "_log", counting_log)
    assert cli.main(["fig3", "--prior.alpha", "10", "--m.max", "100",
                     "--out", str(tmp_path / "fig3.csv")]) == 0
    assert sorted(sizes) == [1, 1, 2001, 2001]


def _fresh_interpreter(probe: str) -> str:
    """Stdout of ``python -c probe`` in a new process that imports this checkout's package."""
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: a fresh interpreter importing the CLI loads none of it
    out = _fresh_interpreter(
        "import sys, phasebound.cli; "
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))")
    assert out == "[]", out


def test_cli_import_loads_no_thread_pool():
    # the CLI's import time pays for neither concurrent.futures nor the logging it imports
    out = _fresh_interpreter(
        "import sys, phasebound.cli; "
        "print(sorted(n for n in sys.modules if n.split('.')[0] in ('concurrent', 'logging')))")
    assert out == "[]", out


def _memory_rise_mb(tmp_path, args) -> float:
    """How far a fresh interpreter's peak resident memory rises above its post-import value.

    One command, one BLAS thread, alpha = 10.  The peak is VmHWM, the high
    water mark of the process's own address space: ru_maxrss starts from the
    parent's peak, which it keeps across fork and exec, so under a test
    runner larger than the command it reads no rise at all.
    """
    argv = [*args, "--prior.alpha", "10", "--out", str(tmp_path / "out.csv")]
    out = _fresh_interpreter(
        "import os; os.environ['OPENBLAS_NUM_THREADS'] = '1'; "
        "peak = lambda: int(next(line for line in open('/proc/self/status') "
        "if line.startswith('VmHWM:')).split()[1]); "
        "import phasebound.cli as cli; "
        "before = peak(); "
        f"assert cli.main({argv!r}) == 0; "
        "print((peak() - before) / 1024)")
    return float(out)


@pytest.mark.parametrize("args,budget_mb", [(("fig4", "--m.list", "5000"), 6.0),
                                            (("bounds", "--m.list", "1000"), 8.0)])
def test_large_m_command_memory_rise(tmp_path, args, budget_mb):
    # 4.6 MB for fig4 and 5.6 MB for bounds when every block pass writes window-shaped
    # arrays of at most 2^16 cells; about 10 MB each when the summary wrote the
    # windows of whole-row arrays
    assert _memory_rise_mb(tmp_path, args) <= budget_mb


@pytest.mark.parametrize("args,budget_mb", [(("fig4", "--m.max", "100"), 6.0),
                                            (("bounds", "--m.list", "100"), 7.0),
                                            (("fig3", "--m.max", "400"), 5.0)])
def test_sweep_command_memory_rise(tmp_path, args, budget_mb):
    # 4.7 MB for fig4 and 5.6 MB for bounds when the summary's blocks hold at most
    # 2^16 cells (32 rows of 2001 nodes); 7.7 and 8.7 MB in blocks of 2^18 cells.
    # fig3 to m = 400 rises by about 3 MB when the estimator keeps one row's summary,
    # and by about 8 MB when it keeps the summary and means of every m it passed
    assert _memory_rise_mb(tmp_path, args) <= budget_mb


def test_hierarchy_report_loads_no_numpy_ma():
    # np.unique without return_index imports numpy.ma, about 9 ms per fig2/bounds process
    out = _fresh_interpreter(
        "import math, sys; from phasebound import GhzParityModel, hierarchy_report; "
        "hierarchy_report(math.pi / 4, 20, GhzParityModel(2)); "
        "print('numpy.ma' in sys.modules)")
    assert out == "False"


def test_no_scipy_import_in_package():
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert imports == []


def test_numpy_floor_is_at_least_2():
    # numerics.family45_prior calls np.trapezoid, which numpy added in 2.0: a lower floor
    # admits installs where every fig3, fig4 and bounds command dies.  Read by regex, as
    # tomllib needs Python 3.11 and the package supports 3.10
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert floor is not None
    assert (int(floor[1]), int(floor[2])) >= (2, 0)


def _readme_api_names() -> list[str]:
    """Backticked names in the API column of README's "What it computes" tables."""
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What it computes", 1)[1].split("\n## ", 1)[0]
    api_cells = [line.rsplit("|", 2)[1] for line in section.splitlines() if line.startswith("|")]
    return [n for cell in api_cells for n in re.findall(r"`([A-Za-z_]\w*)", cell)]


def test_readme_api_tables_name_exports():
    # every name in the tables is importable from the package, so the tables cannot drift
    import phasebound

    names = _readme_api_names()
    assert len(names) >= 20
    assert [n for n in names if not hasattr(phasebound, n)] == []


def test_every_public_definition_is_reached():
    # a top-level def or class, or a method of a class, that no other code in src
    # reads, and for a public name that the README tables do not list either, is
    # reached by no output: delete it, or move it to tests/oracles.py if a test needs
    # it.  So a private helper kept in src only for the tests fails here too.  Dunders
    # (``__init__``, ``__post_init__``) are called by Python and are exempt.  The
    # re-exports of __init__ do not count, and neither does an import that nothing
    # then reads.  Names are matched, not objects, so a method whose name is read on
    # some other object (say ``variance``, a field of the posterior summary) counts as
    # reached.
    def read_names(tree):
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        return names

    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for stem, tree in trees.items():
        if stem != "__init__":
            read |= read_names(tree)
    listed = set(_readme_api_names())
    definitions = [(f"{stem}.{node.name}", node) for stem, tree in trees.items()
                   if stem != "__init__" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    definitions += [(f"{owner}.{node.name}", node) for owner, cls in definitions
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef)]
    unreached = [name for name, node in definitions
                 if not (node.name.startswith("__") and node.name.endswith("__"))
                 and node.name not in read
                 and (node.name.startswith("_") or node.name not in listed)]
    assert unreached == []


def test_code_line_count_rule():
    # the counter behind CI's code-line figure: blank lines, comments and the docstrings
    # of a module, class or function do not count; every line of a statement does
    from code_lines import code_lines

    source = '''"""Module docstring
over two lines."""

import math  # a comment on a code line


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        no docstring"""
        return (text,
                math.pi)
'''
    assert code_lines(source) == 7
