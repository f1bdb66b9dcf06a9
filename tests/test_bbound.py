import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import phasebound.estimate as estimate_module
import phasebound.model as model_module
from oracles import (
    full_width_posterior_summary,
    full_width_posterior_table,
    lbvm_reference,
    likelihood_span,
    scipy_tally_pmf_matrix,
)
from phasebound.bbound import (
    NonIntegrablePosteriorError,
    averaged_ghosh,
    averaged_posterior_variance,
    ghosh_table,
)
from phasebound.cli import main
from phasebound.estimate import (
    DegeneratePosteriorError,
    PosteriorMeanEstimator,
    posterior_summary,
    posterior_table,
)
from phasebound.model import PhaseDomain, tally_pmf_matrix
from phasebound.numerics import (
    QuadratureGrid,
    custom_prior,
    family45_prior,
    flat_prior,
    integrate,
)

T0 = math.pi / 4

# flat-prior single-shot (+1) posterior (4/pi) cos^2 on [0, pi/2]:
#   mean  = pi/4 - 1/pi,  f = mean * 4/pi,  J = 4,  bound = (f-1)^2/4
FLAT11_F = 0.59471526543064891
FLAT11_GHOSH = 0.041063929018737341
FLAT11_VARIANCE = 0.10429557471369053


def _interior_zero_prior(grid):
    # density identically zero below 0.7 but claimed slope 1 everywhere
    return custom_prior(grid, np.maximum(grid.nodes - 0.7, 0.0), np.ones(grid.node_count))


class TestBoundaryTerm:
    def test_vanishing_prior_gives_zero(self, model, grid):
        for alpha in (-100.0, -10.0, 1.0, 10.0):
            bayes = PosteriorMeanEstimator(model, family45_prior(alpha, grid))
            for k, m in ((1, 1), (3, 5)):
                assert abs(bayes.summary(m).boundary[k]) < 1e-12

    def test_flat_single_shot_value(self, model, flat):
        table = PosteriorMeanEstimator(model, flat).summary(1)
        assert table.boundary[1] == pytest.approx(FLAT11_F, abs=1e-9)

    def test_direct_substitution(self, model, flat, domain):
        # k = m posterior: density vanishes at b only, so f = -theta_bl*(0 - p(a))...
        # check the formula against a hand-assembled expression
        summary = PosteriorMeanEstimator(model, flat).summary(2)
        dens, _ = posterior_table(flat, 2, model)      # the one block the summary reads
        pa, pb = float(dens[2, 0]), float(dens[2, -1])
        mean = summary.mean[2]
        expected = domain.b * pb - domain.a * pa - mean * (pb - pa)
        assert summary.boundary[2] == expected


class TestGhoshBound:
    def test_flat_single_shot(self, model, flat):
        table = PosteriorMeanEstimator(model, flat).summary(1)
        gb = table.ghosh[1]
        var = table.variance[1]
        assert var == pytest.approx(FLAT11_VARIANCE, abs=1e-9)
        # the endpoint convention biases J down by ~3e-4 relative
        assert gb == pytest.approx(FLAT11_GHOSH, rel=1e-3)
        assert gb <= var + 1e-9

    def test_posterior_information_value(self, model, flat):
        table = PosteriorMeanEstimator(model, flat).summary(1)
        assert table.information[1] == pytest.approx(4.0, rel=1e-3)

    def test_saturated_on_gaussian_reference(self, model, grid):
        ref = lbvm_reference(T0, 100, model, grid)
        table = PosteriorMeanEstimator(model, ref).summary(0)
        gb = table.ghosh[0]
        var = table.variance[0]
        assert gb == pytest.approx(1.0 / (100 * 4), abs=1e-8)
        assert abs(gb - var) < 1e-6

    def test_prior_only_bound_below_prior_variance(self, model, grid):
        prior = family45_prior(10.0, grid)
        table = PosteriorMeanEstimator(model, prior).summary(0)
        gb = table.ghosh[0]
        assert gb <= table.variance[0] + 1e-9
        mean = integrate(grid.nodes * prior.values, grid)
        variance = integrate((grid.nodes - mean) ** 2 * prior.values, grid)
        assert table.variance[0] == pytest.approx(variance, abs=1e-12)

    def test_flat_posterior_degenerates_to_zero(self, model, flat):
        table = PosteriorMeanEstimator(model, flat).summary(0)
        assert table.ghosh[0] == 0.0

    @pytest.mark.parametrize("m", [1, 3, 7, 20, 50])
    def test_dominance_battery(self, model, prior_battery, m):
        for name, prior in prior_battery.items():
            table = ghosh_table(PosteriorMeanEstimator(model, prior), m)
            worst = float(np.max(table.ghosh - table.variance))
            assert worst <= 1e-9, f"{name}, m={m}: ghosh exceeds variance by {worst}"

    def test_interior_zero_posterior_rejected(self, model, grid):
        # (p')^2/p diverges where the density is zero with slope 1
        with pytest.raises(NonIntegrablePosteriorError):
            ghosh_table(PosteriorMeanEstimator(model, _interior_zero_prior(grid)), 1)


class TestAveragedGhosh:
    def test_below_averaged_posterior_variance(self, model, prior_battery):
        for name, prior in prior_battery.items():
            bayes = PosteriorMeanEstimator(model, prior)
            for m in (1, 4, 11, 30, 60, 100):
                agb = averaged_ghosh(T0, m, bayes)
                apv = averaged_posterior_variance(T0, m, bayes)
                assert agb <= apv + 1e-9, (name, m)

    def test_flat_prior_large_m_approaches_crlb(self, model, flat):
        m = 1000
        bayes = PosteriorMeanEstimator(model, flat)
        assert m * averaged_ghosh(T0, m, bayes) == pytest.approx(0.25, rel=0.05)

    def test_flat_prior_small_m_below_unbiased_crlb(self, model, flat):
        bayes = PosteriorMeanEstimator(model, flat)
        values = [m * averaged_ghosh(T0, m, bayes) for m in range(1, 21)]
        assert min(values) < 0.25


class TestLbvmReference:
    def test_variance_value(self, model, grid):
        ref = lbvm_reference(T0, 100, model, grid)
        mean = integrate(grid.nodes * ref.values, grid)
        variance = integrate((grid.nodes - mean) ** 2 * ref.values, grid)
        assert variance == pytest.approx(0.0025, abs=1e-9)

    def test_normalised(self, model, grid):
        ref = lbvm_reference(T0, 7, model, grid)
        assert integrate(ref.values, grid) == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_distance_decreases(self, model, flat, grid):
        # the true posterior approaches the Gaussian reference as m grows
        distances = []
        for m in (10, 100, 1000):
            k = round(m * float(model.prob_plus(T0)))
            dens, _ = posterior_table(flat, m, model, k, k + 1)
            ref = lbvm_reference(T0, m, model, grid)
            distances.append(float(np.max(np.abs(dens[0] - ref.values))))
        assert distances[0] > distances[1] > distances[2]


@pytest.fixture
def posterior_calls(monkeypatch):
    """Counts posterior_table builds per m, as seen by posterior_summary.

    A build is streamed in blocks of tallies; it counts once, at the block
    that starts at tally 0.
    """
    calls = Counter()

    def counting(prior, m, model, k0=0, k1=None, **kwargs):
        calls[m] += k0 == 0
        return posterior_table(prior, m, model, k0, k1, **kwargs)

    monkeypatch.setattr(estimate_module, "posterior_table", counting)
    return calls


class TestPosteriorSummary:
    def test_estimator_and_ghosh_table_share_one_build(self, model, grid, posterior_calls):
        bayes = PosteriorMeanEstimator(model, family45_prior(10.0, grid))
        for m in (1, 2, 7):
            means = bayes.values(m)
            table = ghosh_table(bayes, m)
            np.testing.assert_array_equal(means, np.clip(table.mean, 0.0, math.pi / 2))
            assert table is bayes.summary(m)
        assert posterior_calls == {1: 1, 2: 1, 7: 1}

    def test_mean_is_grid_average_of_table(self, model, grid):
        prior = family45_prior(-10.0, grid)
        dens, marginal = posterior_table(prior, 9, model)
        summary = posterior_summary(prior, 9, model)
        np.testing.assert_array_equal(summary.mean, (dens * grid.nodes) @ grid.weights)
        np.testing.assert_array_equal(summary.marginal, marginal)

    def test_estimator_keeps_only_the_last_summary(self, model, grid):
        # a sweep row reads one m; the summary of a row already passed is freed
        bayes = PosteriorMeanEstimator(model, family45_prior(10.0, grid))
        first = weakref.ref(bayes.summary(12))
        assert bayes.summary(12) is first()
        bayes.summary(13)
        gc.collect()
        assert first() is None

    def test_memo_holds_only_length_m_vectors(self, model, grid):
        bayes = PosteriorMeanEstimator(model, family45_prior(10.0, grid))
        m = 12
        ghosh_table(bayes, m)
        summary = bayes.summary(m)
        arrays = [v for v in vars(summary).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6
        assert all(a.size <= m + 1 and not a.flags.writeable for a in arrays)

    def test_failed_ghosh_check_keeps_posterior_mean(self, model, grid):
        bayes = PosteriorMeanEstimator(model, _interior_zero_prior(grid))
        with pytest.raises(NonIntegrablePosteriorError):
            ghosh_table(bayes, 1)
        values = bayes.values(1)
        dens, _ = posterior_table(bayes.prior, 1, model)
        np.testing.assert_array_equal(values, (dens * grid.nodes) @ grid.weights)
        with pytest.raises(NonIntegrablePosteriorError):     # raised again from the same summary
            ghosh_table(bayes, 1)


SUMMARY_FIELDS = ("marginal", "mean", "variance", "boundary", "information", "ghosh")


def _off_branch_flat():
    domain = PhaseDomain(-0.3, 1.2)
    return flat_prior(domain, QuadratureGrid.simpson(domain.a, domain.b))


def test_reused_buffers_do_not_leak_between_rows(model, grid, fresh_workspace):
    # one block workspace serves every block of every row, in any order of m: each
    # summary equals, bit for bit, one built on a fresh workspace.  The off-branch
    # flat prior's windows leave out end nodes of nonzero density, whose pmf is
    # taken before the table reuses the kernel's buffers
    for prior in (family45_prior(10.0, grid), _off_branch_flat()):
        for m in (100, 3, 5000, 7, 1000, 131, 100):
            got = posterior_summary(prior, m, model)
            want = fresh_workspace(posterior_summary, prior, m, model)
            for name in SUMMARY_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                    prior.kind, m, name)
            assert got.failure == want.failure


def _blocked_summary(monkeypatch, prior, m, model, rows):
    """posterior_summary in blocks of ``rows`` tallies (the last one shorter); None: one block."""
    # posterior_summary caches nothing, so each call builds under the layout set here
    with monkeypatch.context() as patch:
        patch.setattr(estimate_module, "_block_extent",
                      lambda length, other: length if rows is None else min(length, rows))
        return posterior_summary(prior, m, model)


_PARTITION_PROBE = """
import math
from unittest.mock import patch
import phasebound.estimate as estimate_module
from phasebound import GhzParityModel, QuadratureGrid, family45_prior, flat_prior
from phasebound.estimate import posterior_summary
from phasebound.model import PhaseDomain
model = GhzParityModel(2)
domain = PhaseDomain(-0.3, 1.2)
priors = (family45_prior(10.0, QuadratureGrid.simpson(0.0, math.pi / 2)),
          flat_prior(domain, QuadratureGrid.simpson(domain.a, domain.b)))
fields = ("marginal", "mean", "variance", "boundary", "information", "ghosh")

def summary(prior, m, rows):
    with patch.object(estimate_module, "_block_extent",
                      lambda length, other: min(length, rows)):
        return posterior_summary(prior, m, model)

for prior in priors:
    for m, whole in ((1000, 1001), (5000, 1024)):
        want = summary(prior, m, whole)
        for rows in (16, 32, 48):
            got = summary(prior, m, rows)
            bad = [f for f in fields if getattr(got, f).tobytes() != getattr(want, f).tobytes()]
            assert bad == [] and got.failure == want.failure, (prior.kind, m, rows, bad)
print("ok")
"""


class TestStreamedSummary:
    """posterior_summary in blocks of 16, 32 and 48 rows against one block, double for double.

    Blocks that start on multiples of 16 tallies give each row the doubles of
    a gemv over the whole table, so the summary does not depend on them.
    """

    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 7, 20, 100, 131])
    def test_blocks_match_one_block(self, monkeypatch, model, grid, units, m):
        for prior in (family45_prior(10.0, grid), _off_branch_flat()):
            whole = _blocked_summary(monkeypatch, prior, m, model, None)
            blocked = _blocked_summary(monkeypatch, prior, m, model, 16 * units)
            for name in SUMMARY_FIELDS:
                np.testing.assert_array_equal(getattr(blocked, name), getattr(whole, name),
                                              err_msg=f"{prior.kind} {name}")
            assert blocked.failure is whole.failure is None

    def test_large_m_blocks_match_one_block(self):
        # in a child with one BLAS thread: two threads split the gemv of a whole
        # 1001 x 2001 table between them and round the rows at the split differently.
        # At m = 5000 the reference is blocks of 1024 rows (one block takes 262 MB there)
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", _PARTITION_PROBE], env=env,
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout.strip()) == (0, "ok"), out.stderr

    @pytest.mark.parametrize("units", [1, 2, 3])
    def test_underflow_names_same_tally(self, monkeypatch, model, grid, units):
        # support within 1e-3 of pi/2, where p_+ <= 1e-6: tallies k >= 54 of 60 underflow
        values = np.where(grid.nodes > math.pi / 2 - 1e-3, 1.0, 0.0)
        messages = []
        for rows in (None, 16 * units):
            with pytest.raises(DegeneratePosteriorError) as info:
                _blocked_summary(monkeypatch, custom_prior(grid, values), 60, model, rows)
            messages.append(str(info.value))
        assert "tally k=54," in messages[0]
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("units", [1, 2, 3])
    @pytest.mark.parametrize("m,k_bad", [(7, 2), (20, 14)])
    def test_ghosh_failure_names_same_tally(self, monkeypatch, model, grid, units, m, k_bad):
        # zero below 0.05 with slope 1: the likelihood reaches that region from k = k_bad on
        values, slope = np.maximum(grid.nodes - 0.05, 0.0), np.ones(grid.node_count)
        prior = custom_prior(grid, values, slope)
        whole = _blocked_summary(monkeypatch, prior, m, model, None)
        blocked = _blocked_summary(monkeypatch, prior, m, model, 16 * units)
        assert whole.failure == ("posterior has a zero with nonzero slope at "
                                 f"tally k={k_bad}, m={m}, custom prior, 2001-node grid")
        assert blocked.failure == whole.failure

    def test_memory_stays_blocked_at_large_m(self, model, grid):
        # one 3001 x 2001 float64 table is 48 MB, and a whole-table summary holds several
        prior = family45_prior(10.0, grid)
        tracemalloc.start()
        try:
            posterior_summary(prior, 3000, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def _summary_with_windows(monkeypatch, prior, m, model):
    """posterior_summary, and the (k0, k1, span, cols) of each block it summarises.

    ``cols`` is the window of the block's ``posterior_table`` call, and ``span`` the
    likelihood's span of the block's tallies (``_span``), outside of which their pmf
    rows are 0.
    """
    seen = []
    table = estimate_module.posterior_table

    def spy(prior, m, model, k0, k1, *, cols, **kwargs):
        seen.append((k0, k1, _span(prior, m, model, k0, k1), cols))
        return table(prior, m, model, k0, k1, cols=cols, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(estimate_module, "posterior_table", spy)
        return posterior_summary(prior, m, model), seen


def _span(prior, m, model, k0, k1):
    """The likelihood's span of the tallies k0 <= k < k1 on ``prior``'s grid."""
    return likelihood_span(model, m, prior.grid.nodes, k0, k1)


class TestFullWidthOracle:
    """The column-windowed summary against the whole-row one, double for double."""

    MS = [0, 1, 2, 20, 100, 130, 131, 1000, 5000]

    @staticmethod
    def _assert_same(got, want):
        assert got.m == want.m and got.failure == want.failure
        for name in SUMMARY_FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("alpha", [-10.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("m", MS)
    def test_family45(self, model, grid, alpha, m):
        prior = family45_prior(alpha, grid)
        self._assert_same(posterior_summary(prior, m, model),
                          full_width_posterior_summary(prior, m, model))

    @pytest.mark.parametrize("m", MS)
    def test_flat(self, model, flat, m):
        self._assert_same(posterior_summary(flat, m, model),
                          full_width_posterior_summary(flat, m, model))

    @pytest.mark.parametrize("m", MS)
    def test_off_branch_domain(self, model, m):
        prior = _off_branch_flat()
        self._assert_same(posterior_summary(prior, m, model),
                          full_width_posterior_summary(prior, m, model))

    def test_off_branch_window_has_interior_gap(self, model):
        # p_+ is even in theta: the block of tallies 393..523 of 1000 is nonzero
        # from theta = -0.3 to -0.23 and from 0.23 on, zero in between
        prior = _off_branch_flat()
        dens, _ = posterior_table(prior, 1000, model, 393, 524)
        used = dens.any(axis=0)
        assert _span(prior, 1000, model, 393, 524) == slice(0, 2001)
        assert used[0] and used[-1] and not used[np.abs(prior.grid.nodes) < 0.23].any()

    def test_prior_zero_inside_narrowed_window(self, monkeypatch, model, grid):
        # zero below 0.6 with slope 1: at m = 1000 the blocks whose likelihood peaks
        # near 0.6 hold that zero inside a window narrower than the likelihood's span
        prior = custom_prior(grid, np.maximum(grid.nodes - 0.6, 0.0), np.ones(grid.node_count))
        got, seen = _summary_with_windows(monkeypatch, prior, 1000, model)
        edge = int(np.searchsorted(grid.nodes, 0.6))
        assert any(cols.start < edge < cols.stop and cols != span for _, _, span, cols in seen)
        assert got.failure == ("posterior has a zero with nonzero slope at "
                               "tally k=573, m=1000, custom prior, 2001-node grid")
        self._assert_same(got, full_width_posterior_summary(prior, 1000, model))

    @pytest.mark.parametrize("m,k_bad", [(7, 2), (20, 14)])
    def test_zero_slope_failure(self, model, grid, m, k_bad):
        prior = custom_prior(grid, np.maximum(grid.nodes - 0.05, 0.0), np.ones(grid.node_count))
        got = posterior_summary(prior, m, model)
        assert got.failure == ("posterior has a zero with nonzero slope at "
                               f"tally k={k_bad}, m={m}, custom prior, 2001-node grid")
        self._assert_same(got, full_width_posterior_summary(prior, m, model))

    def test_underflow_failure(self, model, grid):
        prior = family45_prior(1000.0, grid)
        messages = []
        for summary in (posterior_summary, full_width_posterior_summary):
            with pytest.raises(DegeneratePosteriorError) as info:
                summary(prior, 5000, model)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == ("posterior normalisation underflowed for "
                               "tally k=0, m=5000, alpha=1000, 2001-node grid")

    def test_block_with_all_zero_likelihood(self, model):
        # on the nodes 0, pi/4 and pi/2, the pmf of m = 5000 is zero in every column for
        # the rows k = 10..140: the window is empty and the block's first tally is named
        grid = QuadratureGrid.simpson(0.0, math.pi / 2, 3)
        prior = flat_prior(PhaseDomain(), grid)
        pmf = tally_pmf_matrix(model, 5000, grid.nodes, 10, 141)
        assert not pmf.any()
        np.testing.assert_array_equal(pmf, scipy_tally_pmf_matrix(model, 5000, grid.nodes, 10, 141))
        assert _span(prior, 5000, model, 10, 141) == slice(0, 0)
        messages = []
        for table in (posterior_table, full_width_posterior_table):
            with pytest.raises(DegeneratePosteriorError) as info:
                table(prior, 5000, model, 10, 141)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0] == ("posterior normalisation underflowed for "
                               "tally k=10, m=5000, flat prior, 3-node grid")


class TestSummaryWindows:
    """The column windows the posterior summary finds for its blocks and hands down."""

    @pytest.mark.parametrize("m", [131, 1000, 5000])
    def test_aligned_inside_span(self, monkeypatch, model, grid, m):
        n = grid.node_count
        for prior in (family45_prior(10.0, grid), _off_branch_flat()):
            for k0, k1, span, cols in _summary_with_windows(monkeypatch, prior, m, model)[1]:
                assert cols.step is None and cols.start % 64 == 0
                assert cols.stop % 64 == 0 or cols.stop == n
                assert span.start <= cols.start < cols.stop <= span.stop

    @pytest.mark.parametrize("m", [131, 1000, 5000])
    def test_block_arrays_are_window_shaped(self, monkeypatch, model, grid, m):
        # every kernel and density array a block passes down is a contiguous
        # (rows, width) array of exactly its aligned window, not a view of a whole-row array
        passed = []

        def spy(module, name, outs, nodes):
            real = getattr(module, name)

            def wrapper(*args, cols=None, out=None, **kwargs):
                if out is not None:
                    passed.append((name, cols, nodes(args), outs(out)))
                return real(*args, cols=cols, out=out, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        spy(estimate_module, "tally_pmf_matrix", lambda out: [out], lambda args: np.size(args[2]))
        spy(estimate_module, "posterior_table", lambda out: [out],
            lambda args: args[0].grid.node_count)
        for prior in (family45_prior(10.0, grid), _off_branch_flat()):
            posterior_summary(prior, m, model)
        assert {name for name, _, _, _ in passed} == {"tally_pmf_matrix", "posterior_table"}
        for name, cols, n, arrays in passed:
            assert cols.start % 64 == 0 and (cols.stop % 64 == 0 or cols.stop == n), name
            for array in arrays:
                assert array.flags.c_contiguous, name
                assert array.shape[1] == cols.stop - cols.start, name

    def test_large_m_windows_hold_a_fifth_of_the_cells(self, monkeypatch, model, grid):
        # the blocks' whole likelihood spans hold 0.380 of the (m+1) x 2001 cells
        m = 5000
        _, seen = _summary_with_windows(monkeypatch, family45_prior(10.0, grid), m, model)
        cells = sum((k1 - k0) * (cols.stop - cols.start) for k0, k1, _, cols in seen)
        assert cells <= 0.20 * (m + 1) * grid.node_count

    def test_cut_grows_with_a_finer_grid(self, model):
        # the half-ulp bound beside _PEAK_CUT grows like n^3 m on a fixed domain: the
        # cut is the constant up to about 2.2e7 nodes on [0, pi/2] at m = 5000, so its
        # growth shows here at an m of 1e13
        def cut(nodes, m):
            return model_module._peak_cut(model, m, np.linspace(0.0, math.pi / 2, nodes))

        assert cut(2001, 5000) == cut(401, 1) == model_module._PEAK_CUT == 100.0
        assert cut(20001, 5000) == cut(40001, 5000) == 100.0
        assert 102.0 < cut(40001, 10**13) < cut(80001, 10**13) < 105.0

    def test_small_m_windows_stay_whole(self, monkeypatch, model, grid):
        # up to m = 31 the table is one block, of 32 rows at most, on every node; from
        # m = 32 on the first block is 32 rows, and windows may narrow inside
        # the likelihood's span (the layout test checks the blocks' sizes)
        prior = family45_prior(10.0, grid)
        whole = slice(0, grid.node_count)
        for m in range(1, 101):
            _, seen = _summary_with_windows(monkeypatch, prior, m, model)
            if m < 32:
                assert seen == [(0, m + 1, whole, whole)], m
            else:
                assert seen[0][:2] == (0, 32) and len(seen) > 1, m
            for k0, k1, span, cols in seen:
                assert span.start <= cols.start < cols.stop <= span.stop, (m, k0)

    @pytest.mark.parametrize("nodes,m", [(2001, 1), (2001, 100), (2001, 1000), (2001, 5000),
                                         (401, 5000), (20001, 1000)])
    def test_block_layout(self, monkeypatch, model, nodes, m):
        # every block starts on a multiple of 16 tallies and holds at most _BLOCK_CELLS
        # cells of its own window, but for the 16-row least block on grids wider than
        # 4096 nodes; the blocks cover the tallies in order
        grid = QuadratureGrid.simpson(0.0, math.pi / 2, nodes)
        _, seen = _summary_with_windows(monkeypatch, family45_prior(10.0, grid), m, model)
        assert [k0 for k0, *_ in seen] == [0] + [k1 for _, k1, *_ in seen[:-1]]
        assert seen[-1][1] == m + 1
        for k0, k1, _, cols in seen:
            width = cols.stop - cols.start
            assert k0 % 16 == 0, (k0, k1)
            assert (k1 - k0) * width <= model_module._BLOCK_CELLS or (
                k1 - k0 == 16 and width > model_module._BLOCK_CELLS // 16), (k0, k1, width)
        if (nodes, m) == (2001, 5000):
            assert len(seen) <= 39          # as many as blocks of 131 rows took

    @pytest.mark.parametrize("m", [100, 1000])
    def test_wide_grid_blocks_reuse_the_workspace(self, model, m):
        # on 20001 nodes every block is the least one, 16 rows of a window of up to
        # 20001 nodes (16192 at m = 100, 2.1 MB per array); the workspace keeps such
        # blocks' buffers, so a second summary allocates less than one block's array,
        # where a new array per block took several
        grid = QuadratureGrid.simpson(0.0, math.pi / 2, 20001)
        prior = family45_prior(10.0, grid)
        posterior_summary(prior, m, model)
        tracemalloc.start()
        try:
            posterior_summary(prior, m, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 20001 * 8, f"peak {peak / 1e6:.2f} MB"


class TestCliPosteriorBuilds:
    ARGS = ["--prior.alpha", "10", "--grid.nodes", "401"]

    @pytest.mark.parametrize("command", ["fig3", "fig4"])
    def test_one_build_per_sweep_row(self, tmp_path, posterior_calls, command):
        out = tmp_path / f"{command}.csv"
        assert main([command, *self.ARGS, "--m.list", "1,2,3,5,8", "--out", str(out)]) == 0
        assert posterior_calls == {1: 1, 2: 1, 3: 1, 5: 1, 8: 1}

    def test_one_build_per_bounds_cell(self, tmp_path, posterior_calls):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", *self.ARGS, "--m.list", "6", "--out", str(out)]) == 0
        assert posterior_calls == {6: 1}
