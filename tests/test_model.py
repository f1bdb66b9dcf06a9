import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebound.model as model_module
from oracles import (
    SingularModelError,
    fisher_information_from_table,
    full_width_pmf_with_dtheta,
    likelihood_span,
    scipy_log_binomial,
    scipy_tally_pmf_dtheta_matrix,
    scipy_tally_pmf_matrix,
    scipy_tally_probability,
    score_pmf_derivative,
)
from phasebound.model import (
    GhzParityModel,
    ModelError,
    PhaseDomain,
    log_binomial,
    require_identifiable,
    tally_pmf_dtheta_matrix,
    tally_pmf_matrix,
)


def _pmf(model, theta, m):
    """The one-phase column of the tally pmf, k = 0..m."""
    return tally_pmf_matrix(model, m, [theta])[:, 0]


def _score_pair(model, m, thetas, k0=0, k1=None):
    """The pmf rows k0 <= k < k1 and their d/dtheta by the closed-form score pmf c (k - m p_+)."""
    thetas = np.asarray(thetas, dtype=float)
    pmf = tally_pmf_matrix(model, m, thetas, k0, k1)
    k = np.arange(k0, k0 + len(pmf), dtype=float)[:, None]
    score = model_module._score_factor(model, thetas) * (k - m * model.prob_plus(thetas))
    return pmf, pmf * score


class TestSingleShotProbabilities:
    def test_symmetry_point(self, model):
        assert model.prob_plus(math.pi / 4) == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_at_zero(self, model):
        assert model.prob_plus(0.0) == 1.0
        assert np.array_equal(tally_pmf_matrix(model, 1, [0.0]), [[0.0], [1.0]])

    def test_direct_evaluation(self, model):
        # (1 + cos(2 pi/3)) / 2 = 1/4
        assert model.prob_plus(math.pi / 3) == pytest.approx(0.25, abs=1e-15)

    @given(st.floats(-10.0, 10.0), st.integers(1, 6))
    def test_probability_in_unit_interval(self, theta, n):
        p = GhzParityModel(n).prob_plus(theta)
        assert 0.0 <= p <= 1.0

    def test_invalid_n(self):
        with pytest.raises(ModelError):
            GhzParityModel(0)


class TestDerivative:
    def test_plus_outcome_at_pi_over_4(self, model):
        assert model.dprob_dtheta(math.pi / 4) == pytest.approx(-1.0, abs=1e-15)

    def test_extremum(self, model):
        assert model.dprob_dtheta(0.0) == 0.0

    def test_n3(self):
        assert GhzParityModel(3).dprob_dtheta(math.pi / 6) == pytest.approx(-1.5, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_central_differences(self, n):
        m = GhzParityModel(n)
        step = 1e-6
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 25):
            fd = (m.prob_plus(theta + step) - m.prob_plus(theta - step)) / (2 * step)
            assert m.dprob_dtheta(theta) == pytest.approx(fd, rel=1e-6)


class TestFisherInformation:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 4.0), (3, 9.0)])
    def test_equals_n_squared(self, n, expected):
        m = GhzParityModel(n)
        assert m.fisher_information(0.3) == expected
        assert np.all(m.fisher_information(np.linspace(0, math.pi / 2, 11)) == expected)

    def test_direct_sum_matches_reduced_form(self, model):
        thetas = (np.arange(1000) + 0.5) / 1000 * (math.pi / 2)
        for theta in thetas[::37]:
            pp, dp = model.prob_plus(theta), model.dprob_dtheta(theta)
            probs, dprobs = [pp, 1.0 - pp], [dp, -dp]
            assert fisher_information_from_table(probs, dprobs) == pytest.approx(4.0, abs=1e-9)

    def test_table_singularity(self):
        with pytest.raises(SingularModelError):
            fisher_information_from_table([0.0, 1.0], [0.5, -0.5])

    def test_table_zero_over_zero_convention(self):
        assert fisher_information_from_table([0.0, 1.0], [0.0, 0.0]) == 0.0


class TestTallyProbability:
    def test_two_shot_example(self, model):
        # two sequences contribute 0.25 * 0.75 each
        assert _pmf(model, math.pi / 3, 2)[1] == pytest.approx(0.375, abs=1e-14)

    def test_single_shot_reduces_to_prob_plus(self, model):
        theta = 0.7
        assert _pmf(model, theta, 1)[1] == pytest.approx(float(model.prob_plus(theta)), abs=1e-15)

    def test_deterministic_channel(self, model):
        assert _pmf(model, 0.0, 5)[5] == 1.0
        assert _pmf(model, 0.0, 5)[2] == 0.0

    @pytest.mark.parametrize("m", [1, 7, 50, 300])
    def test_normalisation(self, model, m):
        for theta in np.linspace(0.0, math.pi / 2, 37):
            assert abs(_pmf(model, theta, m).sum() - 1.0) < 1e-12

    def test_normalisation_dense_theta_grid(self, model):
        sums = tally_pmf_matrix(model, 7, np.linspace(0.0, math.pi / 2, 1000)).sum(axis=0)
        assert float(np.max(np.abs(sums - 1.0))) < 1e-12

    def test_rejects_bad_tallies(self, model):
        with pytest.raises(ModelError):
            tally_pmf_matrix(model, 2, [0.3], 3, 4)
        with pytest.raises(ModelError):
            tally_pmf_matrix(model, 2, [0.3], -1, 0)
        for m in (-1, 2.0):
            with pytest.raises(ModelError, match="m must be a nonnegative integer"):
                tally_pmf_matrix(model, m, [0.3])

    def test_brute_force_product(self, model):
        # sum over explicit +/- sequences of length 3
        theta = 0.9
        pp = float(model.prob_plus(theta))
        pm = 1.0 - pp
        import itertools
        for k in range(4):
            total = sum(
                math.prod(pp if s == 1 else pm for s in seq)
                for seq in itertools.product((1, -1), repeat=3)
                if sum(1 for s in seq if s == 1) == k)
            assert _pmf(model, theta, 3)[k] == pytest.approx(total, abs=1e-14)

    @given(st.floats(0.0, math.pi / 2), st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_pmf_sums_to_one(self, theta, m):
        assert abs(_pmf(GhzParityModel(2), theta, m).sum() - 1.0) < 1e-12


class TestPmfDerivative:
    @pytest.mark.parametrize("m", [1, 4, 20])
    def test_matches_central_differences(self, model, m):
        thetas = np.linspace(0.1, math.pi / 2 - 0.1, 9)
        step = 1e-6
        analytic = tally_pmf_dtheta_matrix(model, m, thetas)
        fd = (tally_pmf_matrix(model, m, thetas + step)
              - tally_pmf_matrix(model, m, thetas - step)) / (2 * step)
        np.testing.assert_allclose(analytic, fd, rtol=2e-5, atol=1e-9)

    def test_rows_sum_to_zero(self, model):
        # d/dtheta of a normalised pmf sums to zero over k
        cols = tally_pmf_dtheta_matrix(model, 9, np.linspace(0.0, math.pi / 2, 21))
        np.testing.assert_allclose(cols.sum(axis=0), 0.0, atol=1e-13)

    def test_finite_at_deterministic_endpoints(self, model):
        d = tally_pmf_dtheta_matrix(model, 5, np.array([0.0, math.pi / 2]))
        assert np.all(np.isfinite(d))

    @pytest.mark.parametrize("m", [-1, 2.5])
    def test_rejects_bad_m(self, model, m):
        # as the other kernels do, rather than an empty array or numpy's TypeError
        with pytest.raises(ModelError, match="m must be a nonnegative integer"):
            tally_pmf_dtheta_matrix(model, m, [0.3])


class TestPmfWithDerivative:
    """The pmf's derivative by the closed-form score, against the log-domain kernels.

    Pascal's rule on B_(m-1) (``oracles.full_width_pmf_with_dtheta``), the
    route the posterior summary took before the score, is a third,
    independent route to both arrays.
    """

    THETAS = np.linspace(0.0, math.pi / 2, 2001)

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_pmf_matches_log_domain_kernel(self, model, m):
        pmf, _ = full_width_pmf_with_dtheta(model, m, self.THETAS)
        ref = tally_pmf_matrix(model, m, self.THETAS)
        rel = np.abs(pmf - ref) / np.maximum(ref, np.finfo(float).tiny)
        assert float(np.max(rel)) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_derivative_matches_log_domain_kernel(self, model, m):
        _, dpmf = _score_pair(model, m, self.THETAS)
        _assert_close_derivatives(dpmf, tally_pmf_dtheta_matrix(model, m, self.THETAS), m)
        _assert_close_derivatives(dpmf, full_width_pmf_with_dtheta(model, m, self.THETAS)[1], m)

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_deterministic_channels(self, model, m):
        # c = 0 where p_+ p_- = 0: the derivative is exactly 0, where Pascal's rule leaves
        # m p_+'(pi/2), a rounding residue of -1.2e-16 per shot
        thetas = np.array([0.0, math.pi / 2])
        pmf, dpmf = _score_pair(model, m, thetas)
        unit = np.zeros(m + 1)
        unit[m] = 1.0
        np.testing.assert_array_equal(pmf[:, 0], unit)      # p_+ = 1: every shot is +1
        np.testing.assert_array_equal(pmf[:, 1], unit[::-1])  # p_+ = 0: every shot is -1
        assert not dpmf.any()
        assert np.max(np.abs(full_width_pmf_with_dtheta(model, m, thetas)[1])) <= m * 1.3e-16

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_derivative_columns_sum_to_zero(self, model, m):
        # sum_k pmf c (k - m p_+) = c (E k - m p_+) = 0; the score form rounds m p_+ before
        # it subtracts, an error of a few ulp of m that c, up to 2 / h at a node h from
        # p_- = 0, carries into every term (1.4e-10 of the column's largest term at m = 20
        # on the node next to 0, where Pascal's rule gives 1e-15)
        _, dpmf = _score_pair(model, m, self.THETAS)
        scale = np.max(np.abs(dpmf), axis=0)
        c = model_module._score_factor(model, self.THETAS)
        eps = np.finfo(float).eps
        assert np.all(np.abs(dpmf.sum(axis=0)) <= 1e-12 * scale + 8 * eps * m * np.abs(c) + 1e-300)

    def test_no_shots(self, model):
        pmf, dpmf = _score_pair(model, 0, self.THETAS[:5])
        np.testing.assert_array_equal(pmf, np.ones((1, 5)))
        np.testing.assert_array_equal(dpmf, np.zeros((1, 5)))


class TestRowRanges:
    """A row range of each kernel is bit for bit that slice of the full arrays."""

    THETAS = np.linspace(0.0, math.pi / 2, 2001)

    @staticmethod
    def _ranges(m):
        mid = m // 2
        ranges = {(0, 1), (m, m + 1), (mid, mid + 1),                # single rows
                  (0, mid + 1), (mid, m + 1), (m // 3, 2 * m // 3 + 1),  # first, last, interior
                  (0, m + 1)}
        return sorted((k0, k1) for k0, k1 in ranges if k0 < k1)

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_pmf_matrix_rows(self, model, m):
        full = tally_pmf_matrix(model, m, self.THETAS)
        for k0, k1 in self._ranges(m):
            np.testing.assert_array_equal(tally_pmf_matrix(model, m, self.THETAS, k0, k1),
                                          full[k0:k1], err_msg=f"rows [{k0}, {k1})")

    @pytest.mark.parametrize("m", [1, 2, 20, 1000])
    def test_pmf_with_dtheta_rows(self, model, m):
        # the score-form derivative of a row range, whose k start at k0 as in a summary
        # block, is that slice of the full one bit for bit, the sign of a zero included,
        # and agrees with Pascal's rule on the same rows
        pmf, dpmf = _score_pair(model, m, self.THETAS)
        for k0, k1 in self._ranges(m):
            got_pmf, got_dpmf = _score_pair(model, m, self.THETAS, k0, k1)
            _assert_same_doubles(got_pmf, pmf[k0:k1])
            _assert_same_doubles(got_dpmf, dpmf[k0:k1])
            _assert_close_derivatives(
                got_dpmf, full_width_pmf_with_dtheta(model, m, self.THETAS, k0, k1)[1], m, dpmf)

    @pytest.mark.parametrize("k0,k1", [(-1, 2), (2, 2), (3, 2), (0, 7), (6, 7)])
    def test_rejects_bad_ranges(self, model, k0, k1):
        flat = (np.zeros(3),) * 2

        def windows(*args):
            return model_module._likelihood_windows(*args, flat)

        for kernel in (tally_pmf_matrix, windows):
            with pytest.raises(ModelError):
                kernel(model, 5, self.THETAS[:3], k0, k1)


def _assert_close_derivatives(got, want, m, whole=None, rel=1e-9):
    """d/dtheta of the tally pmf on 0..pi/2 within ``rel`` of ``want``, per column's largest.

    The largest |entry| of each column is ``whole``'s, every row of which the
    rows compared are some, or by default ``want``'s.

    The last column is pi/2, where p_+ = 0 and p_+' is a rounding residue of
    -1.2e-16: there ``want`` may hold m p_+' times a pmf row (Pascal's rule
    and the log-domain kernel do) and ``got``, the score form at its exact
    limit, is 0.
    """
    whole = want if whole is None else whole
    scale = np.maximum(np.max(np.abs(whole[:, :-1]), axis=0), np.finfo(float).tiny)
    assert float(np.max(np.abs(got[:, :-1] - want[:, :-1]) / scale)) <= rel
    assert not got[:, -1].any() and float(np.max(np.abs(want[:, -1]))) <= m * 1.3e-16


def _assert_same_doubles(got, want):
    """The same shape and type, and the same 64 bits in every entry."""
    assert type(got) is type(want)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    differ = got.view(np.int64) != want.view(np.int64)
    assert not np.any(differ), f"{int(np.sum(differ))} entries differ, first at {np.argwhere(differ)[0]}"


class TestScipyOracle:
    """The scipy-free kernels return the doubles of the scipy formulas, bit for bit."""

    THETAS = np.linspace(0.0, math.pi / 2, 2001)     # includes p_+ = 1 and p_+ = 0
    # Entries are elementwise in theta, so the matrix kernels are compared on four
    # blocks of these columns: the arrays of both sides stay near 100 MB at m = 5000.
    BLOCKS = np.array_split(THETAS, 4)

    @pytest.mark.parametrize("m", [0, 1, 2, 11, 12, 13, 998, 999, 1000, 5000, 20000])
    def test_log_binomial(self, m):
        # log n! comes from the three branches of cephes lgam: x < 13, x < 1000, x >= 1000
        k = np.arange(m + 1)
        _assert_same_doubles(log_binomial(m, k), scipy_log_binomial(m, k))

    def test_log_factorial_table_grows_without_writes(self, monkeypatch):
        # a reader holding the old table sees it unchanged while a larger one is bound
        monkeypatch.setattr(model_module, "_log_factorial_table", np.zeros(1))
        seen = []
        for m in (0, 1, 5, 12, 13, 40, 999, 1000, 3000):
            k = np.arange(m + 1)
            _assert_same_doubles(log_binomial(m, k), scipy_log_binomial(m, k))
            table = model_module._log_factorial_table
            assert len(table) > m
            seen.append((table, table.copy()))
        for table, snapshot in seen:
            _assert_same_doubles(table, snapshot)
            _assert_same_doubles(table, seen[-1][0][:len(table)])

    @pytest.mark.parametrize("m", [0, 1, 2, 20, 1000, 5000])
    def test_pmf_matrix(self, model, m):
        k0, k1 = m // 3, 2 * m // 3 + 1
        for cols in self.BLOCKS:
            _assert_same_doubles(tally_pmf_matrix(model, m, cols),
                                 scipy_tally_pmf_matrix(model, m, cols))
            _assert_same_doubles(tally_pmf_matrix(model, m, cols, k0, k1),
                                 scipy_tally_pmf_matrix(model, m, cols, k0, k1))

    @pytest.mark.parametrize("m", [0, 1, 2, 20, 1000, 5000])
    def test_pmf_dtheta_matrix(self, model, m):
        for cols in self.BLOCKS:
            _assert_same_doubles(tally_pmf_dtheta_matrix(model, m, cols),
                                 scipy_tally_pmf_dtheta_matrix(model, m, cols))

    @pytest.mark.parametrize("m", [0, 1, 2, 20, 1000, 5000])
    def test_pmf_with_dtheta(self, model, m):
        # the closed-form score's derivative on the package's kernel and c against the same
        # on the scipy pmf, full and row-ranged
        ranges = [(0, m + 1), (m // 3, 2 * m // 3 + 1), (m, m + 1)]
        for cols in self.BLOCKS:
            for k0, k1 in ranges:
                pmf, dpmf = _score_pair(model, m, cols, k0, k1)
                want_pmf, want_dpmf = score_pmf_derivative(model, m, cols, k0, k1)
                _assert_same_doubles(pmf, want_pmf)
                _assert_same_doubles(dpmf, want_dpmf)

    def test_exp_is_zero_below_the_cut(self):
        # the kernels leave every cell whose log-sum is at or below the cut at 0.0
        # without calling exp; numpy's exp must return exactly that there
        cut = model_module._EXP_ZERO_BELOW
        x = np.linspace(cut - 100.0, cut, 100_001)
        assert not np.exp(x).any() and not np.exp(x[:, None]).any()
        assert np.exp(-745.13) > 0.0

    @pytest.mark.parametrize("m", [0, 1, 2, 20, 1000, 5000])
    def test_pmf_with_dtheta_on_whole_rows(self, model, m):
        # the pmf rows read on the likelihood's span into a window-shaped array, as a
        # summary block reads them, against whole rows of the scipy pmf, on the default
        # and an off-branch grid; every cell outside the span is exactly 0
        ranges = [(0, m + 1), (0, min(131, m + 1)), (m // 3, 2 * m // 3 + 1), (m, m + 1)]
        for cols in [*self.BLOCKS, np.linspace(-0.3, 1.2, 2001)]:
            for k0, k1 in ranges:
                want = scipy_tally_pmf_matrix(model, m, cols, k0, k1)
                span = likelihood_span(model, m, cols, k0, k1)
                got = np.full((k1 - k0, span.stop - span.start), np.nan)
                tally_pmf_matrix(model, m, cols, k0, k1, cols=span, out=got)
                _assert_same_doubles(got, want[:, span])
                outside = np.ones(cols.size, dtype=bool)
                outside[span] = False
                assert not want[:, outside].any()

    @pytest.mark.parametrize("m", [1, 20, 1000, 5000])
    def test_pmf_matrix_off_branch(self, model, m):
        # on [-0.3, 1.2] p_+ is not monotone, so the phases where a block's cells clear
        # the exp cut need not be one run
        cols = np.linspace(-0.3, 1.2, 2001)
        _assert_same_doubles(tally_pmf_matrix(model, m, cols),
                             scipy_tally_pmf_matrix(model, m, cols))

    @pytest.mark.parametrize("m", [0, 1, 20, 1000, 5000])
    def test_pmf_columns(self, model, m):
        # a block of phases, written over stale data into a window-shaped out, is
        # those columns of the matrix
        thetas = np.linspace(0.0, math.pi / 2, 201)
        whole = tally_pmf_matrix(model, m, thetas)
        for cols in (slice(0, 201), slice(0, 48), slice(48, 96), slice(192, 201), slice(7, 8)):
            out = np.full((m + 1, cols.stop - cols.start), np.nan)
            assert tally_pmf_matrix(model, m, thetas, cols=cols, out=out) is out
            _assert_same_doubles(out, whole[:, cols])

    @pytest.mark.parametrize("m", [0, 1, 1000, 5000])
    @pytest.mark.parametrize("thetas", [THETAS, np.linspace(-0.3, 1.2, 2001)],
                             ids=["default", "off-branch"])
    def test_writes_every_cell_of_out(self, model, m, thetas):
        # the kernel computes the rows it is handed at every phase of thetas[cols] (of
        # thetas without cols) and writes every cell: a NaN-filled out comes back as the
        # scipy pmf, with its zeros outside the rows' span.  Rows of m = 5000 in three
        # ranges, so that the arrays stay near 8 MB
        n = thetas.size
        ranges = [(0, m + 1)] if m <= 1000 else [(0, 500), (2250, 2750), (4501, 5001)]
        for k0, k1 in ranges:
            want = scipy_tally_pmf_matrix(model, m, thetas, k0, k1)
            out = np.full(want.shape, np.nan)
            assert tally_pmf_matrix(model, m, thetas, k0, k1, out=out) is out
            _assert_same_doubles(out, want)
            for cols in (slice(0, n), slice(0, 640), slice(640, 1344), slice(1990, n),
                         slice(7, 8), slice(0, n, n - 1)):
                out = np.full(want[:, cols].shape, np.nan)
                assert tally_pmf_matrix(model, m, thetas, k0, k1, cols=cols, out=out) is out
                _assert_same_doubles(out, want[:, cols])
                _assert_same_doubles(tally_pmf_matrix(model, m, thetas, k0, k1, cols=cols),
                                     want[:, cols])

    @pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, 1.2, math.pi / 2])
    def test_scalar_and_0d_tally_probability(self, model, theta):
        # the one-phase column, as the fixed-theta0 sums read it, against the
        # scipy formula at a scalar phase (and at a numpy scalar and a 0-d array)
        for m in (0, 1, 2, 7, 300, 5000):
            want = scipy_tally_probability(model, theta, m, np.arange(m + 1))
            for th in (theta, np.float64(theta), np.array(theta)):
                _assert_same_doubles(tally_pmf_matrix(model, m, [th])[:, 0], want)

    def test_other_models(self):
        thetas = np.linspace(0.0, math.pi / 3, 301)
        for n in (1, 3):
            _assert_same_doubles(tally_pmf_matrix(GhzParityModel(n), 50, thetas),
                                 scipy_tally_pmf_matrix(GhzParityModel(n), 50, thetas))


class TestDomainsAndPoints:
    def test_domain_validation(self):
        with pytest.raises(ModelError):
            PhaseDomain(1.0, 1.0)

    @pytest.mark.parametrize("n,b", [(2, math.pi / 2), (3, math.pi / 3), (3, 0.5)])
    def test_identifiable_domain_accepted(self, n, b):
        assert require_identifiable(GhzParityModel(n), PhaseDomain(0.0, b)) == 0

    @pytest.mark.parametrize("n,a,b,j", [
        (2, -math.pi / 2, 0.0, -1), (1, -3.0, -0.2, -1), (3, -math.pi / 3, -0.1, -1),
        (2, 0.1, 1.2, 0), (1, 0.0, math.pi, 0),
        (2, math.pi / 2, math.pi, 1), (3, math.pi / 3, 2 * math.pi / 3, 1), (1, 3.2, 6.0, 1),
        (2, math.pi, 3 * math.pi / 2, 2), (3, 2.2, 3.1, 2)])
    def test_branch_index(self, n, a, b, j):
        # N [a, b] inside [j pi, (j+1) pi], endpoints on a multiple of pi included
        assert require_identifiable(GhzParityModel(n), PhaseDomain(a, b)) == j

    # the last four are no wider than pi/N, but N [a, b] holds a multiple of pi:
    # theta and its mirror image about it give one likelihood
    @pytest.mark.parametrize("n,a,b", [(3, 0.0, math.pi / 2), (2, -0.3, 1.5), (1, 0.0, 3.2),
                                       (2, -0.3, 1.2), (2, math.pi / 8, 5 * math.pi / 8),
                                       (1, 3.0, 3.3), (2, -1e-9, 0.5)])
    def test_non_identifiable_domain_rejected(self, n, a, b):
        with pytest.raises(ModelError, match=f"model.N={n}: N\\*\\[a, b\\] = \\[.*\\] lies in no "
                                             "\\[j\\*pi, \\(j\\+1\\)\\*pi\\]"):
            require_identifiable(GhzParityModel(n), PhaseDomain(a, b))

    def test_default_domain(self):
        d = PhaseDomain()
        assert d.a == 0.0 and d.b == pytest.approx(math.pi / 2)


class TestWorkspace:
    def test_take_honours_dtype(self):
        # a name taken as float and then as bool is a bool array, and a float again
        workspace = model_module._Workspace()
        assert workspace.take("zero", (4,), float).dtype == np.float64
        mask = workspace.take("zero", (3, 4), bool)
        assert mask.dtype == np.bool_ and mask.shape == (3, 4)
        assert workspace.take("zero", (2,), float).dtype == np.float64

    def test_take_reuses_a_buffer_of_its_dtype(self):
        workspace = model_module._Workspace()
        first = workspace.take("mask", (16, 64), bool)
        again = workspace.take("mask", (32, 32), bool)
        assert again.dtype == np.bool_ and np.shares_memory(first, again)
