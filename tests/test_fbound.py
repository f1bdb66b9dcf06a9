import math
import warnings

import numpy as np
import pytest
from oracles import scalar_chrb, scalar_echrb

import phasebound.fbound as fbound_module
from phasebound.fbound import (
    HierarchyViolationError,
    NoAdmissibleOffsetError,
    _barankin_values,
    _chrb_value,
    _echrb_grid_eval,
    _single_shot_probs,
    barankin,
    barankin_at,
    check_chain,
    chrb,
    chrb_block,
    crlb,
    echrb,
    echrb_block,
    hierarchy_report,
)
from phasebound.model import GhzParityModel, ModelError, PhaseDomain
from phasebound.numerics import NumericalFailure

T0 = math.pi / 4
CHRB_M1 = (math.pi / 4) ** 2  # 0.61685027506808491, supremum at lambda = +/- pi/4


def chrb_ratio(theta0, m, model, lam, domain=PhaseDomain()):
    """The Chapman-Robbins ratio at offsets ``lam``, through the objective ``chrb`` searches."""
    p0p, p0m = _single_shot_probs(model, theta0, domain)
    return _chrb_value(theta0, m, model, lam, domain, p0p, p0m)


def dense_grid_chrb(theta0, m, model, domain, points=200_001):
    """Independent supremum oracle: brute scan of the two-point ratio."""
    lams = np.linspace(domain.a - theta0, domain.b - theta0, points)
    lams = lams[np.abs(lams) > 1e-8]
    pp = float(model.prob_plus(theta0))
    d = model.prob_plus(theta0 + lams) - pp
    s = d * d / (pp * (1 - pp))
    den = np.expm1(m * np.log1p(s))
    vals = lams**2 / den
    return float(np.max(vals))


class TestCrlb:
    def test_value(self, model):
        assert crlb(T0, 25, model).value == pytest.approx(0.01, abs=1e-15)

    def test_fully_biased(self, model):
        assert crlb(T0, 25, model, bias_derivative=0.0).value == 0.0

    def test_one_over_m_scaling(self, model):
        assert crlb(T0, 10, model).value == pytest.approx(2 * crlb(T0, 20, model).value)

    def test_zero_information_rejected(self):
        class DeadModel:
            def fisher_information(self, theta):
                return 0.0

        with pytest.raises(NumericalFailure):
            crlb(0.3, 5, DeadModel())


class TestChapmanRobbins:
    def test_single_shot_closed_form(self, model, domain):
        report = chrb(T0, 1, model, domain=domain)
        assert report.value == pytest.approx(CHRB_M1, abs=1e-9)
        assert abs(report.argmax["lambda"]) == pytest.approx(math.pi / 4, abs=1e-6)

    def test_against_dense_grid_oracle(self, model, domain):
        for m in (1, 3, 10, 40):
            got = chrb(T0, m, model, domain=domain).value
            want = dense_grid_chrb(T0, m, model, domain)
            assert got >= want - 1e-12
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("m", [1, 10, 100])
    def test_crlb_recovered_in_small_offset_limit(self, model, m):
        value = chrb_ratio(T0, m, model, 1e-6)
        assert value == pytest.approx(1.0 / (m * 4.0), rel=1e-4)

    def test_dominates_crlb(self, model, domain):
        for m in range(1, 41):
            assert chrb(T0, m, model, domain=domain).value >= crlb(T0, m, model).value - 1e-9

    def test_floored_by_crlb_on_the_domain_edge(self, model, monkeypatch):
        # at theta0 = a the supremum is the lambda -> 0 limit 1/(m F), near which
        # p_+(theta0 + lambda) - p_+(theta0) cancels, so the search alone falls short
        edge = PhaseDomain(0.1, 0.2)
        for m in (1, 3, 5, 1000):
            report = chrb(0.1, m, model, edge)
            assert report.value == crlb(0.1, m, model).value
            assert report.diagnostics == {"floored_by": "crlb"}
            assert 0.0 < report.argmax["lambda"] < 1e-6
        assert chrb(T0, 3, model).diagnostics == {}
        # EChRB holds the same limit: a coarse grid without zoom rounds falls short of it
        monkeypatch.setattr(fbound_module, "_ECHRB_REFINE_ROUNDS", 0)
        monkeypatch.setattr(fbound_module, "_ECHRB_GRID", 3)
        report = echrb(0.1, 50, model, edge)
        assert report.value == crlb(0.1, 50, model).value
        assert report.diagnostics == {"floored_by": "crlb"}

    def test_large_m_approaches_crlb(self, model, domain):
        m = 100
        assert chrb(T0, m, model, domain=domain).value == pytest.approx(1 / (4 * m), rel=0.02)

    def test_no_admissible_offsets_at_deterministic_phase(self, model, domain):
        with pytest.raises(NoAdmissibleOffsetError):
            chrb(0.0, 3, model, domain=domain)

    def test_off_center_true_phase(self, model, domain):
        # supremum still dominates the 1D dense scan away from the symmetry point
        got = chrb(0.6, 7, model, domain=domain).value
        want = dense_grid_chrb(0.6, 7, model, domain)
        assert got == pytest.approx(want, rel=1e-6)


class TestExtendedChapmanRobbins:
    def test_a_zero_slice_reproduces_chrb(self, model, domain):
        # with the coefficient A forced to 0 the three-point ratio collapses
        # to the two-point one: c0 alone must reproduce the ChRB objective
        from phasebound.fbound import _gram_power
        p0p, p0m = _single_shot_probs(model, T0, domain)
        m = 4
        for lam in (0.2, -0.5, 0.7):
            d = model.prob_plus(T0 + lam) - p0p
            c0 = _gram_power(m, d * d / (p0p * p0m))
            assert lam * lam / c0 == pytest.approx(chrb_ratio(T0, m, model, lam), rel=1e-12)

    def test_single_shot_dominates_chrb_value(self, model, domain):
        report = echrb(T0, 1, model, domain=domain)
        assert report.value >= 0.61685

    def test_dominates_chrb_for_all_m(self, model, domain):
        for m in (1, 2, 5, 10, 25, 50):
            ch = chrb(T0, m, model, domain=domain)
            ech = echrb(T0, m, model, domain=domain, seed_lambdas=[ch.argmax["lambda"]])
            assert ech.value >= ch.value - 1e-9

    def test_midrange_gap_is_modest(self, model, domain):
        m = 50
        ch = chrb(T0, m, model, domain=domain).value
        ech = echrb(T0, m, model, domain=domain).value
        assert ch <= ech <= 1.5 * ch

    @pytest.mark.parametrize("m,unseeded", [(5, 0.05444), (1, 0.64419)])
    def test_seed_outside_domain_rejected(self, model, domain, m, unseeded):
        # lambda1 = 1 led the zoom to lambda1 = 1.02, a test point at 1.81 outside
        # [0, pi/2], where cos 2 theta repeats the value of an admissible phase; the
        # seeded search returned 0.348 at m = 5 and 1.536 at m = 1
        with pytest.raises(ModelError, match=r"seed offsets \[1.0\] put a test point outside"):
            echrb(T0, m, model, domain=domain, seed_lambdas=[1.0])
        assert echrb(T0, m, model, domain=domain).value == pytest.approx(unseeded, abs=1e-5)

    @pytest.mark.parametrize("seed", [math.nan, -math.pi / 4 - 1e-9])
    def test_unusable_seed_rejected(self, model, domain, seed):
        with pytest.raises(ModelError, match="outside the phase domain"):
            echrb(T0, 3, model, domain=domain, seed_lambdas=[0.3, seed])

    def test_seeds_at_the_domain_ends_accepted(self, model, domain):
        ends = [domain.a - T0, domain.b - T0]
        seeded = echrb(T0, 3, model, domain=domain, seed_lambdas=ends).value
        assert seeded >= echrb(T0, 3, model, domain=domain).value - 1e-12

    def test_refinement_never_decreases(self, model, domain, monkeypatch):
        # nested grids: 2r-1 points contain the r-point grid
        monkeypatch.setattr(fbound_module, "_ECHRB_REFINE_ROUNDS", 0)
        monkeypatch.setattr(fbound_module, "_ECHRB_GRID", 41)
        coarse = echrb(T0, 7, model, domain=domain).value
        monkeypatch.setattr(fbound_module, "_ECHRB_GRID", 81)
        fine = echrb(T0, 7, model, domain=domain).value
        assert fine >= coarse - 1e-12


class TestBarankin:
    def test_single_point_matches_chrb(self, model, domain):
        rng = np.random.default_rng(11)
        m = 3
        offsets = rng.uniform(-T0 + 1e-3, T0 - 1e-3, size=50)
        offsets = offsets[np.abs(offsets) > 1e-6]
        for lam in offsets:
            got = barankin_at(T0, m, model, [T0 + lam], domain=domain).value
            assert got == pytest.approx(chrb_ratio(T0, m, model, float(lam)), rel=1e-10)

    def test_two_points_dominate_echrb_at_same_offsets(self, model, domain):
        m = 5
        for l1, l2 in ((0.0785, -0.7), (0.3, 0.6), (-0.5, 0.2)):
            p0p, p0m = _single_shot_probs(model, T0, domain)
            g, _ = _echrb_grid_eval(T0, m, model, np.asarray([l1]), np.asarray([l2]), p0p, p0m)
            bb = barankin_at(T0, m, model, [T0 + l1, T0 + l2], domain=domain).value
            assert bb >= float(g[0]) - 1e-9

    def test_appending_test_point_never_decreases(self, model, domain):
        m = 8
        base = [0.5, 0.9]
        v2 = barankin_at(T0, m, model, base, domain=domain).value
        v3 = barankin_at(T0, m, model, base + [1.1], domain=domain).value
        assert v3 >= v2 - 1e-9

    def test_single_shot_two_points_flags_ill_conditioning(self, model, domain):
        # single-shot centred ratios span one dimension: the 2-point Gram is singular
        report = barankin_at(T0, 1, model, [0.5, 0.9], domain=domain)
        assert report.diagnostics["ridge_used"]
        assert report.diagnostics["ill_conditioned"]

    def test_coordinate_search_improves_start(self, model, domain):
        test_points = (T0 + 0.1, T0 - 0.1)
        start = barankin_at(T0, 6, model, test_points, domain=domain).value
        searched = barankin(T0, 6, model, test_points, domain=domain).value
        assert searched >= start - 1e-12

    def test_validation(self, model, domain):
        # barankin_at validates every placement, barankin's start included
        for bound in (barankin_at, barankin):
            with pytest.raises(ModelError):
                bound(T0, 3, model, [], domain=domain)
            with pytest.raises(ModelError):
                bound(T0, 3, model, [0.4, 0.4 + 1e-12], domain=domain)
            with pytest.raises(ModelError):
                bound(T0, 3, model, [0.1 * i for i in range(1, 8)], domain=domain)


class TestBiasedCrlbDominance:
    def test_mle_variance_dominates_its_biased_crlb(self, model, domain):
        from phasebound.estimate import MaximumLikelihoodEstimator, frequentist_risk
        est = MaximumLikelihoodEstimator(model, domain)
        for m in range(1, 101):
            risk = frequentist_risk(est, T0, m, model)
            bound = crlb(T0, m, model, bias_derivative=risk.bias_derivative).value
            assert risk.variance >= bound - 1e-9


class TestCheckChain:
    def test_ordered_chain_and_gap_within_slack_pass(self):
        check_chain([("bb", 3.0), ("echrb", 2.0), ("chrb", 2.0), ("crlb", 1.0)], "m=1")
        check_chain([("upper", 1.0), ("lower", 1.0 + 0.5e-9)], "m=1")

    def test_gap_beyond_slack_names_both_bounds_and_cell(self):
        with pytest.raises(HierarchyViolationError) as info:
            check_chain([("bb", 3.0), ("chrb", 1.0), ("crlb", 1.0 + 2e-9)], "m=7, alpha=10")
        message = str(info.value)
        assert "chrb=1.0" in message and "crlb=1.000000002" in message
        assert "m=7, alpha=10" in message

    @pytest.mark.parametrize("value,gap", [
        (6.2e-5, 4e-13),                        # aGBr below VTB at alpha = 500
        (2.4e10, float(np.spacing(2.4e10))),    # 3.8e-6, the least gap there
    ])
    def test_slack_is_relative_below_one_and_absolute_above(self, value, gap):
        with pytest.raises(HierarchyViolationError):
            check_chain([("agbr", value), ("van_trees", value + gap)], "m=1, alpha=500")

    def test_gap_within_relative_slack_passes(self):
        check_chain([("agbr", 6.2e-5), ("van_trees", 6.2e-5 + 4e-15)], "m=1, alpha=500")


class TestHierarchy:
    @pytest.mark.parametrize("m", [1, 2, 5, 10, 50])
    def test_chain_holds(self, model, domain, m):
        reports = hierarchy_report(T0, m, model, domain)
        names = [r.name for r in reports]
        assert names == ["barankin", "echrb", "chrb", "crlb"]
        values = [r.value for r in reports]
        assert values[0] >= values[1] - 1e-9
        assert values[1] >= values[2] - 1e-9
        assert values[2] >= values[3] - 1e-9

    def test_convergence_to_crlb(self, model, domain):
        m = 200
        values = [r.value for r in hierarchy_report(T0, m, model, domain)]
        for v in values:
            assert v == pytest.approx(1.0 / (4 * m), rel=0.02)

    @pytest.mark.parametrize("m", [3, 20])
    def test_reflection_symmetry(self, model, domain, m):
        # relabeling the outcomes reflects the model about pi/4
        for theta0 in (0.3, 0.6):
            mirrored = math.pi / 2 - theta0
            assert chrb(theta0, m, model, domain=domain).value == pytest.approx(
                chrb(mirrored, m, model, domain=domain).value, abs=1e-9)
            assert echrb(theta0, m, model, domain=domain).value == pytest.approx(
                echrb(mirrored, m, model, domain=domain).value, abs=1e-9)


class TestArrayObjectives:
    """Whole-grid evaluation must equal point-by-point evaluation bit for bit."""

    @pytest.mark.parametrize("m", [1, 20, 300, 1000])
    def test_chrb_coarse_grid_equals_per_point(self, model, domain, m):
        lams = np.linspace(domain.a - T0, domain.b - T0, fbound_module._CHRB_COARSE)
        whole = chrb_ratio(T0, m, model, lams, domain)
        # a lone point in gives a 0-d array out
        per_point = np.array([chrb_ratio(T0, m, model, float(lam), domain)
                              for lam in lams])
        assert chrb_ratio(T0, m, model, float(lams[7]), domain).shape == ()
        assert whole.shape == lams.shape
        assert np.array_equal(whole, per_point)
        assert np.isfinite(whole).sum() >= fbound_module._CHRB_COARSE - 2

    @pytest.mark.parametrize("m", [1, 300])
    def test_echrb_broadcast_grid_equals_per_pair(self, model, domain, m):
        p0p, p0m = _single_shot_probs(model, T0, domain)
        lams = np.linspace(domain.a - T0, domain.b - T0, fbound_module._ECHRB_GRID)
        g, a_star = _echrb_grid_eval(T0, m, model, lams[:, None], lams[None, :], p0p, p0m)
        assert g.shape == a_star.shape == (lams.size, lams.size)
        for i, l1 in enumerate(lams):
            for j, l2 in enumerate(lams):
                gp, ap = _echrb_grid_eval(T0, m, model, np.asarray([l1]), np.asarray([l2]),
                                          p0p, p0m)
                assert g[i, j] == gp[0]
                assert a_star[i, j] == ap[0] or (np.isnan(a_star[i, j]) and np.isnan(ap[0]))


# the true phases of the fixed_theta benchmark workload
FIXED_THETA0S = [math.pi / 4, math.pi / 8, math.pi / 6, math.pi / 3, 3 * math.pi / 8]


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestLockStep:
    """Searches over a block of m, against one scalar search per m, with ``==``."""

    @pytest.mark.parametrize("theta0", FIXED_THETA0S)
    def test_blocks_equal_one_scalar_search_per_m(self, model, domain, theta0):
        # as fig2 runs them: EChRB seeded with the ChRB argmax of the same m
        ms = list(range(1, 301))
        chs = chrb_block(theta0, ms, model, domain)
        echs = echrb_block(theta0, ms, model, domain, [[ch.argmax["lambda"]] for ch in chs])
        for m, ch, ech in zip(ms, chs, echs):
            arg, value = scalar_chrb(theta0, m, model, domain)
            assert (ch.argmax["lambda"], ch.value) == (arg, value), m
            want = scalar_echrb(theta0, m, model, domain, [arg])
            got = (ech.value, ech.argmax["lambda1"], ech.argmax["lambda2"],
                   ech.argmax["a_coefficient"])
            assert all(_same(g, w) for g, w in zip(got, want)), (m, got, want)

    def test_seed_rows_of_every_kind(self, model, domain):
        # no seed, a grid point, repeats, seeds at the domain's ends (up to 1e-15 past
        # them) and several distinct ones: the stacked first round takes the same cell
        # as one sorted grid per m
        theta0 = math.pi / 8
        lo, hi = domain.a - theta0, domain.b - theta0
        grid = np.linspace(lo, hi, 101)
        seed_rows = [(), (grid[37],), (0.1, 0.1), (lo - 1e-15,), (hi + 1e-15, hi),
                     (-0.2, 0.31, grid[80], 0.05), (0.3,), (grid[3], grid[3], -0.1)]
        ms = [1, 2, 5, 20, 50, 100, 300, 1000]
        got = echrb_block(theta0, ms, model, domain, seed_rows)
        for m, seeds, ech in zip(ms, seed_rows, got):
            want = scalar_echrb(theta0, m, model, domain, seeds)
            have = (ech.value, ech.argmax["lambda1"], ech.argmax["lambda2"],
                    ech.argmax["a_coefficient"])
            assert all(_same(g, w) for g, w in zip(have, want)), (m, seeds, have, want)

    def test_strided_blocks_equal_the_whole_block(self, model, domain):
        ms = list(range(1, 41))
        whole = chrb_block(T0, ms, model, domain)
        for j in range(3):
            assert chrb_block(T0, ms[j::3], model, domain) == whole[j::3]
        seeds = [[r.argmax["lambda"]] for r in whole]
        whole_e = echrb_block(T0, ms, model, domain, seeds)
        assert echrb_block(T0, ms[1::3], model, domain, seeds[1::3]) == whole_e[1::3]

    @pytest.mark.parametrize("theta0", [math.pi / 4, math.pi / 8, math.pi / 3])
    @pytest.mark.parametrize("m", [1, 2, 5, 20, 100, 1000])
    def test_stacked_barankin_equals_barankin_at(self, model, domain, theta0, m):
        # one barankin_at per placement, excluded ones (a ModelError or NumericalFailure
        # there) scoring -inf: too close to theta0 or to each other, ridged Gram
        # matrices (every one at m = 1) and non-finite ones (far points at m = 1000)
        rng = np.random.default_rng(m)
        p0p, p0m = _single_shot_probs(model, theta0, domain)
        for n in (1, 2, 3):
            placements = rng.uniform(domain.a, domain.b, size=(150, n))
            placements[0, 0] = theta0 + 1e-10
            if n > 1:
                placements[1, 1] = placements[1, 0] + 1e-10
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _barankin_values(theta0, m, model, placements, p0p, p0m)
            kinds = {"ridged": 0, "excluded": 0}
            for row, value in zip(placements, got):
                try:
                    report = barankin_at(theta0, m, model, row, domain)
                except (ModelError, NumericalFailure):
                    assert value == -math.inf
                    kinds["excluded"] += 1
                    continue
                assert value == report.value
                kinds["ridged"] += report.diagnostics["ridge_used"]
            assert kinds["excluded"] >= (2 if n > 1 else 1)
            if m == 1 and n > 1:
                assert kinds["ridged"] == len(placements) - kinds["excluded"]
            if m == 1000 and theta0 != math.pi / 4:
                # at pi/4, s <= 2 and 2^1000 is finite
                assert kinds["excluded"] > 2

    def test_non_finite_gram_row_scores_minus_inf(self, model, domain):
        # far test points at m = 1000: s = 6.8 at theta0 = pi/8 and s^m overflows;
        # barankin_at raises, the stack does not
        theta0 = math.pi / 8
        far, near = [0.05, 1.5], [theta0 + 0.01, theta0 - 0.01]
        with pytest.raises(NumericalFailure, match="non-finite"):
            barankin_at(theta0, 1000, model, far, domain)
        p0p, p0m = _single_shot_probs(model, theta0, domain)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _barankin_values(theta0, 1000, model, np.array([far, near]), p0p, p0m)
        assert got[0] == -math.inf
        assert got[1] == barankin_at(theta0, 1000, model, near, domain).value

    def test_wholly_excluded_row_names_its_cell(self, model, domain, monkeypatch):
        # every offset at m = 7 alone gets the zero denominator s^m - 1 = 0
        real = fbound_module._gram_power
        monkeypatch.setattr(fbound_module, "_gram_power",
                            lambda m, inc: np.where(np.asarray(m) == 7, 0.0, real(m, inc)))
        cell = rf"m=7, theta0={T0!r}".replace(".", r"\.")
        with pytest.raises(NoAdmissibleOffsetError, match=cell):
            chrb_block(T0, [5, 6, 7, 8], model, domain)
        with pytest.raises(NoAdmissibleOffsetError, match=cell):
            echrb_block(T0, [5, 6, 7, 8], model, domain)


class TestIdentifiability:
    # N (b - a) = 3 pi / 2 > pi: cos(3 theta) takes some value twice on [0, pi/2],
    # and chrb used to return m * ChRB = 2.3e20 at the aliased offset pi/6.
    # Each entry point maps (model, domain, theta0) to the values it reports.
    ENTRY_POINTS = {
        "chrb": lambda model, domain, t0: [chrb(t0, 20, model, domain=domain).value],
        "echrb": lambda model, domain, t0: [echrb(t0, 20, model, domain=domain).value],
        "barankin_at": lambda model, domain, t0: [
            barankin_at(t0, 20, model, [t0 + 0.1], domain=domain).value],
        "barankin": lambda model, domain, t0: [
            barankin(t0, 20, model, (t0 + 0.1, t0 - 0.1), domain).value],
        "hierarchy_report": lambda model, domain, t0: [
            r.value for r in hierarchy_report(t0, 20, model, domain)],
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_identifiable_domain_raises(self, domain, entry):
        with pytest.raises(ModelError, match=r"not identifiable for model.N=3: N\*\[a, b\] = "):
            self.ENTRY_POINTS[entry](GhzParityModel(3), domain, T0)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_straddling_domain_raises(self, entry):
        # N (b - a) = 3 < pi, but [-0.3, 1.2] holds 0, where cos(2 theta) turns:
        # chrb used to return m * ChRB = 8.4e19 at the mirror phase -theta0
        with pytest.raises(ModelError, match=r"\[-0.3, 1.2\] is not identifiable for model.N=2"):
            self.ENTRY_POINTS[entry](GhzParityModel(2), PhaseDomain(-0.3, 1.2), 0.1)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_width_pi_over_n_accepted(self, entry):
        # N (b - a) = pi, up to the rounding of pi / 3
        values = self.ENTRY_POINTS[entry](GhzParityModel(3), PhaseDomain(0.0, math.pi / 3),
                                          math.pi / 6)
        assert all(math.isfinite(v) and v > 0.0 for v in values)
