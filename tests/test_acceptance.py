"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Every tolerance is pinned here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import itertools
import math

import numpy as np

from oracles import (
    OutcomeTally,
    SeededSampler,
    expect_over_tallies,
    fisher_information_from_table,
    lbvm_reference,
    sample_tallies,
    ziv_zakai_shift_loop,
)
from phasebound.bbound import averaged_ghosh, ghosh_table
from phasebound.cli import main as cli_main
from phasebound.estimate import (
    GhzParityModel,
    MaximumLikelihoodEstimator,
    PosteriorMeanEstimator,
    frequentist_risk,
)
from phasebound.fbound import chrb, chrb_objective, hierarchy_report
from phasebound.numerics import family45_prior
from phasebound.rbound import (
    acrlb,
    avg_estimator_variance,
    avg_mse,
    bayes_chain_report,
    fvtb,
    ziv_zakai,
)

T0 = math.pi / 4


def report(number: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_fisher_constancy():
    worst = 0.0
    for n in (1, 2, 3):
        m = GhzParityModel(n)
        thetas = (np.arange(1000) + 0.5) / 1000 * (math.pi / 2)
        for theta in thetas:
            pp, dp = m.prob_plus(theta), m.dprob_dtheta(theta)
            probs, dprobs = [pp, 1.0 - pp], [dp, -dp]
            worst = max(worst, abs(fisher_information_from_table(probs, dprobs) - n * n))
    report(1, "Fisher information constant at N^2", worst < 1e-9, f"max |F - N^2| = {worst:.2e}")


def test_criterion_02_mle_asymptotics(model, domain):
    est = MaximumLikelihoodEstimator(model, domain)
    worst_bias = max(abs(frequentist_risk(est, T0, m, model).mean - T0)
                     for m in range(1, 101))
    scaled = 1000 * 4.0 * frequentist_risk(est, T0, 1000, model).variance
    gaps = [abs(frequentist_risk(est, T0, m, model).bias_derivative - 1.0)
            for m in (10, 100, 1000)]
    ok = worst_bias < 1e-12 and 0.95 <= scaled <= 1.05 and gaps[0] > gaps[1] > gaps[2]
    report(2, "MLE bias, scaled variance, derivative trend", ok,
           f"max bias {worst_bias:.1e}, mFVar(1000) {scaled:.4f}, |d-1| {gaps}")


def test_criterion_03_frequentist_hierarchy(model, domain):
    ok = True
    detail = ""
    for m in range(1, 101):
        v = [r.value for r in hierarchy_report(T0, m, model, domain)]
        if not (v[0] >= v[1] - 1e-9 and v[1] >= v[2] - 1e-9 and v[2] >= v[3] - 1e-9):
            ok, detail = False, f"chain broken at m={m}: {v}"
            break
    single_shot = chrb(T0, 1, model, domain=domain).value
    if abs(single_shot - (math.pi / 4) ** 2) > 1e-6:
        ok, detail = False, f"ChRB(m=1) = {single_shot}"
    report(3, "BB >= EChRB >= ChRB >= CRLB for m in 1..100", ok,
           detail or f"ChRB(m=1) = {single_shot:.9f}")


def test_criterion_04_chrb_crlb_limit(model):
    worst = max(abs(chrb_objective(T0, m, model, 1e-6) * m * 4.0 - 1.0)
                for m in (1, 10, 100))
    report(4, "ChRB objective at lambda = 1e-6 recovers the CRLB", worst < 1e-4,
           f"worst relative deviation {worst:.2e}")


def test_criterion_05_ghosh_dominance(model, grid, prior_battery):
    worst = -math.inf
    for prior in prior_battery.values():
        bayes = PosteriorMeanEstimator(model, prior)
        for m in range(1, 51):
            table = ghosh_table(bayes, m)
            worst = max(worst, float(np.max(table.ghosh - table.variance)))
    ref = PosteriorMeanEstimator(model, lbvm_reference(T0, 100, model, grid)).summary(0)
    gauss_gap = abs(ref.ghosh[0] - ref.variance[0])
    ok = worst <= 1e-9 and gauss_gap <= 1e-6
    report(5, "Ghosh bound below posterior variance; saturated on the Gaussian", ok,
           f"worst slack {worst:.2e}, Gaussian gap {gauss_gap:.2e}")


def test_criterion_06_bayes_below_frequentist_crlb(model, domain, flat):
    est = PosteriorMeanEstimator(model, flat)
    scaled = [m * averaged_ghosh(T0, m, est) for m in range(1, 21)]
    below = min(scaled) < 0.25
    respects = True
    for m in range(1, 51):
        risk = frequentist_risk(est, T0, m, model)
        if risk.variance < risk.bias_derivative**2 / (m * 4.0) - 1e-9:
            respects = False
            break
    report(6, "flat-prior averaged Ghosh dips below 1/F while the estimator "
              "variance respects its biased CRLB", below and respects,
           f"min m*aGB = {min(scaled):.4f}, biased CRLB respected: {respects}")


def test_criterion_07_random_parameter_chains(model, grid):
    ok, detail = True, ""
    for alpha in (1.0, 10.0):
        prior = family45_prior(alpha, grid)
        est = PosteriorMeanEstimator(model, prior)
        for m in range(1, 51):
            av = avg_estimator_variance(est, prior, m, model)
            ac = acrlb(est, prior, m, model)
            fv = fvtb(est, prior, m, model)
            chain = bayes_chain_report(est, m)
            if not (av >= ac - 1e-9 and ac >= fv - 1e-9):
                ok, detail = False, f"variance chain broken: alpha={alpha}, m={m}"
                break
            if not (chain.bayes_variance >= chain.agbr - 1e-9
                    and chain.agbr >= chain.van_trees - 1e-9):
                ok, detail = False, f"Bayes chain broken: alpha={alpha}, m={m}"
                break
        if not ok:
            break
    report(7, "averaged-variance and matched-prior bound chains, alpha in {1,10}",
           ok, detail or "all 100 cells hold")


def test_criterion_08_ziv_zakai_oracle(model, grid, flat):
    worst = 0.0
    for prior, m in itertools.product([flat, family45_prior(1.0, grid)], range(1, 11)):
        value = ziv_zakai(prior, m, model)
        oracle = ziv_zakai_shift_loop(prior, m, model)
        worst = max(worst, abs(value - oracle) / oracle)
    prior = family45_prior(1.0, grid)
    est = PosteriorMeanEstimator(model, prior)
    dominated = all(
        ziv_zakai(prior, m, model) <= avg_mse(est, prior, m, model) + 1e-9
        for m in (1, 5, 10))
    ok = worst <= 1e-12 and dominated
    report(8, "ZZB equals the shift-loop oracle; ZZB below the averaged MSE",
           ok, f"worst |ZZB - oracle| / oracle = {worst:.2e}, ZZB dominated: {dominated}")


def test_criterion_09_convergence_at_large_m(model, grid):
    prior = family45_prior(10.0, grid)
    m = 1000
    chain = bayes_chain_report(PosteriorMeanEstimator(model, prior), m)
    zz = ziv_zakai(prior, m, model)
    values = {"aGBr": chain.agbr, "VTB": chain.van_trees, "ZZB": zz,
              "BayesVar": chain.bayes_variance}
    deviations = {k: abs(m * v * 4.0 - 1.0) for k, v in values.items()}
    ok = all(d <= 0.05 for d in deviations.values())
    report(9, "m-scaled bounds within 5% of 1/F at m = 1000", ok,
           ", ".join(f"{k} {d:.3%}" for k, d in deviations.items()))


def test_criterion_10_engine_exactness(model):
    worst = 0.0
    theta0 = 0.83

    def f(tally):
        return math.cos(tally.k_plus) + tally.k_plus**2

    pp = float(model.prob_plus(theta0))
    for m in range(1, 13):
        brute = math.fsum(
            f(OutcomeTally(sum(1 for s in seq if s == 1), m))
            * pp ** sum(1 for s in seq if s == 1)
            * (1 - pp) ** (m - sum(1 for s in seq if s == 1))
            for seq in itertools.product((1, -1), repeat=m))
        worst = max(worst, abs(expect_over_tallies(f, theta0, m, model) - brute))
    ks = sample_tallies(SeededSampler(99), theta0, 10, model, 100_000)
    samples = np.cos(ks) + ks.astype(float) ** 2
    exact = expect_over_tallies(f, theta0, 10, model)
    se = float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    mc_gap = abs(float(np.mean(samples)) - exact)
    ok = worst <= 1e-12 and mc_gap <= 6 * se
    report(10, "tally sums equal 2^m enumeration; Monte Carlo within 6 SE", ok,
           f"worst enumeration gap {worst:.2e}, MC gap {mc_gap:.2e} vs 6SE {6 * se:.2e}")


def test_criterion_11_cli_determinism(tmp_path, monkeypatch):
    args = ["fig2", "--m.list", "1,2,3,4,5,6,7,8,9,10", "--out", "out.csv"]
    blobs = []
    for i in range(3):
        rundir = tmp_path / f"run{i}"
        rundir.mkdir()
        monkeypatch.chdir(rundir)
        assert cli_main(args) == 0
        blobs.append((rundir / "out.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(11, "CLI output byte-identical across runs", ok,
           f"{len(blobs[0])} bytes")
