import itertools
import math

import numpy as np
import pytest

import phasebound.engine as engine_module
import phasebound.model as model_module
import phasebound.rbound as rbound_module
from oracles import (
    OutcomeTally,
    SeededSampler,
    derive_seed,
    expect_over_tallies,
    sample_tallies,
    sample_tally,
)
from phasebound.cli import main
from phasebound.engine import expect_values_over_tallies, tally_column
from phasebound.model import ModelError
from phasebound.numerics import NumericalFailure

_MASK = (1 << 64) - 1


def _splitmix64_reference(seed, count):
    """Straightforward integer-arithmetic splitmix64, independent of numpy."""
    out = []
    state = seed & _MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        z ^= z >> 31
        out.append(z)
    return out


class TestOutcomeTally:
    def test_validation(self):
        with pytest.raises(ModelError):
            OutcomeTally(3, 2)
        with pytest.raises(ModelError):
            OutcomeTally(-1, 2)

    def test_k_minus(self):
        assert OutcomeTally(3, 7).k_minus == 4


class TestExactExpectation:
    def test_normalisation(self, model):
        for theta0, m in ((0.2, 1), (1.1, 7), (math.pi / 4, 40)):
            assert expect_over_tallies(lambda t: 1.0, theta0, m, model) == pytest.approx(
                1.0, abs=1e-13)

    def test_binomial_mean(self, model):
        # mean of k/m is p_plus(theta0); closed-form binomial moment
        value = expect_over_tallies(lambda t: t.k_plus / t.m, math.pi / 3, 10, model)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_channel(self, model):
        value = expect_over_tallies(lambda t: 1.0 if t.k_plus == t.m else 0.0, 0.0, 6, model)
        assert value == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 12])
    def test_matches_sequence_enumeration(self, model, m):
        # brute force over all 2^m raw outcome sequences
        theta0 = 0.83
        pp = float(model.prob_plus(theta0))
        pm = 1.0 - pp

        def f(tally):
            return math.sin(tally.k_plus) + tally.k_plus**2 / (tally.m + 1)

        brute = 0.0
        for seq in itertools.product((1, -1), repeat=m):
            k = sum(1 for s in seq if s == 1)
            brute += f(OutcomeTally(k, m)) * pp**k * pm**(m - k)
        exact = expect_over_tallies(f, theta0, m, model)
        assert exact == pytest.approx(brute, abs=1e-12)

    def test_non_finite_values_rejected(self, model):
        with pytest.raises(NumericalFailure):
            expect_over_tallies(lambda t: math.inf if t.k_plus == 1 else 0.0, 0.4, 3, model)

    def test_vector_form_matches(self, model):
        values = np.arange(8.0) ** 1.5
        loop = expect_over_tallies(lambda t: values[t.k_plus], 0.6, 7, model)
        assert expect_values_over_tallies(values, tally_column(0.6, 7, model)) == loop


class TestTallyColumnMemo:
    def test_column_is_kept_and_read_only(self, model):
        tally_column.cache_clear()
        column = tally_column(0.6, 7, model)
        assert tally_column(0.6, 7, model) is column
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1.0

    @pytest.mark.parametrize("args,ms", [(["fig3", "--m.max", "20"], list(range(1, 21))),
                                         (["bounds", "--m.list", "20"], [20])],
                             ids=["fig3", "bounds"])
    def test_row_builds_one_column(self, tmp_path, monkeypatch, args, ms):
        # the frequentist risk and both likelihood-averaged Bayesian sums of a row share
        # one kernel call on the one-phase theta0 grid
        calls = []
        for module in (model_module, engine_module, rbound_module):   # each binding of it
            real = module.tally_pmf_matrix

            def counting(model, m, thetas, *rest, _real=real, **kw):
                if np.size(thetas) == 1:
                    calls.append(m)
                return _real(model, m, thetas, *rest, **kw)

            monkeypatch.setattr(module, "tally_pmf_matrix", counting)
        tally_column.cache_clear()
        assert main([*args, "--prior.alpha", "10", "--out", str(tmp_path / "out.csv")]) == 0
        assert sorted(calls) == ms
        assert tally_column.cache_info().currsize == 1     # no earlier row's column is kept


class TestSeededSampler:
    def test_known_splitmix_vector(self):
        # canonical first output of splitmix64 seeded with 0
        sampler = SeededSampler(0)
        u = sampler.uniforms(1)[0]
        assert u == (0xE220A8397B1DCDAF >> 11) * 2.0**-53

    def test_matches_reference_implementation(self):
        for seed in (0, 42, 2**64 - 1, 123456789):
            sampler = SeededSampler(seed)
            got = sampler.uniforms(64)
            want = [(z >> 11) * 2.0**-53 for z in _splitmix64_reference(seed, 64)]
            np.testing.assert_array_equal(got, np.array(want))

    def test_reproducible_and_advancing(self):
        a, b = SeededSampler(9), SeededSampler(9)
        first = a.uniforms(10)
        np.testing.assert_array_equal(first, b.uniforms(10))
        assert not np.array_equal(first, a.uniforms(10))

    def test_derive_seed_decorrelates(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100


class TestTallySampling:
    def test_deterministic_channels(self, model):
        s = SeededSampler(1)
        assert sample_tally(s, 0.0, 7, model).k_plus == 7
        assert sample_tally(s, math.pi / 2, 7, model).k_plus == 0

    def test_large_m_within_confidence(self, model):
        s = SeededSampler(42)
        t = sample_tally(s, math.pi / 4, 10_000, model)
        sigma = 0.5 / math.sqrt(10_000)
        assert abs(t.k_plus / 10_000 - 0.5) <= 5 * sigma

    def test_monte_carlo_agrees_with_exact_sum(self, model):
        theta0, m, n = 0.6, 10, 100_000
        ks = sample_tallies(SeededSampler(2024), theta0, m, model, n)
        f = ks.astype(float) ** 2
        exact = expect_over_tallies(lambda t: float(t.k_plus) ** 2, theta0, m, model)
        se = float(np.std(f, ddof=1)) / math.sqrt(n)
        assert abs(float(np.mean(f)) - exact) <= 6 * se

    def test_empirical_pmf(self, model):
        # chi-square style sanity: empirical frequencies near exact pmf
        from phasebound.model import tally_pmf_matrix
        theta0, m, n = 0.9, 4, 50_000
        ks = sample_tallies(SeededSampler(5), theta0, m, model, n)
        pmf = tally_pmf_matrix(model, m, [theta0])[:, 0]
        for k in range(m + 1):
            emp = float(np.mean(ks == k))
            se = math.sqrt(pmf[k] * (1 - pmf[k]) / n)
            assert abs(emp - pmf[k]) <= 6 * max(se, 1e-6)
