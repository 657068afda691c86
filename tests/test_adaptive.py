import math

import numpy as np
import pytest
from scipy.special import ndtr

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import estimator as est
from npivband.bootstrap import MultiplierPlan
from npivband.errors import ConfigurationError

CUBIC = bs.BasisSpec(4, 0)
ISPEC = bs.InstrumentSpec(CUBIC, q=2)


def _npiv_sample(n=500, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    v = rng.standard_normal(n)
    u = 0.75 * v + math.sqrt(1 - 0.75**2) * rng.standard_normal(n)
    d = rng.integers(0, 2, n)
    x = ndtr(d * (z + v) + (1 - d) * v)
    w = ndtr(z)
    y = np.sin(4 * x) * np.log(x) + u
    return est.Sample(y, x, w)


class TestJHatMaxRegression:
    def test_upsilon(self):
        assert ad.upsilon(1000) == 1.0
        assert ad.upsilon(10_000) == 1.0
        assert ad.upsilon(round(math.e**20)) == pytest.approx(16.0, rel=1e-3)

    def test_n_1000(self):
        # 131 sqrt(log 131) ~ 289 <= 316.2 < 610 ~ 259 sqrt(log 259)
        assert ad._j_hat_max_regression(1000, CUBIC, []) == 131

    def test_n_10000(self):
        # 259*2.356 ~ 610 <= 1000 < 515*2.498 ~ 1287
        assert ad._j_hat_max_regression(10_000, CUBIC, []) == 259

    def test_upsilon_shrinks_j_max(self):
        # exercise the bracket rule directly at a symbolic huge n: upsilon = 16
        # moves the crossing down relative to upsilon = 1
        flags = []
        n_sym = round(math.e**20)
        with_ups = ad._j_hat_max_regression(n_sym, CUBIC, flags)
        target = 10.0 * math.sqrt(n_sym)
        cands = bs.dimension_grid(CUBIC, n_sym)
        no_ups = max(j for j in cands if ad._j_log_rate(j) <= target)
        assert with_ups < no_ups

    def test_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ad._j_hat_max_regression(1, CUBIC, [])


class TestJHatMaxNpiv:
    def test_shat_one_collapse(self):
        # with s_hat == 1 the rule reduces to J sqrt(log J) <= 10 sqrt(n)
        class _Unit:
            n = 1000
            x_spec = CUBIC

            def candidate_dims(self):
                return bs.dimension_grid(CUBIC, 600)

            def next_dim(self, j):
                level = bs.resolution_for_dimension(CUBIC, j)
                return 2 ** (level + 1) + 3

            def shat(self, j):
                return 1.0

        flags = []
        assert ad._j_hat_max_npiv(_Unit(), flags) == 131
        assert not flags

    def test_ill_posed_smaller_than_unit(self):
        sample = _npiv_sample(n=800, seed=3)
        j_data = ad._j_hat_max_npiv(est.SieveBackend(sample, est.npiv_model(CUBIC, ISPEC)), [])
        j_unit = ad._j_hat_max_regression(800, CUBIC, [])  # upsilon(800)=1, the s=1 rule
        assert j_data < j_unit

    def test_left_violation_flagged(self):
        class _Tiny:
            n = 1000
            x_spec = CUBIC

            def candidate_dims(self):
                return bs.dimension_grid(CUBIC, 600)

            def next_dim(self, j):
                level = bs.resolution_for_dimension(CUBIC, j)
                return 2 ** (level + 1) + 3

            def shat(self, j):
                return 1e-6  # hopeless instruments

        flags = []
        with pytest.warns(RuntimeWarning):
            assert ad._j_hat_max_npiv(_Tiny(), flags) == 4
        assert "jmax_left_inequality_violated" in flags


class TestSelect:
    def test_index_set_and_alpha(self):
        sample = _npiv_sample(n=600, seed=1)
        sel = ad.select(sample, CUBIC, ISPEC, plan=MultiplierPlan(100, 0), grid=np.linspace(0.01, 0.99, 60))
        jm = sel.j_hat_max
        lower = 0.1 * math.log(jm) ** 2
        assert sel.index_set == tuple(j for j in bs.dimension_grid(CUBIC, jm) if j >= lower)
        assert sel.index_set[-1] == sel.j_hat_max
        assert sel.alpha_hat == pytest.approx(min(0.5, math.sqrt(math.log(jm) / jm)))
        assert sel.j_tilde in sel.index_set
        assert sel.j_tilde == min(sel.j_hat, sel.j_hat_n)
        assert sel.a_hat == pytest.approx(max(0.0, math.log(math.log(sel.j_tilde))))

    def test_monotone_stopping(self):
        sample = _npiv_sample(n=600, seed=2)
        sel = ad.select(sample, CUBIC, ISPEC, plan=MultiplierPlan(100, 1), grid=np.linspace(0.01, 0.99, 60))
        stats = sel.contrast_stats
        thresh = sel.lepski_factor * sel.theta_star
        # the selected j_hat passes its own test ...
        larger = [j for j in sel.index_set if j > sel.j_hat]
        if larger:
            assert max(stats[(sel.j_hat, j2)] for j2 in larger) <= thresh
        # ... and no smaller index passes
        for j in sel.index_set:
            if j >= sel.j_hat:
                break
            stat = max(stats[(j, j2)] for j2 in sel.index_set if j2 > j)
            assert stat > thresh

    def test_j_minus_rule(self):
        sample = _npiv_sample(n=600, seed=3)
        sel = ad.select(sample, CUBIC, ISPEC, plan=MultiplierPlan(100, 2), grid=np.linspace(0.01, 0.99, 60))
        if sel.j_tilde == sel.j_hat and any(j < sel.j_hat_n for j in sel.index_set):
            assert sel.j_minus_set == tuple(j for j in sel.index_set if j < sel.j_hat_n)
        else:
            assert sel.j_minus_set == sel.index_set

    def test_singleton_index_set_fallback(self):
        # when only one dimension is feasible the contrast set is empty: J_tilde
        # is the lone J and theta* falls back to the standard normal quantile so
        # band inflation stays defined
        rng = np.random.default_rng(4)
        n = 400
        x = rng.random(n)
        w = np.clip(x + 0.2 * rng.standard_normal(n), 0, 1)
        y = x + 0.2 * rng.standard_normal(n)
        backend = est.SieveBackend(est.Sample(y, x, w), est.npiv_model(CUBIC, ISPEC))
        backend.candidate_dims = lambda: [4]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sel = ad.run_selection(backend, MultiplierPlan(50, 0), "npiv", np.linspace(0, 1, 30))
        assert sel.index_set == (4,)
        assert sel.j_tilde == 4
        assert "singleton_index_set" in sel.flags
        from scipy.special import ndtri

        assert sel.theta_star == pytest.approx(float(ndtri(1 - sel.alpha_hat)))

    def test_scale_and_shift_invariance(self):
        sample = _npiv_sample(n=500, seed=5)
        plan = MultiplierPlan(150, 11)
        grid = np.linspace(0.01, 0.99, 50)
        base = ad.select(sample, CUBIC, ISPEC, plan=plan, grid=grid)
        scaled = ad.select(
            est.Sample(2.0 * sample.y, sample.x, sample.w), CUBIC, ISPEC, plan=plan, grid=grid
        )
        shifted = ad.select(
            est.Sample(sample.y + 5.0, sample.x, sample.w), CUBIC, ISPEC, plan=plan, grid=grid
        )
        assert scaled.j_tilde == base.j_tilde
        assert shifted.j_tilde == base.j_tilde
        assert scaled.theta_star == pytest.approx(base.theta_star, rel=1e-12)
        assert shifted.theta_star == pytest.approx(base.theta_star, rel=1e-6)

    def test_reproducible(self):
        sample = _npiv_sample(n=400, seed=6)
        plan = MultiplierPlan(100, 21)
        grid = np.linspace(0.01, 0.99, 40)
        a = ad.select(sample, CUBIC, ISPEC, plan=plan, grid=grid)
        b = ad.select(sample, CUBIC, ISPEC, plan=plan, grid=grid)
        assert a.j_tilde == b.j_tilde
        assert a.theta_star == b.theta_star

    def test_order_one_selection_runs(self):
        # Piecewise-constant (order-1) splines on dyadic cells, step-function instruments one order up.
        haar = bs.BasisSpec(1, 0)
        sel = ad.select(_npiv_sample(n=500, seed=8), haar, bs.InstrumentSpec(haar, q=2),
                        plan=MultiplierPlan(100, 0), grid=np.linspace(0.01, 0.99, 40))
        dyadic = {2**level for level in range(12)}
        assert set(sel.index_set) <= set(bs.dimension_grid(haar, sel.j_hat_max)) <= dyadic
        assert sel.j_tilde in sel.index_set
        assert np.all(np.isfinite(sel.varfield.fitted(sel.j_tilde)))

    def test_regression_mode_sets_j_tilde_to_j_hat(self):
        rng = np.random.default_rng(7)
        n = 700
        x = rng.random(n)
        y = np.sin(6 * x) + 0.4 * rng.standard_normal(n)
        sel = ad.select(est.Sample(y, x, x), CUBIC, mode="regression", plan=MultiplierPlan(100, 0))
        assert sel.j_tilde == sel.j_hat
        assert sel.j_hat_max == ad._j_hat_max_regression(n, CUBIC, [])

    def test_npiv_requires_instruments(self):
        sample = _npiv_sample(n=100)
        with pytest.raises(ConfigurationError):
            ad.select(sample, CUBIC, None, mode="npiv")

    def test_contrast_sd_once_per_pair(self, monkeypatch):
        # The statistics and the draws divide by the same scales, one sd per pair.
        calls = []
        contrast_sd = est.VarianceField.contrast_sd
        monkeypatch.setattr(est.VarianceField, "contrast_sd",
                            lambda self, j, j2: calls.append((j, j2)) or contrast_sd(self, j, j2))
        sel = ad.select(_npiv_sample(n=600, seed=2), CUBIC, ISPEC, plan=MultiplierPlan(100, 1),
                        grid=np.linspace(0.01, 0.99, 60))
        pairs = [(j, j2) for i, j in enumerate(sel.index_set) for j2 in sel.index_set[i + 1:]]
        assert len(pairs) > 1 and sorted(calls) == pairs
        assert sorted(sel.contrast_stats) == pairs

    def test_no_grams_outlive_the_selection(self):
        # The bracket forms Grams for s_hat alone; none are kept once the index set is fitted.
        sel = ad.select(_npiv_sample(n=600, seed=1), CUBIC, ISPEC, plan=MultiplierPlan(50, 0),
                        grid=np.linspace(0.01, 0.99, 30))
        assert not sel.backend._grams
        assert sorted(sel.backend._fits) == list(sel.index_set)


# Hand-made statistics over the index set (4, 5, 7, 11) with J_hat_max = 11 and theta* = 2,
# so the threshold is 1.1 * 2: the pairs from J fail (3) when J is in ``failing`` and
# pass otherwise (2.1, which only the factor 1.1 lets through).
INDEX = (4, 5, 7, 11)


def _stats(failing, index_set=INDEX):
    return {(j, j2): 3.0 if j in failing else 2.1 for i, j in enumerate(index_set) for j2 in index_set[i + 1:]}


class TestLepski:
    def test_npiv_takes_j_hat_below_j_hat_n(self):
        rule = ad.lepski(INDEX, 11, _stats({4}), 2.0, "npiv")
        assert (rule["j_hat"], rule["j_hat_n"], rule["j_tilde"]) == (5, 7, 5)
        assert rule["j_minus_set"] == (4, 5)
        assert rule["a_hat"] == math.log(math.log(5)) and rule["flags"] == ()

    def test_j_tilde_and_j_minus_by_mode(self):
        stats = _stats({4, 5, 7})
        npiv = ad.lepski(INDEX, 11, stats, 2.0, "npiv")
        assert (npiv["j_hat"], npiv["j_hat_n"], npiv["j_tilde"]) == (11, 7, 7)
        assert npiv["j_minus_set"] == INDEX
        assert npiv["a_hat"] == math.log(math.log(7))
        regression = ad.lepski(INDEX, 11, stats, 2.0, "regression")
        assert (regression["j_hat"], regression["j_hat_n"], regression["j_tilde"]) == (11, 7, 11)
        assert regression["j_minus_set"] == (4, 5)
        assert regression["a_hat"] == math.log(math.log(11))

    def test_tie_at_threshold_passes(self):
        stats = _stats({4})
        stats[(5, 7)] = stats[(5, 11)] = ad.LEPSKI_FACTOR * 2.0
        assert ad.lepski(INDEX, 11, stats, 2.0, "npiv")["j_hat"] == 5
        stats[(5, 11)] = np.nextafter(ad.LEPSKI_FACTOR * 2.0, np.inf)
        assert ad.lepski(INDEX, 11, stats, 2.0, "npiv")["j_hat"] == 7

    def test_nan_statistic_fails(self):
        # A NaN fails wherever it stands among a J's pairs.
        stats = _stats(set())
        stats[(4, 11)] = math.nan
        assert ad.lepski(INDEX, 11, stats, 2.0, "npiv")["j_hat"] == 5
        stats[(4, 5)] = math.nan
        assert ad.lepski(INDEX, 11, stats, 2.0, "npiv")["j_hat"] == 5

    def test_last_j_passes_vacuously(self):
        rule = ad.lepski(INDEX, 11, _stats({4, 5, 7}), 0.0, "regression")
        assert rule["j_hat"] == 11

    def test_singleton_flags_degenerate_j_hat_n_and_full_j_minus(self):
        rule = ad.lepski((4,), 4, {}, 1.5, "npiv")
        assert (rule["j_hat"], rule["j_hat_n"], rule["j_tilde"], rule["j_minus_set"]) == (4, 4, 4, (4,))
        assert rule["flags"] == ("j_hat_n_degenerate", "j_minus_fallback_full_set")

    def test_j_minus_fallback_alone(self):
        rule = ad.lepski((4, 5), 5, _stats(set(), (4, 5)), 2.0, "npiv")
        assert (rule["j_tilde"], rule["j_hat_n"], rule["j_minus_set"]) == (4, 4, (4, 5))
        assert rule["flags"] == ("j_minus_fallback_full_set",)

    @pytest.mark.parametrize("index_set", [(2, 3, 5), (1, 2)])
    def test_a_hat_clamped_at_zero(self, index_set):
        rule = ad.lepski(index_set, index_set[-1], _stats(set(), index_set), 2.0, "npiv")
        assert rule["j_tilde"] == index_set[0] and rule["a_hat"] == 0.0
        assert rule["flags"][-1] == "a_hat_clamped_at_zero"
