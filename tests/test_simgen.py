import math

import numpy as np
import pytest
from scipy.special import erf, erfinv

from npivband import adaptive as ad
from npivband import basis as bs
from npivband import estimator as est
from npivband import simgen as sg
from npivband.bootstrap import MultiplierPlan
from npivband.errors import ConfigurationError, DomainError


class TestTruthFunctions:
    def test_npiv_sine_log(self):
        design = sg.get_design("npiv_sine_log")
        x = np.array([0.5])
        assert design.truth.h(x)[0] == pytest.approx(math.sin(2.0) * math.log(0.5), abs=1e-12)
        # finite-difference oracle for the derivative
        h = 1e-6
        fd = (design.truth.h(np.array([0.5 + h])) - design.truth.h(np.array([0.5 - h]))) / (2 * h)
        assert design.truth.dh(x)[0] == pytest.approx(fd[0], abs=1e-6)

    def test_reg_wiggly(self):
        design = sg.get_design("reg_wiggly")
        # sin(7.5 pi) = -1, so the value at 0.5 is -cos(0.5)
        assert design.truth.h(np.array([0.5]))[0] == pytest.approx(-math.cos(0.5), abs=1e-12)

    def test_lognormal_formulas_match_literal_expressions(self):
        mu, sigma = -2.0, 1.2
        pis = np.array([1e-3, 0.01, 0.05, 0.1, 0.3, 0.5])
        literal_eps = mu + sigma * np.sqrt(2) * erfinv(1 - 2 * pis)
        np.testing.assert_allclose(sg.lognormal_log_eps(pis, mu, sigma), literal_eps, atol=1e-12)
        c = sigma**2 / np.sqrt(2)
        literal_rho = mu + sigma**2 / 2 - np.log(2 * pis) + np.log(1 + erf(c - erfinv(1 - 2 * pis)))
        np.testing.assert_allclose(sg.lognormal_log_rho(pis, mu, sigma), literal_rho, atol=1e-12)
        literal_el = -1 + 2 * pis * np.exp(-c * (c - 2 * erfinv(1 - 2 * pis))) / (
            1 + erf(c - erfinv(1 - 2 * pis))
        )
        np.testing.assert_allclose(sg.lognormal_elasticity(pis, sigma), literal_el, atol=1e-12)

    def test_elasticity_is_derivative_of_log_rho(self):
        # finite-difference oracle in log pi
        sigma = 1.2
        log_pi = np.log(np.array([1e-3, 0.01, 0.1, 0.3, 0.5]))
        h = 1e-6
        fd = (
            sg.lognormal_log_rho(np.exp(log_pi + h), -2.0, sigma)
            - sg.lognormal_log_rho(np.exp(log_pi - h), -2.0, sigma)
        ) / (2 * h)
        np.testing.assert_allclose(sg.lognormal_elasticity(np.exp(log_pi), sigma), fd, atol=1e-6)

    def test_inversion_closed_form_matches_bisection(self):
        # bisection oracle for the extensive-margin inversion
        mu, sigma = -2.0, 1.2
        for log_eps in (-1.5, -0.3, 0.8, 2.0):
            lo, hi = 1e-12, 1 - 1e-12
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if sg.lognormal_log_eps(mid, mu, sigma) > log_eps:
                    lo = mid
                else:
                    hi = mid
            assert sg.pi_from_log_eps(log_eps, mu, sigma) == pytest.approx(
                0.5 * (lo + hi), abs=1e-10
            )

    def test_pareto_truth_linear_on_transformed_scale(self):
        design = sg.get_design("trade_pareto")
        x = np.linspace(0.4, 0.9, 7)
        np.testing.assert_allclose(design.truth.h(x), -0.23 * 10 * (x - 1), atol=1e-12)
        np.testing.assert_allclose(design.truth.dh(x), -2.3, atol=1e-12)


class TestGenerate:
    @pytest.mark.parametrize("name", sg.DESIGN_NAMES)
    def test_deterministic_and_in_cube(self, name):
        design = sg.get_design(name)
        s1, _ = sg.generate(design, 300, seed=42)
        s2, _ = sg.generate(design, 300, seed=42)
        np.testing.assert_array_equal(s1.y, s2.y)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(s1.w, s2.w)
        assert s1.x.min() >= 0 and s1.x.max() <= 1
        assert s1.w.min() >= 0 and s1.w.max() <= 1

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            sg.generate(sg.get_design("reg_wiggly"), 5, seed=0)

    def test_unknown_design(self):
        with pytest.raises(ConfigurationError):
            sg.get_design("nope")

    def test_truth_and_generator_share_formula_source(self):
        # zero noise: the outcome is exactly the truth evaluated at the
        # generated regressor (excluding clamped observations)
        calib = sg.TradeCalibration(noise_cov=((0.0, 0.0), (0.0, 0.0)))
        design = sg.get_design("trade_lognormal", calibration=calib)
        sample, truth = sg.generate(design, 500, seed=1)
        x0 = sample.x[:, 0]
        keep = x0 > 0
        np.testing.assert_allclose(sample.y[keep], truth.h(x0[keep]), atol=1e-10)

    def test_trade_clamp_rule_applied(self):
        design = sg.get_design("trade_lognormal")
        sample, _ = sg.generate(design, 2000, seed=3)
        # x is the clamped log participation share: max{0, log(pi)/10 + 1}
        assert sample.x.min() >= 0.0
        assert sample.x.max() < 1.0


_SMALL_SET = (4, 5, 7, 11, 19)

#: Each replication's (J~, index set, flags) of run_mc(design, [600], 2, B=99, base_seed=11).
PINNED_SELECTIONS = {
    "trade_lognormal": [(4, _SMALL_SET, ()), (4, _SMALL_SET, ())],
    "trade_pareto": [(4, _SMALL_SET, ()), (4, _SMALL_SET, ())],
    "npiv_sine_log": [(4, _SMALL_SET, ()), (4, (*_SMALL_SET, 35), ())],
    "reg_wiggly": [(35, (*_SMALL_SET, 35, 67), ()), (35, (*_SMALL_SET, 35, 67), ())],
}


class TestRunMc:
    @pytest.mark.parametrize("name", sorted(PINNED_SELECTIONS))
    def test_selections_are_pinned(self, name, monkeypatch):
        # A rounding change that flips a J_hat_max bracket or a Lepski decision fails here.
        seen, select = [], ad.select

        def capture(*args, **kwargs):
            sel = select(*args, **kwargs)
            seen.append((sel.j_tilde, sel.index_set, sel.flags))
            return sel

        monkeypatch.setattr(ad, "select", capture)
        report = sg.run_mc(name, [600], 2, plan=MultiplierPlan(n_draws=99), base_seed=11)
        assert seen == PINNED_SELECTIONS[name]
        assert report.j_tilde[600].tolist() == [j for j, _, _ in seen]
        assert report.flags[600] == [flags for _, _, flags in seen]

    def test_noiseless_spanned_truth(self):
        # linear truth inside the cubic span with no noise: loss ~ 0 and the
        # truth is covered in the single replication
        calib = sg.TradeCalibration(noise_cov=((0.0, 0.0), (0.0, 0.0)))
        design = sg.get_design("trade_pareto", calibration=calib)
        report = sg.run_mc(design, [400], 1, plan=MultiplierPlan(60, 0), det_js=())
        row = report.row(400, "data_driven", 0)
        assert row.mean_loss < 1e-8
        assert row.coverage95 == 1.0

    def test_report_structure_and_determinism(self):
        plan = MultiplierPlan(60, 0)
        r1 = sg.run_mc("trade_pareto", [300], 3, plan=plan, det_js=(5,), base_seed=9)
        r2 = sg.run_mc("trade_pareto", [300], 3, plan=plan, det_js=(5,), base_seed=9)
        for a, b in zip(r1.rows, r2.rows):
            assert vars(a) == vars(b)
        np.testing.assert_array_equal(r1.j_tilde[300], r2.j_tilde[300])
        dd = r1.row(300, "data_driven", 1)
        assert dd.reps == 3 and 0 <= dd.coverage95 <= 1
        fixed = r1.row(300, "J=5", 1)
        assert fixed.mean_width_ratio is not None

    def test_report_does_not_depend_on_n_workers(self):
        # Two sample sizes, so the pool's tasks span both and come back in order.
        plan = MultiplierPlan(60, 0)
        serial, *pooled = (
            sg.run_mc("trade_pareto", [300, 400], 2, plan=plan, det_js=(5,), base_seed=5, n_workers=w)
            for w in (1, 2, 4)
        )
        for report in pooled:
            assert [vars(r) for r in report.rows] == [vars(r) for r in serial.rows]
            assert report.flags == serial.flags
            for n in (300, 400):
                np.testing.assert_array_equal(report.j_tilde[n], serial.j_tilde[n])
                assert sorted(report.diagnostics[n]) == sorted(serial.diagnostics[n])
                for key, values in serial.diagnostics[n].items():
                    np.testing.assert_array_equal(report.diagnostics[n][key], values)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_replication_failure_is_identified(self, n_workers):
        design = sg.get_design("reg_wiggly", x_spec=bs.BasisSpec(4, 0, 2))  # broken on purpose
        with pytest.raises(RuntimeError, match="replication 0 failed for n=60") as info:
            sg.run_mc(design, [60], 2, plan=MultiplierPlan(20, 0), det_js=(), n_workers=n_workers)
        assert type(info.value.__cause__) is DomainError

    def test_worker_count_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="worker"):
            sg.run_mc("trade_pareto", [300], 1, plan=MultiplierPlan(20, 0), n_workers=0)

    @pytest.mark.parametrize("j_det", [1000, 131])
    def test_infeasible_fixed_dimension_rejected(self, j_det):
        # J=1000 is off the dimension grid; J=131 is on it but K(131) > n = 300
        with pytest.raises(ConfigurationError, match=f"J={j_det}"):
            sg.run_mc("trade_pareto", [300], 1, plan=MultiplierPlan(20, 0), det_js=(5, 7, j_det))

    def test_interval_validation(self):
        with pytest.raises(ConfigurationError):
            sg.run_mc("reg_wiggly", [100], 1, report_interval=(0.9, 0.1))

    def test_negative_base_seed_rejected_before_any_replication(self):
        with pytest.raises(ConfigurationError, match="base_seed"):
            sg.run_mc("trade_pareto", [300], 1, plan=MultiplierPlan(20, 0), base_seed=-1)

    def test_replications_do_not_depend_on_the_replication_count(self):
        # Replication r draws its streams from (base_seed, n, r) alone, so a
        # shorter study is a prefix of a longer one.
        plan = MultiplierPlan(60, 0)
        short = sg.run_mc("trade_pareto", [300], 2, plan=plan, det_js=(5,), base_seed=13)
        long = sg.run_mc("trade_pareto", [300], 3, plan=plan, det_js=(5,), base_seed=13)
        np.testing.assert_array_equal(short.j_tilde[300], long.j_tilde[300][:2])
        assert short.flags[300] == long.flags[300][:2]
        assert sorted(short.diagnostics[300]) == sorted(long.diagnostics[300])
        for key, values in short.diagnostics[300].items():
            np.testing.assert_array_equal(values, long.diagnostics[300][key][:2])

    def test_design_without_target_zero_has_rows_and_empty_diagnostics(self):
        design = sg.get_design("trade_pareto", targets=(1,))
        report = sg.run_mc(design, [300], 2, plan=MultiplierPlan(60, 0), det_js=(5,), base_seed=3)
        assert [(r.target, r.method) for r in report.rows] == [(1, "data_driven"), (1, "J=5")]
        assert all(r.reps == 2 and r.reject_rate is not None for r in report.rows)
        assert report.j_tilde[300].shape == (2,) and len(report.flags[300]) == 2
        assert sorted(report.diagnostics[300]) == ["a_hat", "sup_dev", "theta_star", "z_star"]
        for values in report.diagnostics[300].values():
            assert values.shape == (0,) and values.dtype == np.float64


class TestASweep:
    def test_huge_a_gives_full_coverage_and_monotone(self):
        values = sg.a_sweep(
            "trade_pareto", 300, 4, a_values=(0.0, 0.5, 50.0), plan=MultiplierPlan(60, 0),
            base_seed=4,
        )
        assert values[50.0] == 1.0
        ordered = [values[a] for a in (0.0, 0.5, 50.0)]
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))

    def test_design_without_target_zero_rejected(self):
        design = sg.get_design("trade_pareto", targets=(1,))
        with pytest.raises(ConfigurationError, match="target 0"):
            sg.a_sweep(design, 300, 1, a_values=(0.0,), plan=MultiplierPlan(20, 0))
