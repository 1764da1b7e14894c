"""Integration tests for the experiment modules (reduced configurations).

Full-size experiment runs belong to the benchmark harness; these tests run
each experiment at a reduced sweep and assert the paper's qualitative
claims hold on the reduced data.
"""

import numpy as np
import pytest

from repro.core import Table1Case
from repro.experiments import (
    ablations,
    damping_map,
    fig1_iv_fit,
    fig2_waveforms,
    fig3_model_comparison,
    fig4_capacitance,
    table1_formulas,
)


@pytest.fixture(scope="module")
def fig1():
    return fig1_iv_fit.run()


@pytest.fixture(scope="module")
def fig2():
    return fig2_waveforms.run()


@pytest.fixture(scope="module")
def fig3():
    return fig3_model_comparison.run(driver_counts=(2, 8, 16))


@pytest.fixture(scope="module")
def fig4():
    return fig4_capacitance.run(driver_counts=(2, 8, 16))


@pytest.fixture(scope="module")
def table1():
    return table1_formulas.run()


class TestFig1:
    def test_fit_good_in_strong_region(self, fig1):
        assert fig1.report.max_relative_error < 0.06

    def test_v0_above_device_threshold(self, fig1):
        """The paper's 0.61 V vs 0.5 V observation."""
        assert fig1.params.v0 > fig1.device_vth + 0.05

    def test_lambda_above_one(self, fig1):
        assert fig1.params.lam > 1.0

    def test_curves_equally_spaced(self, fig1):
        """Linearity in Vs: adjacent-curve spacings within 15% of each other."""
        spacings = fig1.curve_spacings()
        assert spacings.max() / spacings.min() < 1.15

    def test_modeled_grid_shape(self, fig1):
        assert fig1.modeled.shape == fig1.surface.ids.shape

    def test_report_renders(self, fig1):
        text = fig1.format_report()
        assert "K =" in text and "lambda" in text


class TestFig2:
    def test_current_match_tight(self, fig2):
        assert fig2.current_match.normalized_max_error < 0.06

    def test_ssn_match_reasonable(self, fig2):
        # The turn-on knee carries the worst error (see EXPERIMENTS.md).
        assert fig2.ssn_match.normalized_max_error < 0.20

    def test_late_window_voltage_tight(self, fig2):
        ts = np.linspace(0.3e-9, 0.5e-9 * 0.999, 30)
        diff = np.abs(fig2.model_ssn.value_at(ts) - fig2.simulation.ssn.value_at(ts))
        assert np.max(diff) < 0.07 * fig2.simulation.peak_voltage

    def test_report_renders(self, fig2):
        assert "Fig. 2" in fig2.format_report()


class TestFig3:
    def test_this_work_most_accurate(self, fig3):
        assert fig3.best_estimator() == fig3_model_comparison.THIS_WORK

    def test_this_work_within_five_percent(self, fig3):
        assert fig3.summaries[fig3_model_comparison.THIS_WORK].max_abs_percent < 5.0

    def test_baselines_clearly_worse(self, fig3):
        ours = fig3.summaries[fig3_model_comparison.THIS_WORK].mean_abs_percent
        assert fig3.summaries["vemuru-1996"].mean_abs_percent > 2 * ours
        assert fig3.summaries["song-1999"].mean_abs_percent > 2 * ours

    def test_vemuru_overestimates_song_underestimates(self, fig3):
        assert fig3.summaries["vemuru-1996"].bias_percent > 0
        assert fig3.summaries["song-1999"].bias_percent < 0

    def test_report_renders(self, fig3):
        assert "Most accurate" in fig3.format_report()

    @pytest.mark.xfail(strict=True, reason="the global ASDM fit reads -5.7% "
                       "at N = 1 on tsmc018, outside the paper's 3% (ROADMAP)")
    def test_this_work_within_paper_three_percent_at_one_driver(self):
        """The paper's <3% claim at the sweep's worst point, N = 1, which
        the sampled N = 2, 8, 16 above never visit."""
        single = fig3_model_comparison.run(driver_counts=(1,))
        error = single.sweep.points[0].percent_error(fig3_model_comparison.THIS_WORK)
        assert abs(error) < 3.0, f"{error:+.2f}%"


class TestFig4:
    def test_l_only_fails_underdamped(self, fig4):
        for panel in fig4.panels:
            by_region = panel.errors_by_region(fig4_capacitance.L_ONLY)
            assert by_region["under-damped"] > 10.0

    def test_l_only_adequate_overdamped(self, fig4):
        panel = fig4.panels[0]
        by_region = panel.errors_by_region(fig4_capacitance.L_ONLY)
        assert by_region["not-under-damped"] < 5.0

    def test_lc_model_good_everywhere(self, fig4):
        for panel in fig4.panels:
            assert panel.max_abs_error(fig4_capacitance.WITH_C) < 7.0

    def test_doubled_pads_shift_crossover(self, fig4):
        """Halving L and doubling C keeps more of the sweep under-damped."""
        def underdamped_count(panel):
            return sum(
                case in (Table1Case.UNDERDAMPED_FIRST_PEAK, Table1Case.UNDERDAMPED_BOUNDARY)
                for case in panel.cases
            )

        assert underdamped_count(fig4.panels[1]) > underdamped_count(fig4.panels[0])

    def test_report_renders(self, fig4):
        assert "ground pads doubled" in fig4.format_report()


class TestTable1:
    def test_all_four_cases_covered(self, table1):
        cases = {row.config.case for row in table1.rows}
        assert cases == set(Table1Case)

    def test_formula_matches_ode_exactly(self, table1):
        for row in table1.rows:
            assert abs(row.formula_vs_ode_percent) < 0.01
            assert row.waveform_max_diff < 1e-9

    def test_formula_close_to_simulation_except_3b(self, table1):
        for row in table1.rows:
            if row.config.case is not Table1Case.UNDERDAMPED_BOUNDARY:
                assert abs(row.formula_vs_sim_percent) < 6.0

    def test_extension_fixes_case_3b(self, table1):
        row = next(
            r for r in table1.rows
            if r.config.case is Table1Case.UNDERDAMPED_BOUNDARY
        )
        assert abs(row.extended_vs_sim_percent) < abs(row.formula_vs_sim_percent)
        assert abs(row.extended_vs_sim_percent) < 4.0


class TestDampingMap:
    def test_quadratic_law(self):
        result = damping_map.run(driver_counts=(1, 2, 4, 8))
        assert result.loglog_slope == pytest.approx(2.0, abs=1e-6)
        for row in result.rows:
            assert row.zeta_at_crit == pytest.approx(1.0, rel=1e-9)
            assert row.overshoot_below <= 1.0 + 1e-9
            assert row.overshoot_above > 1.0


class TestAblations:
    def test_paper_resistance_negligible(self):
        result = ablations.resistance_ablation(resistances=(0.0, 10e-3))
        assert abs(result.percent_shift(1)) < 0.1

    def test_collapse_exact(self):
        result = ablations.collapse_ablation(n_drivers=3)
        assert result.peak_diff_percent < 0.01
        assert result.max_waveform_diff < 1e-6
