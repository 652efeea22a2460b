"""Tests for the benchmark harness, workloads, reporting and CLI."""

import numpy as np
import pytest

from repro.bench.harness import registry, run_experiment, time_callable
from repro.bench.reporting import ExperimentTable, format_table
from repro.bench.workloads import (
    DEFAULT_SCALE,
    FIG3_SIZES,
    FIG5_MATRICES,
    FIG6_PROCESSES,
    MeasuredScale,
    TABLE1_SIZES,
    random_matrix,
    random_spd_factor,
    scaled_sizes,
    tall_matrix,
)
from repro.errors import BenchmarkError


class TestWorkloads:
    def test_random_matrix_reproducible(self):
        a = random_matrix(10, 6, seed=42)
        b = random_matrix(10, 6, seed=42)
        assert np.array_equal(a, b)
        assert random_matrix(10, 6, seed=43).sum() != a.sum()

    def test_dtype_and_distribution(self):
        a = random_matrix(5, 5, dtype=np.float32, distribution="uniform", seed=1)
        assert a.dtype == np.float32
        assert np.all((a >= 0) & (a < 1))

    def test_invalid_distribution(self):
        with pytest.raises(BenchmarkError):
            random_matrix(4, 4, distribution="cauchy")

    def test_tall_matrix_requires_m_ge_n(self):
        with pytest.raises(BenchmarkError):
            tall_matrix(5, 10)
        assert tall_matrix(10, 5, seed=1).shape == (10, 5)

    def test_spd_factor_condition(self):
        a = random_spd_factor(16, condition=100.0, seed=3)
        s = np.linalg.svd(a.astype(np.float64), compute_uv=False)
        assert (s[0] / s[-1]) ** 2 == pytest.approx(100.0, rel=0.05)

    def test_paper_grids_match_section5(self):
        assert FIG3_SIZES[0] == 2_500 and FIG3_SIZES[-1] == 25_000 and len(FIG3_SIZES) == 10
        assert (60_000, 5_000) in FIG5_MATRICES
        assert FIG6_PROCESSES[0] == 8 and FIG6_PROCESSES[-1] == 64
        assert TABLE1_SIZES == (30_000, 40_000, 50_000, 60_000)

    def test_measured_scale_clamps(self):
        scale = MeasuredScale(divisor=100, min_size=96, max_size=512)
        assert scale.size(2_500) == 96
        assert scale.size(30_000) == 300
        assert scale.size(200_000) == 512
        assert scale.shape((60_000, 5_000)) == (512, 96)
        assert scale.processes(64) <= scale.max_processes

    def test_scaled_sizes_sorted_unique(self):
        sizes = scaled_sizes(FIG3_SIZES, DEFAULT_SCALE)
        assert sizes == sorted(set(sizes))


class TestHarness:
    def test_time_callable_returns_flops(self, rng):
        from repro.core.ata import ata
        a = rng.standard_normal((64, 32))
        run = time_callable(lambda: ata(a), repeats=2)
        assert run.seconds > 0
        assert run.flops > 0
        assert run.gflops_rate > 0

    def test_time_callable_keeps_result(self):
        run = time_callable(lambda: 42)
        assert run.result == 42

    def test_invalid_repeats(self):
        with pytest.raises(BenchmarkError):
            time_callable(lambda: None, repeats=0)

    def test_registry_contains_all_figures(self):
        names = set(registry())
        assert {"fig3", "fig4", "fig5", "fig6", "table1"} <= names
        assert {"ablation_flops", "ablation_workspace", "ablation_levels",
                "ablation_communication"} <= names

    def test_unknown_experiment(self):
        with pytest.raises(BenchmarkError):
            run_experiment("fig99")


class TestReporting:
    def test_table_row_validation(self):
        t = ExperimentTable("t", "d", ["a", "b"])
        t.add_row(1, 2)
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_text_and_csv_render(self):
        t = ExperimentTable("t", "desc", ["n", "seconds"])
        t.add_row(100, 0.125)
        t.add_row(200, 1.5e-7)
        t.add_note("hello")
        text = t.to_text()
        assert "t: desc" in text and "hello" in text
        csv_text = t.to_csv()
        assert csv_text.splitlines()[0] == "n,seconds"
        assert len(csv_text.splitlines()) == 3

    def test_column_and_records(self):
        t = ExperimentTable("t", "d", ["x", "y"])
        t.add_row(1, 10)
        t.add_row(2, 20)
        assert t.column("y") == [10, 20]
        assert t.as_records()[1] == {"x": 2, "y": 20}

    def test_save_csv(self, tmp_path):
        t = ExperimentTable("t", "d", ["x"])
        t.add_row(3)
        path = tmp_path / "out.csv"
        t.save_csv(str(path))
        assert path.read_text().startswith("x")

    def test_format_table_alignment(self):
        text = format_table(["col"], [[None], [1.0], ["abc"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line}) == 1


class TestFigureExperiments:
    """Each figure experiment must run end-to-end on tiny configurations and
    reproduce the paper's qualitative outcome."""

    def test_fig3_shapes_and_trend(self):
        paper, measured = run_experiment("fig3", measured_sizes=[96, 128],
                                         paper_sizes=[5_000, 15_000, 25_000])
        speedups = paper.column("ata_speedup_over_dsyrk")
        assert all(s > 1.0 for s in speedups)
        assert speedups == sorted(speedups)
        assert len(measured.rows) == 2

    def test_fig4_strassen_wins(self):
        paper, measured = run_experiment("fig4", measured_sizes=[96],
                                         paper_sizes=[10_000, 20_000])
        assert all(row > 1.0 for row in paper.column("strassen_speedup_over_dgemm"))
        assert len(measured.rows) == 1

    def test_fig5_plateau_and_victory(self):
        paper, measured = run_experiment(
            "fig5", measured_shapes=[(96, 64)], measured_cores=[2, 4],
            paper_shapes=[(30_000, 30_000)], paper_cores=[2, 8, 16])
        ata_times = paper.column("ata_s_seconds")
        syrk_times = paper.column("ssyrk_seconds")
        assert ata_times[0] > ata_times[1] >= ata_times[2]
        assert ata_times[0] < syrk_times[0]
        assert len(measured.rows) == 2

    def test_fig6_rows_and_caps_square_only(self):
        paper, measured = run_experiment(
            "fig6", measured_shapes=[(96, 48)], measured_processes=[4],
            paper_shapes=[(10_000, 10_000), (60_000, 5_000)], paper_processes=[8, 64])
        records = paper.as_records()
        tall = [r for r in records if r["m"] == 60_000]
        assert all(r["caps_seconds"] is None for r in tall)
        square = [r for r in records if r["m"] == 10_000]
        assert all(r["caps_seconds"] is not None for r in square)
        assert len(measured.rows) == 1
        assert measured.column("ata_d_total_bytes")[0] > 0

    def test_table1_speedup_direction(self):
        paper, measured = run_experiment("table1", measured_sizes=[96],
                                         paper_sizes=[30_000, 60_000])
        assert all(s > 1.0 for s in paper.column("speedup"))
        assert len(measured.rows) == 1

    def test_ablation_flops_ratio(self):
        (table,) = run_experiment("ablation_flops", sizes=(128, 512, 2048))
        ratios = table.column("ratio")
        assert all(0.55 < r < 0.8 for r in ratios)

    def test_ablation_levels_rows(self):
        (table,) = run_experiment("ablation_levels", max_processes=16)
        assert len(table.rows) == 16

    def test_ablation_workspace_counts_allocations(self):
        (table,) = run_experiment("ablation_workspace", n=128, repeats=1)
        records = table.as_records()
        naive = next(r for r in records if "per recursive step" in r["strategy"])
        pre = next(r for r in records if "pre-allocated" in r["strategy"])
        assert naive["allocations"] > pre["allocations"]

    def test_engine_backends_verdicts(self):
        """One row per shape: every candidate's best-of seconds, the
        measured winner and the heuristic's pick beside it."""
        ata, atb = run_experiment("engine_backends", sizes=[32, 64],
                                  atb_shapes=[(32, 16, 16)], repeats=1)
        assert len(ata.rows) == 2 and len(atb.rows) == 1
        for table in (ata, atb):
            for record in table.as_records():
                assert record[record["winner"]] > 0
                # both shapes fit the base case: one syrk / one gemm leaf
                assert record["heuristic"] in ("syrk", "strassen")
                assert record["agrees"] == (record["heuristic"]
                                            == record["winner"])
                assert record["heuristic_vs_winner"] >= 1.0

    def test_ablation_communication_bounds(self):
        (table,) = run_experiment("ablation_communication", sizes=(96,), processes=(4, 8))
        for record in table.as_records():
            assert record["root_messages_measured"] <= 3 * record["root_messages_bound"]


class TestCli:
    def test_list_option(self, capsys):
        from repro.bench.cli import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_unknown_experiment_exit_code(self, capsys):
        from repro.bench.cli import main
        assert main(["does_not_exist"]) == 2

    def test_run_one_experiment_with_csv(self, tmp_path, capsys):
        from repro.bench.cli import main
        assert main(["ablation_levels", "--csv-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ablation_levels" in out
        assert (tmp_path / "ablation_levels.csv").exists()
