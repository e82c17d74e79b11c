"""Tests for the policy-sweep engine and its CLI surface."""

import pytest

from repro.experiments import figure8, sweep
from repro.experiments.common import QUICK_SCALE, collect_benchmark_data
from repro.experiments.sweep import (
    DEFAULT_POLICIES,
    POLICY_FACTORIES,
    SweepGrid,
    evaluate_grid,
    parse_grid,
    sweep_jobs,
)

SUBSET = ("gzip", "mcf")


@pytest.fixture(scope="module")
def subset_data():
    return collect_benchmark_data(scale=QUICK_SCALE, benchmarks=SUBSET)


class TestParseGrid:
    def test_linspace(self):
        assert parse_grid("0.1:0.5:3") == (0.1, 0.3, 0.5)
        assert parse_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_single_point_linspace(self):
        assert parse_grid("0.4:0.9:1") == (0.4,)

    def test_comma_list(self):
        assert parse_grid("0.05,0.5") == (0.05, 0.5)
        assert parse_grid(" 0.25 , 0.75 ") == (0.25, 0.75)

    def test_endpoints_exact(self):
        values = parse_grid("0.05:0.5:10")
        assert values[0] == 0.05 and values[-1] == 0.5
        assert len(values) == 10

    @pytest.mark.parametrize("spec", ["", "1:2", "1:2:3:4", "0.1:0.5:0", "a,b"])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_grid(spec)


class TestSweepGrid:
    def test_num_cells(self):
        grid = SweepGrid(p_values=(0.05, 0.5), alphas=(0.25, 0.5, 0.75))
        assert grid.num_cells == 2 * 3 * len(DEFAULT_POLICIES)

    def test_technology_carries_fixed_constants(self):
        grid = SweepGrid(
            p_values=(0.1,), alphas=(0.5,), sleep_overhead=0.02, duty_cycle=0.6
        )
        params = grid.technology(0.1)
        assert params.leakage_factor_p == 0.1
        assert params.sleep_overhead == 0.02
        assert params.duty_cycle == 0.6

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policies"):
            SweepGrid(p_values=(0.1,), alphas=(0.5,), policies=("Nonsense",))

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            SweepGrid(
                p_values=(0.1,), alphas=(0.5,),
                policies=("MaxSleep", "MaxSleep"),
            )
        with pytest.raises(ValueError):
            SweepGrid(p_values=(), alphas=(0.5,))
        with pytest.raises(ValueError):
            SweepGrid(p_values=(0.1,), alphas=())

    def test_rejects_duplicate_grid_values(self):
        """Regression: a repeated ``p`` or alpha rendered its rows twice."""
        with pytest.raises(ValueError, match="duplicate p values"):
            SweepGrid(p_values=(0.5, 0.5), alphas=(0.5,))
        with pytest.raises(ValueError, match="duplicate alphas"):
            SweepGrid(p_values=(0.5,), alphas=(0.25, 0.5, 0.25))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SweepGrid(p_values=(0.1,), alphas=(1.5,))

    def test_every_factory_constructs(self):
        grid = SweepGrid(p_values=(0.3,), alphas=(0.5,))
        params = grid.technology(0.3)
        for name, factory in POLICY_FACTORIES.items():
            policy = factory(params, 0.5)
            assert policy.stateless, name

    def test_timeout_factory_handles_never_pays(self):
        """alpha = 1 with positive overhead: sleeping never pays; the
        break-even interval is infinite and must clamp, not crash."""
        grid = SweepGrid(p_values=(0.5,), alphas=(1.0,), policies=("TimeoutSleep",))
        policy = POLICY_FACTORIES["TimeoutSleep"](grid.technology(0.5), 1.0)
        assert policy.timeout >= 10**6


class TestEvaluateGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return SweepGrid(
            p_values=(0.05, 0.275, 0.5),
            alphas=(0.25, 0.5, 0.75),
            policies=tuple(sorted(POLICY_FACTORIES)),
        )

    def test_scalar_and_vectorized_identical(self, subset_data, grid):
        """Grid evaluation is float-for-float engine-independent."""
        scalar = evaluate_grid(subset_data, grid, vectorized=False)
        vector = evaluate_grid(subset_data, grid, vectorized=True)
        assert scalar.cells.keys() == vector.cells.keys()
        for key, cell in scalar.cells.items():
            other = vector.cells[key]
            assert cell.total_energy == other.total_energy
            assert cell.baseline_energy == other.baseline_energy
            assert cell.normalized_energy == other.normalized_energy
            assert cell.leakage_fraction == other.leakage_fraction

    def test_covers_full_cross_product(self, subset_data, grid):
        result = evaluate_grid(subset_data, grid)
        assert len(result.cells) == grid.num_cells * len(SUBSET)
        for p in grid.p_values:
            for alpha in grid.alphas:
                for bench in SUBSET:
                    for policy in grid.policies:
                        cell = result.cell(p, alpha, bench, policy)
                        assert cell.normalized_energy > 0

    def test_no_overhead_is_lower_bound(self, subset_data, grid):
        """NoOverhead is MaxSleep minus transition costs: a true lower
        bound among the sleep-everything policies at every cell."""
        result = evaluate_grid(subset_data, grid)
        for p in grid.p_values:
            for alpha in grid.alphas:
                for bench in SUBSET:
                    no = result.cell(p, alpha, bench, "NoOverhead")
                    ms = result.cell(p, alpha, bench, "MaxSleep")
                    assert no.total_energy <= ms.total_energy

    def test_oracle_never_worse_than_boundary_policies(self, subset_data, grid):
        """BreakevenOracle picks the per-interval optimum of the two
        realizable boundary policies."""
        result = evaluate_grid(subset_data, grid)
        tolerance = 1e-9
        for p in grid.p_values:
            for alpha in grid.alphas:
                for bench in SUBSET:
                    oracle = result.cell(p, alpha, bench, "BreakevenOracle")
                    for rival in ("MaxSleep", "AlwaysActive"):
                        rival_cell = result.cell(p, alpha, bench, rival)
                        assert (
                            oracle.total_energy
                            <= rival_cell.total_energy + tolerance
                        )

    def test_suite_mean_and_best_policy(self, subset_data, grid):
        result = evaluate_grid(subset_data, grid)
        mean = result.suite_mean(0.5, 0.5, "MaxSleep")
        values = [
            result.cell(0.5, 0.5, bench, "MaxSleep").normalized_energy
            for bench in SUBSET
        ]
        assert mean == pytest.approx(sum(values) / len(values))
        assert result.best_policy(0.5, 0.5) in grid.policies

    def test_matches_figure8_view(self, subset_data):
        """Figure 8 is a thin view over the same engine: its energies must
        equal the sweep cells exactly."""
        fig = figure8.run(scale=QUICK_SCALE, benchmarks=SUBSET)
        grid = SweepGrid(
            p_values=figure8.P_VALUES,
            alphas=(0.25, 0.5, 0.75),
        )
        swept = evaluate_grid(subset_data, grid)
        for p in figure8.P_VALUES:
            for alpha in (0.25, 0.5, 0.75):
                for bench in SUBSET:
                    for policy in grid.policies:
                        assert fig.energies[p][alpha][bench][policy] == swept.cell(
                            p, alpha, bench, policy
                        ).normalized_energy


class TestRunAndRender:
    def test_run_and_render_smoke(self):
        grid = SweepGrid(p_values=(0.05, 0.5), alphas=(0.5,))
        result = sweep.run(scale=QUICK_SCALE, grid=grid, benchmarks=SUBSET)
        text = sweep.render(result)
        assert "Policy sweep: " in text
        for policy in grid.policies:
            assert policy in text
        assert "Lowest-energy policy per grid cell" in text

    def test_sweep_jobs_match_benchmark_batch(self):
        jobs = sweep_jobs(scale=QUICK_SCALE, benchmarks=SUBSET)
        assert [job.profile.name for job in jobs] == list(SUBSET)


class TestSweepCli:
    def test_cli_sweep_runs(self, capsys, preserve_cache_config):
        from repro.cli import main

        code = main([
            "sweep", "--quick",
            "--p-grid", "0.05,0.5",
            "--alpha-grid", "0.5:0.5:1",
            "--policies", "MaxSleep,NoOverhead",
            "--benchmarks", "gzip",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MaxSleep" in out and "NoOverhead" in out
        assert "1 alpha" in out

    def test_cli_lists_sweep(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "sweep" in capsys.readouterr().out.split()
