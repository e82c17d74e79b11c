"""The bench JSON recorder (`repro.util.benchjson`).

It feeds the CI ``bench-results`` artifact. It is observability-only,
which is exactly why it gets direct units: nothing downstream would
fail if it silently reported nonsense.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs import metrics
from repro.util.benchjson import ENV_BENCH_JSON, compare, load_side, main, record_benchmark


def _add(stage, seconds):
    metrics.registry().counter(metrics.STAGE_PREFIX + stage).add(seconds)


def _explicit(entry):
    """The caller-provided fields of a bench entry (the auto-stamped
    peak_rss_bytes/stage_seconds observability fields removed)."""
    return {
        k: v for k, v in entry.items() if k not in ("peak_rss_bytes", "stage_seconds")
    }


class TestBenchJson:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_BENCH_JSON, raising=False)
        assert record_benchmark("x", ops_per_sec=1.0) is None

    def test_records_and_merges(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0, speedup=3.5, floor=3.0)
        record_benchmark("beta", speedup=10.0)
        record_benchmark("alpha", ops_per_sec=200.0)  # overwrite one entry
        data = json.loads(target.read_text())
        assert _explicit(data["alpha"]) == {"ops_per_sec": 200.0}
        assert _explicit(data["beta"]) == {"speedup": 10.0}

    def test_stamps_peak_rss(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0)
        entry = json.loads(target.read_text())["alpha"]
        # A Python process is at least a few MiB resident on any
        # platform where resource.getrusage works.
        assert entry["peak_rss_bytes"] > 1024 * 1024

    def test_stamps_stage_seconds_when_accrued(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        with metrics.scope():
            record_benchmark("cold", ops_per_sec=1.0)
            _add("kernel", 1.25)
            record_benchmark("warm", ops_per_sec=1.0)
        data = json.loads(target.read_text())
        assert "stage_seconds" not in data["cold"]
        assert data["warm"]["stage_seconds"] == {"kernel": 1.25}

    def test_sibling_scopes_stamp_disjoint_stage_maps(self, tmp_path, monkeypatch):
        # What the bench suite's per-bench scope buys: each entry holds
        # its own bench's split, not the whole run's running totals.
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        with metrics.scope():
            _add("kernel", 1.25)
            record_benchmark("first", ops_per_sec=1.0)
        with metrics.scope():
            _add("generate", 0.5)
            record_benchmark("second", ops_per_sec=1.0)
        data = json.loads(target.read_text())
        assert data["first"]["stage_seconds"] == {"kernel": 1.25}
        assert data["second"]["stage_seconds"] == {"generate": 0.5}

    def test_tolerates_corrupt_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        target.write_text("not json{")
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        path = record_benchmark("gamma", ops_per_sec=1.0)
        assert path == target
        data = json.loads(target.read_text())
        assert _explicit(data["gamma"]) == {"ops_per_sec": 1.0}

    def test_creates_parent_directories(self, tmp_path, monkeypatch):
        target = tmp_path / "deep" / "nested" / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("delta", speedup=2.0, note="extra fields kept")
        data = json.loads(target.read_text())
        assert _explicit(data["delta"]) == {
            "speedup": 2.0,
            "note": "extra fields kept",
        }


#: BENCHMARK.json's shape: two lower-is-better metrics and one higher.
END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


def _line(correct=True, failed=0, **values):
    """A perfbench result line with the given metric values."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


class TestLedgerCompare:
    def test_flags_moves_beyond_each_bound(self):
        old = {"cold": _line(wall_s=1.0, peak_rss_mb=50.0, ops_per_s=100.0)}
        new = {"cold": _line(wall_s=0.7, peak_rss_mb=58.0, ops_per_s=90.0)}
        rows, regressions = compare(old, new, END_TO_END)
        by_metric = {row.split()[1]: row for row in rows[1:]}
        assert "better beyond bound" in by_metric["wall_s"]  # 0.700: -30% > 25%
        assert "WORSE beyond bound" in by_metric["peak_rss_mb"]  # 1.160: +16% > 15%
        assert "beyond" not in by_metric["ops_per_s"]  # 0.900: -10% of a higher-is-better
        assert " 0.700 " in by_metric["wall_s"] and " 1.160 " in by_metric["peak_rss_mb"]
        assert regressions == 1

    def test_a_lower_higher_is_better_metric_regresses(self):
        rows, regressions = compare(
            {"w": _line(ops_per_s=100.0)}, {"w": _line(ops_per_s=70.0)}, END_TO_END
        )
        assert regressions == 1 and "WORSE" in rows[1]

    def test_lost_correctness_or_more_failures_regress(self):
        old = {"a": _line(wall_s=1.0), "b": _line(wall_s=1.0)}
        new = {"a": _line(correct=False, wall_s=1.0), "b": _line(failed=2, wall_s=1.0)}
        _, regressions = compare(old, new, END_TO_END)
        assert regressions == 2

    def test_only_shared_workloads_and_metrics_compare(self):
        rows, regressions = compare(
            {"a": _line(wall_s=1.0), "gone": _line(wall_s=1.0)},
            {"a": _line(wall_s=1.1, peak_rss_mb=9.0), "new": _line(wall_s=1.0)},
            END_TO_END,
        )
        assert [row.split()[:2] for row in rows[1:]] == [["a", "wall_s"]]
        assert regressions == 0

    def test_ledger_sides_and_plain_maps(self, tmp_path):
        ledger = tmp_path / "BENCH_1.json"
        ledger.write_text(
            json.dumps({"parent": {"w": _line(wall_s=2.0)}, "change": {"w": _line(wall_s=1.0)}})
        )
        plain = tmp_path / "side.json"
        plain.write_text(json.dumps({"w": _line(wall_s=3.0)}))
        assert load_side(ledger, "parent")["w"]["metrics"]["wall_s"]["value"] == 2.0
        assert load_side(ledger, "change")["w"]["metrics"]["wall_s"]["value"] == 1.0
        assert load_side(plain, "change")["w"]["metrics"]["wall_s"]["value"] == 3.0

    def test_runs_read_as_their_medians(self, tmp_path):
        """A side's runs, where the ledger has them, stand in for its
        final line: a noisy last pair cannot flip the verdict."""
        runs = {
            "parent": [{"correct": True, "failed": 0, "wall_s": v} for v in (1.0, 1.1, 0.9)],
            "change": [
                {"correct": True, "failed": 0, "wall_s": 1.0},
                {"correct": True, "failed": 1, "wall_s": 1.02},
                {"correct": False, "failed": 0, "wall_s": 2.0},
            ],
        }
        ledger = tmp_path / "BENCH_1.json"
        ledger.write_text(
            json.dumps(
                {
                    "parent": {"w": _line(wall_s=0.5), "bare": _line(wall_s=3.0)},
                    "change": {"w": _line(wall_s=2.0), "bare": _line(wall_s=3.0)},
                    "runs": {"w": runs},
                }
            )
        )
        parent, change = load_side(ledger, "parent"), load_side(ledger, "change")
        assert parent["w"]["metrics"]["wall_s"]["value"] == 1.0
        assert change["w"]["metrics"]["wall_s"]["value"] == 1.02
        assert (change["w"]["correct"], change["w"]["failed"]) == (False, 1)
        assert parent["bare"]["metrics"]["wall_s"]["value"] == 3.0  # no runs: the line
        rows, regressions = compare(parent, change, END_TO_END)
        assert "WORSE" not in rows[2] and regressions == 1  # the lost correctness

    def test_main_exit_codes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "a", "b"]) == 2  # no BENCHMARK.json here
        Path("BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
        Path("BENCH_1.json").write_text(
            json.dumps({"parent": {"w": _line(wall_s=1.0)}, "change": {"w": _line(wall_s=0.9)}})
        )
        Path("BENCH_2.json").write_text(
            json.dumps({"parent": {"w": _line(wall_s=0.9)}, "change": {"w": _line(wall_s=1.5)}})
        )
        assert main(["compare", "BENCH_1.json", "BENCH_1.json"]) == 0
        assert main(["compare", "BENCH_1.json", "BENCH_2.json"]) == 1
        assert "WORSE beyond bound" in capsys.readouterr().out
        assert main(["compare", "BENCH_1.json"]) == 2

    @staticmethod
    def _ledger(path, parent, change):
        sides = {"parent": {"w": _line(wall_s=parent)}, "change": {"w": _line(wall_s=change)}}
        path.write_text(json.dumps(sides))

    def test_two_ledgers_chain_their_own_ratios(self, tmp_path, monkeypatch, capsys):
        """Each ledger's pairs ran in one session: the chain judges the
        product of their ratios, not the drift of the commit between
        them (1.0 -> 1.5 s here, which a direct reading calls +50%)."""
        monkeypatch.chdir(tmp_path)
        Path("BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
        self._ledger(tmp_path / "BENCH_1.json", 1.25, 1.0)
        self._ledger(tmp_path / "BENCH_2.json", 1.5, 1.5)
        assert main(["compare", "BENCH_1.json", "BENCH_2.json"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split() == ["workload", "metric", "old", "new", "ratio", "drift", "bound"]
        assert row.split() == ["w", "wall_s", "1.25", "1.5", "0.800", "1.500", "0.25"]
        self._ledger(tmp_path / "BENCH_3.json", 1.5, 2.0)  # 2.0 / 1.25 directly
        assert main(["compare", "BENCH_1.json", "BENCH_3.json"]) == 0
        assert "   1.067   1.500  0.25\n" in capsys.readouterr().out  # 0.8 * 1.333
        self._ledger(tmp_path / "BENCH_4.json", 1.0, 1.7)
        assert main(["compare", "BENCH_1.json", "BENCH_4.json"]) == 1
        assert "   1.360   1.000  0.25  WORSE beyond bound" in capsys.readouterr().out

    def test_one_ledger_or_a_plain_map_compares_directly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
        self._ledger(tmp_path / "BENCH_1.json", 1.0, 1.3)
        assert main(["compare", "BENCH_1.json", "./BENCH_1.json"]) == 1
        out = capsys.readouterr().out
        assert "drift" not in out and " 1.300  0.25  WORSE" in out
        Path("side.json").write_text(json.dumps({"w": _line(wall_s=1.2)}))
        assert main(["compare", "BENCH_1.json", "side.json"]) == 0  # 1.2 / 1.0
        assert "drift" not in capsys.readouterr().out

    def test_the_committed_ledgers_compare(self):
        """``python -m repro.util.benchjson compare`` reads every committed
        ``BENCH_*.json`` from the checkout root, each workload on both
        sides, and finds no metric worse than its bound: a change that
        moved one that far is not committed."""
        root = Path(repro.__file__).resolve().parents[2]
        if not (root / "BENCHMARK.json").is_file():
            pytest.skip("repro is not running from a checkout")
        ledgers = sorted(root.glob("BENCH_*.json"))
        assert ledgers
        for ledger in ledgers:
            done = subprocess.run(
                [sys.executable, "-m", "repro.util.benchjson", "compare", ledger, ledger],
                cwd=root,
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(root / "src")},
                timeout=60,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            assert "WORSE" not in done.stdout
            for workload in json.loads(ledger.read_text())["change"]:
                assert f"{workload} " in done.stdout, workload

    def test_the_committed_ledgers_chain(self):
        """Each committed ledger's parent is the previous one's change,
        and the trajectory between consecutive ones stays within every
        bound once their sessions' drift is left out."""
        root = Path(repro.__file__).resolve().parents[2]
        if not (root / "BENCHMARK.json").is_file():
            pytest.skip("repro is not running from a checkout")
        ledgers = sorted(root.glob("BENCH_*.json"), key=lambda path: int(path.stem[6:]))
        for old, new in zip(ledgers, ledgers[1:]):
            done = subprocess.run(
                [sys.executable, "-m", "repro.util.benchjson", "compare", old, new],
                cwd=root,
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(root / "src")},
                timeout=60,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            assert "drift" in done.stdout.splitlines()[0]
