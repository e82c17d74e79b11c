"""Golden-file regression suite: end-to-end outputs pinned to disk.

Unit and property tests check invariants; the goldens check *values*.
Each golden is a small committed JSON snapshot of a full experiment
pipeline at quick scale — ``table3`` (trace → pipeline → IPC → FU
selection), ``figure8`` (simulation → vectorized energy accounting),
and one ``robustness`` report (scenario sampling → engine batch →
policy ranking). Any unintended change anywhere along those paths shows
up as a concrete numeric diff against the committed file.

Comparison policy: every value compares **exactly**, floats included.
The whole pipeline is deterministic pure Python — the batched
accounting adds in a fixed left-to-right order — and JSON round-trips
Python floats, so any drift at all is a real change.

Refreshing after an intended model change::

    python -m pytest tests/test_goldens.py --update-goldens

then commit the rewritten files with the change that motivated them.
"""

import json
from pathlib import Path

from repro.experiments import figure8, robustness, table3
from repro.experiments.common import QUICK_SCALE

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Scenario-count/seed of the robustness golden: small but covering
#: every default family at least once.
ROBUSTNESS_COUNT = 6
ROBUSTNESS_SEED = 1


# -- payload builders (one per golden) -----------------------------------------


def _scale_payload() -> dict:
    return {
        "window_instructions": QUICK_SCALE.window_instructions,
        "warmup_instructions": QUICK_SCALE.warmup_instructions,
        "seed": QUICK_SCALE.seed,
    }


def build_table3_payload() -> dict:
    result = table3.run(scale=QUICK_SCALE)
    return {
        "scale": _scale_payload(),
        "benchmarks": {
            selection.profile.name: {
                "ipc_by_fus": {
                    str(fus): ipc
                    for fus, ipc in sorted(selection.ipc_by_fus.items())
                },
                "selected_fus": selection.selected_fus,
                "matches_paper": selection.matches_paper,
            }
            for selection in result.selections
        },
        "num_matching": result.num_matching,
    }


def build_figure8_payload() -> dict:
    result = figure8.run(scale=QUICK_SCALE)
    return {
        "scale": _scale_payload(),
        "fu_counts": dict(sorted(result.fu_counts.items())),
        "energies": {
            str(p): {
                str(alpha): {
                    bench: dict(sorted(policies.items()))
                    for bench, policies in sorted(per_alpha[alpha].items())
                }
                for alpha in sorted(per_alpha)
            }
            for p, per_alpha in sorted(result.energies.items())
        },
    }


def build_robustness_payload() -> dict:
    result = robustness.run(
        scale=QUICK_SCALE, count=ROBUSTNESS_COUNT, seed=ROBUSTNESS_SEED
    )
    return {
        "scale": _scale_payload(),
        "count": ROBUSTNESS_COUNT,
        "seed": ROBUSTNESS_SEED,
        "p": result.p,
        "alpha": result.alpha,
        "families": list(result.families),
        "outcomes": [
            {
                "scenario_id": outcome.scenario_id,
                "family": outcome.family,
                "num_fus": outcome.num_fus,
                "ipc": outcome.ipc,
                "normalized": dict(sorted(outcome.normalized.items())),
                "savings": dict(sorted(outcome.savings.items())),
                "ranking": list(outcome.ranking),
            }
            for outcome in result.outcomes
        ],
    }


# -- the comparator ------------------------------------------------------------


def assert_matches(actual, expected, path):
    """Recursive structural comparison, exact everywhere: same types,
    same values."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected an object"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected an array"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for index, (mine, theirs) in enumerate(zip(actual, expected)):
            assert_matches(mine, theirs, f"{path}[{index}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{path}: {actual!r} != {expected!r} (exact)"
        )


def check_golden(name: str, payload: dict, update: bool) -> None:
    golden_path = GOLDEN_DIR / name
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return
    assert golden_path.exists(), (
        f"missing golden {golden_path}; generate it with "
        f"`python -m pytest tests/test_goldens.py --update-goldens`"
    )
    expected = json.loads(golden_path.read_text())
    assert_matches(payload, expected, path=name)


# -- the suite -----------------------------------------------------------------


class TestGoldens:
    def test_table3(self, update_goldens):
        """IPC sweep + FU selection."""
        check_golden("table3_quick.json", build_table3_payload(), update_goldens)

    def test_figure8(self, update_goldens):
        """Per-benchmark policy energies through the batched accounting."""
        check_golden("figure8_quick.json", build_figure8_payload(), update_goldens)

    def test_robustness(self, update_goldens):
        """Sampled-scenario robustness report: batched accounting and
        quantiles."""
        check_golden(
            "robustness_quick.json", build_robustness_payload(), update_goldens
        )

    def test_goldens_round_trip_exactly(self):
        """Committed files are canonical: parse → dump reproduces the
        bytes, so diffs in review are always semantic."""
        for golden_path in sorted(GOLDEN_DIR.glob("*.json")):
            parsed = json.loads(golden_path.read_text())
            assert (
                json.dumps(parsed, indent=2, sort_keys=True) + "\n"
                == golden_path.read_text()
            ), golden_path.name
