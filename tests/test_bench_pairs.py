import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_pairs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSummarize:
    PARENT = [10.0, 12.0, 11.0, 13.0, 9.0]
    CHANGE = [14.0, 12.0, 15.0, 10.0, 16.0]

    def test_higher_is_better(self, bench_pairs):
        got = bench_pairs.summarize(self.PARENT, self.CHANGE, "higher")
        # pairs: 14>10, 12=12 (a tie counts for neither), 15>11, 10<13, 16>9
        assert got == {
            "parent_q1_med_q3": [10.0, 11.0, 12.0],
            "change_q1_med_q3": [12.0, 14.0, 15.0],
            "change_wins": "3/5",
            "median_change_rel": round(14.0 / 11.0 - 1.0, 4),
            "beyond_parent_iqr": True,  # |14 - 11| > 12 - 10
        }

    def test_lower_is_better(self, bench_pairs):
        got = bench_pairs.summarize(self.PARENT, self.CHANGE, "lower")
        assert got["change_wins"] == "1/5"
        assert got["median_change_rel"] == 0.2727

    def test_gap_within_parent_spread(self, bench_pairs):
        got = bench_pairs.summarize(
            [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0], "higher"
        )
        assert got["change_wins"] == "5/5"
        assert not got["beyond_parent_iqr"]  # |4 - 3| <= 4 - 2
