"""Tests of the benchmark's own arithmetic on synthetic samples and spans.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from metrics import Span, covered, fail_frac, layer_totals, nearest_rank, self_times, tail  # noqa: E402


class TestTail:
    def test_picks_highest_level_with_ten_beyond(self):
        t = tail([float(i) for i in range(1, 101)])
        assert (t.level, t.value, t.beyond, t.samples) == ("90", 90.0, 10, 100)

    def test_thousand_samples_reach_p99(self):
        t = tail([float(i) for i in range(1, 1001)])
        assert (t.level, t.value, t.beyond) == ("99", 990.0, 10)

    def test_just_short_of_a_level_falls_to_the_next(self):
        # 199 samples: p95 leaves 9 beyond, p90 leaves 19.
        t = tail([float(i) for i in range(1, 200)])
        assert (t.level, t.beyond) == ("90", 19)

    def test_few_samples_fall_back_to_median(self):
        t = tail([5.0, 1.0, 3.0, 4.0, 2.0])
        assert (t.level, t.value, t.beyond, t.samples) == ("50", 3.0, 2, 5)

    def test_twenty_samples_use_the_median(self):
        t = tail([float(i) for i in range(20)])
        assert (t.level, t.beyond) == ("50", 10)

    def test_order_of_samples_does_not_matter(self):
        values = [float((7 * i) % 101) for i in range(101)]
        assert tail(values) == tail(sorted(values))

    def test_nearest_rank_is_exact_for_decimal_levels(self):
        ordered = [float(i) for i in range(1, 1001)]
        assert nearest_rank(ordered, "99.9") == (999.0, 1)
        assert nearest_rank(ordered, "50") == (500.0, 500)
        with pytest.raises(ValueError):
            nearest_rank([], "50")


class TestFailFrac:
    def test_share_of_attempted(self):
        assert fail_frac(0, 10) == 0.0
        assert fail_frac(3, 12) == 0.25
        assert fail_frac(5, 5) == 1.0

    @pytest.mark.parametrize("failed,attempted", [(0, 0), (-1, 4), (5, 4)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            fail_frac(failed, attempted)


def _span(name, start, end, parent=-1, op=0, count=0):
    return Span(name, start, end, parent, op, count)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            _span("series.evolve", 0.0, 10.0),
            _span("series.plan", 1.0, 2.0, parent=0),
            _span("series.apply_uod", 3.0, 9.0, parent=0),
            _span("pmr.diag_values", 4.0, 5.0, parent=2),
        ]
        assert self_times(spans) == pytest.approx([3.0, 1.0, 5.0, 1.0])

    def test_overlapping_children_count_once_and_are_clipped(self):
        assert covered([(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)
        spans = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 4.0, parent=0),
            _span("c", 3.0, 6.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(5.0)

    def test_layer_totals_split_ops_from_setup(self):
        spans = [
            _span("oracle.build", 0.0, 2.0, op=-1),
            _span("series.evolve", 3.0, 4.0, op=0),
            _span("pmr.diag_values", 3.2, 3.3, parent=1, op=0),
            _span("series.evolve", 5.0, 7.0, op=1),
            _span("lcu.apply_U_C", 8.0, 9.0, op=2, count=7),
        ]
        per_op = layer_totals(spans, {0, 1})
        assert set(per_op) == {"series.evolve", "pmr.diag_values"}
        assert per_op["series.evolve"].calls == 2
        assert per_op["series.evolve"].seconds == pytest.approx(3.0)
        assert per_op["series.evolve"].self_seconds == pytest.approx(2.9)
        assert layer_totals(spans, {-1})["oracle.build"].seconds == pytest.approx(2.0)
        assert layer_totals(spans, {2})["lcu.apply_U_C"].count == 7

    def test_recursion_is_not_counted_twice(self):
        spans = [_span("f", 0.0, 4.0), _span("f", 1.0, 3.0, parent=0)]
        totals = layer_totals(spans, {0})["f"]
        assert (totals.calls, totals.seconds, totals.self_seconds) == (2, 4.0, 4.0)


class TestHostScale:
    def test_times_scale_by_the_median_kernel_time(self):
        from hostref import REF_SECONDS, HostSpeed

        host = HostSpeed()
        host.samples = [3 * REF_SECONDS, REF_SECONDS / 2, 2 * REF_SECONDS]
        assert host.to_ref(4.0) == pytest.approx(2.0)

    def test_ops_per_s_counts_verified_ops_over_op_time(self):
        import run

        figures, t = run.time_figures([1.0, 3.0, 2.0, 2.0], failed=1)
        assert figures == {"ops_per_s": 3 / 8, "op_s.p50": 2.0, "op_s.tail": 2.0}
        assert (t.level, t.samples) == ("50", 4)


def test_benchmark_json_lists_what_the_harness_reports():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
