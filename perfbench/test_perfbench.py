"""Tests of the benchmark's own arithmetic and of its wrapper handling.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import math
import statistics

import pytest

from bench_speed import REFERENCE_S, scaled
from bench_trace import Tracer, installed_wrappers, layer_table, self_times, traced_targets
from bench_stats import cycle_rate, summarise, tail
from ulat import annihilation, lattice, periodization
from ulat.geometry import Ball, EuclideanSet


class TestTailRule:
    def test_hundred_samples_give_p90(self):
        xs = [float(v) for v in range(1, 101)]
        value, pct = tail(reversed(xs))
        assert value == 90.0
        assert pct == 90.0
        assert sum(x > value for x in xs) == 10

    def test_eleven_samples_take_the_smallest(self):
        value, pct = tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 11.0, 10.0])
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11.0)

    @pytest.mark.parametrize("n", [12, 37, 250])
    def test_exactly_ten_beyond_at_every_size(self, n):
        xs = [math.sqrt(i) for i in range(n)]
        value, pct = tail(xs)
        assert sum(x > value for x in xs) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)

    def test_too_few_samples_report_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class TestSelfTime:
    def test_nested_chain_subtracts_direct_children_only(self):
        spans = [
            ("bench.op", 0.0, 10.0, -1, 0),
            ("mc.run_trials", 1.0, 9.0, 0, 0),
            ("lattice.sample_lattice", 2.0, 5.0, 1, 0),
            ("geometry.sample_rotation", 2.5, 4.0, 2, 0),
            ("lattice.sample_lattice", 6.0, 8.0, 1, 0),
            ("geometry.sample_rotation", 6.5, 7.0, 4, 0),
        ]
        assert self_times(spans) == pytest.approx([2.0, 3.0, 1.5, 1.5, 1.5, 0.5])

    def test_overlapping_children_count_once_in_any_order(self):
        spans = [
            ("child", 3.0, 6.0, 2, 0),
            ("child", 1.0, 4.0, 2, 0),
            ("parent", 0.0, 10.0, -1, 0),
            ("child", 8.0, 12.0, 2, 0),
        ]
        # Children cover [1, 6] and, clipped to the parent, [8, 10].
        assert self_times(spans)[2] == pytest.approx(3.0)

    def test_layer_table_medians_run_over_the_ops_that_reach_the_layer(self):
        tracer = Tracer()
        rows = [
            ("bench.op", 0.0, 1.0, -1, 0),
            ("lattice.intersect", 0.1, 0.4, 0, 0),
            ("lattice.integer_vectors_in_annulus", 0.1, 0.2, 1, 0),
            ("bench.op", 1.0, 2.0, -1, 1),
            ("bench.op", 2.0, 3.0, -1, 2),
            ("lattice.intersect", 2.1, 2.3, 4, 2),
            ("lattice.integer_vectors_in_annulus", 2.1, 2.2, 5, 2),
        ]
        for name, start, end, parent, op in rows:
            tracer.name.append(tracer.name_id(name))
            tracer.start.append(start)
            tracer.end.append(end)
            tracer.parent.append(parent)
            tracer.op.append(op)
        tracer.counts = {1: {"hits": 3}, 2: {"rows": 4}, 5: {"hits": 1}, 6: {"rows": 4}}
        table = layer_table(tracer, 3)
        assert table["lattice.intersect"]["ops"] == 2
        assert table["lattice.intersect"]["calls"] == 1.0
        # Self times 200 ms (op 0) and 100 ms (op 2); op 1 never reaches it.
        assert table["lattice.intersect"]["self_ms"] == pytest.approx(150.0)
        assert table["lattice.intersect"]["total_self_ms"] == pytest.approx(300.0)
        assert table["lattice.intersect"]["hit_ratio"] == pytest.approx(0.5)
        assert table["bench.op"]["ops"] == 3
        assert table["bench.op"]["self_ms"] == pytest.approx(800.0)


class TestCycleRate:
    def test_median_of_whole_cycles_drops_the_partial_one(self):
        # Cycles of 2 ops: 1 s, 2 s, 0.5 s, then one op left over.
        durations = [0.5, 0.5, 1.0, 1.0, 0.25, 0.25, 9.0]
        assert cycle_rate(durations, [True] * 7, 2) == pytest.approx(2.0)

    def test_a_slow_cycle_does_not_move_the_median(self):
        durations = [0.2] * 8 + [2.0] * 2
        assert cycle_rate(durations, [True] * 10, 2) == pytest.approx(5.0)

    def test_failed_ops_do_not_count_as_completed(self):
        assert cycle_rate([0.5, 0.5], [True, False], 2) == pytest.approx(1.0)

    def test_summary_reads_scaled_times_and_keeps_wall_times_apart(self):
        # Rows: index, kind, wall ms, scaled ms, digest (None: the op raised).
        ops = [[0, "a", 200.0, 100.0, "x"], [1, "b", 200.0, 300.0, "y"],
               [2, "a", 400.0, 100.0, "z"], [3, "b", 400.0, 300.0, None]]
        summary = summarise(ops, 2)
        assert summary["attempted"] == 4
        assert summary["ops_per_s"] == pytest.approx(statistics.median([2 / 0.4, 1 / 0.4]))
        assert summary["op_p50_ms"] == pytest.approx(200.0)
        assert summary["wall_op_p50_ms"] == pytest.approx(300.0)
        assert summary["mean_ops_per_s"] == pytest.approx(3 / 1.2)


class TestScaling:
    def test_reference_speed_leaves_times_unchanged(self):
        assert scaled([0.2, 0.3], [REFERENCE_S] * 3) == pytest.approx([0.2, 0.3])

    def test_a_machine_twice_as_slow_halves_the_times(self):
        assert scaled([0.4, 0.6], [2 * REFERENCE_S] * 3) == pytest.approx([0.2, 0.3])

    def test_one_slow_reference_does_not_move_the_estimate(self):
        refs = [REFERENCE_S] * 8
        refs[3] = 5 * REFERENCE_S
        assert scaled([0.1] * 7, refs) == pytest.approx([0.1] * 7)

    def test_each_op_needs_references_on_both_sides(self):
        with pytest.raises(ValueError):
            scaled([0.1, 0.1], [REFERENCE_S] * 2)


class TestWrappers:
    def test_install_then_uninstall_restores_every_binding(self):
        before = [(ns, attr, obj) for ns, attr, obj, _ in traced_targets()]
        assert installed_wrappers() == []
        tracer = Tracer()
        tracer.install()
        try:
            assert annihilation.intersect is not before[0][2]
            assert all(getattr(ns, attr) is not obj for ns, attr, obj in before)
            assert "ulat.periodization.Periodization.support_mask" in installed_wrappers()
            assert "ulat.annihilation.sample_lattice" in installed_wrappers()
        finally:
            tracer.uninstall()
        assert all(getattr(ns, attr) is obj for ns, attr, obj in before)
        assert installed_wrappers() == []

    def test_spans_follow_the_callers_lookup(self):
        sigma = EuclideanSet(2, [Ball([0.0, 0.0], 2.0)])
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_op(0, lattice.estimate_card, sigma, 4, 0)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        names = [s[0] for s in spans]
        assert names.count("mc.trial_rng") == 4
        assert names.count("geometry.sample_rotation") == 4
        assert names.count("lattice.intersect") == 4
        for name, _, _, parent, op in spans:
            assert op == 0
            if name == "geometry.sample_rotation":
                assert spans[parent][0] == "lattice.sample_lattice"
            if name == "lattice.sample_lattice":
                assert spans[parent][0] == "mc.run_trials"
        table = layer_table(tracer, 1)
        assert table["geometry.sample_rotation"]["calls"] == 4.0
        assert table["lattice.intersect"]["hit_ratio"] == 1.0
        assert periodization.Periodization.support_mask.__name__ == "support_mask"
