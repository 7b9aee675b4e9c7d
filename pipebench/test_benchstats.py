"""Tests for the benchmark's statistics helpers and trace wrappers.

    python3 -m pytest pipebench
"""

import os
import statistics
import sys

import pytest

from benchstats import covered_length, quartiles, relative_iqr, self_times, tail

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))
    value, pct, n = tail(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_of_twenty_is_the_median_order_statistic():
    value, pct, n = tail([float(v) for v in range(20)])
    assert (value, pct, n) == (9.0, 50.0, 20)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))
    assert tail(range(11)) == (0, 100.0 / 11, 11)


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, med, q3 = quartiles(values)
    assert relative_iqr(values) == (q3 - q1) / med


def test_quartiles_need_two_values():
    with pytest.raises(ValueError):
        quartiles([1.0])


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(4.0, 8.0), (2.0, 5.0), (9.0, 10.0)]) == 7.0
    assert covered_length([(0.0, 1.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 3.0, 0),  # child
        (1.5, 2.5, 1),  # grandchild: counts against the child, not the root
        (5.0, 6.0, 0),  # child
    ]
    assert self_times(spans) == [7.0, 1.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [(0.0, 10.0, -1), (2.0, 5.0, 0), (4.0, 8.0, 0), (9.0, 12.0, 0)]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_tracer_wraps_every_holder_of_a_name():
    sys.path.insert(0, SRC)
    try:
        from transportlab import geom, leastgrad, measures, ot, simplex

        import tracing
    finally:
        sys.path.remove(SRC)
    before = (ot.solve_kantorovich, leastgrad.solve_kantorovich, simplex.solve_transport)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ot.solve_kantorovich is not before[0]
        assert leastgrad.solve_kantorovich is ot.solve_kantorovich
        s = [0.1, 0.2, 1.0, 1.1]
        domain = geom.disk(1.0)
        f_plus = measures.BoundaryMeasure(s[:2], [1.0, 1.0], domain.perimeter)
        f_minus = measures.BoundaryMeasure(s[2:], [1.0, 1.0], domain.perimeter)
        ot.solve_kantorovich(f_plus, f_minus, geom.ChordCost(domain, geom.EuclideanNorm()))
    finally:
        tracer.remove()
    assert (ot.solve_kantorovich, leastgrad.solve_kantorovich, simplex.solve_transport) == before
    names = [s[0] for s in tracer.spans]
    assert names[0] == "ot.solve_kantorovich"
    assert {"geom.cost_matrix", "simplex.solve_transport"} <= set(names)
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["simplex.solve_transport"][3] == 0  # child of the solve span
    counts = tracer.take_counts()
    assert counts["geom.cost_entries"] == 4
    assert counts["simplex.pivots"] >= 0
