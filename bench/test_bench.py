"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest bench/test_bench.py
"""

import pytest

import run
import spans

# root [0, 10]
#   a [1, 4]
#     a1 [2, 3]
#   b [5, 9]
#     b1 [5, 6]
#     b2 [7, 8.5]
TREE = [
    ("root", -1, 0.0, 10.0),
    ("a", 0, 1.0, 4.0),
    ("a1", 1, 2.0, 3.0),
    ("b", 0, 5.0, 9.0),
    ("b1", 3, 5.0, 6.0),
    ("b2", 3, 7.0, 8.5),
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(TREE) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 1.0 - 1.5, 1.0, 1.5])


def test_self_times_add_up_to_the_root_span():
    assert sum(spans.self_times(TREE)) == pytest.approx(10.0)


def test_summarize_aggregates_by_name():
    tree = TREE + [("a", 0, 9.0, 9.5)]
    summary = spans.summarize(tree)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["total_s"] == pytest.approx(3.5)
    assert summary["a"]["self_s"] == pytest.approx(2.5)
    assert summary["root"]["self_s"] == pytest.approx(2.5)


def test_tracer_records_nesting_from_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: [inner(), inner()])
    outer()
    assert [(s[0], s[1]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    summary = spans.summarize(tracer.spans)
    assert summary["outer"]["total_s"] == 5.0
    assert summary["outer"]["self_s"] == 3.0
    assert summary["inner"]["self_s"] == 2.0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    assert run.input_bytes(workload, 7) == run.input_bytes(workload, 7)
    assert run.input_bytes(workload, 7) != run.input_bytes(workload, 8)
