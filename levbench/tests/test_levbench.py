"""Tests of the benchmark's own machinery: spans, tails and failure counts."""

import math
import threading

import pytest

from levbench import layers, run, spans, summary


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = spans.Span("outer", 0.0, 10.0, thread=1, parent=None)
    a = spans.Span("child", 1.0, 4.0, thread=2, parent=0)
    b = spans.Span("child", 3.0, 6.0, thread=3, parent=0)
    assert spans.self_intervals([parent, a, b])[0] == [(0.0, 1.0), (6.0, 10.0)]
    totals = spans.layer_totals([parent, a, b])
    assert totals["outer"].self_s == pytest.approx(5.0)
    assert totals["child"].busy_s == pytest.approx(5.0)
    assert totals["child"].calls == 2


def test_worker_thread_spans_overlap_and_attach_to_the_driver_span():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    both_open = threading.Barrier(2)

    def child():
        index = tracer.begin("child")
        both_open.wait(timeout=10)
        tracer.end(index)

    threads = [threading.Thread(target=child) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.end(outer)

    kids = [s for s in tracer.spans if s.name == "child"]
    assert [s.parent for s in kids] == [outer, outer]
    assert max(s.start for s in kids) < min(s.end for s in kids)
    totals = spans.layer_totals(tracer.spans)
    wall = tracer.spans[outer].end - tracer.spans[outer].start
    union = totals["child"].busy_s
    assert union < sum(s.end - s.start for s in kids)
    assert totals["outer"].self_s == pytest.approx(wall - union)
    assert all(t.busy_s <= wall and t.self_s <= wall for t in totals.values())


def test_missing_boundary_is_absent_not_an_error():
    import levamp.dynamics
    import levamp.harness

    original = levamp.dynamics.transition
    tracer = spans.Tracer()
    installed = spans.install(tracer, [
        spans.Boundary("levamp.dynamics", "no_such_function", "dynamics.gone"),
        spans.Boundary("levamp.no_such_module", "f", "nowhere.f"),
        spans.Boundary("levamp.dynamics", "transition", "dynamics.transition"),
    ])
    try:
        assert installed.missing == [
            "levamp.dynamics.no_such_function", "levamp.no_such_module.f"
        ]
        assert levamp.harness.transition is not original
    finally:
        spans.uninstall(installed)
    assert levamp.harness.transition is original
    assert levamp.dynamics.transition is original

    assert layers.absent_layers(["levamp.cli.main"]) == ["cli.main"]
    assert layers.absent_layers(["levamp.protocol.build_amplified"]) == []
    values = layers.layer_metrics([], traced_ops=1, overhead_frac=0.0)
    assert set(values) == set(layers.METRICS)
    assert values["cli.main_s"] == 0.0


def test_boundaries_are_wrapped_under_every_bound_name():
    import levamp
    import levamp.harness
    from levamp import OscillatorParams, build_amplified

    originals = {name: getattr(levamp.harness, name) for name in ("run_ensemble", "transition")}
    tracer = spans.Tracer()
    installed = spans.install(tracer, layers.BOUNDARIES)
    try:
        assert installed.missing == []
        params = OscillatorParams()
        schedule = levamp.build_amplified(params, r=2.0, tau=0.0, readout_duration=params.period_s)
        levamp.harness.run_ensemble(schedule, params, 3, 0, dt_per_period=50)
    finally:
        spans.uninstall(installed)
    assert {name: getattr(levamp.harness, name) for name in originals} == originals
    assert levamp.build_amplified is build_amplified

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    ensemble = by_name["harness.run_ensemble"][0]
    assert ensemble.work == 3
    root = tracer.spans.index(ensemble)
    for name in ("estimation.retrodiction_schedule", "kernels.roll_record",
                 "kernels.filter_backward", "protocol.validate"):
        assert all(s.parent == root for s in by_name[name]), name
    schedule_span = tracer.spans.index(by_name["estimation.retrodiction_schedule"][0])
    assert {s.parent for s in by_name["dynamics.transition"]} == {root, schedule_span}
    values = layers.layer_metrics(tracer.spans, traced_ops=1, overhead_frac=0.0)
    assert values["kernels.trial_steps"] == sum(s.work for s in tracer.spans if s.name in layers.KERNELS)
    assert 0.0 < values["harness.self_s"] <= values["harness.run_ensemble_s"]


@pytest.mark.parametrize("n, percentile, beyond", [
    (1, 50.0, 0), (19, 50.0, 9), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10),
    (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10),
])
def test_tail_takes_the_highest_percentile_with_ten_samples_beyond(n, percentile, beyond):
    values = [float(i) for i in range(n, 0, -1)]
    tail = summary.tail(values)
    assert (tail.percentile, tail.samples, tail.beyond) == (percentile, n, beyond)
    assert tail.seconds == pytest.approx(summary.percentile(values, percentile))
    assert sum(v > tail.seconds for v in values) >= min(beyond, n - 1)


class _FlakyWorkload:
    """Operation 1 fails its check, operation 2 raises."""

    def op(self, k):
        if k == 2:
            raise RuntimeError("boom")
        return k

    def check(self, k, result):
        return ["wrong answer"] if k == 1 else []

    def release(self, k, result):
        pass


def test_failed_operations_are_counted_against_attempts():
    outcomes = summary.Outcomes()
    for k in range(4):
        run._timed(_FlakyWorkload(), k, outcomes)
    assert outcomes.attempted == 4
    assert outcomes.failed == 2
    assert outcomes.failed_frac == pytest.approx(0.5)
    assert len(outcomes.seconds) == 4
    assert "wrong answer" in outcomes.failures[0]
    assert "boom" in outcomes.failures[1]
    outcomes.fail(1, ["late check"])
    assert outcomes.failed == 2
    outcomes.fail(3, ["late check"])
    assert outcomes.failed == 3
    assert outcomes.failed_frac == pytest.approx(0.75)


def test_run_offers_every_workload():
    from levbench import workloads

    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


def test_compare_values_uses_a_relative_tolerance():
    want = {"a": 1.0, "b": "Q"}
    assert summary.compare_values({"a": 1.0 + 1e-12, "b": "Q"}, want) == []
    assert summary.compare_values({"a": 1.0 + 1e-6, "b": "Q"}, want)
    assert summary.compare_values({"a": math.nan, "b": "Q"}, want)
    assert summary.compare_values({"a": 1.0}, want)


def test_benchmark_json_matches_the_metrics_the_run_reports():
    import json
    from pathlib import Path

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (unit, _) in layers.METRICS.items()
    }
