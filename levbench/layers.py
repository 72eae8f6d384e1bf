"""Layer boundaries of ``levamp`` and the per-layer metrics derived from them.

Each layer is named by its module; ``kernels`` stands for ``_kernels``
because a metric name must start with a letter or digit.  All per-layer
values are per traced operation: totals over the traced operations of a
run divided by their number.  A layer whose every boundary function is
missing is reported as absent, with value 0.
"""

from __future__ import annotations

import os
from math import prod

from .spans import Boundary, LayerTotals, busy_s, layer_totals


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _shape_work(position, name):
    return lambda args, kwargs, result: prod(_arg(args, kwargs, position, name).shape)


def _bytes_written(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _criterion_label(args, kwargs):
    return f"selftest.criterion_{_arg(args, kwargs, 0, 'index')}"


# The selftest criteria a workload runs (see ``workloads.SelftestAnalytic``).
CRITERIA = range(1, 6)

BOUNDARIES = (
    Boundary("levamp.protocol", "build_amplified", "protocol.build"),
    Boundary("levamp.protocol", "build_conventional", "protocol.build"),
    Boundary("levamp.protocol", "validate", "protocol.validate"),
    Boundary("levamp.dynamics", "transition", "dynamics.transition"),
    Boundary("levamp.dynamics", "propagate", "dynamics.propagate"),
    Boundary("levamp.estimation", "retrodiction_schedule", "estimation.retrodiction_schedule"),
    Boundary("levamp.estimation", "retrodict", "estimation.retrodict",
             work=lambda args, kwargs, result: len(_arg(args, kwargs, 0, "record"))),
    Boundary("levamp.estimation", "riccati_steady_state", "estimation.riccati_steady_state"),
    Boundary("levamp._kernels", "roll_record", "kernels.roll_record", work=_shape_work(4, "v")),
    Boundary("levamp._kernels", "roll", "kernels.roll", work=_shape_work(3, "w")),
    Boundary("levamp._kernels", "filter_backward", "kernels.filter_backward", work=_shape_work(0, "y")),
    Boundary("levamp.harness", "run_ensemble", "harness.run_ensemble",
             work=lambda args, kwargs, result: _arg(args, kwargs, 2, "n_trials")),
    Boundary("levamp.harness", "simulate_trial", "harness.simulate_trial"),
    Boundary("levamp.harness", "ensemble_stats", "harness.ensemble_stats"),
    Boundary("levamp.harness", "fit_displacement_vs_tau", "harness.fit"),
    Boundary("levamp.harness", "fit_k1", "harness.fit"),
    Boundary("levamp.harness", "write_ensemble_csv", "harness.write_csv"),
    Boundary("levamp.harness", "write_scaling_csv", "harness.write_csv"),
    Boundary("levamp.harness", "write_sensitivity_csv", "harness.write_csv"),
    Boundary("levamp.records", "write_record_binary", "records.write_binary", work=_bytes_written),
    Boundary("levamp.records", "read_record_binary", "records.read_binary"),
    Boundary("levamp.records", "write_record_csv", "records.write_csv", work=_bytes_written),
    Boundary("levamp.records", "read_record_csv", "records.read_csv"),
    Boundary("levamp.cli", "main", "cli.main"),
    Boundary("levamp.selftest", "run_criterion", "selftest.criterion", label=_criterion_label),
)

KERNELS = ("kernels.roll_record", "kernels.roll", "kernels.filter_backward")

# Per-layer metric -> (unit, layer whose busy time it is, if it is one).
METRICS = {
    "protocol.build_s": ("s", "protocol.build"),
    "protocol.validate_s": ("s", "protocol.validate"),
    "dynamics.transition_s": ("s", "dynamics.transition"),
    "dynamics.transition_calls": ("count", None),
    "dynamics.propagate_s": ("s", "dynamics.propagate"),
    "estimation.retrodiction_schedule_s": ("s", "estimation.retrodiction_schedule"),
    "estimation.retrodiction_schedule_calls": ("count", None),
    "estimation.retrodict_s": ("s", "estimation.retrodict"),
    "estimation.retrodict_us_per_sample": ("us", None),
    "estimation.riccati_steady_state_s": ("s", "estimation.riccati_steady_state"),
    "kernels.roll_record_s": ("s", "kernels.roll_record"),
    "kernels.roll_s": ("s", "kernels.roll"),
    "kernels.filter_backward_s": ("s", "kernels.filter_backward"),
    "kernels.trial_steps": ("count", None),
    "kernels.ns_per_trial_step": ("ns", None),
    "harness.run_ensemble_s": ("s", "harness.run_ensemble"),
    "harness.self_s": ("s", None),
    "harness.self_us_per_trial": ("us", None),
    "harness.simulate_trial_s": ("s", "harness.simulate_trial"),
    "harness.ensemble_stats_s": ("s", "harness.ensemble_stats"),
    "harness.fit_s": ("s", "harness.fit"),
    "harness.write_csv_s": ("s", "harness.write_csv"),
    "records.write_binary_s": ("s", "records.write_binary"),
    "records.read_binary_s": ("s", "records.read_binary"),
    "records.write_csv_s": ("s", "records.write_csv"),
    "records.read_csv_s": ("s", "records.read_csv"),
    "records.bytes_written": ("B", None),
    "cli.main_s": ("s", "cli.main"),
    "cli.self_s": ("s", None),
    **{f"selftest.criterion_{i}_s": ("s", f"selftest.criterion_{i}") for i in CRITERIA},
    "trace.overhead_frac": ("frac", None),
}


def _per(total: float, count: int, scale: float) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(spans, traced_ops: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer values per traced operation, keyed like ``METRICS``."""
    totals = layer_totals(spans)
    zero = LayerTotals(0.0, 0.0, 0, 0)
    get = lambda layer: totals.get(layer, zero)  # noqa: E731
    steps = sum(get(k).work for k in KERNELS)
    ens = get("harness.run_ensemble")
    retro = get("estimation.retrodict")
    # Ratios of two totals; the remaining values are totals per operation.
    ratios = {
        "estimation.retrodict_us_per_sample": _per(retro.busy_s, retro.work, 1e6),
        "kernels.ns_per_trial_step": _per(busy_s(spans, KERNELS), steps, 1e9),
        "harness.self_us_per_trial": _per(ens.self_s, ens.work, 1e6),
        "trace.overhead_frac": overhead_frac,
    }
    sums = {
        "dynamics.transition_calls": get("dynamics.transition").calls,
        "estimation.retrodiction_schedule_calls": get("estimation.retrodiction_schedule").calls,
        "kernels.trial_steps": steps,
        "harness.self_s": ens.self_s,
        "records.bytes_written": get("records.write_binary").work + get("records.write_csv").work,
        "cli.self_s": get("cli.main").self_s,
    }
    out = {}
    for name, (_, layer) in METRICS.items():
        if name in ratios:
            out[name] = ratios[name]
        else:
            out[name] = (sums[name] if layer is None else get(layer).busy_s) / traced_ops
    return out


def absent_layers(missing: list[str]) -> list[str]:
    """Layers none of whose boundary functions exist."""
    found = {b.layer for b in BOUNDARIES if f"{b.module}.{b.attr}" not in missing}
    return sorted({b.layer for b in BOUNDARIES} - found)
