"""levamp benchmark: one workload, timed end to end or traced layer by layer.

    python3 levbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its
``src`` directory.  Operations repeat, closed loop and one at a time,
for about ``--seconds`` (at least one runs).  Every operation's
output is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  A results file with the environment block and the
details goes to ``.levbench/results/``.

With ``--trace 1`` even operations run untraced and odd ones traced, so
``trace.overhead_frac`` compares the two halves of one run.  Untraced
operations, and every ``--trace 0`` run, execute the package unwrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from levbench import envinfo, layers, spans, summary  # noqa: E402

WORKLOADS = ("ensemble-12p", "cli-presets", "record-replay", "selftest-analytic")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# The end-to-end metrics of a --trace 0 run and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
}


def _setup_seconds(name: str, seed: int, work: Path) -> list[float]:
    """Fresh-process set-up times, one per probe, run one after another."""
    env = dict(os.environ, TMPDIR=str(work))
    times = []
    for i in range(SETUP_PROBES):
        probe = work / f"probe{i}"
        probe.mkdir()
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(probe)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        shutil.rmtree(probe, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def _timed(workload, k, outcomes, around=contextlib.nullcontext):
    """Run, time and check operation k; only the call runs inside ``around``."""
    with around():
        start = time.perf_counter()
        try:
            result = workload.op(k)
            error = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    if error is None:
        try:
            problems = workload.check(k, result)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
    else:
        problems = [error]
    outcomes.record(elapsed, problems)
    workload.release(k, result)
    return elapsed


def _measure(workload, seconds: float, outcomes) -> None:
    start = time.perf_counter()
    k, last = 0, 0.0
    while k == 0 or _more(start, last, seconds):
        last = _timed(workload, k, outcomes)
        k += 1


def _more(start: float, last: float, seconds: float) -> bool:
    """Start another operation unless it would end well past ``seconds``.

    An operation about as long as the last one may overrun by at most
    half its length; this keeps one long operation from doubling a run.
    """
    return time.perf_counter() - start + last / 2 < seconds


def _measure_traced(workload, seconds: float, outcomes):
    tracer = spans.Tracer()
    missing: list[str] = []

    @contextlib.contextmanager
    def tracing():
        installed = spans.install(tracer, layers.BOUNDARIES)
        missing[:] = installed.missing
        try:
            yield
        finally:
            spans.uninstall(installed)

    plain, traced = [], []
    start = time.perf_counter()
    k, last = 0, 0.0
    while k < 2 or _more(start, last, seconds):
        if k % 2 == 0:
            last = _timed(workload, k, outcomes)
            plain.append(last)
        else:
            last = _timed(workload, k, outcomes, tracing)
            traced.append(last)
        k += 1
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = layers.layer_metrics(tracer.spans, len(traced), overhead)
    wall = statistics.mean(traced)
    details = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "spans": len(tracer.spans),
        "traced_wall_s_per_op": wall,
        "layers_within_wall": all(
            value <= wall for name, value in metrics.items() if layers.METRICS[name][0] == "s"
        ),
        "missing_functions": missing,
        "absent_layers": layers.absent_layers(missing),
    }
    units = {name: unit for name, (unit, _) in layers.METRICS.items()}
    return metrics, units, details


def _end_to_end(workload, outcomes, setup, peak_rss_kib):
    tail = summary.tail(outcomes.seconds)
    p50 = outcomes.median
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": workload.trials_per_op * outcomes.attempted / sum(outcomes.seconds),
        "op_s_p50": p50,
        "op_s_tail": tail.seconds,
        "ok_frac": 1.0 - outcomes.failed_frac,
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    details = {
        "setup_s_samples": setup,
        "op_s_samples_n": len(outcomes.seconds),
        "op_s_samples": outcomes.seconds,
        "op_s_tail_percentile": tail.percentile,
        "op_s_tail_beyond": tail.beyond,
        "trials_per_op": workload.trials_per_op,
        "failed_frac": outcomes.failed_frac,
    }
    return metrics, END_TO_END_UNITS, details


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed the reference values are for)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "levamp" / "__init__.py").is_file():
        print(f"error: no levamp package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import levamp

    if not Path(levamp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported levamp from {levamp.__file__}, not this checkout", file=sys.stderr)
        return 2
    from levbench import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads((BENCH / "reference.json").read_text()).get(args.workload)
    state = ROOT / ".levbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    # Keep every temporary file, the selftest's included, in the checkout.
    tempfile.tempdir = str(work)
    try:
        workload = workloads.make(args.workload, seed, work, reference)
        workload.prepare()
        workload.warmup()
        outcomes = summary.Outcomes()
        if args.trace:
            metrics, units, details = _measure_traced(workload, args.seconds, outcomes)
        else:
            _measure(workload, args.seconds, outcomes)
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # After the timed loop, so that every probe finds the machine
            # equally busy; an idle machine sets up markedly slower.
            setup = _setup_seconds(args.workload, seed, work)
        for k, problems in workload.late_problems().items():
            outcomes.fail(k, problems)
        if not args.trace:
            metrics, units, details = _end_to_end(workload, outcomes, setup, peak_rss_kib)
        run_problems = workload.run_checks()
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    correct = outcomes.failed == 0 and not run_problems
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": envinfo.environment(ROOT, workload),
        "details": details,
        "failures": outcomes.failures[:20],
        "run_check_failures": run_problems,
        **result,
    }
    results_dir = state / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{args.workload}-trace{args.trace}-seed{seed}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in (outcomes.failures[:5] + run_problems):
        print(f"FAILED {problem[:500]}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"op_s_tail is p{details['op_s_tail_percentile']:g}, "
              f"{details['op_s_tail_beyond']} of {details['op_s_samples_n']} samples beyond it; "
              f"failed_frac = {outcomes.failed_frac:g}")
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
