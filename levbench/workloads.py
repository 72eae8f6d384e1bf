"""The four benchmark workloads: inputs, one operation, and its checks.

Every call into ``levamp`` goes through a module attribute
(``harness.run_ensemble``, not a name bound at import) so that the
traced run's wrappers see it.  Inputs come from the workload seed
only; operation k uses input variant ``k % variants`` so that reruns of
one input can be compared with each other within a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import levamp
from levamp import cli, estimation, harness, protocol, records, selftest

from .summary import close, compare_values

DEFAULT_SEED = 20260819
R12 = math.sqrt(12.0)
NPROC = os.cpu_count() or 1


def _quiet(fn, *args, **kwargs):
    """Call ``fn`` with its standard output captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args, **kwargs)
    return result, buf.getvalue()


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(a)))


class Workload:
    name = ""
    variants = 1
    trials_per_op = 1
    # Threads the benchmark asks the program for (None where the program
    # chooses its own), and a note on them for the results file.
    workers: int | None = None
    threads = ""

    def __init__(self, seed: int, work_dir: Path, reference: list | None = None):
        self.seed = int(seed)
        self.work = Path(work_dir)
        self.reference = reference
        self._seen: dict[int, object] = {}

    def prepare(self) -> None:
        """Build the inputs a user would hold before the first call."""

    def warmup(self) -> None:
        """First, untimed call; fills lazy caches."""

    def op(self, k: int):
        raise NotImplementedError

    def validate(self, k: int, result) -> list[str]:
        return []

    def summarize(self, result):
        """Numbers that must repeat across reruns of one input."""
        return None

    def release(self, k: int, result) -> None:
        """Drop files an operation left behind (untimed)."""

    def late_problems(self) -> dict[int, list[str]]:
        """Per-operation checks whose reference is built after the timed loop."""
        return {}

    def run_checks(self) -> list[str]:
        """Checks made once per run, after the timed operations."""
        return []

    def check(self, k: int, result) -> list[str]:
        problems = self.validate(k, result)
        summary = self.summarize(result)
        if summary is not None:
            variant = k % self.variants
            first = self._seen.setdefault(variant, summary)
            problems += ["rerun " + p for p in compare_values(summary, first)]
            if self.reference is not None:
                problems += [
                    "reference " + p
                    for p in compare_values(summary, self.reference[variant])
                ]
        return problems


class Ensemble12p(Workload):
    """Selftest criteria 6, 7, 9, 10 configuration: r = sqrt 12, 12-period readout."""

    name = "ensemble-12p"
    variants = 4
    trials_per_op = 2048
    # One worker: on 2 cores a second one adds about 10 % throughput while
    # its timing follows the host's load far more (see README).
    workers = 1
    threads = "1: workers = 1, no thread pool"
    readout_periods = 12.0
    determinism_trials = 600

    def prepare(self):
        self.params = levamp.OscillatorParams()
        self.schedule = protocol.build_amplified(
            self.params, r=R12, tau=0.0,
            readout_duration=self.readout_periods * self.params.period_s,
        )

    def _run(self, n_trials, seed, workers):
        return harness.run_ensemble(
            self.schedule, self.params, n_trials, seed, workers=workers
        )

    def warmup(self):
        harness.ensemble_stats(self._run(256, self.seed, self.workers))

    def op(self, k):
        ensemble = self._run(self.trials_per_op, self.seed + k % self.variants, self.workers)
        return ensemble, harness.ensemble_stats(ensemble)

    def validate(self, k, result):
        ensemble, _ = result
        problems = []
        if ensemble.outcomes.shape != (self.trials_per_op, 2):
            problems.append(f"outcomes shape {ensemble.outcomes.shape}")
        if not (_finite(ensemble.outcomes) and _finite(ensemble.truths)):
            problems.append("non-finite outcome or truth")
        c = ensemble.est_cov
        if not close(c[0, 1], c[1, 0], rel=1e-12):
            problems.append("est_cov not symmetric")
        if not (c[0, 0] > 0.0 and c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0] > 0.0):
            problems.append("est_cov not positive definite")
        return problems

    def summarize(self, result):
        _, stats = result
        return {"signal_mean": stats.signal_mean, "sigma": stats.sigma}

    def run_checks(self):
        """The determinism contract: CSV bytes do not depend on workers."""
        blobs = []
        for workers in (1, NPROC):
            path = self.work / f"determinism_w{workers}.csv"
            harness.write_ensemble_csv(self._run(self.determinism_trials, self.seed, workers), path)
            blobs.append(path.read_bytes())
            path.unlink()
        if blobs[0] != blobs[1]:
            return [f"ensemble CSV differs between 1 and {NPROC} workers"]
        return []


PRESET_OUTPUTS = {
    "fig3-amplified": ["ensemble.csv", "manifest.json", "schedule.json"],
    "fig3-conventional": ["ensemble.csv", "manifest.json", "schedule.json"],
    "fig4-scaling": ["manifest.json", "scaling.csv"],
    "fig5-sensitivity": ["manifest.json", "sensitivity.csv"],
}

# The CLI defaults, written out so that the workload, and its trial
# count, stay fixed if those defaults change.
PRESET_CONFIG = {
    "n_trials": 200,
    "r_grid": [1.0, 2.0, R12],
    "tau_grid_ns": [100.0, 177.827941, 316.227766, 562.341325, 1000.0],
    "readout_periods": 5.0,
    "dt_per_period": 200,
}


class CliPresets(Workload):
    """One in-process pass of ``levamp run`` over the four figure presets."""

    name = "cli-presets"
    variants = 4
    workers = NPROC
    threads = f"{NPROC}: --workers = os.cpu_count()"
    trials_per_op = PRESET_CONFIG["n_trials"] * (
        2
        + len(PRESET_CONFIG["r_grid"]) * len(PRESET_CONFIG["tau_grid_ns"])
        + len(PRESET_CONFIG["r_grid"])
    )

    def prepare(self):
        self.config = self.work / "presets.json"
        self.config.write_text(json.dumps(PRESET_CONFIG), encoding="utf-8")

    def _main(self, preset, seed, out, *extra):
        argv = ["run", preset, "--config", str(self.config), "--seed", str(seed),
                "--workers", str(self.workers), "--out", str(out), *extra]
        return _quiet(cli.main, argv)[0]

    def warmup(self):
        out = self.work / "warmup"
        self._main("fig3-amplified", self.seed, out, "--trials", "20")
        shutil.rmtree(out)

    def op(self, k):
        out = self.work / f"op{k}"
        seed = self.seed + k % self.variants
        codes = {preset: self._main(preset, seed, out / preset) for preset in PRESET_OUTPUTS}
        return codes, out

    def validate(self, k, result):
        codes, out = result
        problems = []
        for preset, expected in PRESET_OUTPUTS.items():
            if codes[preset] != 0:
                problems.append(f"{preset}: exit code {codes[preset]}")
                continue
            files = sorted(os.listdir(out / preset))
            manifest = json.loads((out / preset / "manifest.json").read_text(encoding="utf-8"))
            if files != expected or manifest.get("outputs") != expected:
                problems.append(f"{preset}: outputs {files}, manifest lists {manifest.get('outputs')}")
        return problems

    def summarize(self, result):
        codes, out = result
        summary = {}
        for preset in PRESET_OUTPUTS:
            path = out / preset / "manifest.json"
            if codes[preset] == 0 and path.is_file():
                summary[preset] = json.loads(path.read_text(encoding="utf-8"))["results"]
        return summary

    def release(self, k, result):
        shutil.rmtree(self.work / f"op{k}", ignore_errors=True)


class RecordReplay(Workload):
    """One trial from simulation through record files to its estimate."""

    name = "record-replay"
    replay_trials = 512
    variants = replay_trials
    threads = "1: one trial, no thread pool"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._replayed: list[tuple[int, np.ndarray, np.ndarray]] = []

    def prepare(self):
        self.params = levamp.OscillatorParams()
        self.schedule = protocol.build_amplified(self.params, r=R12, tau=1000e-9)
        self.model = estimation.readout_model(self.params)

    def op(self, k):
        truth, recs = harness.simulate_trial(
            self.schedule, self.params, self.seed, k % self.replay_trials
        )
        from_binary, from_csv = [], []
        for j, rec in enumerate(recs):
            binary, text = self.work / f"rec{j}.lkr", self.work / f"rec{j}.csv"
            records.write_record_binary(rec, binary)
            from_binary.append(records.read_record_binary(binary))
            records.write_record_csv(rec, text)
            from_csv.append(records.read_record_csv(text))
        est = estimation.estimate_trial_outcome(from_binary, self.model, self.schedule)
        return truth, recs, from_binary, from_csv, est

    def warmup(self):
        self.op(0)

    def validate(self, k, result):
        truth, recs, from_binary, from_csv, est = result
        self._replayed.append((k, truth, est.estimate))
        problems = []
        for rec, back in zip(recs, from_binary):
            if not (back.t0 == rec.t0 and back.dt == rec.dt
                    and back.samples.tobytes() == rec.samples.tobytes()
                    and back.gate.tobytes() == rec.gate.tobytes()):
                problems.append("LKR1 round trip is not bit-exact")
        est_csv = estimation.estimate_trial_outcome(from_csv, self.model, self.schedule)
        gap = float(np.max(np.abs(est_csv.estimate - est.estimate)))
        if not gap <= 1e-9:
            problems.append(f"estimate from the CSV round trip differs by {gap:.3g}")
        return problems

    def late_problems(self):
        """Each replayed trial against the same trial of ``run_ensemble``.

        The ensemble is built after the timed loop so that its memory
        does not count in the workload's peak RSS.
        """
        ensemble = harness.run_ensemble(
            self.schedule, self.params, self.replay_trials, self.seed, workers=NPROC
        )
        late = {}
        for k, truth, est in self._replayed:
            i = k % self.replay_trials
            for what, got, want in (("estimate", est, ensemble.outcomes[i]),
                                    ("truth", truth, ensemble.truths[i])):
                gap = float(np.max(np.abs(got - want)))
                if not gap <= 1e-9:
                    late.setdefault(k, []).append(
                        f"{what} differs from run_ensemble trial {i} by {gap:.3g}")
        return late


class SelftestAnalytic(Workload):
    """Selftest criteria 1-5, the analytic checks, through ``run_criterion``.

    These are the only callers of ``dynamics.propagate`` and
    ``estimation.riccati_steady_state``, and run on one thread.  The
    Monte-Carlo criteria 6-12 are left out: a full selftest pass is one
    30-40 s operation whose 4 and 8 worker threads oversubscribe the
    cores, so its time follows the host's load from run to run.  A
    trial here is one pass over the five criteria.
    """

    name = "selftest-analytic"
    criteria = (1, 2, 3, 4, 5)
    threads = "1: analytic criteria, no thread pool"

    def warmup(self):
        selftest.warm_kernels()
        self.op(0)

    def op(self, k):
        return [selftest.run_criterion(i) for i in self.criteria]

    def validate(self, k, result):
        return [f"criterion {r.index} failed: {r.detail}" for r in result if not r.passed]


WORKLOADS = {w.name: w for w in (Ensemble12p, CliPresets, RecordReplay, SelftestAnalytic)}


def make(name: str, seed: int, work_dir: Path, reference: list | None = None) -> Workload:
    return WORKLOADS[name](seed, work_dir, reference)
