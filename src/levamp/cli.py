"""Command-line entry point: the figure presets and the selftest.

Every command writes data files only (CSV plus a manifest.json that
pins parameters, seed, and code version); plotting is left to external
tools.  All randomness flows from one master seed, which defaults to a
fixed documented value rather than entropy, so repeated runs and CI
are deterministic.  ``--workers`` changes wall time, never bytes.

``--trials N`` is the one flag that sets a run input: it sets
``n_trials`` in place of the ``--config`` file's value.  A sweep over
one ratio or one pulse length is ``run fig4-scaling`` with a config
that sets ``r_grid`` or ``tau_grid_ns``.  The merged config is checked
once, by ``config.config_from_dict``, so a bad value is named by its
key, and the manifest records the inputs that ran.

Exit codes: 0 success, 1 validation error (bad flags, malformed
config, out-of-range values), 2 runtime failure (including a failing
selftest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

from . import __version__, selftest as selftest_mod
from .config import ConfigError, RunConfig, load_config, manifest_inputs
from .harness import (
    DEFAULT_WORKERS,
    ensemble_stats,
    fit_displacement_vs_tau,
    fit_k1,
    run_ensemble,
    run_grid,
    scaling_rows,
    sensitivity_curve,
    write_ensemble_csv,
    write_scaling_csv,
    write_sensitivity_csv,
)
from .protocol import build_for_ratio, schedule_to_json

DEFAULT_SEED = 20260819


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="levamp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"levamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("preset", choices=PRESETS)
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--seed", type=int, default=None, help=f"master seed (default {DEFAULT_SEED})")
    run.add_argument("--trials", type=int, default=None, help="trials per ensemble (n_trials)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                     help="thread count; never affects output bytes")

    self_p = sub.add_parser("selftest", help="run the full acceptance suite")
    self_p.add_argument("--config", default=None, help="JSON config file")
    return parser


def _resolve(args) -> tuple[RunConfig, int, int]:
    """The run's config (--trials overrides --config), seed and workers."""
    for key, value, low in (("seed", args.seed, 0), ("workers", args.workers, 1)):
        if value is not None and value < low:
            raise ConfigError(f"config key '{key}' must be >= {low}, got {value}")
    cfg = load_config(args.config, {} if args.trials is None else {"n_trials": args.trials})
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return cfg, seed, args.workers


def _write_manifest(out: Path, preset: str, cfg: RunConfig, seed: int,
                    outputs: list[str], results: dict) -> None:
    manifest = {
        "code_version": __version__,
        "command": f"run {preset}",
        "seed": seed,
        **manifest_inputs(cfg),
        "outputs": sorted(outputs),
        "results": results,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _run_fig3(r: float, out: Path, preset: str, cfg: RunConfig, seed: int,
              workers: int) -> None:
    tau_s = 1000e-9
    schedule = build_for_ratio(cfg.params, r, tau_s, cfg.readout_periods * cfg.params.period_s)
    ensemble = run_ensemble(
        schedule, cfg.params, cfg.n_trials, seed,
        dt_per_period=cfg.dt_per_period, workers=workers,
    )
    write_ensemble_csv(ensemble, out / "ensemble.csv")
    (out / "schedule.json").write_text(schedule_to_json(schedule) + "\n", encoding="utf-8")
    stats = ensemble_stats(ensemble)
    results = {
        "r": r,
        "tau_ns": tau_s * 1e9,
        "kick_dp_zp": schedule.kick_dp,
        "signal_axis": stats.axis,
        "signal_mean": stats.signal_mean,
        "signal_mean_se": stats.signal_mean_se,
        "sigma_tot": stats.sigma,
        "sigma_tot_se": stats.sigma_se,
    }
    _write_manifest(out, preset, cfg, seed,
                    ["ensemble.csv", "schedule.json", "manifest.json"], results)
    print(f"{preset}: {cfg.n_trials} trials, signal {stats.signal_mean:.4f} "
          f"+- {stats.signal_mean_se:.4f} zp, sigma {stats.sigma:.4f} -> {out}")


def _run_scaling(out: Path, preset: str, cfg: RunConfig, seed: int, workers: int) -> None:
    taus = [t / 1e9 for t in cfg.tau_grid_ns]
    ensembles = run_grid(
        cfg.params, [(r, tau_s) for r in cfg.r_grid for tau_s in taus], cfg.n_trials, seed,
        readout_periods=cfg.readout_periods, dt_per_period=cfg.dt_per_period, workers=workers,
    )
    rows = []
    fits = []
    results = {}
    for i, r in enumerate(cfg.r_grid):
        group = ensembles[i * len(taus):(i + 1) * len(taus)]
        rows.extend(scaling_rows(group))
        if len(set(taus)) >= 3:
            fit = fit_displacement_vs_tau(group)
            fits.append(fit)
            results[f"k_r_{r:.6g}"] = fit.k
            results[f"k_se_r_{r:.6g}"] = fit.k_se
    write_scaling_csv(rows, out / "scaling.csv")
    if len(fits) >= 2:
        k1, k1_se = fit_k1(fits)
        results["k1_zp_per_s"] = k1
        results["k1_se"] = k1_se
    _write_manifest(out, preset, cfg, seed, ["scaling.csv", "manifest.json"], results)
    print(f"{preset}: {len(rows)} scaling points -> {out}")


def _run_sensitivity(out: Path, preset: str, cfg: RunConfig, seed: int, workers: int) -> None:
    curve = sensitivity_curve(
        cfg.params, cfg.r_grid, cfg.n_trials, seed,
        readout_periods=cfg.readout_periods,
        dt_per_period=cfg.dt_per_period, workers=workers,
    )
    write_sensitivity_csv(curve, out / "sensitivity.csv")
    results = {
        f"dp_min_kev_c_r_{pt.r:.6g}": pt.dp_min_kev_c for pt in curve
    }
    _write_manifest(out, preset, cfg, seed, ["sensitivity.csv", "manifest.json"], results)
    best = min(curve, key=lambda pt: pt.dp_min_kev_c)
    print(f"{preset}: best dp_min = {best.dp_min_kev_c:.3f} keV/c at r = {best.r:.3f} -> {out}")


# Each preset's handler, called as handler(out, preset, cfg, seed, workers).
PRESETS = {
    "fig3-conventional": partial(_run_fig3, 1.0),
    "fig3-amplified": partial(_run_fig3, math.sqrt(12.0)),
    "fig4-scaling": _run_scaling,
    "fig5-sensitivity": _run_sensitivity,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "selftest":
            results = selftest_mod.run_all(load_config(args.config).params)
            return 0 if all(r.passed for r in results) else 2
        cfg, seed, workers = _resolve(args)
        out = Path(args.out) if args.out is not None else Path(f"levamp_{args.preset}")
        out.mkdir(parents=True, exist_ok=True)
        PRESETS[args.preset](out, args.preset, cfg, seed, workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, numerical aborts
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
