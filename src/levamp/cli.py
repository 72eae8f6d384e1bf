"""Command-line entry point: presets, sweeps, sensitivity, selftest.

Every command writes data files only (CSV plus a manifest.json that
pins parameters, seed, and code version); plotting is left to external
tools.  All randomness flows from one master seed, which defaults to a
fixed documented value rather than entropy, so repeated runs and CI
are deterministic.  ``--workers`` changes wall time, never bytes.

A flag that sets a run input is a config override: ``--trials N`` sets
``n_trials``, ``sweep-r --tau-ns X`` sets ``tau_grid_ns`` to ``[X]`` and
``sweep-tau --r X`` sets ``r_grid`` to ``[X]``, in place of the
``--config`` file's value.  The merged config is checked once, by
``config.config_from_dict``, so a bad flag value fails like a bad
config key and is named by its key (``sweep-tau --r 7`` names
``r_grid``), and the manifest records the inputs that ran.

Exit codes: 0 success, 1 validation error (bad flags, malformed
config, out-of-range values), 2 runtime failure (including a failing
selftest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, selftest as selftest_mod
from .config import ConfigError, RunConfig, load_config, manifest_inputs
from .harness import (
    DEFAULT_WORKERS,
    derive_seed,
    ensemble_stats,
    fit_displacement_vs_tau,
    fit_k1,
    run_ensemble,
    scaling_rows,
    sensitivity_curve,
    write_ensemble_csv,
    write_scaling_csv,
    write_sensitivity_csv,
)
from .protocol import build_for_ratio, schedule_to_json

DEFAULT_SEED = 20260819

PRESETS = (
    "fig3-conventional",
    "fig3-amplified",
    "fig4-scaling",
    "fig5-sensitivity",
)

# argparse destinations that are config keys: their flags override the
# --config file.
_FLAG_KEYS = ("n_trials", "r_grid", "tau_grid_ns")


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

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help=f"master seed (default {DEFAULT_SEED})")
        p.add_argument("--trials", type=int, dest="n_trials", help="trials per ensemble (n_trials)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="thread count; never affects output bytes")

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("preset", choices=PRESETS)
    common(run)

    sweep_r = sub.add_parser("sweep-r", help="displacement vs squeeze ratio at fixed pulse length")
    common(sweep_r)
    sweep_r.add_argument("--tau-ns", type=float, nargs=1, default=[1000.0], dest="tau_grid_ns",
                         metavar="TAU_NS", help="pulse length in ns (tau_grid_ns = [TAU_NS])")

    sweep_tau = sub.add_parser("sweep-tau", help="displacement vs pulse length at fixed ratio")
    common(sweep_tau)
    sweep_tau.add_argument("--r", type=float, nargs=1, default=[math.sqrt(12.0)], dest="r_grid",
                           metavar="R", help="squeeze ratio (r_grid = [R])")

    sens = sub.add_parser("sensitivity", help="minimum resolvable impulse across ratios")
    common(sens)

    self_p = sub.add_parser("selftest", help="run the full acceptance suite")
    self_p.add_argument("--config", default=None, help="JSON config file")
    return parser


def _resolve(args) -> tuple[RunConfig, int, int]:
    """The run's config (key flags override --config), seed and workers."""
    for key, value, low in (("seed", args.seed, 0), ("workers", args.workers, 1)):
        if value is not None and value < low:
            raise ConfigError(f"config key '{key}' must be >= {low}, got {value}")
    flags = vars(args)
    cfg = load_config(args.config, {
        key: flags[key] for key in _FLAG_KEYS if flags.get(key) is not None
    })
    seed = DEFAULT_SEED if args.seed is None else args.seed
    return cfg, seed, args.workers


def _write_manifest(out: Path, command: str, cfg: RunConfig, seed: int,
                    outputs: list[str], results: dict) -> None:
    manifest = {
        "code_version": __version__,
        "command": command,
        "seed": seed,
        **manifest_inputs(cfg),
        "outputs": sorted(outputs),
        "results": results,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _schedule_for(cfg: RunConfig, r: float, tau_s: float):
    return build_for_ratio(cfg.params, r, tau_s, cfg.readout_periods * cfg.params.period_s)


def _run_fig3(out: Path, name: str, command: str, cfg: RunConfig, seed: int,
              workers: int) -> None:
    r = math.sqrt(12.0) if name == "fig3-amplified" else 1.0
    tau_s = 1000e-9
    schedule = _schedule_for(cfg, r, tau_s)
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
    _write_manifest(out, command, cfg, seed,
                    ["ensemble.csv", "schedule.json", "manifest.json"], results)
    print(f"{name}: {cfg.n_trials} trials, signal {stats.signal_mean:.4f} "
          f"+- {stats.signal_mean_se:.4f} zp, sigma {stats.sigma:.4f} -> {out}")


def _run_scaling(out: Path, name: str, command: str, cfg: RunConfig, seed: int,
                 workers: int) -> None:
    tau_values_s = [t / 1e9 for t in cfg.tau_grid_ns]
    rows = []
    fits = []
    per_point = {}
    index = 0
    for r in cfg.r_grid:
        ensembles = []
        for tau_s in tau_values_s:
            schedule = _schedule_for(cfg, r, tau_s)
            ensembles.append(
                run_ensemble(
                    schedule, cfg.params, cfg.n_trials, derive_seed(seed, index),
                    dt_per_period=cfg.dt_per_period, workers=workers,
                )
            )
            index += 1
        if len(set(tau_values_s)) >= 3:
            fit = fit_displacement_vs_tau(ensembles)
            fits.append(fit)
            rows.extend(scaling_rows(fit))
            per_point[f"k_r_{r:.6g}"] = fit.k
            per_point[f"k_se_r_{r:.6g}"] = fit.k_se
        else:
            for e in ensembles:
                stats = ensemble_stats(e)
                rows.append((e.r, e.tau_s, stats.signal_mean, stats.signal_mean_se))
    write_scaling_csv(rows, out / "scaling.csv")
    results = dict(per_point)
    if len(fits) >= 2:
        k1, k1_se = fit_k1(fits)
        results["k1_zp_per_s"] = k1
        results["k1_se"] = k1_se
    _write_manifest(out, command, cfg, seed, ["scaling.csv", "manifest.json"], results)
    print(f"{name}: {len(rows)} scaling points -> {out}")


def _run_sensitivity(out: Path, name: str, command: str, cfg: RunConfig, seed: int,
                     workers: int) -> None:
    curve = sensitivity_curve(
        cfg.params, cfg.r_grid, cfg.n_trials, seed,
        readout_periods=cfg.readout_periods,
        dt_per_period=cfg.dt_per_period, workers=workers,
    )
    write_sensitivity_csv(curve, out / "sensitivity.csv")
    results = {
        f"dp_min_kev_c_r_{pt.r:.6g}": pt.dp_min_kev_c for pt in curve.points
    }
    _write_manifest(out, command, cfg, seed, ["sensitivity.csv", "manifest.json"], results)
    best = min(curve.points, key=lambda pt: pt.dp_min_kev_c)
    print(f"{name}: best dp_min = {best.dp_min_kev_c:.3f} keV/c at r = {best.r:.3f} -> {out}")


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
        if args.command == "run":
            name, command = args.preset, f"run {args.preset}"
        else:
            name = command = args.command
        out = Path(args.out) if args.out is not None else Path(f"levamp_{name}")
        out.mkdir(parents=True, exist_ok=True)
        if name.startswith("fig3-"):
            handler = _run_fig3
        elif name in ("fig4-scaling", "sweep-r", "sweep-tau"):
            handler = _run_scaling
        else:
            handler = _run_sensitivity
        handler(out, name, command, cfg, seed, workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, numerical aborts
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
