"""Command-line entry point: presets, sweeps, sensitivity, selftest.

Every command writes data files only (CSV plus a manifest.json that
pins parameters, seed, and code version); plotting is left to external
tools.  All randomness flows from one master seed, which defaults to a
fixed documented value rather than entropy, so repeated runs and CI
are deterministic.  ``--workers`` changes wall time, never bytes.

Exit codes: 0 success, 1 validation error (bad flags, malformed
config, out-of-range values), 2 runtime failure (including a failing
selftest).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import __version__, selftest as selftest_mod
from .config import R_MAX, ConfigError, RunConfig, load_config, require_finite_kick
from .harness import (
    DEFAULT_WORKERS,
    MIN_STATS_TRIALS,
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
from .params import momentum_to_kev_c
from .protocol import build_for_ratio, schedule_to_json

DEFAULT_SEED = 20260819

PRESETS = (
    "fig3-conventional",
    "fig3-amplified",
    "fig4-scaling",
    "fig5-sensitivity",
)


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
        p.add_argument("--trials", type=int, default=None, help="trials per ensemble")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=DEFAULT_WORKERS,
                       help="thread count; never affects output bytes")

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("preset", choices=PRESETS)
    common(run)

    sweep_r = sub.add_parser("sweep-r", help="displacement vs squeeze ratio at fixed pulse length")
    common(sweep_r)
    sweep_r.add_argument("--tau-ns", type=float, default=1000.0, help="pulse length in ns")

    sweep_tau = sub.add_parser("sweep-tau", help="displacement vs pulse length at fixed ratio")
    common(sweep_tau)
    sweep_tau.add_argument("--r", type=float, default=math.sqrt(12.0), help="squeeze ratio")

    sens = sub.add_parser("sensitivity", help="minimum resolvable impulse across ratios")
    common(sens)

    self_p = sub.add_parser("selftest", help="run the full acceptance suite")
    self_p.add_argument("--config", default=None, help="JSON config file")
    return parser


def _resolve(args) -> tuple[RunConfig, int, int]:
    cfg = load_config(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"config key 'seed' must be >= 0, got {args.seed}")
    if args.trials is not None:
        if args.trials < MIN_STATS_TRIALS:
            raise ConfigError(
                f"config key 'n_trials' must be >= {MIN_STATS_TRIALS}, got {args.trials}"
            )
        cfg = dataclasses.replace(cfg, n_trials=args.trials)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workers = max(1, args.workers)
    return cfg, seed, workers


def _out_dir(args, default_name: str) -> Path:
    out = Path(args.out) if args.out is not None else Path(f"levamp_{default_name}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _params_payload(cfg: RunConfig) -> dict:
    p = cfg.params
    return {
        "mass_kg": p.mass_kg,
        "freq_hz": p.freq_hz,
        "eta": p.eta,
        "gamma_qb_hz": p.gamma_qb_hz,
        "n_init": p.n_init,
        "kappa_imp": p.kappa_imp,
        "gamma_fb_hz": p.gamma_fb_hz,
        "pulse_voltage_v": p.pulse_voltage_v,
        "p_zp_kev_c": (
            None if p.p_zp_override is None else momentum_to_kev_c(p.p_zp_override)
        ),
    }


def _write_manifest(out: Path, command: str, cfg: RunConfig, seed: int,
                    outputs: list[str], results: dict) -> None:
    manifest = {
        "code_version": __version__,
        "command": command,
        "seed": seed,
        "params": _params_payload(cfg),
        "run": {
            "n_trials": cfg.n_trials,
            "r_grid": list(cfg.r_grid),
            "tau_grid_ns": list(cfg.tau_grid_ns),
            "readout_periods": cfg.readout_periods,
            "dt_per_period": cfg.dt_per_period,
        },
        "outputs": sorted(outputs),
        "results": results,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _schedule_for(cfg: RunConfig, r: float, tau_s: float):
    return build_for_ratio(cfg.params, r, tau_s, cfg.readout_periods * cfg.params.period_s)


def _run_fig3(args, cfg, seed, workers, amplified: bool) -> dict:
    name = "fig3-amplified" if amplified else "fig3-conventional"
    out = _out_dir(args, name)
    r = math.sqrt(12.0) if amplified else 1.0
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
    _write_manifest(out, f"run {name}", cfg, seed,
                    ["ensemble.csv", "schedule.json", "manifest.json"], results)
    print(f"{name}: {cfg.n_trials} trials, signal {stats.signal_mean:.4f} "
          f"+- {stats.signal_mean_se:.4f} zp, sigma {stats.sigma:.4f} -> {out}")
    return results


def _run_scaling(args, cfg, seed, workers, name: str,
                 r_values, tau_values_s) -> dict:
    out = _out_dir(args, name)
    rows = []
    fits = []
    per_point = {}
    index = 0
    for r in r_values:
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
    _write_manifest(out, name, cfg, seed, ["scaling.csv", "manifest.json"], results)
    print(f"{name}: {len(rows)} scaling points -> {out}")
    return results


def _run_sensitivity(args, cfg, seed, workers, name: str) -> dict:
    out = _out_dir(args, name)
    curve = sensitivity_curve(
        cfg.params, cfg.r_grid, cfg.n_trials, seed,
        readout_periods=cfg.readout_periods,
        dt_per_period=cfg.dt_per_period, workers=workers,
    )
    write_sensitivity_csv(curve, out / "sensitivity.csv")
    results = {
        f"dp_min_kev_c_r_{pt.r:.6g}": pt.dp_min_kev_c for pt in curve.points
    }
    _write_manifest(out, name, cfg, seed, ["sensitivity.csv", "manifest.json"], results)
    best = min(curve.points, key=lambda pt: pt.dp_min_kev_c)
    print(f"{name}: best dp_min = {best.dp_min_kev_c:.3f} keV/c at r = {best.r:.3f} -> {out}")
    return results


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
            preset = args.preset
            if preset == "fig3-conventional":
                _run_fig3(args, cfg, seed, workers, amplified=False)
            elif preset == "fig3-amplified":
                _run_fig3(args, cfg, seed, workers, amplified=True)
            elif preset == "fig4-scaling":
                _run_scaling(args, cfg, seed, workers, "fig4-scaling",
                             cfg.r_grid, [t / 1e9 for t in cfg.tau_grid_ns])
            elif preset == "fig5-sensitivity":
                _run_sensitivity(args, cfg, seed, workers, "fig5-sensitivity")
        elif args.command == "sweep-r":
            if not (math.isfinite(args.tau_ns) and args.tau_ns >= 0.0):
                raise ConfigError(
                    f"config key 'tau_ns' must be finite and >= 0, got {args.tau_ns}"
                )
            require_finite_kick(cfg.params, args.tau_ns, "tau_ns")
            _run_scaling(args, cfg, seed, workers, "sweep-r",
                         cfg.r_grid, [args.tau_ns / 1e9])
        elif args.command == "sweep-tau":
            if not (1.0 <= args.r <= R_MAX):
                raise ConfigError(f"config key 'r' must be in [1, {R_MAX:g}], got {args.r}")
            _run_scaling(args, cfg, seed, workers, "sweep-tau",
                         [args.r], [t / 1e9 for t in cfg.tau_grid_ns])
        elif args.command == "sensitivity":
            _run_sensitivity(args, cfg, seed, workers, "sensitivity")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, numerical aborts
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
