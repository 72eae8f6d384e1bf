"""Built-in acceptance suite: twelve analytic and Monte-Carlo checks.

Each criterion is a self-contained function returning a pass/fail
result with the measured values in its detail string.  The CLI
``selftest`` subcommand and the acceptance test module both run these,
printing one line per criterion.

All random checks use pinned seeds, so the suite is deterministic.
Criteria that compare Monte-Carlo spreads against the closed-form
noise budget use a 12-period readout.  The budget takes the retrodicted
Q variance at the protocol reference time to be 1/sqrt(eta); a finite
record's exact variance falls toward the Riccati steady value, 0.27 %
below 1/sqrt(eta), as the record lengthens.  At the default 5 periods
it is 9.4 % above 1/sqrt(eta), which puts sigma_Q at r = sqrt(12)
1.7 % above the budget; at 12 periods it is 0.15 % below 1/sqrt(eta),
and sigma_Q 0.03 % below the budget.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_DT_PER_PERIOD, base_model, propagate, soft_model
from .estimation import readout_model, retrodict, riccati_steady_state
from .harness import (
    DEFAULT_WORKERS,
    ensemble_stats,
    fit_displacement_vs_tau,
    noise_budget,
    run_ensemble,
    run_schedule_noiseless,
    sensitivity_curve,
    write_ensemble_csv,
)
from .params import OscillatorParams
from .protocol import build_amplified, build_conventional, build_for_ratio
from .records import MeasurementRecord
from .state import GaussianState, quarter_period_map, thermal_state, occupation

SEED = 20260819

# Readout length (base periods) used where Monte-Carlo spreads are
# compared against the closed-form budget; see module docstring.
BUDGET_READOUT_PERIODS = 12.0

R12 = math.sqrt(12.0)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{self.index:2d}/{len(CRITERIA)}] {status} {self.name}: {self.detail} "
            f"({self.seconds:.3f} s)"
        )


def _tau_for_dp(params: OscillatorParams, dp: float) -> float:
    """Pulse length giving momentum transfer dp at the default voltage."""
    return dp / (params.kappa_imp * params.pulse_voltage_v)


def _flat_record(n: int, dt: float) -> MeasurementRecord:
    """All-zero gated-on record; enough for covariance-only questions."""
    return MeasurementRecord(
        t0=0.0, dt=dt, samples=np.zeros(n), gate=np.ones(n, dtype=bool)
    )


def _criterion_1(params: OscillatorParams) -> tuple[bool, str]:
    """Noiseless soft propagation over a quarter period vs the map."""
    worst = 0.0
    state = GaussianState(mean=np.array([0.7, -0.4]), cov=3.4 * np.eye(2))
    for r in (1.0, 2.0, R12):
        model = soft_model(params, r).noiseless()
        quarter = math.pi * r / (2.0 * params.omega)
        final = propagate(state, model, quarter)
        s = quarter_period_map(r)
        worst = max(
            worst,
            float(np.max(np.abs(final.mean - s @ state.mean))),
            float(np.max(np.abs(final.cov - s @ state.cov @ s.T))),
        )
    return worst <= 1e-9, f"max deviation from quarter map {worst:.2e} (tol 1e-9)"


def _criterion_2(params: OscillatorParams) -> tuple[bool, str]:
    """Noiseless full protocol realizes mean (-Q0 + r dP, -P0), cov unchanged."""
    q0, p0 = 0.37, -0.78
    init = GaussianState(mean=np.array([q0, p0]), cov=3.4 * np.eye(2))
    worst = 0.0
    for r in (2.0, R12):
        for dp in (0.3, 1.2, 12.0):
            schedule = build_amplified(params, r=r, tau=_tau_for_dp(params, dp))
            final = run_schedule_noiseless(schedule, params, init)
            want = np.array([-q0 + r * dp, -p0])
            worst = max(
                worst,
                float(np.max(np.abs(final.mean - want))),
                float(np.max(np.abs(final.cov - init.cov))),
            )
    return worst <= 1e-9, f"max amplification-identity error {worst:.2e} (tol 1e-9)"


def _criterion_3(params: OscillatorParams) -> tuple[bool, str]:
    """Recoil diffusion heats by gamma_qb quanta per second, free evolution."""
    model = base_model(params, measurement_on=False)
    duration = 10.0 * params.period_s
    init = thermal_state(params.n_init)
    final = propagate(init, model, duration)
    grown = occupation(final) - occupation(init)
    want = params.gamma_qb * duration
    rel = abs(grown / want - 1.0)
    return rel <= 0.02, (
        f"occupation grew {grown:.4f} quanta vs gamma_qb*t = {want:.4f} "
        f"(rel err {rel:.2e}, tol 2e-2)"
    )


def _criterion_4(params: OscillatorParams) -> tuple[bool, str]:
    """Conditional variance floor: V11 -> 1/sqrt(eta), and 1 at eta = 1."""
    v = riccati_steady_state(readout_model(params))
    v11 = float(v[0, 0])
    rel = abs(v11 / 2.673 - 1.0)
    v_ideal = riccati_steady_state(readout_model(params.with_(eta=1.0)))
    v11_ideal = float(v_ideal[0, 0])
    rel_ideal = abs(v11_ideal - 1.0)
    ok = rel <= 0.03 and rel_ideal <= 0.03
    return ok, (
        f"steady V11 = {v11:.4f} vs 2.673 (rel {rel:.2e}); "
        f"eta=1 gives {v11_ideal:.4f} vs 1.0 (tol 3e-2)"
    )


def _criterion_5(params: OscillatorParams) -> tuple[bool, str]:
    """Retrodicted covariance matches the forward steady state; data-free."""
    model = readout_model(params)
    steady = riccati_steady_state(model)
    dt = params.period_s / DEFAULT_DT_PER_PERIOD
    n = int(round(BUDGET_READOUT_PERIODS * DEFAULT_DT_PER_PERIOD))
    back = retrodict(_flat_record(n, dt), model)
    rel = max(
        abs(back.cov[0, 0] / steady[0, 0] - 1.0),
        abs(back.cov[1, 1] / steady[1, 1] - 1.0),
    )
    rng = np.random.default_rng(SEED)
    rec_a = MeasurementRecord(0.0, dt, rng.standard_normal(n), np.ones(n, dtype=bool))
    rec_b = MeasurementRecord(0.0, dt, rng.standard_normal(n), np.ones(n, dtype=bool))
    cov_gap = float(
        np.max(
            np.abs(
                retrodict(rec_a, model).cov - retrodict(rec_b, model).cov
            )
        )
    )
    ok = rel <= 0.05 and cov_gap <= 1e-12
    return ok, (
        f"retro vs forward diag rel {rel:.2e} (tol 5e-2); "
        f"record dependence {cov_gap:.1e} (tol 1e-12)"
    )


def _criterion_6(params: OscillatorParams) -> tuple[bool, str]:
    """Monte-Carlo noise floor at r -> 1 reproduces sqrt(2n+1 + 1/sqrt(eta))."""
    schedule = build_amplified(
        params, r=1.01, tau=0.0,
        readout_duration=BUDGET_READOUT_PERIODS * params.period_s,
    )
    ensemble = run_ensemble(schedule, params, 2000, SEED + 6, workers=DEFAULT_WORKERS)
    sigma = ensemble_stats(ensemble).sigma
    offset = math.sqrt(2.0 * params.n_init + 1.0 + 1.0 / math.sqrt(params.eta))
    ok = abs(sigma - offset) <= 0.15
    return ok, f"sigma_tot(r=1.01) = {sigma:.4f} vs {offset:.4f} +- 0.15"


def _criterion_7(params: OscillatorParams) -> tuple[bool, str]:
    """Recoil-driven growth of sigma_tot(r) follows the closed form."""
    details = []
    ok = True
    sigma_r12 = None
    for r in (2.0, R12):
        schedule = build_amplified(
            params, r=r, tau=0.0,
            readout_duration=BUDGET_READOUT_PERIODS * params.period_s,
        )
        ensemble = run_ensemble(schedule, params, 5000, SEED + 7, workers=DEFAULT_WORKERS)
        sigma = ensemble_stats(ensemble).sigma
        model = noise_budget(params, r).sigma_tot
        rel = abs(sigma / model - 1.0)
        ok = ok and rel <= 0.05
        details.append(f"r={r:.3f}: sigma {sigma:.4f} vs model {model:.4f} (rel {rel:.2e})")
        if r == R12:
            sigma_r12 = sigma
    ok = ok and abs(sigma_r12 - 2.74) <= 0.14
    return ok, "; ".join(details) + f"; sigma(sqrt 12) = {sigma_r12:.4f} in 2.74 +- 0.14"


def _criterion_8(params: OscillatorParams) -> tuple[bool, str]:
    """Fitted displacement slope scales linearly in r."""
    taus = (100e-9, 300e-9, 1000e-9)
    ratios = []
    for j, r in enumerate((1.0, 2.0, R12)):
        ensembles = []
        for tau in taus:
            schedule = build_for_ratio(params, r, tau)
            ensembles.append(run_ensemble(
                schedule, params, 2000, SEED + 80 + j, workers=DEFAULT_WORKERS
            ))
        fit = fit_displacement_vs_tau(ensembles)
        ratios.append(fit.k / max(r, 1.0))
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread <= 0.05
    return ok, (
        f"k(r)/r = {', '.join(f'{x:.4g}' for x in ratios)} zp/s; "
        f"spread {spread:.2%} (tol 5%)"
    )


def _criterion_9(params: OscillatorParams) -> tuple[bool, str]:
    """Ideal system (eta = 1, ground state) resolves sqrt(2) at r = 1."""
    ideal = params.with_(eta=1.0, n_init=0.0)
    analytic = noise_budget(ideal, 1.0).sigma_tot
    analytic_ok = abs(analytic - math.sqrt(2.0)) <= 1e-6
    schedule = build_conventional(
        ideal, tau=0.0, readout_duration=BUDGET_READOUT_PERIODS * ideal.period_s
    )
    ensemble = run_ensemble(schedule, ideal, 2000, SEED + 9, workers=DEFAULT_WORKERS)
    sigma = ensemble_stats(ensemble).sigma
    rel = abs(sigma / math.sqrt(2.0) - 1.0)
    ok = analytic_ok and rel <= 0.05
    return ok, (
        f"analytic dp_min = {analytic:.8f} vs sqrt(2) (tol 1e-6); "
        f"Monte-Carlo {sigma:.4f} (rel {rel:.2e}, tol 5e-2)"
    )


def _criterion_10(params: OscillatorParams) -> tuple[bool, str]:
    """Headline single-trial sensitivity at r = sqrt(12) in keV/c and dB."""
    (pt,) = sensitivity_curve(
        params, [R12], 20000, SEED + 10,
        readout_periods=BUDGET_READOUT_PERIODS, workers=DEFAULT_WORKERS,
    )
    ok = (
        5.8 <= pt.dp_min_kev_c <= 7.7
        and -1.1 <= pt.db_vs_pzp <= -0.2
        and -2.6 <= pt.db_vs_sqrt2pzp <= -1.6
    )
    return ok, (
        f"dp_min = {pt.dp_min_kev_c:.3f} keV/c (band [5.8, 7.7]); "
        f"{pt.db_vs_pzp:.3f} dB vs p_zp (band [-1.1, -0.2]); "
        f"{pt.db_vs_sqrt2pzp:.3f} dB vs sqrt(2) p_zp (band [-2.6, -1.6])"
    )


def _criterion_11(params: OscillatorParams) -> tuple[bool, str]:
    """Worker count never changes output bytes."""
    schedule = build_amplified(params, r=2.0, tau=100e-9)
    blobs = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 8):
            ensemble = run_ensemble(schedule, params, 300, SEED + 11, workers=workers)
            path = Path(tmp) / f"ensemble_w{workers}.csv"
            write_ensemble_csv(ensemble, path)
            blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    return ok, (
        f"ensemble CSV with 1 vs 8 workers: "
        f"{'byte-identical' if ok else 'DIFFERS'} ({len(blobs[0])} bytes)"
    )


def _criterion_12(params: OscillatorParams) -> tuple[bool, str]:
    """Reported covariance is honest: normalized errors have unit variance."""
    schedule = build_amplified(params, r=2.0, tau=100e-9)
    ensemble = run_ensemble(schedule, params, 2000, SEED + 12, workers=DEFAULT_WORKERS)
    err = ensemble.truths - ensemble.outcomes
    var_q = float(np.var(err[:, 0], ddof=1) / ensemble.est_cov[0, 0])
    var_p = float(np.var(err[:, 1], ddof=1) / ensemble.est_cov[1, 1])
    ok = abs(var_q - 1.0) <= 0.10 and abs(var_p - 1.0) <= 0.10
    return ok, (
        f"normalized error variance Q {var_q:.3f}, P {var_p:.3f} "
        f"(band 1.0 +- 0.1)"
    )


CRITERIA = (
    (1, "quarter-map exactness", _criterion_1, 1.0),
    (2, "amplification identity", _criterion_2, 1.0),
    (3, "heating conservation", _criterion_3, 1.0),
    (4, "variance floor", _criterion_4, 10.0),
    (5, "retrodiction equivalence", _criterion_5, 30.0),
    (6, "noise budget offset", _criterion_6, 120.0),
    (7, "recoil growth", _criterion_7, 180.0),
    (8, "linear scaling", _criterion_8, 180.0),
    (9, "ideal conventional limit", _criterion_9, None),
    (10, "headline sensitivity", _criterion_10, 180.0),
    (11, "determinism", _criterion_11, None),
    (12, "statistical honesty", _criterion_12, None),
)

_WARMED = False


def warm_kernels(params: OscillatorParams | None = None) -> None:
    """Fill lazy caches outside the timed criteria."""
    global _WARMED
    if _WARMED:
        return
    params = params or OscillatorParams()
    schedule = build_amplified(params, r=2.0, tau=0.0, readout_duration=params.period_s)
    run_ensemble(schedule, params, 2, 0, dt_per_period=50)
    _WARMED = True


def run_criterion(index: int, params: OscillatorParams | None = None) -> CriterionResult:
    """Run one acceptance criterion by 1-based index."""
    params = params or OscillatorParams()
    entry = next((c for c in CRITERIA if c[0] == index), None)
    if entry is None:
        raise ValueError(f"no acceptance criterion {index}")
    warm_kernels(params)
    _, name, fn, budget = entry
    start = time.perf_counter()
    passed, detail = fn(params)
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        passed = False
        detail += f"; RUNTIME {elapsed:.1f} s exceeded budget {budget:.0f} s"
    return CriterionResult(index, name, passed, detail, elapsed)


def run_all(params: OscillatorParams | None = None) -> list[CriterionResult]:
    """Run all twelve criteria, printing one line each; returns results."""
    params = params or OscillatorParams()
    warm_kernels(params)
    results = []
    for index, _, _, _ in CRITERIA:
        result = run_criterion(index, params)
        print(result.line(), flush=True)
        results.append(result)
    failed = [r for r in results if not r.passed]
    total = sum(r.seconds for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed in {total:.1f} s",
          flush=True)
    return results
