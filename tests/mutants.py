"""Mutation checks: small faults in ``src/`` that named tests must catch.

Each mutant replaces one piece of text in one source file.  For each, the
script copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md``
into a temporary directory, applies the replacement there (the text must
occur exactly once), runs the mutant's tests on that copy with pytest and
prints ``killed`` if they fail or ``survived`` if they pass.  The named
tests first run once on an unmutated copy, and must pass there.  The
checkout itself is never written.  Pytest does not collect this file.

    python tests/mutants.py                 # every mutant
    python tests/mutants.py lanes-share-buffers split-ignores-byte-cap

Exits 0 when every mutant run was killed; 1 when one survived, its text no
longer occurs once or pytest could not run its tests; 2 on an unknown name.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


HARNESS = "src/levamp/harness.py"
KERNELS = "src/levamp/_kernels.py"
ESTIMATION = "src/levamp/estimation.py"
RECORDS = "src/levamp/records.py"
STATE = "src/levamp/state.py"
DYNAMICS = "src/levamp/dynamics.py"
T_HARNESS = "tests/test_harness.py::"
T_KERNELS = "tests/test_kernels.py::"
T_RECORDS = "tests/test_records.py::"
T_STATE = "tests/test_state.py::"

MUTANTS = (
    # seeding
    Mutant(
        "drop-tail-entropy-mix", HARNESS,
        "    for word in words[4:]:\n"
        "        for dst in range(4):\n"
        "            pool[dst] = mix(pool[dst], hashmix(word))\n",
        "",
        (T_HARNESS + "test_batched_seeding_draws_numpys_own_streams",),
    ),
    Mutant(
        "drop-2**32-cut", HARNESS,
        "fast = min(m, (1 << 32) - start) if",
        "fast = m if",
        (T_HARNESS + "test_batched_seeding_draws_numpys_own_streams",),
    ),
    # kernels
    Mutant(
        "matmul-retrodiction-sum", KERNELS,
        'return np.einsum("mn,kn->mk", y, np.ascontiguousarray(weights.T))',
        "return y @ weights",
        (T_KERNELS + "test_chunked_records_retrodict_to_the_same_bits",),
    ),
    Mutant(
        "reassociate-record-add", KERNELS,
        "y[:, steps] += np.add(t[:, :, 0], t[:, :, 1], out=t[:, :, 0])",
        "y[:, steps] += t[:, :, 0]\n            y[:, steps] += t[:, :, 1]",
        (T_KERNELS + "test_scan_equals_the_two_array_scan_bit_for_bit",),
    ),
    Mutant(
        "copy-draws-in-scan", KERNELS,
        "    m, n = w.shape[0], w.shape[1]\n",
        "    w = w.copy()\n    m, n = w.shape[0], w.shape[1]\n",
        (T_KERNELS + "test_roll_record_copies_no_draws",),
    ),
    # planning
    Mutant(
        "plan-accepts-any-step-count", HARNESS,
        "    if operator.index(dt_per_period) < MIN_STEPS_PER_PERIOD:\n",
        "    if False:\n",
        (T_HARNESS + "test_both_entry_points_refuse_the_same_step_counts",),
    ),
    Mutant(
        "plan-cache-ignores-type", HARNESS,
        "@lru_cache(maxsize=32, typed=True)\ndef _plan_segments(",
        "@lru_cache(maxsize=32)\ndef _plan_segments(",
        (T_HARNESS + "test_both_entry_points_refuse_the_same_step_counts",),
    ),
    # the split and its lanes
    Mutant(
        "lanes-share-buffers", HARNESS,
        "submit(lane, k, draws[k], records[k])",
        "submit(lane, k, draws[0], records[0])",
        (T_HARNESS + "test_each_lane_draws_into_one_buffer_pair_for_all_its_batches",),
    ),
    Mutant(
        "split-ignores-byte-cap", HARNESS,
        "batch = max(1, min(BATCH_BYTES // (8 * (total + ro.n_steps)), -(-n_trials // workers)))",
        "batch = max(1, -(-n_trials // workers))",
        (T_HARNESS + "test_a_batch_holds_at_most_its_byte_budget",),
    ),
    Mutant(
        "raise-first-lane-not-lowest", HARNESS,
        'raise RuntimeError(f"trial {min(bad)} produced',
        'raise RuntimeError(f"trial {bad[0]} produced',
        (T_HARNESS + "test_the_first_bad_batch_stops_the_run",
         T_HARNESS + "test_no_lane_runs_a_batch_past_the_least_bad_trial"),
    ),
    Mutant(
        "lanes-run-past-the-least-bad-trial", HARNESS,
        "            if bad and start > min(bad):\n                return\n",
        "",
        (T_HARNESS + "test_no_lane_runs_a_batch_past_the_least_bad_trial",),
    ),
    Mutant(
        "lanes-outlive-the-call", HARNESS,
        '    with ThreadPoolExecutor(max(lanes - 1, 1), thread_name_prefix="levamp") as pool:\n',
        '    pool = ThreadPoolExecutor(max(lanes - 1, 1), thread_name_prefix="levamp")\n'
        "    if True:\n",
        (T_HARNESS + "test_no_lane_outlives_the_call",),
    ),
    # draw layout, CSV text, the fold
    Mutant(
        "step-over-unmeasured-record", HARNESS,
        "at += (3 if plan.sqrt_k > 0.0 else 2) * n",
        "at += 3 * n",
        (T_HARNESS + "test_draw_order_reproduces_the_frozen_trials",),
    ),
    Mutant(
        "csv-ten-digits", HARNESS,
        'format(float(c), ".9g")',
        'format(float(c), ".10g")',
        (T_HARNESS + "test_csv_writers_write_this_exact_text",),
    ),
    Mutant(
        "fold-ignores-gate", ESTIMATION,
        "        if on[k]:\n",
        "        if True:\n",
        ("tests/test_estimation.py::test_precomputed_schedule_reproduces_retrodiction",),
    ),
    Mutant(
        "prior-check-folds-one-prior", ESTIMATION,
        "prior=10.0 * PRIOR_SCALE)",
        "prior=PRIOR_SCALE)",
        ("tests/test_cli.py::test_a_readout_that_the_prior_decides_exits_before_any_output",),
    ),
    # the one positive-definite rule and the state checks
    Mutant(
        "cov-check-skips-finite", STATE,
        "    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):\n",
        "    if False:\n",
        (T_STATE + "test_state_validation_rejects_bad_inputs",
         T_STATE + "test_cov_check_matches_the_numpy_oracle"),
    ),
    Mutant(
        "pd-rule-allows-overflowing-det", STATE,
        "det > 0.0 and math.isfinite(det)",
        "det > 0.0",
        (T_STATE + "test_states_and_the_propagation_check_share_one_pd_rule",
         "tests/test_dynamics.py::test_pd_check_rejects_any_non_finite_entry"),
    ),
    Mutant(
        "cov-left-unsymmetrized", STATE,
        "    arr = np.array([[qq, qp], [qp, pp]])\n",
        "",
        (T_STATE + "test_cov_check_matches_the_numpy_oracle",),
    ),
    Mutant(
        "mean-check-skips-finite", STATE,
        "    if not (math.isfinite(q) and math.isfinite(p)):\n",
        "    if False:\n",
        (T_STATE + "test_state_validation_rejects_bad_inputs",
         T_STATE + "test_mean_check_matches_the_numpy_oracle"),
    ),
    Mutant(
        "noiseless-keeps-diffusion", DYNAMICS,
        "        return DynamicsModel(self.omega, self.freq_ratio)\n",
        "        return DynamicsModel(self.omega, self.freq_ratio, self.diffusion_p)\n",
        ("tests/test_dynamics.py::test_noiseless_evolution_preserves_covariance_determinant",),
    ),
    # record CSV: which files skip csv.reader
    Mutant(
        "plain-check-counts-commas-per-file", RECORDS,
        "    if seps.size % 4 or not (seps.reshape(-1, 4) == _PLAIN_ROW).all():\n",
        "    ends = seps[seps != ord(\",\")]\n"
        "    if (ends.size % 2 or not (ends.reshape(-1, 2) == _PLAIN_ROW[2:]).all()\n"
        "            or seps.size != 2 * ends.size):\n",
        (T_RECORDS + "test_only_plain_files_skip_the_csv_reader_and_every_file_reads_like_the"
         "_oracle[four-then-two-fields]",),
    ),
    Mutant(
        "plain-file-may-quote", RECORDS,
        """    for byte in b'\\r\\n"\\0':\n""",
        """    for byte in b'\\r\\n\\0':\n""",
        (T_RECORDS + "test_only_plain_files_skip_the_csv_reader_and_every_file_reads_like_the"
         "_oracle[quoted-cell]",),
    ),
    Mutant(
        "plain-file-may-part-cr-from-lf", RECORDS,
        '    if data.count(b"\\r\\n", len(_CSV_HEAD)) != seps.size // 4:\n',
        "    if False:\n",
        (T_RECORDS + "test_only_plain_files_skip_the_csv_reader_and_every_file_reads_like_the"
         "_oracle[cr-apart-from-lf]",),
    ),
    Mutant(
        "plain-file-may-end-mid-row", RECORDS,
        "    if cells.pop():\n        return None\n",
        "    cells.pop()\n",
        (T_RECORDS + "test_only_plain_files_skip_the_csv_reader_and_every_file_reads_like_the"
         "_oracle[truncated-first-cell]",),
    ),
)


def _pytest_on_copy(tests, mutant: Mutant | None = None) -> int | None:
    """pytest's exit code for ``tests`` on a copy of the checkout with
    ``mutant`` applied, or None where its text does not occur once."""
    with tempfile.TemporaryDirectory(prefix="levamp-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return None
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' where the text does not occur once,
    or 'error' where pytest could not run the tests."""
    code = _pytest_on_copy(mutant.tests, mutant)
    if code is None:
        return "stale"
    # pytest exits 1 when a test failed; 2-5 mean it never ran them
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(known)}")
        return 2
    chosen = [known[name] for name in names] if names else MUTANTS
    # A test that fails without a mutant would count every mutant killed.
    tests = sorted({test for mutant in chosen for test in mutant.tests})
    if _pytest_on_copy(tests) != 0:
        print("the named tests do not pass on the unmutated copy; nothing was checked")
        return 1
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8}  {mutant.name}  ({mutant.path})", flush=True)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
