"""End-to-end acceptance run: every shipped self-check at full tolerance.

Each test executes one numbered criterion from levamp.selftest, prints
its one-line verdict, and fails if the criterion fails or overruns its
time budget. Run with -s (or read the captured output) to see the lines.
"""

from levamp.selftest import CriterionResult, run_criterion


def check(index):
    result = run_criterion(index)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_soft_quarter_realizes_the_squeeze_map():
    check(1)


def test_criterion_02_kick_amplification_identity():
    check(2)


def test_criterion_03_recoil_heating_rate():
    check(3)


def test_criterion_04_conditioned_steady_state_variance():
    check(4)


def test_criterion_05_retrodiction_consistency():
    check(5)


def test_criterion_06_near_unity_gain_matches_the_conventional_noise():
    check(6)


def test_criterion_07_amplified_noise_follows_the_recoil_budget():
    check(7)


def test_criterion_08_displacement_scaling_across_pulses_and_gains():
    check(8)


def test_criterion_09_ideal_detection_floor():
    check(9)


def test_criterion_10_sensitivity_bands():
    check(10)


def test_criterion_11_bitwise_reproducibility_across_workers():
    check(11)


def test_criterion_12_reported_covariance_is_honest():
    check(12)


def test_a_criterion_line_reads_its_time_to_the_millisecond():
    result = CriterionResult(4, "steady state", True, "V11 = 2.6653", 0.0123456)
    assert result.line() == "[ 4/12] PASS steady state: V11 = 2.6653 (0.012 s)"
    failed = CriterionResult(11, "workers", False, "differ", 12.3456)
    assert failed.line() == "[11/12] FAIL workers: differ (12.346 s)"
