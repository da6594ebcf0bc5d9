"""Acceptance gate: one test per behavioral criterion. Each test prints its
[PASS]/[FAIL] line directly to the terminal (bypassing capture) so a full
run always shows the scoreboard."""

from epst import acceptance


def report(capsys, result):
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail


def test_criterion_01_one_shot_learning(capsys):
    report(capsys, acceptance.check_one_shot())


def test_criterion_02_count_oracle_equivalence(capsys):
    report(capsys, acceptance.check_count_oracle())


def test_criterion_03_structured_same_interference(capsys):
    report(capsys, acceptance.check_structured_same())


def test_criterion_04_structured_novel_pattern_bump(capsys):
    report(capsys, acceptance.check_structured_diff())


def test_criterion_05_random_noise_immunity(capsys):
    report(capsys, acceptance.check_random_noise())


def test_criterion_06_jitter_matching_interval(capsys):
    report(capsys, acceptance.check_jitter())


def test_criterion_07_jitter_dropout_robustness(capsys):
    report(capsys, acceptance.check_jitter_dropout())


def test_criterion_08_et0_false_positive_dynamics(capsys):
    report(capsys, acceptance.check_et0_false_positives())


def test_criterion_09_xor_inhibition(capsys):
    report(capsys, acceptance.check_xor())


def test_criterion_10_invariant_spot_checks(capsys):
    report(capsys, acceptance.check_invariants())


def test_criterion_11_sampling_performance(capsys):
    report(capsys, acceptance.check_performance())
