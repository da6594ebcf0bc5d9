"""Acceptance gate: one test per behavioral criterion of
`acceptance.CHECKS`, named `test_criterion_<number>_<criterion>`. Each test
prints its [PASS]/[FAIL] line directly to the terminal (bypassing capture)
so a full run always shows the scoreboard."""

from epst import acceptance


def _criterion_test(name, check):
    def test(capsys):
        result = acceptance.CriterionResult(name, *check())
        with capsys.disabled():
            print(result.line())
        assert result.passed, result.detail

    return test


for _number, (_name, _check) in enumerate(acceptance.CHECKS, 1):
    globals()[f"test_criterion_{_number:02d}_{_name}"] = _criterion_test(_name, _check)
