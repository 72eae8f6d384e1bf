"""The selftest runner: one line per criterion, the summary, the exit
code and the time budget, on stand-in criteria that finish at once."""

import re
import time

import pytest

from levamp import selftest
from levamp.cli import main


def _passes(params):
    return True, "fine"


def _fails(params):
    return False, "off"


@pytest.mark.parametrize("second, code", [(_passes, 0), (_fails, 2)])
def test_selftest_prints_each_criterion_and_the_summary(monkeypatch, capsys, second, code):
    criteria = ((1, "first", _passes, None), (2, "second", second, 10.0))
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    assert main(["selftest"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"\[ 1/2\] PASS first: fine \(\d+\.\d{3} s\)", lines[0])
    verdict = "PASS second: fine" if code == 0 else "FAIL second: off"
    assert re.fullmatch(rf"\[ 2/2\] {verdict} \(\d+\.\d{{3}} s\)", lines[1])
    assert re.fullmatch(rf"{2 - code // 2}/2 criteria passed in \d+\.\d s", lines[2])


def test_an_unknown_criterion_is_refused():
    with pytest.raises(ValueError, match="^no acceptance criterion 13$"):
        selftest.run_criterion(13)


def test_a_criterion_past_its_budget_fails(monkeypatch):
    def slow(params):
        time.sleep(0.01)
        return True, "fine"

    monkeypatch.setattr(selftest, "CRITERIA", ((1, "slow", slow, 0.001),))
    result = selftest.run_criterion(1)
    assert not result.passed
    assert re.fullmatch(r"fine; RUNTIME \d+\.\d s exceeded budget 0 s", result.detail)
