"""The mutation checks of ``mutants.py`` still apply to the source."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_text_occurs_exactly_once_in_its_file(mutant):
    """A refactor that moves or duplicates a mutant's text would leave
    ``python tests/mutants.py`` reporting it stale; here it fails pytest."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
