"""The mutant list of ``tools/mutants.py`` against the tree it edits.

The tool itself runs outside tier-1 (each mutant runs the fast suite).  This
test keeps its list honest: every mutant's old text occurs exactly once in
its file and differs from its new text, so a change that moves or rewrites a
mutated line fails here instead of leaving the tool a mutant it cannot apply.
"""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOLS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS.MUTANTS,
                         ids=[f"m{k:02d}" for k in range(1, len(MUTANTS.MUTANTS) + 1)])
def test_every_mutant_edits_text_that_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert mutant.why
    assert MUTANTS.occurrences(mutant) == 1, (
        f"{mutant.path} no longer holds {mutant.old!r} exactly once; "
        "update the mutant in tools/mutants.py to the line's new text")
