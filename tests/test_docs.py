import doctest
from pathlib import Path

import pytest

from wilfcollapse import canonical, encodings, engine, genfun, perms, series

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [perms, encodings, canonical, engine, genfun, series], ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
