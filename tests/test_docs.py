import ast
import doctest
import shlex
import sys
from pathlib import Path

import pytest

from wilfcollapse import canonical, encodings, engine, genfun, perms, series
from wilfcollapse.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("module", [perms, encodings, canonical, engine, genfun, series], ids=lambda m: m.__name__)
def test_module_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0 and result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_package_imports_only_the_standard_library():
    # the north star is a stdlib-only library: every absolute import in the
    # package names a standard-library module at its top level
    package = Path(engine.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    imported = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert len(modules) > 5 and "decimal" in imported
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names


def _readme_command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


@pytest.mark.parametrize("line", _readme_command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_lines_run(line, capsys):
    program, *argv = shlex.split(line)
    assert program == "wilfcollapse"
    assert run(argv) == 0
    assert capsys.readouterr().out
