import ast
import doctest
import shlex
import sys
from pathlib import Path

import pytest

from wilfcollapse import canonical, cli, encodings, engine, genfun, perms, series
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
    out, err = capsys.readouterr()
    # a note on stderr, such as a --depth too low to prove, fails the example
    assert out and err == "", err


def _cached_functions() -> list[tuple[str, str]]:
    # (module, name) of every function wrapped by functools.lru_cache or
    # functools.cache, as a decorator or called as name = lru_cache(...)(f)
    def is_cache(node) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        return name in ("lru_cache", "cache")

    found = []
    for path in sorted(Path(engine.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(map(is_cache, node.decorator_list)):
                found.append((path.stem, node.name))
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and is_cache(node.value.func)
            ):
                found += [(path.stem, target.id) for target in node.targets]
    return found


def test_readme_caches_paragraph_names_every_cache():
    paragraph = "Caches:" + README.read_text(encoding="utf-8").split("\nCaches:", 1)[1].split("\n\n", 1)[0]
    cached = _cached_functions()
    assert ("genfun", "layered_denominator") in cached and ("cli", "_build_parser") in cached
    missing = [
        f"{module}.{name}"
        for module, name in cached
        if f"`{name}`" not in paragraph and f"`{module}.{name}`" not in paragraph
    ]
    assert not missing, missing


def _size_limits() -> list[tuple[str, str, int]]:
    # (module, name, value) of every module-level integer constant named
    # MAX_* or *_CAP in the package
    found = []
    for path in sorted(Path(engine.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and type(node.value.value) is int
            ):
                found += [
                    (path.stem, target.id, node.value.value)
                    for target in node.targets
                    if isinstance(target, ast.Name)
                    and (target.id.startswith("MAX_") or target.id.endswith("_CAP"))
                ]
    return found


def test_size_limits_live_in_the_cli_and_the_readme():
    # each size limit is a CLI flag's range, set only in cli and stated in
    # README with its value, derived limits included
    text = README.read_text(encoding="utf-8")
    assert [(module, name) for module, name, _ in _size_limits() if module != "cli"] == []
    limits = {
        name: value
        for name, value in vars(cli).items()
        if name.startswith("MAX_") or name.endswith("_CAP")
    }
    assert set(limits) >= {"MAX_PATTERN_SIZE", "MAX_DEPTH", "MAX_ENUMERATE_SIZE"}
    missing = [
        f"cli.{name} = {value}"
        for name, value in limits.items()
        if f"`cli.{name} = {value}`" not in text
    ]
    assert not missing, missing
