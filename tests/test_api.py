"""The package's public names and modules are exactly those README documents,
README's examples show what the code prints, and its runtime needs nothing
outside the standard library."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import explogint
from explogint.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

DOCUMENTED = [
    "IntegralSpec",
    "compute_constants",
    "eval_In",
    "eval_general",
    "grade",
    "parse_constant",
    "parse_integrand",
    "quadrature",
    "to_integral_spec",
]


def test_all_is_the_documented_api():
    assert sorted(explogint.__all__) == sorted(DOCUMENTED)
    for name in DOCUMENTED:
        assert callable(getattr(explogint, name))


def test_building_the_constants_table_loads_only_the_oracle():
    # a fresh interpreter, as a cold start has it: no module is loaded before one of its names is read
    code = ("import explogint, sys; explogint.compute_constants(); "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'explogint'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['explogint', 'explogint.generators', 'explogint.oracle']"


def test_star_import_and_dir_give_the_documented_names():
    namespace = {}
    exec("from explogint import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(DOCUMENTED)
    assert set(DOCUMENTED) <= set(dir(explogint))


def test_an_undocumented_name_is_no_attribute_and_modules_still_import():
    with pytest.raises(AttributeError, match="'nope'"):
        explogint.nope
    from explogint import cli, oracle
    assert cli.__name__ == "explogint.cli" and oracle.__name__ == "explogint.oracle"


def test_readme_library_section_names_every_export():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):text.index("## Tests")]
    for name in DOCUMENTED:
        assert name in library, name


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    layout = text[text.index("## Layout"):text.index("## Scope notes")]
    listed = set(re.findall(r"^  (\w+)\.py ", layout, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "explogint").glob("*.py")}
    assert listed == modules - {"__init__", "__main__"}


def test_readme_command_examples_print_what_the_cli_prints(capsys):
    # each "$ explogint ARGS" line in a code block is followed by its stdout
    text = README.read_text(encoding="utf-8")
    examples = re.findall(r"^\$ explogint ([^\n]+)\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert examples
    for args, shown in examples:
        main(shlex.split(args))
        assert capsys.readouterr().out == shown, args


def test_readme_library_results_are_the_reprs():
    # each "# <result>" line under an expression of the snippet is that expression's repr
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library")) + len("```python\n")
    lines = text[start:text.index("\n```", start)].splitlines()
    namespace, statements, checked = {}, [], 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            continue  # a result, checked with the line above it
        if i + 1 < len(lines) and lines[i + 1].startswith("# "):
            exec("\n".join(statements), namespace)
            statements = []
            assert repr(eval(line, namespace)) == lines[i + 1][2:], line
            checked += 1
        else:
            statements.append(line)
    exec("\n".join(statements), namespace)
    assert checked == 3


def test_runtime_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "explogint").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, f"{path.name} imports {name}"
