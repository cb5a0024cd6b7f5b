"""The package's public names and modules are exactly those README documents,
README's examples show what the code prints, and its runtime needs nothing
outside the standard library."""

import ast
import re
import shlex
import sys
from pathlib import Path

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
