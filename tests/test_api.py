"""The package's public names and modules are exactly those README documents,
and its runtime needs nothing outside the standard library."""

import ast
import re
import sys
from pathlib import Path

import explogint

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
