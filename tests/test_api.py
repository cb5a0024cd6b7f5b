"""The package's public names are exactly the API README documents."""

from pathlib import Path

import explogint

README = Path(__file__).resolve().parent.parent / "README.md"

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
