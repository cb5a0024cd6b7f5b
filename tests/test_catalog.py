"""The nine-formula catalog: symbolic equality and numeric verification."""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import explogint.catalog as catalog_module

from explogint.catalog import (
    DEFAULT_NU_VALUES,
    catalog,
    check_entry,
    param_grid,
    run_catalog,
)
from explogint.evaluator import ClosedForm, eval_general
from explogint.ring import GAMMA, SQRT_PI_CONST
from explogint.special_values import ArgPoint

EXPECTED_IDS = [
    "4.331.1",
    "4.335.1",
    "4.335.3",
    "4.352.1",
    "4.352.2",
    "4.352.3",
    "4.352.4",
    "4.353.1",
    "4.353.2",
]


class TestCatalogShape:
    def test_all_nine_formulas_present(self):
        assert [e.id for e in catalog()] == EXPECTED_IDS

    def test_builder_and_printed_share_domains(self):
        # every entry evaluates and transcribes on every value of its grid
        for entry in catalog():
            for p in param_grid(entry):
                spec = entry.build(p)
                printed = entry.printed_form(p)
                assert spec.prefactor
                assert printed.terms

    def test_the_benchmark_grid_is_the_default_grid(self, monkeypatch):
        # perfbench/worker.py builds the catalog workload's grid by its own copy of
        # param_grid's rule; read-only here, so that the two copies cannot drift apart
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(bench))  # the worker imports its neighbours by name
        spec = importlib.util.spec_from_file_location("perfbench_worker", bench / "worker.py")
        worker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(worker)
        grid = [(e, p) for e in catalog() for p in param_grid(e)]
        assert worker.catalog_grid(catalog_module) == grid
        assert len(grid) == 36


# The engine's routes to Gamma values and closed forms; the printed forms must
# reach none of them, so that agreement with the engine is evidence.
ENGINE_NAMES = {"gamma_deriv_at", "psi_deriv_at", "eval_In", "parse_constant"}


def independence_violations(source: str) -> list[str]:
    """Where ``source`` (catalog.py) leans on the engine: an import from
    special_values other than ArgPoint, a name in ENGINE_NAMES, or
    ``eval_general`` used outside ``check_entry``."""
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "check_entry":
            allowed = {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module.endswith("special_values") and names != {"ArgPoint"}:
                found.append(f"line {node.lineno}: imports {sorted(names - {'ArgPoint'})} from special_values")
            if "special_values" in names:
                found.append(f"line {node.lineno}: imports the special_values module")
        elif isinstance(node, ast.Import) and any("special_values" in a.name for a in node.names):
            found.append(f"line {node.lineno}: imports the special_values module")
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.alias):
            name = node.name
        if name in ENGINE_NAMES:
            found.append(f"line {node.lineno}: names {name}")
        if name == "eval_general" and not isinstance(node, ast.alias) and id(node) not in allowed:
            found.append(f"line {node.lineno}: uses eval_general outside check_entry")
    return found


class TestIndependence:
    def test_printed_forms_do_not_use_the_engine(self):
        source = Path(catalog_module.__file__).read_text(encoding="utf-8")
        assert independence_violations(source) == []

    def test_guard_sees_an_engine_call(self):
        bad = (
            "from .special_values import ArgPoint, gamma_deriv_at\n"
            "def check_entry(entry):\n    return eval_general(entry)\n"
            "def _classical_gamma(x):\n    return gamma_deriv_at(0, x)\n"
            "PRINTED = lambda spec: eval_general(spec)\n"
        )
        assert sorted(independence_violations(bad)) == [
            "line 1: imports ['gamma_deriv_at'] from special_values",
            "line 1: names gamma_deriv_at",
            "line 5: names gamma_deriv_at",
            "line 6: uses eval_general outside check_entry",
        ]


class TestIndividualEntries:
    def test_first_entry_at_mu_one_is_minus_gamma(self):
        entry = catalog()[0]
        assert entry.printed_form(None).at_mu_one() == -GAMMA
        assert eval_general(entry.build(None)).at_mu_one() == -GAMMA

    def test_shifted_prefactor_entry_at_half(self, table):
        # (x - nu) x^(nu-1) e^-x ln x with nu = 1/2 integrates to sqrt(pi)
        entry = next(e for e in catalog() if e.id == "4.353.1")
        nu = ArgPoint.of(Fraction(1, 2))
        printed = entry.printed_form(nu)
        assert printed.at_mu_one() == SQRT_PI_CONST
        check = check_entry(entry, nu, table)
        assert check.status == "pass"

    def test_every_entry_matches_symbolically(self, catalog_checks):
        assert all(c.symbolic_equal for c in catalog_checks)

    def test_transcription_catches_typos(self, table):
        # a deliberately wrong printed form must fail the symbolic check
        entry = catalog()[0]
        broken = entry._replace(
            printed_form=lambda _p: ClosedForm(
                (e, 2 * c) for e, c in entry.printed_form(None).terms
            )
        )
        check = check_entry(broken, None, table, mu_grid=(1.0,))
        assert not check.symbolic_equal
        assert check.status == "fail"

    def test_only_a_float_range_error_fails_the_check(self, table):
        # a value outside the doubles fails this check alone; a bad argument still raises
        entry = next(e for e in catalog() if e.id == "4.352.2")
        check = check_entry(entry, 33, table, mu_grid=(1.0, 1e-8))
        assert check.status == "fail" and not check.converged and check.numeric_rel_err == float("inf")
        assert check.error == "at mu = 1e-08, closed-form value lies outside the float range"
        assert check_entry(entry, 33, table, mu_grid=(1.0,)).error is None
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            check_entry(entry, 1, table, mu_grid=(-1.0,))
        with pytest.raises(ValueError, match="rel_tol must lie in"):
            check_entry(entry, 1, table, quad_tol=1.0)


class TestFullRun:
    def test_acceptance_grid_all_pass(self, catalog_checks):
        fails = [c for c in catalog_checks if c.status != "pass"]
        assert fails == []

    def test_numeric_agreement_within_tolerance(self, catalog_checks):
        assert max(c.numeric_rel_err for c in catalog_checks) <= 1e-9

    def test_quadrature_converged_everywhere(self, catalog_checks):
        assert all(c.converged for c in catalog_checks)

    def test_quadrature_node_count(self, monkeypatch):
        # a deterministic count, not a timing: the default grid's 108 quadrature
        # calls take one sum each at a step set beforehand (47,724 nodes when the
        # step was found by halving)
        counts, quadrature = [], catalog_module.quadrature

        def counting(spec, mu, rel_tol):
            result = quadrature(spec, mu, rel_tol=rel_tol)
            counts.append(result.nodes_used)
            return result

        monkeypatch.setattr(catalog_module, "quadrature", counting)
        run_catalog()
        assert len(counts) == 108
        assert sum(counts) <= 16_446

    def test_expected_parameter_coverage(self, catalog_checks):
        by_id = {}
        for c in catalog_checks:
            by_id.setdefault(c.id, []).append(c)
        assert len(by_id["4.331.1"]) == 1
        assert len(by_id["4.352.1"]) == len(DEFAULT_NU_VALUES)
        assert len(by_id["4.352.2"]) == 5  # n = 0..4
        assert len(by_id["4.353.2"]) == 5

    def test_report_dict_schema(self, catalog_checks):
        for c in catalog_checks:
            d = c.report_dict()
            assert list(d) == ["id", "params", "symbolic_equal", "numeric_rel_err", "status"]
            assert isinstance(d["symbolic_equal"], bool)
            assert isinstance(d["numeric_rel_err"], float)
            assert d["status"] in ("pass", "fail")

    def test_narrow_grid_run(self):
        # three fixed entries, three on nu's six values, three on n = 0..2
        checks = run_catalog(mu_grid=(0.5, 2.0), max_n=2)
        assert all(c.status == "pass" for c in checks)
        assert len(checks) == 3 + 6 + 3 + 3 + 6 + 6 + 3
