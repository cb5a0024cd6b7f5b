"""The nine-formula catalog: symbolic equality and numeric verification."""

from fractions import Fraction

from explogint.catalog import (
    DEFAULT_NU_VALUES,
    catalog,
    check_entry,
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
        # every entry evaluates and transcribes on the same parameter values
        for entry in catalog():
            if entry.param_name is None:
                params = [None]
            elif entry.param_name == "n":
                params = list(range(0, 5))
            else:
                params = [ArgPoint.of(v) for v in DEFAULT_NU_VALUES]
            for p in params:
                spec = entry.build(p)
                printed = entry.printed_form(p)
                assert spec.prefactor
                assert printed.terms or entry.id == "none"


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


class TestFullRun:
    def test_acceptance_grid_all_pass(self, catalog_checks):
        fails = [c for c in catalog_checks if c.status != "pass"]
        assert fails == []

    def test_numeric_agreement_within_tolerance(self, catalog_checks):
        assert max(c.numeric_rel_err for c in catalog_checks) <= 1e-9

    def test_quadrature_converged_everywhere(self, catalog_checks):
        assert all(c.converged for c in catalog_checks)

    def test_quadrature_node_count(self, table, monkeypatch):
        # a deterministic count, not a timing: the default grid's 108 quadrature
        # calls take one sum each at a step set beforehand (47,724 nodes when the
        # step was found by halving)
        import explogint.catalog as catalog_module

        counts, quadrature = [], catalog_module.quadrature

        def counting(spec, mu, rel_tol):
            result = quadrature(spec, mu, rel_tol=rel_tol)
            counts.append(result.nodes_used)
            return result

        monkeypatch.setattr(catalog_module, "quadrature", counting)
        run_catalog(table=table)
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

    def test_narrow_grid_run(self, table):
        checks = run_catalog(table=table, mu_grid=(0.5, 2.0), max_n=2,
                             nu_values=(Fraction(1), Fraction(3, 2)))
        assert all(c.status == "pass" for c in checks)
        assert len(checks) == 3 + 2 + 3 + 3 + 2 + 2 + 3
