"""Command-line interface: commands, exit codes, deterministic JSON."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from decimal import Decimal
from fractions import Fraction

import pytest

import explogint.cli as cli
from explogint.cli import main
from explogint.oracle import QuadratureResult
from explogint.parser import parse_integrand, to_integral_spec


class TestEval:
    def test_basic(self, capsys):
        assert main(["eval", "exp(-x)*log(x)"]) == 0
        out = capsys.readouterr().out
        assert "mu^(-1) * (-gamma - log_mu)" in out
        assert "at mu = 1   : -gamma" in out

    def test_json_document(self, capsys):
        assert main(["eval", "exp(-2*x)*log(x)^2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["integrand"] == "exp(-2*x)*log(x)^2"
        assert doc["spec"]["mu"] == "2"
        assert doc["closed_form_json"]["terms"]

    def test_paper_style(self, capsys):
        assert main(["eval", "exp(-2*x)*log(x)^2", "--paper-style"]) == 0
        out = capsys.readouterr().out
        assert "delta^2 + 1/6*pi^2" in out

    @pytest.mark.parametrize(
        "expr,printed",
        [
            # a sum subtracted as a whole term keeps its parentheses
            ("exp(-x) - (x*exp(-x) - exp(-x))", "exp(-x) - (x*exp(-x) - exp(-x))"),
            # an added one flattens into the enclosing sum
            ("exp(-x) + (x*exp(-x) - exp(-x))", "exp(-x) + x*exp(-x) - exp(-x)"),
            # a term with a leading minus keeps its parentheses after either sign
            ("exp(-x) + (-x*exp(-x))", "exp(-x) + (-x*exp(-x))"),
            ("exp(-x) - (-x*exp(-x) + exp(-x))", "exp(-x) - (-x*exp(-x) + exp(-x))"),
        ],
    )
    def test_integrand_prints_as_it_evaluates(self, capsys, expr, printed):
        assert main(["eval", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["integrand"] == printed

    @pytest.mark.parametrize(
        "expr,prefactor,rest",
        [
            # a negative coefficient is subtracted and a unit one is not written, as the parser writes a sum
            ("(0 - x - 1)*exp(-2*x)*log(x)", "-1 - x", "s = 1, n = 1, mu = 2"),
            ("(1 - 2*x)*x^(5/2)*exp(-3*x)*log(x)", "1 - 2*x", "s = 7/2, n = 1, mu = 3"),
            ("(3/2 + x^(2))*exp(-x)", "3/2 + x^(2)", "s = 1, n = 0, mu = 1"),
        ],
    )
    def test_prefactor_prints_as_the_parser_writes_it(self, capsys, expr, prefactor, rest):
        assert main(["eval", expr]) == 0
        assert f"class       : p(x) = {prefactor}, {rest}\n" in capsys.readouterr().out
        assert main(["eval", expr, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spec"]["prefactor"] == prefactor
        assert parse_integrand(f"({prefactor})*exp(-x)").text == f"({prefactor})*exp(-x)"

    def test_a_leading_minus_reads_after_the_end_of_options(self, capsys):
        # '--' ends the options, so an expression that starts with '-' is not read as one
        assert main(["eval", "--json", "--", "-x*exp(-x)"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["integrand"], doc["closed_form"], doc["at_mu_1"]) == ("-x*exp(-x)", "mu^(-2) * (-1)", "-1")
        assert main(["verify", "--json", "--", "-(x + 1)*exp(-2*x)*log(x)"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["integrand"], doc["status"]) == ("-(x + 1)*exp(-2*x)*log(x)", "pass")

    def test_an_expression_that_starts_with_minus_is_told_to_follow_dashes(self, capsys):
        # argparse reads such an expression as an unknown option, so expr reads as missing
        for argv, example in ((["eval", "-exp(-x)*log(x)"], 'explogint eval -- "-exp(-x)*log(x)"'),
                              (["verify", "-x*exp(-x)", "--json"], 'explogint verify --json -- "-x*exp(-x)"')):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            err = capsys.readouterr().err
            assert exc.value.code == 2, argv
            assert err.endswith(f'error: an expression that starts with "-" must follow "--", as in: {example}\n')
            assert err.startswith(f"usage: explogint {argv[0]} ")
        # other usage errors keep argparse's words
        for argv, message in ((["eval"], "the following arguments are required: expr"),
                              (["verify", "--tol", "-1e-8", "x*exp(-x)"], "argument --tol: expected one argument"),
                              (["eval", "x*exp(-x)", "-x"], "unrecognized arguments: -x")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and capsys.readouterr().err.endswith(f"error: {message}\n"), argv


    def test_coefficient_past_the_str_digit_limit_prints(self, capsys):
        # Gamma(2001) = 2000! has 5736 digits, more than str() prints by default
        digits = str(Decimal(math.factorial(2000)))
        assert main(["eval", "x^(2000)*exp(-x)"]) == 0
        assert f"at mu = 1   : {digits}\n" in capsys.readouterr().out
        assert main(["eval", "x^(2000)*exp(-x)", "--json"]) == 0
        (term,) = json.loads(capsys.readouterr().out)["closed_form_json"]["terms"]
        assert term["constant"]["terms"] == [{"coeff": f"{digits}/1", "powers": {}}]


class TestExponentialProducts:
    """Exponential factors multiply by adding their rates: a product of them
    gives the output of the one exponential at the summed rate, all but the
    integrand line."""

    @staticmethod
    def _doc(capsys, argv):
        code = main(argv + ["--json"])
        doc = json.loads(capsys.readouterr().out)
        return code, doc.pop("integrand"), doc

    def test_product_verifies(self, capsys):
        expr = "exp(-x)*exp(-1/2*x)*x^(3/2)*log(x)^3"
        assert main(["verify", expr]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"integrand   : {expr}\n") and out.endswith("PASS\n")

    def test_product_matches_the_summed_rate(self, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        rates = st.lists(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4), min_size=1, max_size=4)

        @hypothesis.settings(max_examples=20, deadline=None, database=None)
        @hypothesis.given(rates, st.integers(1, 5), st.integers(-5, 5), st.integers(-1, 4), st.integers(0, 4), st.data())
        def check(rs, a, b, twice_p, n, data):
            factors = [f"exp(-{r.numerator}/{r.denominator}*x)" for r in rs]
            factors += [f"({a} {'-' if b < 0 else '+'} {abs(b)}*x)", f"x^({twice_p}/2)"] + ([f"log(x)^{n}"] if n else [])
            product = "*".join(data.draw(st.permutations(factors)))
            total = sum(rs)
            summed = "*".join([f"exp(-{total.numerator}/{total.denominator}*x)"] + factors[len(rs):])
            assert to_integral_spec(parse_integrand(product)) == to_integral_spec(parse_integrand(summed))
            for command in ("eval", "verify"):
                code, printed, doc = self._doc(capsys, [command, product])
                summed_code, _, summed_doc = self._doc(capsys, [command, summed])
                assert printed == parse_integrand(product).text
                assert (code, doc) == (summed_code, summed_doc)

        check()


class TestVerify:
    def test_passing_verification(self, capsys):
        assert main(["verify", "exp(-x)*log(x)"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "-gamma" in out

    def test_json_fields(self, capsys):
        assert main(["verify", "x^(3)*exp(-2*x)*log(x)", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "pass"
        assert doc["quadrature_converged"] is True
        assert doc["rel_err"] <= 1e-9

    def test_cancelled_terms_verify_as_the_simplified_integrand(self, capsys):
        expr = "exp(-x)*log(x) + exp(-x) - exp(-x)"
        assert main(["verify", expr]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"integrand   : {expr}\nclosed form : -gamma\n")
        assert out.endswith("PASS\n")

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        # make the quadrature disagree: the command must report and exit 1
        def bad_quadrature(spec, mu, rel_tol=1e-10):
            return QuadratureResult(1234.5, 1e-12, 129, True)

        monkeypatch.setattr(cli, "quadrature", bad_quadrature)
        assert main(["verify", "exp(-x)*log(x)"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nonconvergence_exits_one(self, capsys, monkeypatch):
        def never_converges(spec, mu, rel_tol=1e-10):
            return QuadratureResult(-0.5772156649, 1.0, 2**20, False)

        monkeypatch.setattr(cli, "quadrature", never_converges)
        assert main(["verify", "exp(-x)*log(x)"]) == 1

    def test_zero_value_stops_early_and_exits_one(self, capsys):
        # (x - 1) e^-x integrates to exactly 0, which no relative tolerance can meet
        assert main(["verify", "(x - 1)*exp(-x)", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadrature_converged"] is False
        assert doc["quadrature_nodes"] < 5000

    def test_zeta_table_covers_high_log_powers(self, capsys):
        # I_13 and I_14 name zeta(13) and zeta(14), which the one table builds on first read
        for n in (13, 14):
            assert main(["verify", f"exp(-x)*log(x)^{n}", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["status"] == "pass"


class TestErrorPaths:
    def test_syntax_error_exits_two(self, capsys):
        assert main(["eval", "exp(-x)*log("]) == 2
        err = capsys.readouterr().err
        assert "syntax error" in err
        assert "^" in err  # caret diagnostic

    def test_unsupported_exits_two(self, capsys):
        assert main(["eval", "sin(x)"]) == 2
        assert "sin" in capsys.readouterr().err

    def test_bad_tolerance_exits_two(self, capsys):
        assert main(["verify", "exp(-x)", "--tol", "1e-15"]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan", "1e-15", "1e300", "0.1"])
    def test_tolerance_is_checked_first_and_named(self, capsys, monkeypatch, tol):
        def unreachable(*args, **kwargs):
            raise AssertionError("quadrature ran before --tol was checked")

        monkeypatch.setattr(cli, "quadrature", unreachable)
        assert main(["verify", "x^(9)*exp(-1000000*x)", "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
        assert main(["catalog", "--tol", tol, "--json"]) == 2
        assert "--tol" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("rate", ["9" * 400, "1/" + "9" * 400])
    def test_decay_rate_beyond_float_range_exits_two(self, capsys, rate):
        expr = f"exp(-{rate}*x)"
        assert main(["verify", expr]) == 2
        assert "decay rate" in capsys.readouterr().err
        assert main(["verify", expr, "--json"]) == 2
        assert "decay rate" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("power, zeros", [("1/2", 300), ("-1/2", 307)])
    def test_value_beyond_float_range_exits_two(self, capsys, power, zeros):
        # mu = 1e-300 puts the peak of x^(1/2) e^(-mu x) near 1e450; at
        # mu = 1e-307 the integrand x^(-1/2) e^(-mu x) lives out to x ~ 1e308
        expr = f"x^({power})*exp(-1/1{'0' * zeros}*x)"
        assert main(["verify", expr]) == 2
        assert "decay rate" in capsys.readouterr().err
        assert main(["verify", expr, "--json"]) == 2
        assert "decay rate" in json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize(
        "expr,message",
        [
            # x^170 e^-x (ln x)^2 peaks near x = 171 at about 1e309: s is the cause, not mu
            ("x^(170)*exp(-x)*log(x)^2",
             "the integrand's peak, near 1e+309 at x near e^5.142, lies outside the float range (decay rate mu = 1)"),
            ("x^(-1/2)*exp(-1/1" + "0" * 307 + "*x)", "decay rate mu = 1e-307 puts x = 1/mu outside the float range"),
        ],
        ids=["peak", "mu"],
    )
    def test_float_range_message_names_its_cause(self, capsys, expr, message):
        assert main(["verify", expr]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["verify", expr, "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}

    def test_prefactor_coefficient_beyond_float_range_exits_two(self, capsys):
        big = "1" + "0" * 400
        assert main(["verify", f"{big}*exp(-x)"]) == 2
        assert f"prefactor coefficient {big} " in capsys.readouterr().err
        assert main(["verify", f"{big}*exp(-x)", "--json"]) == 2
        assert f"prefactor coefficient {big} " in json.loads(capsys.readouterr().out)["error"]
        # eval is exact arithmetic: the same coefficient is no error there
        assert main(["eval", f"{big}*exp(-x)", "--json"]) == 0
        (term,) = json.loads(capsys.readouterr().out)["closed_form_json"]["terms"]
        assert term["constant"]["terms"] == [{"coeff": f"{big}/1", "powers": {}}]

    def test_closed_form_coefficient_beyond_float_range_is_named_by_its_size(self, capsys):
        # the closed form of this valid integrand has an 867-digit coefficient; binding
        # is in ints, so no coefficient is out of range and verify passes, with
        # mpmath giving -3.00226197983924e-178
        expr = "x^(399)*exp(-400*x)*log(x)"
        assert main(["verify", expr]) == 0
        assert "closed value: -3.00226197983924e-178\n" in capsys.readouterr().out
        assert main(["verify", expr, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["closed_value"], doc["status"]) == (-3.002261979839e-178, "pass")

    @pytest.mark.parametrize(
        "template,position",
        [("{}*exp(-x)", 0), ("1/{}*exp(-x)", 2), ("exp(-x)*x^({})", 11)],  # coefficient, denominator, x power
    )
    def test_overlong_literal_is_a_syntax_error_at_its_token(self, capsys, template, position):
        expr = template.format("9" * 5000)
        limit = sys.get_int_max_str_digits()
        assert main(["eval", expr]) == 2
        first, source, caret = capsys.readouterr().err.splitlines()
        assert first == (f"error: syntax error at position {position}: "
                         f"expected a number of at most {limit} digits, found 5000 digits")
        assert (source, caret) == (f"    {expr}", "    " + " " * position + "^")
        assert main(["eval", expr, "--json"]) == 2
        assert json.loads(capsys.readouterr().out)["position"] == position

    def test_bad_mu_exits_two(self, capsys):
        assert main(["catalog", "--mu", "0"]) == 2
        assert main(["catalog", "--mu", "-2"]) == 2

    @pytest.mark.parametrize("mu", ["0", "inf", "nan"])
    def test_mu_is_checked_first_and_named(self, capsys, monkeypatch, mu):
        monkeypatch.setattr("explogint.catalog.run_catalog", lambda **kw: pytest.fail("catalog ran"))
        assert main(["catalog", "--mu", "1", "--mu", mu]) == 2
        assert "--mu" in capsys.readouterr().err
        assert main(["catalog", "--mu", mu, "--json"]) == 2
        assert "--mu" in json.loads(capsys.readouterr().out)["error"]

    def test_negative_max_n_exits_two(self, capsys):
        assert main(["weight", "--max-n", "-1"]) == 2

    @pytest.mark.parametrize("command", ["catalog", "weight"])
    def test_negative_max_n_names_the_flag(self, capsys, command):
        assert main([command, "--max-n", "-1"]) == 2
        assert capsys.readouterr().err == "error: --max-n must be nonnegative, got -1\n"
        assert main([command, "--max-n", "-1", "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "--max-n must be nonnegative, got -1"}

    @pytest.mark.parametrize("as_json", [False, True])
    def test_deep_nesting_exits_two_with_a_position(self, capsys, as_json):
        expr = "(" * 331 + "x" + ")" * 331 + "*exp(-x)"
        assert main(["eval", expr] + (["--json"] if as_json else [])) == 2
        if as_json:
            doc = json.loads(capsys.readouterr().out)
            assert doc["position"] == 100 and "nested" in doc["error"]
        else:
            err = capsys.readouterr().err
            assert "syntax error at position 100" in err and "Traceback" not in err

    def test_nesting_at_the_cap_evaluates(self, capsys):
        assert main(["eval", "(" * 100 + "x" + ")" * 100 + "*exp(-x)*log(x)"]) == 0

    @pytest.mark.parametrize("expr, position, expected", [
        ("exp(-x)*log(x)^41", 15, "expected an exponent from 1 to 40, found '41'"),
        ("exp(-x)*log(x)^30*log(x)^30", 18,
         "expected log powers summing to at most 40 in a term, found a sum of 60"),
    ])
    def test_log_power_beyond_the_cap_exits_two_at_its_factor(self, capsys, expr, position, expected):
        assert main(["verify", expr]) == 2
        first, source, caret = capsys.readouterr().err.splitlines()
        assert first == f"error: syntax error at position {position}: {expected}"
        assert (source, caret) == (f"    {expr}", "    " + " " * position + "^")
        assert main(["eval", expr, "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["position"] == position and expected in doc["error"]

    @pytest.mark.parametrize("expr, position, expected", [
        ("1e3*exp(-x)", 1, "expected a number written out in digits, as 1000 or 1/1000 "
                           "(exponent notation is not part of the language), found 'e3'"),
        ("2.5e-3*exp(-x)", 3, "expected a number written out in digits, as 1000 or 1/1000 "
                              "(exponent notation is not part of the language), found 'e-3'"),
        ("exp(-x)/2", 7, "expected end of input, found '/' (division is allowed only between two numbers, as in 2/3)"),
        ("(x/2)*exp(-x)", 2, "expected ')', found '/' (division is allowed only between two numbers, as in 2/3)"),
    ])
    def test_exponent_notation_and_division_name_their_cause(self, capsys, expr, position, expected):
        assert main(["eval", expr]) == 2
        first, source, caret = capsys.readouterr().err.splitlines()
        assert first == f"error: syntax error at position {position}: {expected}"
        assert (source, caret) == (f"    {expr}", "    " + " " * position + "^")

    def test_unprintable_coefficient_and_x_power_exit_two_at_their_factor(self, capsys):
        nines = "9" * 3000
        for expr, position in ((f"{nines}*{nines}*exp(-x)", 3001), ("exp(-x)*x^(100000)", 8)):
            assert main(["eval", expr]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: syntax error at position {position}: expected ") and "Traceback" not in err
            assert main(["eval", expr, "--json"]) == 2
            assert json.loads(capsys.readouterr().out)["position"] == position

    def test_json_error_document(self, capsys):
        assert main(["eval", "sin(x)", "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert "error" in doc and "position" in doc


class TestWeight:
    def test_weight_table(self, capsys):
        assert main(["weight", "--max-n", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert "all weight checks passed" in out

    def test_weight_json(self, capsys):
        assert main(["weight", "--max-n", "3", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in rows] == [0, 1, 2, 3]
        assert all(r["status"] == "pass" for r in rows)

    def test_weight_beyond_numeric_table_is_symbolic_only(self, capsys):
        # grading needs no zeta bindings, so n past the numeric table works
        assert main(["weight", "--max-n", "14"]) == 0
        assert capsys.readouterr().out.count("PASS") == 15

    def test_max_n_beyond_the_log_power_cap_exits_two_before_any_work(self, capsys, monkeypatch):
        # Gamma^(n)(1) is the integral of e^-x (ln x)^n, so weight shares the parser's cap.
        monkeypatch.setattr(cli, "eval_In", lambda n: pytest.fail("eval_In ran"))
        assert main(["weight", "--max-n", "41"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-n of weight must be at most 40, got 41\n"
        assert main(["weight", "--max-n", "41", "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "--max-n of weight must be at most 40, got 41"}


class TestCatalog:
    def test_max_n_beyond_the_log_power_cap_exits_two_before_the_grid(self, capsys, monkeypatch):
        # param_grid would build range(max_n + 1) first
        monkeypatch.setattr("explogint.catalog.param_grid", lambda *a: pytest.fail("grid built"))
        assert main(["catalog", "--max-n", "400000000"]) == 2
        assert capsys.readouterr().err == "error: --max-n of catalog must be at most 40, got 400000000\n"
        assert main(["catalog", "--max-n", "400000000", "--json"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": "--max-n of catalog must be at most 40, got 400000000"}

    def test_a_value_outside_the_float_range_fails_its_own_check(self, capsys):
        # n! / mu^(n+1) leaves the doubles at n = 33, the value or the integrand's peak;
        # every other check still runs
        assert main(["catalog", "--mu", "1e-8", "--max-n", "40", "--json"]) == 1
        text = capsys.readouterr().out
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads(text)
        failed = {(r["id"], r["params"]["n"]): r["error"] for r in report if "error" in r}
        assert len(report) == 3 + 6 + 41 + 41 + 6 + 6 + 41
        assert set(failed) == {(i, n) for i in ("4.352.2", "4.352.3", "4.353.2") for n in range(33, 41)}
        assert failed["4.352.2", 33] == "at mu = 1e-08, closed-form value lies outside the float range"
        for record in report:
            if "error" in record:
                assert record["error"].startswith("at mu = 1e-08, ") and "outside the float range" in record["error"]
                assert record["status"] == "fail" and record["numeric_rel_err"] is None
            else:
                assert record["status"] == "pass" and isinstance(record["numeric_rel_err"], float)

    def test_a_peak_outside_the_float_range_fails_its_own_line(self, capsys):
        assert main(["catalog", "--mu", "1e-300"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[11] == (
            "4.335.1            symbolic=ok  FAIL: at mu = 1e-300, the integrand's peak, near 1e+305 at x near "
            "e^690.8, lies outside the float range (decay rate mu = 1e-300)")
        assert lines[10] == "4.331.1            symbolic=ok  rel_err=6.62e-16 PASS"
        assert lines[-1] == "18/36 catalog checks passed (mu grid: 1e-300)"

    def test_small_grid(self, capsys):
        assert main(["catalog", "--mu", "0.5", "--mu", "2", "--max-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "catalog checks passed" in out
        assert "FAIL" not in out

    def test_json_report_schema(self, capsys):
        assert main(["catalog", "--mu", "1", "--max-n", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert isinstance(report, list)
        for record in report:
            assert list(record) == [
                "id",
                "params",
                "symbolic_equal",
                "numeric_rel_err",
                "status",
            ]

    def test_json_reports_are_byte_identical(self, capsys):
        assert main(["catalog", "--mu", "1", "--max-n", "1", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["catalog", "--mu", "1", "--max-n", "1", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestFlags:
    def test_each_command_declares_only_the_flags_it_reads(self):
        parser = cli.build_arg_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == {
            "eval": {"--json", "--paper-style"},
            "verify": {"--tol", "--json", "--paper-style"},
            "catalog": {"--mu", "--tol", "--max-n", "--json"},
            "weight": {"--max-n", "--json"},
        }

    def test_unread_flag_is_usage_error(self):
        for argv in (
            ["eval", "exp(-x)", "--tol", "1e-8"],
            ["weight", "--paper-style"],
            ["catalog", "--paper-style"],
            ["verify", "exp(-x)", "--zeta-max", "5"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "explogint", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2, argv
            assert "unrecognized arguments" in proc.stderr


class TestTracedGlobals:
    """perfbench's tracer times each layer by replacing these module globals;
    a call bound any other way would read as zero time in its layer."""

    def test_each_traced_global_is_called(self, capsys, monkeypatch):
        import explogint.catalog as catalog
        import explogint.evaluator as evaluator
        from explogint.oracle import compute_constants

        names = [(cli, name) for name in
                 ("parse_integrand", "to_integral_spec", "eval_general", "quadrature", "compute_constants")]
        names += [(catalog, "eval_general"), (catalog, "quadrature"), (evaluator, "gamma_deriv_at")]
        called = set()

        def recording(key, fn):
            def wrapper(*args, **kwargs):
                called.add(key)
                return fn(*args, **kwargs)
            return wrapper

        for module, name in names:
            monkeypatch.setattr(module, name, recording(f"{module.__name__}.{name}", getattr(module, name)))
        assert main(["eval", "exp(-x)*log(x)"]) == 0
        assert main(["verify", "exp(-x)*log(x)"]) == 0
        entry = catalog.catalog()[0]
        catalog.check_entry(entry, catalog.param_grid(entry)[0], compute_constants())
        capsys.readouterr()
        assert called == {f"{module.__name__}.{name}" for module, name in names}


class TestTracedChild:
    """perfbench/child.py runs a command under the benchmark's tracer, which
    wraps functions, methods and caches of every layer: the output must be the
    untraced output, and the spans and events must name every layer."""

    COMMANDS = [
        ["eval", "exp(-x)*log(x)^3", "--json"],
        ["eval", "x^(5/2)*exp(-2*x)*log(x)^8", "--json", "--paper-style"],
        ["verify", "x^(3/2)*exp(-2*x)*log(x)^4", "--json"],
        ["verify", "x^(5/2)*exp(-2*x)*log(x)^8", "--json"],
        ["catalog", "--max-n", "0", "--mu", "1", "--json"],
    ]
    SPANS = {
        "cli.main", "parser.parse_integrand", "parser.to_integral_spec", "evaluator.eval_general",
        "special_values.gamma_deriv_at", "ring.render", "ring.json", "evaluator.bind",
        "oracle.compute_constants", "oracle.quadrature", "catalog.check_entry",
    }

    def test_traced_output_matches_and_names_every_layer(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        spans, kinds = set(), set()
        for i, argv in enumerate(self.COMMANDS):
            trace = tmp_path / f"trace{i}.json"
            traced, plain = (subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                                            env=env, timeout=300)
                             for prefix in ([str(root / "perfbench" / "child.py"), str(trace)], ["-m", "explogint"]))
            assert traced.returncode == plain.returncode == 0, traced.stderr
            assert traced.stdout == plain.stdout
            doc = json.loads(trace.read_text())
            spans |= {span[0] for span in doc["spans"]}
            kinds |= {event["kind"] for event in doc["events"]}
            # an eval event counts the monomials of closed.terms and of each constant's terms
            assert all(event["monomials"] > 0 for event in doc["events"] if event["kind"] == "eval"), argv
        assert spans >= self.SPANS
        assert kinds >= {"eval", "cache", "bind", "quadrature"}


class TestConsoleEntry:
    def test_module_invocation_parse_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "explogint", "eval", "exp("],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "syntax error" in proc.stderr

    def test_module_invocation_success(self):
        proc = subprocess.run(
            [sys.executable, "-m", "explogint", "eval", "exp(-x)*log(x)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "-gamma" in proc.stdout

    def test_usage_error_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "explogint", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_closed_pipe_exits_quietly(self):
        # The closed form is larger than a pipe buffer, so the writer is still
        # blocked in print when the reader goes away.
        proc = subprocess.Popen(
            [sys.executable, "-m", "explogint", "eval", "x^(5/2)*exp(-x)*log(x)^14"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestColdImports:
    """A cold child imports only what its command uses."""

    def test_cli_imports_no_dataclasses_and_no_catalog(self):
        code = (
            "import json, sys; before = set(sys.modules); import explogint.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout)
        assert "explogint.cli" in loaded
        for name in ("dataclasses", "inspect", "explogint.catalog"):
            assert name not in loaded

    def test_eval_child_loads_no_catalog(self):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "explogint",
             "eval", "exp(-x)*log(x)", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["at_mu_1"] == "-gamma"
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "explogint.evaluator" in imported
        assert "explogint.catalog" not in imported


def _long_strings() -> list:
    """Strings past the writer's length threshold, each holding one character
    that forces the encoder, at its start, middle or end, and one plain."""
    plain = ("12/5*gamma^2*log_mu + zeta(3)*" * (cli._LONG // 20))[:cli._LONG + 7]
    special = ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001d70b"]
    half = len(plain) // 2
    return [plain] + [s for c in special for s in (c + plain, plain[:half] + c + plain[half:], plain + c)]


class TestJsonEmitter:
    """``--json`` output is exactly ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "(x - 1/2)*x^(5/2)*exp(-2*x)*log(x)^3", "--json"],
            ["eval", "exp(-x)*log(x)^2", "--json", "--paper-style"],
            ["verify", "x^(3)*exp(-2*x)*log(x)", "--json"],
            ["catalog", "--mu", "1", "--max-n", "1", "--json"],
            ["weight", "--max-n", "3", "--json"],
            ["eval", "sin(x)", "--json"],
        ],
    )
    def test_command_documents(self, capsys, argv):
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": {}, "b": [], "c": [[], {}], "d": [[[]]]},
            [True, False, None, 0, -7, 10**30],
            {"flags": {"t": True, "f": False, "n": None}},
            [math.inf, -math.inf, math.nan, -0.0, 1e-300, 0.1, 1.5e300],
            {"caf\u00e9 \u2211": "\u0393(1/2) = \u221a\u03c0", "tab\t\"q\"\n\\": "\x00\x1f\u2028"},
            ("tuple", ["nested", ("deeper", {"k": 1.0})]),
            *({"closed_form": text, "list": [text]} for text in _long_strings()),
        ],
    )
    def test_edge_cases(self, doc):
        out = []
        cli._json_text(doc, "", out)
        assert "".join(out) == json.dumps(doc, indent=2)
