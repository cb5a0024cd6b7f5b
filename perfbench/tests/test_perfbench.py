"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import draws  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from reference import Reference, matches  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return Reference()


def _renumber(requests):
    return [dict(r, id=i) for i, r in enumerate(requests)]


def _cli(*args, check=True):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _summary(workload, run_, ref):
    verdicts = run.check_run(workload, run_, ref)
    return verdicts, run.summarize(run_, verdicts, [0.1, 0.2, 0.3])


def _assert_row(lines, workload):
    header, row = lines
    for name, unit in run.E2E_UNITS.items():
        assert f"{name}[{unit}]" in header
    assert row.split()[0] == workload


# -- every workload at tiny size -------------------------------------------------------


def test_catalog_cli_prints_every_metric_and_the_result_line():
    proc = _cli("--workload", "catalog", "--seed", "3", "--seconds", "0.2", "--trace", "0")
    lines = proc.stdout.strip().splitlines()
    _assert_row(lines[1:3], "catalog")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = run.bench_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_catalog_prints_the_per_layer_table_and_repeats_counts():
    results = []
    for _ in range(2):
        proc = _cli("--workload", "catalog", "--seed", "4", "--seconds", "0.4", "--trace", "1")
        for name, unit in layers.UNITS.items():
            assert any(line.split()[:1] == [name] and line.endswith(unit)
                       for line in proc.stdout.splitlines()), name
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    wanted = {m["name"]: m["unit"] for m in run.bench_spec()["per_layer"]}
    assert {k: v["unit"] for k, v in results[0]["metrics"].items()} == wanted
    exact = [n for n in wanted if n.endswith(("_calls", ".nodes", ".monomials"))]
    assert exact
    for name in exact:
        assert results[0]["metrics"][name]["value"] == results[1]["metrics"][name]["value"]


def test_verify_mix_tiny(ref):
    requests = _renumber([r for r in draws.verify_mix(5) if r["n"] <= 3][:4]
                         + [r for r in draws.verify_mix(5) if r["n"] == 13][:1])
    run_ = run.run_worker("verify_mix", 5, 0.01, requests, None)
    verdicts, metrics = _summary("verify_mix", run_, ref)
    assert all(v.known for v in verdicts.values())
    assert metrics["failed_frac"] == pytest.approx(1 / 5)  # the n = 13 request: zeta(13)
    _assert_row(run.format_rows([("verify_mix", metrics)]), "verify_mix")


def test_deep_log_tiny(ref):
    requests = _renumber([r for r in draws.deep_log(6) if r["n"] == 8 and r["s"] == "1"]
                         + [r for r in draws.deep_log(6) if r["n"] == 8 and r["paper"]][:1])
    run_ = run.run_deep_log(0.01, requests, None)
    verdicts, metrics = _summary("deep_log", run_, ref)
    assert all(v.state == "ok" for v in verdicts.values())
    assert metrics["failed_frac"] == 0 and metrics["wrong_frac"] == 0
    _assert_row(run.format_rows([("deep_log", metrics)]), "deep_log")


# -- the correctness check is not vacuous ------------------------------------------------


def _eval_answer(expr):
    proc = subprocess.run([sys.executable, "-m", "explogint", "eval", expr, "--json"],
                          capture_output=True, text=True, env=run._env(), timeout=60)
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _verify_answer(expr):
    proc = subprocess.run([sys.executable, "-m", "explogint", "verify", expr, "--json"],
                          capture_output=True, text=True, env=run._env(), timeout=60)
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def _fake_run(questions, answers):
    return {"records": [[i, 1, 0.01, 0.01, 0.001, 2] for i in range(len(answers))],
            "answers": {1: dict(enumerate(answers))}, "questions": questions,
            "peak_rss_mb": 1.0}


def test_perturbed_closed_form_and_wrong_verdict_raise_wrong_frac(ref):
    req = {"id": 0, "expr": "(1 - 1/2*x)*x^(1/2)*exp(-2*x)*log(x)^3", "s": "3/2", "n": 3,
           "mu": "2", "terms": [[0, "1", 0], [1, "-1/2", 0]], "paper": False}
    good = _eval_answer(req["expr"])
    doc = json.loads(good["stdout"])
    term = doc["closed_form_json"]["terms"][0]["constant"]["terms"][0]
    term["coeff"] = str(Fraction(term["coeff"]) * Fraction(1001, 1000))
    bad = dict(good, stdout=json.dumps(doc))
    _, clean = _summary("deep_log", _fake_run([req, req], [good, good]), ref)
    verdicts, dirty = _summary("deep_log", _fake_run([req, req], [good, bad]), ref)
    assert clean["wrong_frac"] == 0
    assert dirty["wrong_frac"] == 0.5
    assert not all(v.known for v in verdicts.values())

    vreq = dict(req, id=0)
    passed = _verify_answer(req["expr"])
    assert json.loads(passed["stdout"])["status"] == "pass"
    flipped = json.loads(passed["stdout"])
    flipped["status"] = "fail"
    wrong_verdict = dict(passed, rc=1, stdout=json.dumps(flipped))
    _, clean = _summary("verify_mix", _fake_run([vreq, vreq], [passed, passed]), ref)
    _, dirty = _summary("verify_mix", _fake_run([vreq, vreq], [passed, wrong_verdict]), ref)
    assert clean["wrong_frac"] == 0 and dirty["wrong_frac"] == 0.5


def test_pass_on_a_wrong_closed_form_is_unexpected(ref):
    req = {"id": 0, "expr": "exp(-x)*log(x)^2", "s": "1", "n": 2, "mu": "1",
           "terms": [[0, "1", 0]]}
    answer = _verify_answer(req["expr"])
    doc = json.loads(answer["stdout"])
    doc["closed_form"] = doc["closed_form"].replace("zeta(2)", "2*zeta(2)")
    verdict = checks.check_verify(req, dict(answer, stdout=json.dumps(doc)), ref)
    assert verdict.state == "wrong" and not verdict.known


# -- the reference -----------------------------------------------------------------------


@pytest.mark.parametrize("twice,k", [(1, 0), (7, 5), (20, 14)])
def test_gamma_table_agrees_with_direct_quadrature(ref, twice, k):
    s = mpmath.mpf(twice) / 2
    with mpmath.workdps(40):
        # x = u^2 keeps the integrand smooth at 0 for every s >= 1/2
        direct = mpmath.quad(
            lambda u: 2 * u ** (2 * s - 1) * mpmath.exp(-u * u) * (2 * mpmath.log(u)) ** k,
            [0, 1, 4, mpmath.inf])
        table = ref.integral([(0, Fraction(1), 0)], Fraction(twice, 2), k, Fraction(1))
        assert abs(direct - table) <= mpmath.mpf("1e-25") * abs(table)


def test_rendered_and_json_forms_bind_alike(ref):
    answer = _eval_answer("(2 + x^(2))*x^(5/2)*exp(-0.5*x)*log(x)^4")
    doc = json.loads(answer["stdout"])
    mu = Fraction(1, 2)
    assert matches(ref.bind_text(doc["closed_form"], mu), ref.bind_json(doc["closed_form_json"], mu))


# -- draws and guards --------------------------------------------------------------------


def test_draws_are_seeded():
    assert draws.verify_mix(7) == draws.verify_mix(7)
    assert draws.verify_mix(7) != draws.verify_mix(8)
    assert draws.deep_log(7) == draws.deep_log(7)
    mix = draws.verify_mix(9)
    assert [r["n"] for r in mix].count(13) == 4  # three drawn, one pinned
    assert {r["expr"] for r in mix} >= {"x^(9)*exp(-1000*x)", "x^(9)*exp(-10*x)*log(x)^9"}


def test_missing_mpmath_stops_loudly(tmp_path):
    (tmp_path / "mpmath.py").write_text("raise ImportError('mpmath hidden for this test')\n")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "catalog", "--seed", "1",
         "--seconds", "1"], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**run._env(), "PYTHONPATH": str(tmp_path)})
    assert proc.returncode != 0
    assert "mpmath" in proc.stderr
    assert "correct" not in proc.stdout


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
