"""Per-layer numbers from a traced run's spans, counters and events.

Times are milliseconds per timed request (all timed passes); counts and
ratios are taken over the first timed pass, whose requests and cache state
are the same on every run with the same seed, so they repeat exactly.
"""

from __future__ import annotations

from fractions import Fraction

from checks import TOL
from reference import Reference, rel_dev, spec_terms

# metric -> the spans whose outermost occurrences it sums
TIMES = {
    "ring.render_ms": ("ring.render",),
    "ring.json_ms": ("ring.json",),
    "special_values.ms": ("special_values.gamma_deriv_at",),
    "evaluator.eval_general_ms": ("evaluator.eval_general",),
    "evaluator.bind_ms": ("evaluator.bind",),
    "oracle.quadrature_ms": ("oracle.quadrature",),
    "oracle.constants_ms": ("oracle.compute_constants",),
    "catalog.check_ms": ("catalog.check_entry",),
    "parser.ms": ("parser.parse_integrand", "parser.to_integral_spec"),
}
SELF_TIMES = {"evaluator.self_ms": "evaluator.eval_general", "cli.self_ms": "cli.main"}

UNITS = {
    **{name: "ms" for name in TIMES},
    **{name: "ms" for name in SELF_TIMES},
    "ring.mul_calls": "count",
    "ring.add_calls": "count",
    "ring.new_calls": "count",
    "ring.coeff_bits_max": "bits",
    "special_values.cache_hit_ratio": "ratio",
    "special_values.cache_entries": "count",
    "evaluator.monomials": "count",
    "evaluator.bind_rel_err_max": "ratio",
    "oracle.quadrature_calls": "count",
    "oracle.nodes": "count",
    "oracle.unconverged": "count",
    "oracle.wrong_converged": "count",
    "catalog.symbolic_unequal": "count",
    "cli.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(trace: dict, requests: list[dict], ref: Reference) -> dict[str, float]:
    """``trace`` holds the merged run: spans, events, the ring operations of
    each request ``counts`` {request: [mul, add, new]}, ``size`` (requests per
    pass), ``import_ms`` (list), the outputs of pass 1 and both run_ref
    figures.  ``requests`` describe the questions, indexed by request id."""
    size = trace["size"]
    spans = trace["spans"]
    timed = [s for s in spans if s[4] >= size]
    n_timed = len({s[4] for s in timed}) or 1
    first_pass = range(size, 2 * size)
    out: dict[str, float] = {}

    for name, names in TIMES.items():
        total = sum(s[2] - s[1] for s in timed
                    if s[0] in names and (s[3] < 0 or spans[s[3]][0] not in names))
        out[name] = total * 1e3 / n_timed
    children: dict[int, float] = {}
    for s in timed:
        if s[3] >= 0:
            children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1])
    for metric, span_name in SELF_TIMES.items():
        total = sum(s[2] - s[1] - children.get(i, 0.0)
                    for i, s in enumerate(spans) if s[4] >= size and s[0] == span_name)
        out[metric] = total * 1e3 / n_timed

    counts = [trace["counts"][r] for r in first_pass if r in trace["counts"]]
    for i, name in enumerate(("ring.mul_calls", "ring.add_calls", "ring.new_calls")):
        out[name] = sum(c[i] for c in counts)

    events = [e for e in trace["events"] if e["request"] in first_pass]
    evals = [e for e in events if e["kind"] == "eval"]
    out["ring.coeff_bits_max"] = max((e["bits"] for e in evals), default=0)
    out["evaluator.monomials"] = sum(e["monomials"] for e in evals)
    cache = [e for e in events if e["kind"] == "cache"]
    out["special_values.cache_hit_ratio"] = (
        sum(e["hit"] for e in cache) / len(cache) if cache else 0.0)
    out["special_values.cache_entries"] = max((e["entries"] for e in cache), default=0)

    def truth(request: int, spec: dict | None, mu_hex: str):
        mu = Fraction(float.fromhex(mu_hex))
        if spec is None:
            req = requests[request % size]
            spec = req.get("spec", req)  # catalog questions carry the entry's spec
        return ref.integral(spec_terms(spec["terms"]), Fraction(spec["s"]), int(spec["n"]), mu)

    binds = [e for e in events if e["kind"] == "bind"]
    out["evaluator.bind_rel_err_max"] = max(
        (rel_dev(float.fromhex(e["value"]), truth(e["request"], None, e["mu"])) for e in binds),
        default=0.0)
    quads = [e for e in events if e["kind"] == "quadrature"]
    out["oracle.quadrature_calls"] = len(quads)
    out["oracle.nodes"] = sum(e["nodes"] for e in quads)
    out["oracle.unconverged"] = sum(not e["converged"] for e in quads)
    out["oracle.wrong_converged"] = sum(
        e["converged"]
        and rel_dev(float.fromhex(e["value"]), truth(e["request"], e["spec"], e["mu"])) > 10 * TOL
        for e in quads)
    out["catalog.symbolic_unequal"] = sum(
        not o.get("symbolic_equal", True) for o in trace["first_pass_outputs"])
    imports = sorted(trace["import_ms"])
    out["cli.import_ms"] = imports[len(imports) // 2]
    out["trace.overhead_frac"] = trace["run_ref_traced"] / trace["run_ref_untraced"] - 1.0
    return out
