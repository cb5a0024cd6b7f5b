"""Span recorder for the traced run.

``Tracer.install`` wraps explogint's public functions at the names through
which its own modules (and the benchmark) call them, so a span opens at
every layer boundary: parser, evaluator, special_values, oracle, catalog,
cli and the ring's render/JSON entry points.  ``SymbolicConstant``'s
operators and constructor get counters rather than spans.  Spans stay in
memory as ``[name, start, end, parent, request]`` and are written once, by
``dump``, when the run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path


def spec_json(spec) -> dict:
    """An IntegralSpec as plain JSON, for the reference."""
    return {
        "s": str(spec.s.value),
        "n": spec.log_power,
        "terms": [[t.power, str(t.coeff), t.mu_power] for t in spec.prefactor],
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"ring.mul": 0, "ring.add": 0, "ring.new": 0}
        self.events: list[dict] = []  # per-call facts for the per-layer numbers
        self.request = -1
        self._stack: list[int] = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][1] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def event(self, kind: str, **facts) -> None:
        self.events.append({"kind": kind, "request": self.request, **facts})

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap explogint's public entry points; call before any request."""
        from explogint import cli, evaluator, oracle, ring, special_values

        catalog = importlib.import_module("explogint.catalog")  # not the same-named function

        def after_eval(args, closed):
            coeffs = [m.coeff for _, const in closed.terms for m in const.terms]
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
                       default=0)
            self.event("eval", monomials=len(coeffs), bits=bits)

        def after_bind(args, value):
            self.event("bind", mu=float(args[1]).hex(), value=float(value).hex())

        def after_quad(args, result):
            spec, mu = args[0], args[1]
            self.event("quadrature", spec=spec_json(spec), mu=float(mu).hex(),
                       value=result.value.hex(), converged=result.converged,
                       nodes=result.nodes_used)

        cache = special_values.gamma_deriv_at

        def cached_gamma_deriv(*args):
            before = cache.cache_info()
            value = cache(*args)
            after = cache.cache_info()
            self.event("cache", hit=after.misses == before.misses, entries=after.currsize)
            return value

        eval_general = self.wrap("evaluator.eval_general", evaluator.eval_general, after_eval)
        quadrature = self.wrap("oracle.quadrature", oracle.quadrature, after_quad)
        constants = self.wrap("oracle.compute_constants", oracle.compute_constants)
        for module in (cli, catalog):
            module.eval_general = eval_general
            module.quadrature = quadrature
            module.compute_constants = constants
        oracle.compute_constants = constants
        evaluator.gamma_deriv_at = self.wrap("special_values.gamma_deriv_at", cached_gamma_deriv)
        cli.parse_integrand = self.wrap("parser.parse_integrand", cli.parse_integrand)
        cli.to_integral_spec = self.wrap("parser.to_integral_spec", cli.to_integral_spec)
        cli.main = self.wrap("cli.main", cli.main)
        catalog.check_entry = self.wrap("catalog.check_entry", catalog.check_entry)

        closed_form = evaluator.ClosedForm
        closed_form.evaluate = self.wrap("evaluator.bind", closed_form.evaluate, after_bind)
        closed_form.render = self.wrap("ring.render", closed_form.render)
        closed_form.to_json = self.wrap("ring.json", closed_form.to_json)
        const = ring.SymbolicConstant
        const.render = self.wrap("ring.render", const.render)
        mul, add = const.__mul__, const.__add__
        const.__mul__ = const.__rmul__ = self.count("ring.mul", mul)
        const.__add__ = const.__radd__ = self.count("ring.add", add)
        const.__init__ = self.count("ring.new", const.__init__)

    # -- output --------------------------------------------------------------------

    def dump(self, path: Path, **extra) -> None:
        doc = {"spans": self.spans, "counts": self.counts, "events": self.events, **extra}
        path.write_text(json.dumps(doc))

