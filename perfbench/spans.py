"""Outside-in tracing: wrap gradua's layer functions where callers find them.

Each wrapped call records a span (name, parent, start, end). Module-level
functions are replaced in every gradua module that holds them, because
`from .action import taylor_projections` copies the reference into the
importing module; methods are replaced on their class. Nothing in gradua
is edited.

Timestamps come from a virtual clock that stops while the tracer does its
own bookkeeping (counting terms, coefficient sizes, matrix shapes), so a
span's self time is the time the wrapped code itself ran, and the self
times of one op's spans add up exactly to the op's traced duration.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.lag = 0                      # ns of bookkeeping removed from the clock
        self.stack: list[int] = []
        self.spans: list = []             # (name, parent, start, end) of the current op
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = _now()
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(sid)
            if before is not None:
                before(tracer, args)
            started = _now()
            tracer.lag += started - entered
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ended = _now()
                tracer.stack.pop()
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.spans[sid] = (name, parent, started - tracer.lag, ended - tracer.lag)
            if after is not None:
                after(tracer, return_value)
            tracer.lag += _now() - ended
            return return_value

        traced.__wrapped__ = fn
        return traced

    def run_op(self, fn):
        """Call fn under a root span named `op`; return its result and spans."""
        self.spans = []
        self.stack = []
        self.active = True
        try:
            result = self.wrap("op", fn)()
        finally:
            self.active = False
        return result, self.spans


def self_times(spans) -> dict[str, list[int]]:
    """name -> [calls, self ns], self time being duration minus children's."""
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, (name, parent, start, end) in enumerate(spans):
        out[name][0] += 1
        out[name][1] += end - start - child_ns[i]
    return out


# --- what is wrapped ---------------------------------------------------------


def _mat_mul_before(tracer: Tracer, args) -> None:
    a, b = args[0], args[1]
    cols = len(b[0]) if b else 0
    tracer.counts["linalg.mat_mul.scalar_mults"] += len(a) * len(b) * cols
    if all(x == 0 for row in a for x in row) or all(x == 0 for row in b for x in row):
        tracer.counts["linalg.mat_mul.zero_operand_calls"] += 1


def _note_poly(tracer: Tracer, poly) -> None:
    terms = poly.terms
    if len(terms) > tracer.peaks["wpoly.peak_terms"]:
        tracer.peaks["wpoly.peak_terms"] = len(terms)
    bits = tracer.peaks["wpoly.max_coeff_bits"]
    for c in terms.values():
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    tracer.peaks["wpoly.max_coeff_bits"] = bits


def _wpoly_after(tracer: Tracer, result) -> None:
    if isinstance(result, dict):
        for poly in result.values():
            _note_poly(tracer, poly)
    elif hasattr(result, "terms"):
        _note_poly(tracer, result)


def _mul_before(tracer: Tracer, args) -> None:
    other = args[1]
    if hasattr(other, "terms"):
        tracer.counts["wpoly.mul.term_pairs"] += len(args[0].terms) * len(other.terms)


def _tokens_after(tracer: Tracer, tokens) -> None:
    tracer.counts["dsl.tokens"] += len(tokens)


def _emit_after(tracer: Tracer, text) -> None:
    tracer.counts["cli.emit.bytes"] += len(text.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Replace each layer function by its traced wrapper, wherever it is looked up."""
    from gradua import action, cli, dsl, graded, jets, linalg, multigrade, wpoly

    functions = [
        ("linalg.mat_mul", linalg, "mat_mul", _mat_mul_before, None),
        ("linalg.inverse", linalg, "inverse", None, None),
        ("linalg.independent_columns", linalg, "independent_columns", None, None),
        ("action.analyze", action, "analyze", None, None),
        ("action.verify_laws", action, "verify_laws", None, None),
        ("action.taylor_projections", action, "taylor_projections", None, None),
        ("action.homogenize", action, "homogenize", None, None),
        ("action.invert", action, "_invert_coordinate_change", None, None),
        ("action.invert.attempt", action, "_picard_inverse", None, None),
        ("graded.is_graded_morphism", graded, "is_graded_morphism", None, None),
        ("jets.prolong", jets, "prolong", None, None),
        ("jets.prolong_action", jets, "prolong_action", None, None),
        ("multigrade.check_commuting", multigrade, "check_commuting", None, None),
        ("multigrade.bihomogenize", multigrade, "bihomogenize", None, None),
        ("multigrade.total_action", multigrade, "total_action", None, None),
        ("dsl.parse", dsl, "parse", None, None),
        ("dsl.tokenize", dsl, "tokenize", None, _tokens_after),
        ("cli.run", cli, "run", None, None),
        ("cli.emit", cli, "emit", None, _emit_after),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("gradua")]
    for span_name, module, attr, before, after in functions:
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, before, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    methods = [
        ("wpoly.mul", wpoly.WPolynomial, "__mul__", _mul_before, _wpoly_after),
        ("wpoly.substitute", wpoly.WPolynomial, "substitute", None, _wpoly_after),
        ("wpoly.pow", wpoly.WPolynomial, "__pow__", None, _wpoly_after),
        ("wpoly.differentiate", wpoly.WPolynomial, "differentiate", None, _wpoly_after),
        ("wpoly.coefficients_in", wpoly.WPolynomial, "coefficients_in", None, _wpoly_after),
        ("graded.then", graded.PolyMap, "then", None, None),
        ("graded.at", graded.ActionFamily, "at", None, None),
    ]
    for span_name, cls, attr, before, after in methods:
        setattr(cls, attr, tracer.wrap(span_name, getattr(cls, attr), before, after))
