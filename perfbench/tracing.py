"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of each invar layer to wrappers
that record a span: name, start, end, parent span and the op it belongs
to.  invar modules import names such as ``normal_form`` directly, so every
module attribute that is the original object is rebound, not only the
defining one.  Spans stay in memory and are written out when the run ends.

FieldElement operators are counted by a separate, count-only wrapper set,
so that their cost never lands inside a span.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name)
FUNCTIONS = (
    ("invar.gf", "field", "gf.field"),
    ("invar.invariants", "dickson_at_point", "invariants.point"),
    ("invar.invariants", "symplectic_relation_values", "invariants.point"),
    ("invar.invariants", "symplectic_xi_value", "invariants.point"),
    ("invar.invariants", "dickson_invariants", "invariants.dickson"),
    ("invar.invariants", "apply_matrix", "invariants.apply_matrix"),
    ("invar.invariants", "vandermonde", "invariants.vandermonde"),
    ("invar.mpoly", "frobenius_power", "mpoly.frobenius_power"),
    ("invar.groebner", "normal_form", "groebner.normal_form"),
    ("invar.groebner", "buchberger", "groebner.buchberger"),
    ("invar.groebner", "frobenius_closure_search", "groebner.closure_search"),
    ("invar.polyio", "format_polys", "polyio.format"),
    ("invar.polyio", "format_certificate", "polyio.format"),
    ("invar.polyio", "parse_polys_text", "polyio.parse"),
    ("invar.polyio", "parse_certificate_text", "polyio.parse"),
    ("invar.polyio", "parse_poly", "polyio.parse"),
    ("invar.polyio", "parse_element", "polyio.parse"),
    ("invar.polyio", "parse_field_text", "polyio.parse"),
    ("invar.fsing", "run_claim", "fsing.claim"),
    ("invar.fsing", "verify_c0_expression", "fsing.claim"),
    ("invar.fsing", "witness_document", "fsing.witness"),
    ("invar.fsing", "replay_document", "fsing.replay"),
)

# (module, class, method, span name)
METHODS = (
    ("invar.mpoly", "Polynomial", "__mul__", "mpoly.mul"),
    ("invar.mpoly", "Polynomial", "__rmul__", "mpoly.mul"),
    ("invar.mpoly", "Polynomial", "__pow__", "mpoly.pow"),
)

# FieldElement operators counted in the count-only pass
ELEMENT_OPS = {
    "__mul__": "gf.elem_mul_calls", "__rmul__": "gf.elem_mul_calls",
    "__pow__": "gf.elem_pow_calls",
    "__add__": "gf.elem_add_calls", "__radd__": "gf.elem_add_calls",
    "__sub__": "gf.elem_add_calls", "__rsub__": "gf.elem_add_calls",
}


def _size(name, args, result):
    """The count a span carries besides its duration."""
    if name == "mpoly.mul":
        return len(result.terms) if hasattr(result, "terms") else 0
    if name == "polyio.format" or name == "fsing.witness":
        return len(result)
    if name == "polyio.parse":
        return len(args[0])
    if name == "groebner.buchberger":
        return len(result)
    if name == "groebner.normal_form":
        remainder = getattr(result, "remainder", result)
        cof = sum(len(c) for c in getattr(result, "cofactors", ()))
        return (len(args[0]), len(remainder), cof)
    return 0


def _rebind(original, replacement, undo):
    for modname, mod in list(sys.modules.items()):
        if modname != "invar" and not modname.startswith("invar."):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)
                undo.append((mod, key, original))


class Tracer:
    """Span recorder.  ``op`` names the op being run; while it is None
    the wrappers call straight through and record nothing."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op, size]
        self.stack = []
        self.op = None
        self._undo = []
        self._seen_fields = set()

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, 0]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if name == "gf.field":
                # only a call that builds a new field keeps its span; field()
                # calls nothing traced, so its span is still the last one
                if id(result) in tracer._seen_fields:
                    del tracer.spans[idx]
                tracer._seen_fields.add(id(result))
            else:
                span[5] = _size(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            _rebind(orig, self._wrap(orig, name), self._undo)
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, name))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class ElementCounter:
    """Counts FieldElement operator calls while ``active`` is set."""

    def __init__(self):
        self.counts = Counter()
        self.active = False
        self._undo = []

    def install(self):
        cls = sys.modules["invar.gf"].FieldElement
        for meth, name in ELEMENT_OPS.items():
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, name))
            self._undo.append((cls, meth, orig))

    def _wrap(self, fn, name):
        counts = self.counts
        counter = self

        def wrapper(*args):
            if counter.active:
                counts[name] += 1
            return fn(*args)
        return wrapper

    def uninstall(self):
        while self._undo:
            cls, meth, orig = self._undo.pop()
            setattr(cls, meth, orig)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

SPAN_TIMES = {
    "invariants.point": "invariants.point_s",
    "invariants.dickson": "invariants.dickson_s",
    "invariants.apply_matrix": "invariants.apply_matrix_s",
    "invariants.vandermonde": "invariants.vandermonde_s",
    "mpoly.mul": "mpoly.mul_s",
    "mpoly.pow": "mpoly.pow_s",
    "mpoly.frobenius_power": "mpoly.frobenius_power_s",
    "groebner.normal_form": "groebner.normal_form_s",
    "groebner.buchberger": "groebner.buchberger_s",
    "groebner.closure_search": "groebner.closure_search_s",
    "polyio.format": "polyio.format_s",
    "polyio.parse": "polyio.parse_s",
    "fsing.claim": "fsing.claim_self_s",
    "fsing.replay": "fsing.replay_self_s",
}


def layer_metrics(spans, in_pass) -> dict:
    """Per-layer figures from a span list.  Every time is self time: the
    span's duration minus the part covered by its child spans, so the
    layer times of a pass add up to the traced time spent in spans.

    ``in_pass(op)`` selects the spans of the measured pass; gf.field_new_s
    sums over every span, since new fields are built during set-up."""
    child = defaultdict(float)
    for name, start, end, parent, op, size in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {m: 0.0 for m in SPAN_TIMES.values()}
    out.update({"gf.field_new_s": 0.0, "invariants.point_calls": 0,
                "mpoly.mul_calls": 0, "mpoly.mul_terms_out": 0,
                "groebner.normal_form_calls": 0, "groebner.nf_terms_in": 0,
                "groebner.nf_remainder_terms": 0, "groebner.cofactor_terms": 0,
                "groebner.buchberger_calls": 0, "groebner.basis_elems": 0,
                "polyio.format_bytes": 0, "polyio.parse_bytes": 0,
                "fsing.witness_bytes": 0})
    for idx, (name, start, end, parent, op, size) in enumerate(spans):
        self_s = end - start - child[idx]
        if name == "gf.field":
            out["gf.field_new_s"] += self_s
            continue
        if not in_pass(op):
            continue
        if name in SPAN_TIMES:
            out[SPAN_TIMES[name]] += self_s
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "invariants.point":
            out["invariants.point_calls"] += 1
        elif name == "mpoly.mul":
            out["mpoly.mul_calls"] += 1
            out["mpoly.mul_terms_out"] += size
        elif name == "groebner.normal_form":
            out["groebner.normal_form_calls"] += 1
            out["groebner.nf_terms_in"] += size[0]
            out["groebner.nf_remainder_terms"] += size[1]
            out["groebner.cofactor_terms"] += size[2]
        elif name == "groebner.buchberger":
            out["groebner.buchberger_calls"] += 1
            out["groebner.basis_elems"] += size
        elif name in ("polyio.format", "polyio.parse") and parent_name != name:
            # nested calls (a certificate parses its polynomials) count once
            out[name + "_bytes"] += size
        elif name == "fsing.witness":
            out["fsing.witness_bytes"] += size
    return out


# ---------------------------------------------------------------------------
# kernel rates
# ---------------------------------------------------------------------------

RATE_FIELDS = (("p3", 3, 1), ("table9", 3, 2), ("2e32", 2, 32), ("3e32", 3, 32))


def _rate(step, count: int, min_seconds: float = 0.2, repeats: int = 5) -> float:
    """Median over repeats of count / seconds, each repeat looping step()
    until min_seconds have passed."""
    rates = []
    for _ in range(repeats):
        done = 0
        t0 = time.perf_counter()
        while True:
            step()
            done += count
            elapsed = time.perf_counter() - t0
            if elapsed >= min_seconds:
                break
        rates.append(done / elapsed)
    rates.sort()
    return rates[len(rates) // 2]


def kernel_rates() -> dict:
    """FieldElement multiplications per second for each field kind, and
    term products per second for ``*`` on two fixed 300-term polynomials.
    Inputs are fixed, so rates compare across runs and commits."""
    from invar.gf import field
    from invar.invariants import xring

    out = {}
    for tag, p, e in RATE_FIELDS:
        spec = field(p, e)
        rng = random.Random(f"mul-rate-{tag}")
        xs = [spec.random_element(rng) for _ in range(256)]
        ys = [spec.random_element(rng) for _ in range(256)]

        def step(xs=xs, ys=ys):
            for x, y in zip(xs, ys):
                x * y
        out[f"gf.mul_rate.{tag}"] = _rate(step, len(xs))

    rng = random.Random("term-mul-rate")
    ring = xring(field(7), 6)

    def poly():
        terms = {}
        while len(terms) < 300:
            terms[tuple(rng.randrange(6) for _ in range(6))] = rng.randrange(1, 7)
        return ring.from_terms(terms)
    f, g = poly(), poly()
    out["mpoly.term_mul_rate"] = _rate(lambda: f * g, len(f) * len(g))
    return out
