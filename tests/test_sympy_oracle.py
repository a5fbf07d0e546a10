"""Groebner bases and normal forms against sympy over GF(p).

sympy is a test-only reference: the reduced Groebner basis of an ideal
and the normal form modulo it are unique, so both implementations must
agree term by term once coefficients are read mod p.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invar.gf import field
from invar.groebner import buchberger, normal_form
from invar.mpoly import PolyRing

sympy = pytest.importorskip("sympy")


def _as_dict(f, p):
    return {f.ring.order.unpack(k): c % p for k, c in f.terms.items()}


def _sympy_dict(expr, xs, p):
    poly = sympy.Poly(expr, *xs, modulus=p)
    return {e: int(c) % p for e, c in poly.as_dict().items() if int(c) % p}


def _to_sympy(f, xs):
    unpack = f.ring.order.unpack
    return sum((int(c) * sympy.Mul(*[x ** a for x, a in zip(xs, unpack(k))])
                for k, c in f.terms.items()), sympy.Integer(0))


@st.composite
def _ideals(draw):
    """(ring, p, generators, f) over GF(p) in grevlex, two or three
    variables, with at least one nonzero generator."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 3))
    ring = PolyRing(field(p), [f"x{i}" for i in range(n)], "grevlex")

    def poly(max_terms, max_deg):
        exps = st.tuples(*[st.integers(0, max_deg)] * n)
        terms = draw(st.dictionaries(exps, st.integers(1, p - 1),
                                     min_size=1, max_size=max_terms))
        return ring.from_terms(terms)

    gens = [poly(3, 3) for _ in range(draw(st.integers(1, 3)))]
    return ring, p, gens, poly(6, 4)


@settings(max_examples=60, deadline=None)
@given(case=_ideals())
def test_buchberger_matches_sympy(case):
    ring, p, gens, _ = case
    xs = sympy.symbols(ring.names)
    ref = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs,
                         modulus=p, order="grevlex")
    gb = buchberger(gens)
    assert len(gb) == len(ref.exprs)
    assert {frozenset(_as_dict(b, p).items()) for b in gb} == \
        {frozenset(_sympy_dict(e, xs, p).items()) for e in ref.exprs}


@settings(max_examples=60, deadline=None)
@given(case=_ideals())
def test_normal_form_matches_sympy_reduced(case):
    ring, p, gens, f = case
    xs = sympy.symbols(ring.names)
    ref = sympy.groebner([_to_sympy(g, xs) for g in gens], *xs,
                         modulus=p, order="grevlex")
    _, remainder = sympy.reduced(_to_sympy(f, xs), list(ref.exprs), *xs,
                                 modulus=p, order="grevlex")
    assert _as_dict(normal_form(f, buchberger(gens)), p) == \
        _sympy_dict(remainder, xs, p)
