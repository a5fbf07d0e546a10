"""Tests for sparse polynomial arithmetic and term orders."""

import hashlib
import json
import random
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invar.mpoly as mpoly
from invar.errors import ContextMismatch, ResourceLimit, UsageError
from invar.gf import field
from invar.fsing import RunConfig, run_claim
from invar.invariants import dickson_invariants
from invar.mpoly import (PolyRing, TermOrder, _mul, _power, _sqr, frobenius_power,
                         random_points, sample_sides, substitute)
from invar.polyio import format_polys, parse_certificate_text
from oracles import (block_sort_key, coeff_element, degree_in, draw_poly,
                     eval_by_substitution, grevlex_sort_key, is_homogeneous,
                     leading_coeff, leading_monomial, leading_term, lex_sort_key,
                     naive_mul, random_poly, reference_sum, reference_text, rings,
                     sqr_cross_terms_once, verify_identity_probabilistic,
                     weighted_degree)


ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def R3():
    return PolyRing(field(3), ["x1", "x2", "x3"])


def test_construction_and_merging(R3):
    f = R3.from_terms({(1, 0, 0): 1, (0, 1, 0): 2})
    g = R3.gen("x1") + 2 * R3.gen("x2")
    assert f == g
    assert R3.from_terms({(1, 0, 0): 3}).is_zero()
    assert R3.from_terms({}).is_zero()
    assert R3.constant(5) == R3.constant(2)
    assert len(R3.from_terms({(2, 0, 0): 1, (0, 0, 2): 2})) == 2


def test_ring_validation():
    with pytest.raises(UsageError):
        PolyRing(field(3), ["x", "x"])
    with pytest.raises(UsageError):
        PolyRing(field(3), ["g", "y"])       # reserved symbol
    with pytest.raises(UsageError):
        PolyRing(field(3), ["2x"])
    with pytest.raises(UsageError):
        PolyRing(field(3), ["x", "y"], order="weird")
    with pytest.raises(UsageError):
        PolyRing(field(3), ["x", "y"], order=("block", 2))


def test_cross_ring_operations_rejected(R3):
    other = PolyRing(field(5), ["x1", "x2", "x3"])
    with pytest.raises(ContextMismatch):
        R3.gen(0) + other.gen(0)
    same_names_lex = PolyRing(field(3), ["x1", "x2", "x3"], order="lex")
    with pytest.raises(ContextMismatch):
        R3.gen(0) * same_names_lex.gen(0)


@pytest.mark.parametrize("kind,block", [("grevlex", 0), ("lex", 0)]
                         + [("block", k) for k in range(1, 7)])
def test_order_isomorphism_random(kind, block):
    """Packed key comparison must agree with the textbook comparator,
    key addition must implement monomial multiplication, and a key must
    be offset + sum a_i * steps[i], in every n of 1, 2, 4, 7 the order
    admits."""
    if kind == "grevlex":
        ref = grevlex_sort_key
    elif kind == "lex":
        ref = lex_sort_key
    else:
        ref = lambda e: block_sort_key(e, block)
    rng = random.Random(5)
    for n in [n for n in (1, 2, 4, 7) if n > block]:
        order = TermOrder(kind, n, block=block)
        for _ in range(200):
            a = tuple(rng.randrange(50) for _ in range(n))
            b = tuple(rng.randrange(50) for _ in range(n))
            ka, kb = order.pack(a), order.pack(b)
            assert (ka > kb) == (ref(a) > ref(b))
            assert (ka == kb) == (a == b)
            assert ka == order.offset + sum(x * s for x, s in zip(a, order.steps))
            assert order.unpack(ka) == a
            assert order.total_degree_of(ka) == sum(a)
            assert order.columns([ka, kb]) == [list(c) for c in zip(a, b)]
            assert [order.column([ka, kb], i) for i in range(n)] == order.columns([ka, kb])
            assert ka + kb - order.offset == order.pack(tuple(x + y for x, y in zip(a, b)))
        top = order.pack((mpoly.EXP_CAP - 1,) * n)
        assert [order.column([top], i) for i in range(n)] == [[mpoly.EXP_CAP - 1]] * n
        assert order.total_degree_of(top) == n * (mpoly.EXP_CAP - 1)


def test_grevlex_degree_two_chain(R3):
    mons = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [R3.order.pack(m) for m in mons]
    assert keys == sorted(keys, reverse=True)


def test_block_order_eliminates_first_block():
    R = PolyRing(field(3), ["a", "b", "x", "y"], order=("block", 2))
    a, b, x, y = R.gens()
    assert (x ** 9 * y ** 9 + a).leading_exponents() == (1, 0, 0, 0)
    assert (x * b + y ** 5).leading_exponents() == (0, 1, 1, 0)


def test_mul_against_naive_reference():
    rng = random.Random(11)
    for spec in [field(3), field(5), field(2, 2), field(3, 2)]:
        R = PolyRing(spec, ["x", "y", "z"])
        for _ in range(25):
            f = random_poly(R, rng)
            g = random_poly(R, rng)
            assert f * g == naive_mul(f, g)


def test_ring_axioms_random(R3):
    rng = random.Random(2)
    for _ in range(40):
        f, g, h = (random_poly(R3, rng) for _ in range(3))
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f - f == R3.zero
        assert f * R3.one == f
        assert f * R3.zero == R3.zero


def test_freshman_dream_many_pairs():
    """(f + g)^p = f^p + g^p for 200 random pairs across characteristics."""
    cases = [(field(2), 100), (field(3), 60), (field(5), 40)]
    for spec, count in cases:
        R = PolyRing(spec, ["x", "y"])
        rng = random.Random(spec.p)
        for _ in range(count):
            f = random_poly(R, rng, nterms=4, maxdeg=3)
            g = random_poly(R, rng, nterms=4, maxdeg=3)
            assert (f + g) ** spec.p == f ** spec.p + g ** spec.p


def test_pow_matches_repeated_mul(R3):
    rng = random.Random(3)
    f = random_poly(R3, rng)
    acc = R3.one
    for k in range(6):
        assert f ** k == acc
        acc = acc * f
    assert f ** 0 == R3.one
    with pytest.raises(UsageError):
        f ** -1


def test_frobenius_power(R3):
    x1, x2, x3 = R3.gens()
    f = x1 + 2 * x2 * x3
    assert frobenius_power(f, 1) == f ** 3
    assert frobenius_power(f, 2) == f ** 9
    assert frobenius_power(f, 0) == f
    # extension coefficients get raised too
    F9 = field(3, 2)
    R = PolyRing(F9, ["u"])
    u = R.gen(0)
    h = R.monomial((1,), F9.gen)
    assert frobenius_power(h, 1) == h ** 3
    assert frobenius_power(h, 1) == R.monomial((3,), F9.gen ** 3)


@pytest.mark.parametrize("p,e,ms", [(3, 2, (1, 2, 3)), (2, 32, (1, 2, 17))])
def test_frobenius_power_raises_coefficients_termwise(p, e, ms):
    F = field(p, e)
    R = PolyRing(F, ["u", "v"])
    f = random_poly(R, random.Random(e), nterms=5, maxdeg=3)
    unpack = R.order.unpack
    for m in ms:
        q = p ** m
        expected = R.from_terms({tuple(a * q for a in unpack(k)): coeff_element(R, c) ** q
                                 for k, c in f.terms.items()})
        assert frobenius_power(f, m) == expected


def test_char_p_power_sparsity(R3):
    x1, x2, _ = R3.gens()
    f = (x1 + x2) ** 81
    assert len(f) == 2
    g = (x1 + x2) ** 80          # 81 - 1 = 80, still structured but bigger
    assert len(g) > 2


def test_evaluate_matches_substitution():
    rng = random.Random(7)
    for spec in [field(3), field(2, 2)]:
        R = PolyRing(spec, ["x", "y", "z"])
        L = spec if spec.e > 1 else field(spec.p, 3)
        for _ in range(15):
            f = random_poly(R, rng)
            pt = tuple(L.random_element(rng) for _ in range(3))
            assert f.evaluate(pt) == eval_by_substitution(f, pt)


def test_evaluate_embedding_rules(R3):
    x1, x2, x3 = R3.gens()
    f = x1 * x2 + 2 * x3
    L = field(3, 4)
    rng = random.Random(1)
    pt = tuple(L.random_element(rng) for _ in range(3))
    assert f.evaluate(pt) == pt[0] * pt[1] + 2 * pt[2]
    with pytest.raises(ContextMismatch):
        f.evaluate((pt[0], pt[1], field(2, 2).gen))   # mixed coordinate fields
    with pytest.raises(ContextMismatch):
        f.evaluate(tuple(field(2).element(1) for _ in range(3)))  # wrong char
    # extension coefficients only evaluate in their own field
    F9 = field(3, 2)
    R9 = PolyRing(F9, ["u"])
    h = R9.monomial((2,), F9.gen)
    with pytest.raises(ContextMismatch):
        h.evaluate((field(3, 4).one,))
    assert h.evaluate((F9.gen,)) == F9.gen ** 3


def test_evaluate_needs_one_coordinate_per_variable(R3):
    x1, x2, x3 = R3.gens()
    f = x1 * x2 + 2 * x3
    F = field(3)
    for count in (2, 4):
        with pytest.raises(UsageError, match="expected 3 coordinates"):
            f.evaluate(tuple(F.one for _ in range(count)))
    assert f.evaluate((F.one,) * 3) == 0


def test_degrees_and_homogeneity(R3):
    x1, x2, x3 = R3.gens()
    f = x1 ** 2 * x2 + x3 ** 3
    assert f.total_degree() == 3
    assert is_homogeneous(f)
    assert not is_homogeneous(f + x1)
    assert R3.zero.total_degree() == -1
    assert is_homogeneous(R3.zero)
    g = x1 ** 3 + x2 * x3        # weights (2, 3, 3)
    assert is_homogeneous(g, weights=(2, 3, 3))
    assert weighted_degree(g, (2, 3, 3)) == 6
    assert degree_in(f, "x3") == 3
    assert degree_in(f, 0) == 2


def test_leading_data(R3):
    x1, x2, x3 = R3.gens()
    f = 2 * x1 * x2 + x3 ** 2
    assert f.leading_exponents() == (1, 1, 0)
    assert leading_coeff(f) == field(3).element(2)
    assert leading_monomial(f) == x1 * x2
    assert leading_term(f) == 2 * x1 * x2
    assert f.monic() == x1 * x2 + 2 * x3 ** 2
    with pytest.raises(UsageError):
        R3.zero.leading_key()
    # a leading coefficient outside GF(p) is inverted as an element
    for F in (field(3, 2), field(2, 8), field(3, 32)):
        x, y = PolyRing(F, ["x", "y"]).gens()
        g = F.gen
        assert (g * x + 1).monic() == x + g.inverse()
        f = (g + 1) * x * y + g * y + 1
        assert f.monic().scale(g + 1) == f


def test_exponent_cap(R3, monkeypatch):
    with pytest.raises(ResourceLimit):
        R3.monomial((mpoly.EXP_CAP, 0, 0))
    x1 = R3.gen(0)
    with pytest.raises(ResourceLimit):
        x1 ** mpoly.EXP_CAP
    with pytest.raises(ResourceLimit):
        frobenius_power(R3.monomial((2048, 0, 0)), 20)
    # the Frobenius boundary over GF(2): 2 * (2^19 - 1) < 2^20 <= 2 * 2^19
    R2 = PolyRing(field(2), ["x", "y"])
    assert frobenius_power(R2.monomial((2 ** 19 - 1, 0)), 1) == R2.monomial((2 ** 20 - 2, 0))
    with pytest.raises(ResourceLimit):
        frobenius_power(R2.monomial((2 ** 19, 0)), 1)
    monkeypatch.setattr(mpoly, "EXP_CAP", 8)
    with pytest.raises(ResourceLimit):
        R3.monomial((8, 0, 0))
    assert degree_in(R3.monomial((7, 0, 0)), 0) == 7


@pytest.mark.parametrize("order", ["lex", "grevlex", ("block", 1)])
def test_product_exponent_never_wraps(order):
    # 300 products by y^(2^20 - 1) used to carry into x's field in lex
    R = PolyRing(field(3), ["x", "y"], order)
    step = R.monomial((0, mpoly.EXP_CAP - 1))
    f = R.one
    with pytest.raises(ResourceLimit):
        for _ in range(300):
            f = f * step
    assert f == step


@pytest.mark.parametrize("order", ["lex", "grevlex", ("block", 1)])
def test_product_exponent_check_is_exact(order):
    R = PolyRing(field(3), ["x", "y"], order)
    cap = mpoly.EXP_CAP
    top = R.monomial((cap - 1, cap - 1))
    assert R.monomial((cap - 1, 0)) * R.monomial((0, cap - 1)) == top
    # the OR of x^(2^19) and x^(2^18) overstates the degree 2^19
    f = R.monomial((cap // 2, 0)) + R.monomial((cap // 4, 0))
    g = R.monomial((cap // 2 - 1, 0))
    assert degree_in(f * g, 0) == cap - 1
    with pytest.raises(ResourceLimit):
        f * R.monomial((cap // 2, 1))
    with pytest.raises(ResourceLimit):
        top * R.gen(1)


def test_term_guard(R3, monkeypatch):
    rng = random.Random(0)
    f = random_poly(R3, rng, nterms=12, maxdeg=6)
    g = random_poly(R3, rng, nterms=12, maxdeg=6)
    monkeypatch.setattr(mpoly, "TERM_GUARD", 10)
    with pytest.raises(ResourceLimit):
        f * g


def test_identity_check_branches(R3):
    x1, x2, _ = R3.gens()
    exact = verify_identity_probabilistic((x1 + x2) ** 9, x1 ** 9 + x2 ** 9)
    assert exact.equal and exact.bound == 0 and exact.points == []

    # x^81 and x agree on all of GF(3^4); the bound degrades to 1 honestly
    same_function = verify_identity_probabilistic(x1 ** 81, x1, trials=6,
                                                  ext_degree=4, seed=2)
    assert same_function.equal
    assert same_function.bound == Fraction(1)

    refuted = verify_identity_probabilistic((x1 + x2) ** 2, x1 ** 2 + x2 ** 2,
                                            trials=8, ext_degree=8, seed=3)
    assert not refuted.equal and refuted.witness is not None
    f, g = (x1 + x2) ** 2, x1 ** 2 + x2 ** 2
    assert f.evaluate(refuted.witness) != g.evaluate(refuted.witness)

    replay = verify_identity_probabilistic(f, g, points=refuted.points)
    assert replay.witness == refuted.witness

    # seeded determinism
    a = verify_identity_probabilistic(x1 ** 81, x1, trials=4, ext_degree=4, seed=9)
    b = verify_identity_probabilistic(x1 ** 81, x1, trials=4, ext_degree=4, seed=9)
    assert a.points == b.points


def test_identity_check_bound_formula(R3):
    x1, x2, _ = R3.gens()
    # structurally distinct, degree 81 dominates: bound is (81/3^8)^t
    f = x1 ** 81 + x2
    g = frobenius_power(x1, 4) + x2
    assert f == g   # same thing, so force the sampled branch differently
    h = x1 ** 81
    res = verify_identity_probabilistic(h, x1, trials=3, ext_degree=8, seed=4)
    if res.equal:
        assert res.bound == Fraction(81, 3 ** 8) ** 3
    else:
        assert res.witness is not None


def test_random_points_are_lazy_and_sample_sides_stops_at_a_separation():
    L = field(3, 8)
    rng = random.Random(1)
    pts = [tuple(L.random_element(rng) for _ in range(2)) for _ in range(5)]
    assert list(random_points(L, 2, random.Random(1), 5)) == pts
    assert sample_sides(pts, lambda P: (P[0], P[0])) == (pts, [P[0] for P in pts],
                                                         [P[0] for P in pts], None)
    # a caller that stops at the third point draws nothing more
    rng = random.Random(1)
    used, lhs, rhs, k = sample_sides(random_points(L, 2, rng, 5),
                                     lambda P: (P[0], P[1] if P == pts[2] else P[0]))
    assert (used, lhs, rhs, k) == (pts[:3], [P[0] for P in pts[:3]],
                                   [pts[0][0], pts[1][0], pts[2][1]], 2)
    assert tuple(L.random_element(rng) for _ in range(2)) == pts[3]


def test_text_canonical_ordering(R3):
    x1, x2, x3 = R3.gens()
    f = x3 + x1 ** 2 + 2 * x2
    assert f.text() == "x1^2+2*x2+x3"
    assert R3.zero.text() == "0"
    assert (R3.one * 2).text() == "2"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_text_and_difference_match_references(data):
    ring = data.draw(rings(((2, 1), (5, 1), (2, 2), (3, 2))))
    f = draw_poly(data.draw, ring)
    h = draw_poly(data.draw, ring)
    # g shares all, some or none of f's keys, so terms cancel too
    g = data.draw(st.sampled_from((h, f, f + h, -f + h)))
    for u in (f, g, f - g):
        assert u.text() == reference_text(u)
    assert f - g == f + (-g)
    assert (f - g) + g == f
    assert 2 - f == ring.constant(2) + (-f)


# GF(2), GF(3), a prime near 2^31 and GF(9): both branches of _merge
_SUM_FIELDS = ((2, 1), (3, 1), (2 ** 31 - 1, 1), (3, 2))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sums_and_differences_match_the_reference_sum(data):
    ring = data.draw(rings(_SUM_FIELDS))
    f = draw_poly(data.draw, ring)
    h = draw_poly(data.draw, ring)
    # g shares all, some or none of f's keys, so terms cancel too
    g = data.draw(st.sampled_from((h, f, f + h, -f)))
    assert f + g == reference_sum(f, g)
    assert f - g == reference_sum(f, g, -1)
    assert g - f == reference_sum(g, f, -1)
    assert (f - f).is_zero() and (g - g).is_zero()
    assert 1 - f == reference_sum(ring.one, f, -1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_matches_the_reference_sum(data):
    ring = data.draw(rings(_SUM_FIELDS))
    target = data.draw(rings(_SUM_FIELDS))
    target = PolyRing(ring.field, target.names, target.order)
    f = draw_poly(data.draw, ring)
    images = {nm: draw_poly(data.draw, target, max_terms=4) for nm in ring.names}
    expected = target.zero
    for key, c in f.terms.items():
        t = target.constant(coeff_element(ring, c))
        for nm, a in zip(ring.names, ring.order.unpack(key)):
            t = reduce(naive_mul, [images[nm]] * a, t)
        expected = reference_sum(expected, t)
    assert substitute(f, images) == expected


# ---------------------------------------------------------------------------
# differential tests: squares and the Kronecker path against the schoolbook
# product and the naive reference
# ---------------------------------------------------------------------------

# GF(2), GF(3), GF(5), GF(4), GF(9): every branch of _sqr
_SQR_FIELDS = ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sqr_matches_mul(data):
    ring = data.draw(rings(_SQR_FIELDS))
    f = draw_poly(data.draw, ring, max_terms=12)
    assert _sqr(f) == _mul(f, f) == naive_mul(f, f)
    if ring.field.e == 1 and ring.field.p > 2:
        assert _sqr(f) == sqr_cross_terms_once(f)


def _schoolbook(f, g):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpoly, "DENSE_FLOOR", float("inf"))
        return _mul(f, g)


def _dense(f, g):
    """f * g from the Kronecker path alone, or None where it declines;
    _mul never asks it for an extension-field product."""
    if f.ring.field.e > 1:
        return None
    terms = mpoly._kronecker(f.ring.order, f.ring.field.p, f.terms, g.terms)
    return None if terms is None else mpoly.Polynomial(f.ring, terms)


@lru_cache(maxsize=None)
def _monomials(n, degree, strides=None):
    """Exponent vectors of one degree; exponent i a multiple of
    strides[i] (0: the variable does not occur)."""
    m, *rest = strides or (1,) * n
    if n == 1:
        return [(degree,)] if (degree % m == 0 if m else degree == 0) else []
    return [(a,) + e for a in (range(0, degree + 1, m) if m else (0,))
            for e in _monomials(n - 1, degree - a, tuple(rest) or None)]


def _form(ring, exps, coeffs):
    return ring.from_terms(dict(zip(exps, coeffs)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kronecker_matches_schoolbook_and_naive(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7, 2 ** 31 - 1)))
    n = data.draw(st.integers(2, 4))
    order = data.draw(st.sampled_from(["grevlex", "lex", "block"]))
    if order == "block":
        order = ("block", data.draw(st.integers(1, n - 1)))
    ring = PolyRing(field(p), [f"x{i}" for i in range(n)], order)
    scale = data.draw(st.sampled_from((1, 2, 4)))      # a common stride, as q - 1
    strides = tuple(data.draw(st.sampled_from((1, 1, 2, 3))) for _ in range(n))
    if n > 2 and data.draw(st.booleans()):
        strides = strides[:-1] + (0,)                   # a variable that never occurs
    top = data.draw(st.booleans())                      # every coefficient p - 1
    rng = data.draw(st.randoms(use_true_random=False))
    # the lowest degrees with 64 or more monomials: dense factors near the floor
    degrees = list(islice((d for d in count(1) if len(_monomials(n, d, strides)) >= 64), 3))
    f, g = [], []
    for out in (f, g):
        exps = _monomials(n, rng.choice(degrees), strides)
        exps = rng.sample(exps, min(130, len(exps) * rng.randint(6, 10) // 10))
        coeffs = [p - 1 if top else rng.randrange(1, p) for _ in exps]
        out.append(_form(ring, [tuple(scale * a for a in e) for e in exps], coeffs))
    f, g = f[0], g[0]
    expected = _schoolbook(f, g)
    assert expected == naive_mul(f, g)
    dense = _dense(f, g)
    assert dense is None or dense == expected
    assert _mul(f, g) == expected and _mul(g, f) == expected
    assert _sqr(f) == _schoolbook(f, f)


@pytest.mark.parametrize("order", ["grevlex", "lex", ("block", 1), ("block", 2)])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_kronecker_path_taken_and_exact(p, order):
    ring = PolyRing(field(p), ["x", "y", "z"], order)
    rng = random.Random(p)
    f = _form(ring, _monomials(3, 8), [rng.randrange(1, p) for _ in range(45)])
    g = _form(ring, [tuple(4 * a for a in e) for e in _monomials(3, 11)],
              [rng.randrange(1, p) for _ in range(78)])
    for a, b in ((f, g), (f, f), (g, g)):
        dense = _dense(a, b)
        assert dense is not None
        assert dense == _schoolbook(a, b) == naive_mul(a, b)


@pytest.mark.parametrize("order", ["grevlex", "lex", ("block", 1)])
@pytest.mark.parametrize("p,small,width", [(3, 63, 1), (3, 64, 2), (2 ** 31 - 1, 4, 8)])
def test_kronecker_slot_width_edge(p, small, width, order):
    """Every coefficient p - 1, and one key that every term of the
    smaller factor reaches: its slot holds small * (p - 1)^2, the most
    its width allows."""
    assert array(mpoly.slot_typecode(small * (p - 1) ** 2)).itemsize == width
    ring = PolyRing(field(p), ["x", "y"], order)
    f = _form(ring, _monomials(2, small - 1), [p - 1] * small)
    big = max(2 * small, -(-mpoly.DENSE_FLOOR // small))
    g = _form(ring, _monomials(2, big - 1), [p - 1] * big)
    pairs = Counter(k1 + k2 for k1 in f.terms for k2 in g.terms)
    assert max(pairs.values()) == small
    dense = _dense(f, g)
    assert dense is not None and dense == _schoolbook(f, g) == naive_mul(f, g)


def test_kronecker_declines_a_wide_prime_past_eight_bytes():
    p = 2 ** 31 - 1
    ring = PolyRing(field(p), ["x", "y"])
    f = _form(ring, _monomials(2, 4), [p - 1] * 5)
    g = _form(ring, _monomials(2, 499), [p - 1] * 500)
    assert mpoly.slot_typecode(5 * (p - 1) ** 2) is None
    assert _dense(f, g) is None
    assert _mul(f, g) == naive_mul(f, g)


def test_schoolbook_runs_outside_the_kronecker_path(monkeypatch):
    """Extension fields, non-homogeneous factors and products below the
    floor never get a product from the Kronecker path."""
    results = []

    def spy(order, p, at, bt):
        out = kronecker(order, p, at, bt)
        results.append(out is not None)
        return out

    kronecker = mpoly._kronecker
    monkeypatch.setattr(mpoly, "_kronecker", spy)
    big = _monomials(3, 8)
    for spec in (field(5), field(3, 2)):
        ring = PolyRing(spec, ["x", "y", "z"])
        form = _form(ring, big, [1] * len(big))
        x, y, _ = ring.gens()
        results.clear()
        assert form * form == naive_mul(form, form)
        assert results == ([True] if spec.e == 1 else [])
        results.clear()
        wide = _form(ring, _monomials(3, 36), [1] * 703)
        for f, g in ((form + x, form), (form, form + x),        # not homogeneous
                     (form + x, form + x),
                     (_form(ring, big[:44], [1] * 44) + x, form),   # 45 terms, passed first
                     (form, _form(ring, big[:20], [1] * 20)),   # 900 term pairs
                     (x * x + x * y + y * y, wide)):            # 3 terms, 3 variables
            assert f * g == naive_mul(f, g)
        assert _sqr(form + x) == naive_mul(form + x, form + x)
        assert not any(results)


def _reduced_accumulate(order, p, at, bt):
    """The schoolbook product of two GF(p) term dicts, reduced mod p."""
    acc: dict = {}
    mpoly._accumulate(acc, at, bt, order.offset)
    return {k: v % p for k, v in acc.items() if v % p}


def _sample_form(ring, rng, exps, count):
    """A form on count of the exponent vectors exps (all of one degree)."""
    exps = rng.sample(exps, min(count, len(exps)))
    return _form(ring, exps, [rng.randrange(1, ring.field.p) for _ in exps])


@lru_cache(maxsize=None)
def _boxed(n, count, bound, stride=1, p=1):
    """The monomials of the lowest degree with at least count monomials
    whose exponents are all at most bound (so they fill their box, as a
    certificate's cofactors do), each exponent a mapped to stride * a,
    or with p > 1 each vector a mapped to the set p * a + c for every c
    of degree one: a sparse exponent set like those of the Dickson
    invariants, products of q-th powers."""
    exps = next(e for d in count_from(1)
                if len(e := [m for m in _monomials(n, d) if max(m) <= bound]) >= count)
    if p > 1:
        exps = sorted({tuple(p * x + y for x, y in zip(a, c))
                       for a in exps for c in _monomials(n, 1)})
    return [tuple(stride * a for a in e) for e in exps]


count_from = count
# per n, an exponent bound that leaves 1,500 to 2,500 monomials of one
# degree, and a smaller one for a 60-term square that still passes the gate
_BOUNDS = {2: (1500, 750), 3: (44, 22), 4: (13, 6), 5: (7, 3), 6: (4, 2), 7: (3, 2),
           8: (3, 1)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
@pytest.mark.parametrize("n", range(2, 9))
def test_kronecker_matches_accumulate(n, p):
    """The packed product equals _accumulate reduced mod p, on a factor
    of 1, 2n or 35 terms times one of thousands, on exponents with a
    gcd of 2 per variable, on Dickson-like exponent sets and on a
    square, in every order.  All but the one-term factor pass the gate;
    a Dickson-like box is about (p / 2)^(n - 2) times emptier than a
    dense one, and up to n = 3 and p = 7 it passes too."""
    order = ("grevlex", "lex", ("block", n // 2))[(n + p) % 3]
    ring = PolyRing(field(p), [f"x{i}" for i in range(n)], order)
    rng = random.Random(1000 * n + p)
    bound, square_bound = _BOUNDS[n]
    big = _boxed(n, 1500, bound)
    pairs = [(_sample_form(ring, rng, _boxed(n, 35, bound), k), _sample_form(ring, rng, big, 2500))
             for k in (1, 2 * n, 35)]
    pairs.append((_sample_form(ring, rng, _boxed(n, 35, bound, stride=2), 2 * n),
                  _sample_form(ring, rng, _boxed(n, 1500, bound, stride=2), 2500)))
    pairs.append((_sample_form(ring, rng, _boxed(n, 8, bound, p=p), 2 * n),
                  _sample_form(ring, rng, _boxed(n, 300, bound, p=p), 2500)))
    square = _sample_form(ring, rng, _boxed(n, 60, square_bound), 60)
    pairs.append((square, square))
    packed = []
    for f, g in pairs:
        dense = mpoly._kronecker(ring.order, p, f.terms, g.terms)
        packed.append(dense is not None)
        assert dense is None or dense == _reduced_accumulate(ring.order, p, f.terms, g.terms)
    assert packed[:4] + packed[5:] == [False, True, True, True, True]
    assert packed[4] or n > 3 or p > 7


def _spy_kernel(monkeypatch) -> list:
    """Record [term counts of the two factors, packings] for every
    _kronecker call: packings is None where it declined, and otherwise
    lists (slots per slice, slices) for each factor it packed."""
    calls = []

    def spy(order, p, at, bt):
        calls.append([len(at), len(bt), []])
        out = kronecker(order, p, at, bt)
        if out is None:
            calls[-1][2] = None
        return out

    def pack_spy(tc, nbytes, offsets, index, coeffs):
        out = pack(tc, nbytes, offsets, index, coeffs)
        calls[-1][2].append((nbytes // array(tc).itemsize, len(out)))
        return out

    kronecker, pack = mpoly._kronecker, mpoly._pack_slices
    monkeypatch.setattr(mpoly, "_kronecker", spy)
    monkeypatch.setattr(mpoly, "_pack_slices", pack_spy)
    return calls


def test_large_products_stay_packed_in_a_small_box(monkeypatch):
    """dickson_invariants(4, GF(5)) packs its four large products: u *
    b[k] for three k (120-130 x 10,114 terms) and the square of fx
    (1,929 terms, packed once).  The n = 7, p = 7 certificate packs its
    cofactor x basis products with a 35- or 21-term basis element but
    21 x 8,040, which the span test declines, as the gate declines the
    7-term ones.  Slicing past the first variable takes each box of
    5,292 to 109,744 slots down to at most _SLOT_TARGET (the square's
    10,201 to 101), but keeps one variable packed however wide it is."""
    calls = _spy_kernel(monkeypatch)
    dickson_invariants(4, field(5))
    assert [c for c in calls if c[0] * c[1] > 10 ** 6] == [
        [1929, 1929, [(101, 196)]],
        [120, 10114, [(126, 15), (126, 904)]],
        [130, 10114, [(126, 16), (126, 904)]],
        [126, 10114, [(126, 16), (126, 904)]]]
    report = run_claim("alt-dichotomy", RunConfig(alt_nmax=7), n=7, p=7)
    (item,) = report.witness["items"]
    cert = parse_certificate_text(item["certificate"])
    del calls[:]
    assert cert.check()
    assert calls == [[7, 11520, None], [21, 8040, None],
                     [35, 5616, [(361, 10), (361, 225)]],
                     [35, 3540, [(441, 5), (441, 78)]],
                     [21, 2070, [(1764, 1), (1764, 6)]],
                     [7, 1124, None]]
    ring = PolyRing(field(5), ["x", "y"])
    f = _form(ring, [(3000 - a, a) for a in range(4)], [1] * 4)
    g = _form(ring, [(3000 - a, a) for a in range(0, 3000, 5)], [2] * 600)
    expected = _schoolbook(f, g)
    del calls[:]
    assert f * g == expected
    assert calls == [[4, 600, [(2999, 1), (2999, 1)]]]


def test_dickson_n4_q5_matches_the_pinned_digest():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    want = expected["exact"]["verdicts"]["dickson_invariants(4, GF(5))"]
    polys = dickson_invariants(4, field(5))
    text = format_polys(polys[0].ring, polys)
    assert "polys " + hashlib.sha256(text.encode()).hexdigest() == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pow_matches_chained_mul(data):
    ring = data.draw(rings(_SQR_FIELDS))
    f = draw_poly(data.draw, ring, max_terms=5)
    for k in range(10):
        assert f ** k == reduce(_mul, [f] * k, ring.one)



@pytest.mark.parametrize("p", [2, 5])
def test_power_halves_and_keeps_each_power(p, monkeypatch):
    """f^11 by halving is ((f^2)^2 f)^2 f: four squarings and two
    products by f (in characteristic 2 the squarings are Frobenius maps,
    not products).  The memo then holds f^1, f^2, f^5 and f^11, and f^5
    from it costs no product."""
    R = PolyRing(field(p), ["x", "y"])
    x, y = R.gens()
    f = x + 2 * y + 1
    calls = _spy_products(monkeypatch)
    memo: dict = {}
    assert _power(f, 11, memo) == reduce(_mul, [f] * 11)
    f2, f4, f5, f10 = (reduce(_mul, [f] * k) for k in (2, 4, 5, 10))
    products = [(f4, f), (f10, f)]
    if p != 2:
        products = [(f, f), (f2, f2)] + products[:1] + [(f5, f5)] + products[1:]
    assert calls[:len(products)] == [tuple(sorted((a.text(), b.text())))
                                     for a, b in products]
    assert sorted(memo) == [1, 2, 5, 11] and memo[5] == f5 and memo[1] is f
    del calls[:]
    assert _power(f, 5, memo) is memo[5] and not calls

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_matches_termwise_products(data):
    ring = data.draw(rings(_SQR_FIELDS))
    target = data.draw(rings(_SQR_FIELDS))
    target = PolyRing(ring.field, target.names, target.order)
    f = draw_poly(data.draw, ring)
    images = {nm: draw_poly(data.draw, target, max_terms=4) for nm in ring.names}
    expected = target.zero
    for key, c in f.terms.items():
        t = target.constant(coeff_element(ring, c))
        for nm, a in zip(ring.names, ring.order.unpack(key)):
            t = reduce(_mul, [images[nm]] * a, t)
        expected = expected + t
    assert substitute(f, images) == expected


def _spy_products(monkeypatch) -> list:
    """Record the operands of every _mul call, as a sorted text pair."""
    calls = []

    def spy(a, b):
        calls.append(tuple(sorted((a.text(), b.text()))))
        return _mul(a, b)
    monkeypatch.setattr(mpoly, "_mul", spy)
    return calls


def test_substitute_multiplies_once_per_exponent_group(monkeypatch):
    """f = x^2 y + x^2 z + x y under x -> s + t, y -> u, z -> v, variables
    nested in ring order.  z: the group (x^2, y^0) has z^1, one product
    1 * v.  y: the groups x^2 and x^1 each have y^1, one product 1 * u
    each; x^2's sum is then u + v.  x: (u + v) * (s + t)^2 and u * (s + t),
    the square built once through _sqr.  Six products, where one chain
    per term takes seven."""
    R = PolyRing(field(5), ["x", "y", "z"])
    T = PolyRing(field(5), ["s", "t", "u", "v"])
    x, y, z = R.gens()
    s, t, u, v = T.gens()
    f, want = x ** 2 * y + x ** 2 * z + x * y, (u + v) * (s + t) ** 2 + u * (s + t)
    calls = _spy_products(monkeypatch)
    assert substitute(f, {"x": s + t, "y": u, "z": v}) == want
    assert calls == [("1", "v"), ("1", "u"), ("1", "u"), ("s+t", "s+t"),
                     ("s^2+2*s*t+t^2", "u+v"), ("s+t", "u")]


def test_substitute_skips_the_power_of_a_group_that_cancels(monkeypatch):
    """f = x^2 y + x^2 z under y -> u, z -> -u: the group of x^2 sums to
    u - u = 0, so it meets no power of x's image, and x's image is never
    squared.  Only the two inner products 1 * 4u and 1 * u run."""
    R = PolyRing(field(5), ["x", "y", "z"])
    T = PolyRing(field(5), ["s", "u"])
    x, y, z = R.gens()
    s, u = T.gens()
    f = x ** 2 * y + x ** 2 * z + 3
    calls = _spy_products(monkeypatch)
    assert substitute(f, {"x": s, "y": u, "z": -u}) == 3
    assert calls == [("1", "4*u"), ("1", "u")]


def test_substitute_checks_its_images(R3):
    x1, x2, x3 = R3.gens()
    f = x1 * x2 + x3
    with pytest.raises(UsageError, match="empty image map"):
        substitute(f, {})
    with pytest.raises(UsageError, match="no image for variable 'x3'"):
        substitute(f, {"x1": x1, "x2": x2})
    other = PolyRing(field(5), ["x1", "x2", "x3"])
    with pytest.raises(ContextMismatch):
        substitute(f, dict(zip(R3.names, other.gens())))
    # an image map may name more variables than the ring has
    assert substitute(f, {"x1": x2, "x2": x1, "x3": x3, "w": x1}) == f
    assert substitute(R3.zero, dict(zip(R3.names, R3.gens()))).is_zero()


@pytest.mark.parametrize("p,e", [(2, 1), (5, 1), (3, 2)])
@pytest.mark.parametrize("order", ["lex", "grevlex", ("block", 1), ("block", 2)])
def test_sqr_exponent_cap(p, e, order):
    R = PolyRing(field(p, e), ["x", "y", "z"], order)
    c = R.field.from_index(R.field.order - 1)
    half = mpoly.EXP_CAP // 2
    for i in range(3):
        exps = [1, 2, 3]
        exps[i] = half
        f = R.monomial(exps, c) + R.one
        with pytest.raises(ResourceLimit):
            _sqr(f)
        with pytest.raises(ResourceLimit):
            _mul(f, f)
        exps[i] = half - 1
        g = R.monomial(exps, c) + R.one
        assert _sqr(g) == _mul(g, g)
        assert degree_in(_sqr(g), i) == mpoly.EXP_CAP - 2
    # homogeneous, 45 terms: prime-field products take the Kronecker path
    form = _form(R, _monomials(3, 8), [c] * 45)
    for i in range(3):
        for top in (half, half - 1):
            f = form * R.monomial([top - 8 if j == i else 0 for j in range(3)])
            if top == half:
                for square in (_sqr, lambda f: _mul(f, f), lambda f: f * f):
                    with pytest.raises(ResourceLimit):
                        square(f)
                continue
            assert (_dense(f, f) is not None) == (e == 1)
            assert _sqr(f) == _mul(f, f) == _schoolbook(f, f)
            assert degree_in(_sqr(f), i) == mpoly.EXP_CAP - 2


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_sqr_term_guard_trips_with_mul(p, e, monkeypatch):
    """TERM_GUARD trips at len(keys) - 1 and not at len(keys), on sparse
    factors and on homogeneous ones that take the Kronecker path."""
    R = PolyRing(field(p, e), ["x", "y", "z"])
    rng = random.Random(p * e)
    F = R.field
    f = random_poly(R, rng, nterms=12, maxdeg=6)
    h = _form(R, _monomials(3, 8), [F.from_index(rng.randrange(1, F.order))
                                    for _ in range(45)])
    k = _form(R, _monomials(3, 9), [F.from_index(rng.randrange(1, F.order))
                                    for _ in range(55)])
    assert _dense(f, f) is None
    assert (_dense(h, h) is not None) == (_dense(h, k) is not None) == (e == 1)
    guard = mpoly.TERM_GUARD
    for a, b in ((f, f), (h, h), (h, k)):
        expected = _schoolbook(a, b)
        keys = {k1 + k2 for k1 in a.terms for k2 in b.terms}
        monkeypatch.setattr(mpoly, "TERM_GUARD", len(keys) - 1)
        with pytest.raises(ResourceLimit):
            _mul(a, b)
        with pytest.raises(ResourceLimit):
            _schoolbook(a, b)
        if a is b:
            with pytest.raises(ResourceLimit):
                _sqr(a)
        monkeypatch.setattr(mpoly, "TERM_GUARD", len(keys))
        assert _mul(a, b) == expected
        if a is b:
            assert _sqr(a) == expected
        monkeypatch.setattr(mpoly, "TERM_GUARD", guard)
