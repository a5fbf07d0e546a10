"""Tests for finite field construction and arithmetic."""

import copy
import hashlib
import pickle
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invar import field, find_irreducible, gf, is_irreducible
from invar.errors import ContextMismatch, FieldZeroDivision, ResourceLimit, UsageError
from invar.gf import ENUM_CAP, FieldSpec
from invar.mpoly import PolyRing
from oracles import (TupleField, enumerate_elements, field_index,
                     irreducible_by_trial_division, is_prime_by_trial_division,
                     schoolbook_vmul)


def test_smallest_moduli():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)


def test_found_modulus_is_certified():
    for p, e in [(2, 8), (3, 5), (5, 3), (2, 30), (3, 32)]:
        m = find_irreducible(p, e)
        assert len(m) == e + 1 and m[-1] == 1
        assert is_irreducible(m, p)


def test_modulus_is_lex_smallest_gf9():
    # all monic degree-2 candidates over GF(3) below X^2+1 in the
    # constant-upward order are reducible
    found = find_irreducible(3, 2)
    for c0 in range(3):
        for c1 in range(3):
            if (c0, c1) >= (found[0], found[1]):
                break
            assert not is_irreducible((c0, c1, 1), 3)


@pytest.mark.parametrize("p,e", [(2, 2), (2, 6), (3, 4), (5, 3), (17, 2), (19, 3)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_irreducible_matches_trial_division(p, e, data):
    f = tuple(data.draw(st.integers(0, p - 1)) for _ in range(e)) + (
        data.draw(st.integers(1, p - 1)),)
    assert is_irreducible(f, p) == irreducible_by_trial_division(f, p)


def test_irreducible_for_large_p():
    p = 4294967291                    # p = 3 mod 4, so -1 is not a square
    assert is_irreducible((1, 0, 1), p)
    assert not is_irreducible((p - 1, 0, 1), p)


def test_table_sizes(monkeypatch):
    """A FieldSpec with one-byte slots reduces and maps through tables
    of at most 256 entries, the most slots of GF(p) that fit while the
    tables of one map hold at most _TABLE_BYTES of rows; any other field
    keeps the rows of its Frobenius maps and no table, and so does the
    quotient of each Rabin test."""
    for p, e, modulus, chunk in [(2, 32, None, 8), (3, 32, None, 5), (2, 8, None, 8),
                                 (3, 6, None, 5), (2, 100, None, 6), (5, 32, None, 0),
                                 (17, 2, None, 0), (4294967291, 2, (1, 0, 1), 0)]:
        F = field(p, e, modulus)
        F._vfrob(F._gen, 1)
        assert F._chunk == chunk
        if chunk:
            for tables in (F._high, F._frob[1]):
                assert all(len(table) <= 256 for _, table in tables)
                assert sum(len(table) for _, table in tables) * e <= gf._TABLE_BYTES
        else:
            assert not hasattr(F, "_high")
            assert all(isinstance(row, int) for row in F._frob[1])
    built = []

    class Spy(gf._Quotient):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    cases = [(p, find_irreducible(p, e)) for p, e in [(2, 32), (3, 32), (5, 32), (17, 3)]]
    cases.append((4294967291, (1, 0, 1)))
    monkeypatch.setattr(gf, "_Quotient", Spy)
    assert all(is_irreducible(f, p) for p, f in cases)
    assert [q.p for q in built] == [p for p, _ in cases]
    for q in built:
        assert q._chunk == 0 and not hasattr(q, "_high")
        assert all(isinstance(row, int) for rows in q._frob.values() for row in rows)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_narrowed_tables_match_schoolbook(data):
    """GF(2^100), whose tables hold 6 slots rather than 8 to stay within
    _TABLE_BYTES: products and a -> a^2, a^4 against the schoolbook."""
    F = field(2, 100)
    ta, tb = data.draw(_tuples(F)), data.draw(_tuples(F))
    a, b = F.element(ta).rep, F.element(tb).rep
    assert F.coeffs(F._vmul(a, b)) == schoolbook_vmul(F, ta, tb)
    square = schoolbook_vmul(F, ta, ta)
    assert F.coeffs(F._vfrob(a, 1)) == square
    assert F.coeffs(F._vfrob(a, 2)) == schoolbook_vmul(F, square, square)


def test_modulus_search_refuses_large_p():
    p = 4294967291
    with pytest.raises(ResourceLimit):
        FieldSpec(p, 2)
    with pytest.raises(ResourceLimit):
        find_irreducible(p, 2)
    assert FieldSpec(p, 2, (1, 0, 1)).order == p ** 2     # a given modulus
    assert find_irreducible(p, 1) == (0, 1)


@pytest.mark.parametrize("p,e,tests", [(2, 8, 7), (3, 6, 2), (2, 32, 36), (3, 32, 8),
                                        (5, 3, None), (17, 3, None), (7, 2, None)])
def test_modulus_search_scans_residues_only_where_p_at_most_e(p, e, tests, monkeypatch):
    """Where p <= e, Rabin's test meets only candidates without a root in
    GF(p); where p > e, every candidate up to the winner, in order."""
    tested = []

    def spy(coeffs, q):
        tested.append(tuple(coeffs))
        return is_irreducible(coeffs, q)

    monkeypatch.setattr(gf, "is_irreducible", spy)
    found = find_irreducible(p, e)
    assert tested[-1] == found
    if p <= e:
        assert len(tested) == tests
        assert not any(gf._eval_poly(f, a, p) == 0 for f in tested for a in range(p))
    else:
        cands = [(c0,) + tail + (1,) for c0 in range(1, p)
                 for tail in product(range(p), repeat=e - 1)]
        assert tested == cands[:cands.index(found) + 1]


@pytest.mark.parametrize("n", [1, 4, 6, 9])
def test_modulus_search_refuses_a_composite_characteristic(n):
    with pytest.raises(UsageError, match=f"characteristic {n} is not prime"):
        find_irreducible(n, 2)


def test_check_embedding():
    """GF(p) coefficients embed into every field of characteristic p;
    any other coefficients only into their own field."""
    F3, F9, F81 = field(3), field(3, 2), field(3, 4)
    for F, L in [(F3, F3), (F3, F9), (F3, F81), (F9, F9)]:
        gf.check_embedding(F, L)
    for F, L in [(F3, field(2)), (F3, field(2, 2)), (F9, F81), (F81, F9),
                 (F9, F3), (field(2, 3), field(2, 3, (1, 1, 0, 1)))]:
        with pytest.raises(ContextMismatch):
            gf.check_embedding(F, L)


def test_is_prime_matches_trial_division():
    assert [n for n in range(2 * 10 ** 5)
            if gf.is_prime(n) != is_prime_by_trial_division(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,                         # strong pseudoprime to 2, 3, 5, 7
    3825123056546413051,                # ... to the primes up to 31
    318665857834031151167461,           # ... to the primes up to 37 (psi_12)
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not gf.is_prime(n)


def test_is_prime_is_fast_below_its_bound_and_refuses_above():
    t0 = time.perf_counter()
    assert gf.is_prime(2 ** 61 - 1) and gf.is_prime(10 ** 12 + 39)
    assert not gf.is_prime((2 ** 31 - 1) * (10 ** 12 + 39))
    psi13 = 3317044064679887385961981
    # the largest prime below psi_13 (sympy.isprime agrees), and the
    # composites between it and psi_13
    assert gf.is_prime(psi13 - 168)
    assert not any(map(gf.is_prime, range(psi13 - 167, psi13)))
    assert time.perf_counter() - t0 < 0.1
    for n in (psi13, psi13 + 2, 2 ** 89 - 1):
        with pytest.raises(ResourceLimit):
            gf.is_prime(n)


def test_bad_parameters():
    with pytest.raises(UsageError):
        find_irreducible(4, 2)
    with pytest.raises(UsageError):
        find_irreducible(3, 0)
    with pytest.raises(UsageError):
        field(3, 2, modulus=(1, 0, 0, 1))     # wrong degree
    with pytest.raises(UsageError):
        FieldSpec(3, 2, modulus=(0, 0, 1))    # X^2 is reducible
    with pytest.raises(UsageError):
        FieldSpec(6, 1)


def test_prime_field_basics():
    F5 = field(5)
    two = F5.element(2)
    assert two.inverse() == F5.element(3)
    assert two + 4 == F5.element(1)
    assert 1 / two == F5.element(3)
    assert two ** -1 == F5.element(3)
    assert str(two) == "2"


def test_gf4_multiplication():
    F4 = field(2, 2)
    g = F4.gen
    assert g * (g + 1) == F4.one
    assert g ** 3 == F4.one
    assert str(g + 1) == "g+1"


def test_gf9_frobenius_is_involution():
    F9 = field(3, 2)
    for x in enumerate_elements(F9):
        assert x.frobenius().frobenius() == x
        # Frobenius is additive
    for x in enumerate_elements(F9):
        for y in enumerate_elements(F9):
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_element_text_forms():
    F9 = field(3, 2)
    assert str(F9.zero) == "0"
    assert str(F9.one) == "1"
    assert str(F9.gen) == "g"
    assert str(2 * F9.gen + 2) == "2*g+2"
    F8 = field(2, 3)
    assert str(F8.gen ** 2 + F8.gen + 1) == "g^2+g+1"


def test_field_interning_and_hash():
    assert field(3, 2) is field(3, 2)
    assert field(3, 2) == FieldSpec(3, 2)
    assert field(3, 2) != field(3, 4)
    d = {field(5): "a", field(5, 2): "b"}
    assert d[field(5)] == "a"
    e = field(7).element(3)
    assert {e: 1}[field(7).element(3)] == 1


def test_prime_field_is_interned_under_one_key():
    # GF(p) has no modulus, so a given one names the same field
    assert field(3, 1, (0, 1)) is field(3)
    assert field(3) is field(3, 1, (0, 1)) is field(3, 1)
    assert field(11, 1, (0, 1)) is field(11)


def test_default_modulus_is_found_and_certified_once(monkeypatch):
    tested = []

    def spy(coeffs, p):
        tested.append((tuple(coeffs), p))
        return is_irreducible(coeffs, p)

    monkeypatch.setattr(gf, "is_irreducible", spy)
    monkeypatch.setattr(gf, "_SPEC_CACHE", {})
    for p, e in [(2, 32), (3, 32), (5, 3)]:
        tested.clear()
        spec = field(p, e)
        # the search tests each candidate once, the winner last
        assert tested[-1] == (spec.modulus, p)
        assert len(set(tested)) == len(tested)
        tested.clear()
        # the same field by its modulus: interned, so nothing runs again
        assert field(p, e, spec.modulus) is spec
        assert tested == []
    # a modulus the caller passes is certified
    assert FieldSpec(2, 3, (1, 1, 0, 1)).modulus == (1, 1, 0, 1)
    assert tested == [((1, 1, 0, 1), 2)]
    tested.clear()
    # given first, then found by the search: still one instance
    default = find_irreducible(2, 4)
    tested.clear()
    given = field(2, 4, default)
    assert tested == [(default, 2)]
    assert field(2, 4) is given


def test_mixed_field_operands_rejected():
    a = field(5).element(2)
    b = field(7).element(2)
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b
    # same (p, e) but different modulus is a different field
    F = field(2, 3)
    assert F.modulus == (1, 0, 1, 1)
    G = field(2, 3, modulus=(1, 1, 0, 1))
    with pytest.raises(ContextMismatch):
        F.gen + G.gen


def test_element_rejects_foreign_element():
    F9, F27 = field(3, 2), field(3, 3)
    assert F27.from_index(3) == F27.gen and F27.element(F27.gen) is F27.gen
    with pytest.raises(ContextMismatch):
        F9.element(F27.gen)
    with pytest.raises(ContextMismatch):
        field(7).element(field(5).one)


def test_zero_division():
    F = field(3, 2)
    with pytest.raises(FieldZeroDivision):
        F.zero.inverse()
    with pytest.raises(FieldZeroDivision):
        F.one / F.zero


def test_enumeration_order_and_index():
    F27 = field(3, 3)
    elems = enumerate_elements(F27)
    assert len(elems) == 27
    assert elems[0] == F27.zero
    reps = [F27.coeffs(x.rep) for x in elems]
    assert reps == sorted(reps)
    for i, x in enumerate(elems):
        assert field_index(F27, x) == i
        assert F27.from_index(i) == x


def test_enumeration_cap():
    with pytest.raises(ResourceLimit):
        enumerate_elements(field(3, 2), cap=8)
    big = field(2, 21)
    assert big.order > ENUM_CAP
    with pytest.raises(ResourceLimit):
        enumerate_elements(big)


def test_random_element_deterministic():
    F = field(3, 4)
    a = [F.random_element(random.Random(42)) for _ in range(10)]
    b = [F.random_element(random.Random(42)) for _ in range(10)]
    assert a == b
    c = [F.random_element(random.Random(43)) for _ in range(10)]
    assert a != c


def test_random_element_roughly_uniform():
    F9 = field(3, 2)
    rng = random.Random(0)
    counts = {}
    n = 1800
    for _ in range(n):
        x = F9.random_element(rng)
        counts[x] = counts.get(x, 0) + 1
    assert len(counts) == 9
    for v in counts.values():
        assert 110 <= v <= 310   # expect 200 per element


def test_negative_and_large_powers():
    F = field(5, 2)
    rng = random.Random(1)
    for _ in range(20):
        a = F.random_element(rng)
        if not a:
            continue
        assert a ** -3 == (a.inverse()) ** 3
        assert a ** (F.order - 1) == F.one    # Lagrange
        assert a ** F.order == a


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1),
                                 (2, 2), (2, 3), (3, 2), (3, 3), (7, 2), (3, 4)])
def test_field_axioms_exhaustive(p, e):
    """Every axiom on every element, for orders up to 81, and every
    operation against the tuple reference."""
    F = field(p, e)
    T = TupleField(F)
    reps = [x.rep for x in enumerate_elements(F)]
    zero, one = F.zero.rep, F.one.rep
    assert (F.coeffs(zero), F.coeffs(one)) == (T.zero, T.one)
    add, mul = F._vadd, F._vmul
    for a in reps:
        ta = F.coeffs(a)
        assert add(a, zero) == a
        assert mul(a, one) == a
        assert add(a, F._vneg(a)) == zero
        assert F.coeffs(F._vneg(a)) == T.neg(ta)
        assert F.coeffs(F._vfrob(a, 1)) == T.frob(ta, 1)
        assert F.coeffs(F._vpow(a, 5)) == T.pow(ta, 5)
        if a:
            assert mul(a, F._vinv(a)) == one
            assert F.coeffs(F._vinv(a)) == T.inv(ta)
    for a in reps:
        for b in reps:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            ta, tb = F.coeffs(a), F.coeffs(b)
            assert F.coeffs(add(a, b)) == T.add(ta, tb)
            assert F.coeffs(F._vsub(a, b)) == T.sub(ta, tb)
            assert F.coeffs(mul(a, b)) == T.mul(ta, tb)
    for a in reps:
        for b in reps:
            ab_add = add(a, b)
            ab_mul = mul(a, b)
            for c in reps:
                assert add(ab_add, c) == add(a, add(b, c))
                assert mul(ab_mul, c) == mul(a, mul(b, c))
                assert mul(ab_add, c) == add(mul(a, c), mul(b, c))


def test_large_field_spot_axioms():
    """Random spot checks where exhaustion is impossible."""
    for p, e in [(3, 32), (2, 30)]:
        F = field(p, e)
        rng = random.Random(1234)
        for _ in range(25):
            a, b, c = (F.random_element(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert (a + b) ** p == a ** p + b ** p
            if a:
                assert a * a.inverse() == F.one


# (p, e, modulus, slot bytes): the default GF(p^32) moduli, GF(9),
# GF(256) and GF(729), a prime field, and GF(p^2) for p = 65521 and
# p = 2^32 - 5, whose product slots (e (p-1)^2 >= 2^64) fit no array
# typecode.  The one-byte fields reduce through tables of every width
# in use: 8 slots of GF(2), 5 of GF(3) (the last table of GF(3^32) has
# one slot), one table per map of GF(9); the others (GF(5^32) and
# GF(7^32) in 2-byte slots, p > 256, GF(251^12)) reduce by the modulus
# terms and map through rows.
DIFF_FIELDS = [(2, 32, None, 1), (3, 32, None, 1), (5, 32, None, 2),
               (7, 32, None, 2), (3, 2, None, 1), (2, 8, None, 1),
               (7, 1, None, 1), (4294967291, 2, (1, 0, 1), 9), (3, 6, None, 1),
               (65521, 2, None, 8), (251, 12, None, 4)]


def _tuples(F):
    """Coefficient tuples, zero and one among them."""
    zero, one = (0,) * F.e, (1,) + (0,) * (F.e - 1)
    return st.one_of(st.sampled_from([zero, one]),
                     st.tuples(*[st.integers(0, F.p - 1)] * F.e))


@pytest.mark.parametrize("p,e,modulus,slot", DIFF_FIELDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_mul_matches_schoolbook(p, e, modulus, slot, data):
    """+, -, negation, product, inverse and powers of the packed ints
    against the tuple reference."""
    F = field(p, e, modulus)
    assert F._slot == slot
    T = TupleField(F)
    ta, tb = data.draw(_tuples(F)), data.draw(_tuples(F))
    a, b = F.element(ta).rep, F.element(tb).rep
    assert F.coeffs(a) == ta
    assert F.coeffs(F._vadd(a, b)) == T.add(ta, tb)
    assert F.coeffs(F._vsub(a, b)) == T.sub(ta, tb)
    assert F.coeffs(F._vneg(a)) == T.neg(ta)
    assert F.coeffs(F._vmul(a, b)) == T.mul(ta, tb)
    k = data.draw(st.integers(-3, 40))
    if a:
        assert F.coeffs(F._vinv(a)) == T.inv(ta)
        assert F.coeffs(F._vpow(a, k)) == T.pow(ta, k)
    else:
        with pytest.raises(FieldZeroDivision):
            F._vinv(a)
        assert F._vpow(a, abs(k)) == F.element(T.pow(ta, abs(k))).rep


@pytest.mark.parametrize("p,e,modulus,slot", DIFF_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_frobenius_map_matches_power(p, e, modulus, slot, data):
    """frobenius(k) for k in [-e, 2e + 1]: the power p^k for k >= 0, and
    for k < 0 the inverse map, the power p^(k mod e)."""
    F = field(p, e, modulus)
    a = data.draw(_tuples(F))
    k = data.draw(st.one_of(st.sampled_from([-e, -1, 0, 1, e - 1, e, e + 1, 2 * e, 2 * e + 1]),
                            st.integers(-e, 2 * e)))
    x = F.element(a)
    assert x.frobenius(k) == x ** (p ** (k if k >= 0 else k % e))
    assert F.coeffs(x.frobenius(k).rep) == TupleField(F).frob(a, k)


# One field of each kind the kernels are bound for: GF(p); byte slots
# with tables, one or two per map (GF(2^8), GF(3^6)), of 8 and 5 slots
# (GF(2^32), GF(3^32)) and narrowed to 6 slots to fit _TABLE_BYTES
# (GF(2^100)); 2-byte slots without tables (GF(5^32), GF(17^2)); and
# slots wider than any array typecode.
KERNEL_FIELDS = [(5, 1, None), (2, 8, None), (3, 6, None), (2, 32, None), (3, 32, None),
                 (2, 100, None), (5, 32, None), (17, 2, None), (4294967291, 2, (1, 0, 1))]


def _slots(n, width, count):
    """The first count slots of a packed int, width bytes each."""
    return [n >> 8 * width * i & (1 << 8 * width) - 1 for i in range(count)]


def _kernels_match_tuples(F, data):
    """Every bound kernel of the ring F against TupleField: products and
    sums, _mod of unreduced slots over e slots, and a -> a^(p^k) for
    k = 0, 1, e - 1 and -1."""
    T, p, e, w = TupleField(F), F.p, F.e, F._slot
    ta, tb = data.draw(_tuples(F)), data.draw(_tuples(F))
    a, b = (sum(c << 8 * w * i for i, c in enumerate(t)) for t in (ta, tb))
    assert tuple(_slots(F._vmul(a, b), w, e)) == T.mul(ta, tb)
    assert tuple(_slots(F._vadd(a, b), w, e)) == T.add(ta, tb)
    assert tuple(_slots(F._vsub(a, b), w, e)) == T.sub(ta, tb)
    assert tuple(_slots(F._vneg(a), w, e)) == T.neg(ta)
    top = min(e * (p - 1) ** 2, (1 << 8 * w) - 1)         # what a slot may hold
    raw = data.draw(st.lists(st.integers(0, top), min_size=e, max_size=e))
    n = sum(c << 8 * w * i for i, c in enumerate(raw))
    assert _slots(F._mod(n), w, e) == [c % p for c in raw]
    for k in (0, 1, e - 1, -1):
        assert tuple(_slots(F._vfrob(a, k), w, e)) == T.frob(ta, k)
    assert 0 not in F._frob             # the identity map is a, not a table


@pytest.mark.parametrize("p,e,modulus", KERNEL_FIELDS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_bound_kernels_match_tuples(p, e, modulus, data):
    _kernels_match_tuples(field(p, e, modulus), data)


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_rabin_quotient_kernels_match_tuples(p, data):
    """The ring of a Rabin test on the reducible candidate X^32 + X + 1
    over GF(2) or X^32 + 1 over GF(3): byte slots, no tables."""
    f = (1, 1) + (0,) * 30 + (1,) if p == 2 else (1,) + (0,) * 31 + (1,)
    assert not is_irreducible(f, p)
    _kernels_match_tuples(gf._Quotient(p, 32, f), data)


def test_spec_built_directly_mixes_with_the_interned_one():
    """FieldSpec(p, e) is not field(p, e) but equal to it, so their
    elements mix and compare equal; an element of another field raises
    ContextMismatch in every operator and compares unequal, and so does
    an object that is not an element."""
    for p, e in [(3, 4), (7, 1), (2, 8)]:
        F, G = field(p, e), FieldSpec(p, e)
        assert G is not F and G == F
        x, y = F.one + (F.gen or 1), G.one + (G.gen or 1)
        assert x == y and y == x and hash(x) == hash(y)
        assert x * y == y * y and x - y == F.zero and y + x == x + x
        assert x / y == F.one and y.__rsub__(x) == G.zero
        assert F.element(y) is y and field_index(F, y) == field_index(G, x)
    others = [(field(3, 4), field(3, 2)), (field(5), field(7)),
              (field(2, 3), field(2, 3, modulus=(1, 1, 0, 1)))]
    ops = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__"]
    for F, G in others:
        x, y = F.one, G.one
        for op in ops:
            with pytest.raises(ContextMismatch):
                getattr(x, op)(y)
        assert not x == y and x != y and not y == x
        assert [x == other for other in (None, "1", (1,))] == [False] * 3


def test_specs_and_elements_pickle():
    """A spec pickles as its parameters and comes back interned."""
    for F in (field(7), field(2, 8), field(3, 32), FieldSpec(5, 3)):
        x = F.gen or F.element(3)
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y.spec is field(F.p, F.e, F.modulus)
        assert copy.deepcopy(F) == F and y * y == x * x


# ---------------------------------------------------------------------------
# Draws and element text through the tables of byte-slot fields
# ---------------------------------------------------------------------------

# every index of the small fields; seeded ones (with 0, 1 and order - 1)
# of the others.  The last run of slots is partial in GF(729), GF(2^10)
# and GF(3^32) (runs of 5, 8 and 5 slots)
TABLE_FIELDS_ALL = [(2, 2), (2, 3), (3, 2), (2, 8), (3, 6)]
TABLE_FIELDS_SEEDED = [(2, 10), (2, 32), (3, 32), (5, 3), (7, 2)]


def _loop_rep(F, i):
    """The digit loop: the e base-p digits of i, most significant first,
    are the coefficients from the constant term up."""
    digits = []
    for _ in range(F.e):
        i, d = divmod(i, F.p)
        digits.append(d)
    return F.element(tuple(reversed(digits))).rep


@pytest.mark.parametrize("p,e", TABLE_FIELDS_ALL + TABLE_FIELDS_SEEDED)
def test_table_draw_and_text_match_the_loop(p, e):
    F = field(p, e)
    assert F._chunk
    if (p, e) in TABLE_FIELDS_ALL:
        indices = range(F.order)
    else:
        rng = random.Random(p * 100 + e)
        indices = [0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(1000)]
    for i in indices:
        x = F.from_index(i)
        assert x.rep == _loop_rep(F, i)
        assert str(x) == gf._poly_text(F.coeffs(x.rep))
        assert field_index(F, x) == i
    partial = e > F._chunk and e % F._chunk
    assert bool(partial) == ((p, e) in [(3, 6), (2, 10), (3, 32)])


def test_table_kernels_need_no_loop_once_built(monkeypatch):
    """After their first use, a table field's draws and texts neither
    pack digits (the loop's last step) nor call _poly_text; GF(5^32) and
    GF(131^2), whose slots are wider than a byte, take the loop on every
    call."""
    def refuse(*args):
        raise AssertionError("loop path taken")
    fields = [FieldSpec(2, 8), FieldSpec(3, 6), FieldSpec(2, 32), FieldSpec(3, 32)]
    expected = [(str(F.from_index(F.order - 2)), F.from_index(F.order - 2).rep)
                for F in fields]
    monkeypatch.setattr(gf._Quotient, "_pack", refuse)
    monkeypatch.setattr(gf, "_poly_text", refuse)
    assert [(str(F.from_index(F.order - 2)), F.from_index(F.order - 2).rep)
            for F in fields] == expected
    monkeypatch.undo()
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def wrapped(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, wrapped)
    spy(gf._Quotient, "_pack")
    spy(gf, "_poly_text")
    for F in (field(5, 32), field(131, 2)):
        assert F._chunk == 0
        for _ in range(2):
            calls.clear()
            x = F.from_index(F.order - 2)
            assert str(x) == F.text(x.rep) and calls == ["_pack", "_poly_text", "_poly_text"]


@pytest.mark.parametrize("p,e", [(5, 1), (2, 8), (3, 32), (5, 32), (131, 2)])
def test_from_index_refuses_out_of_range(p, e):
    F = field(p, e)
    for i in (-1, F.order):
        with pytest.raises(UsageError):
            F.from_index(i)
    assert F.from_index(F.order - 1).rep == _loop_rep(F, F.order - 1)


def test_table_field_texts_are_pinned():
    """sha256 of the texts of the first 200 draws of random.Random(0),
    one per line, as the digit loop and _poly_text printed them."""
    pins = {(2, 32): "996313eb9f9f1110782e8643de478c67bb5d798f2b01c6757429ee1e12b3af19",
            (3, 32): "96b7cfa46d2725f37837f562488949de4e07c152afaaf3bdfde1263b7ee8e604",
            (2, 8): "93d2a5632508a81631e83af4ba59b06e8af9bdeb93268b1fcce158bc39a98b48",
            (3, 6): "e10e5c2e765b3472ad78ba5bf9fb67850aaac413d259dae40178274ae0ae1881"}
    for (p, e), pin in pins.items():
        F, rng = field(p, e), random.Random(0)
        text = "\n".join(str(F.random_element(rng)) for _ in range(200))
        assert hashlib.sha256(text.encode()).hexdigest() == pin


def test_polynomial_over_table_field_prints_unchanged():
    F = field(3, 6)
    R = PolyRing(F, ("x", "y", "z"), "grevlex")
    f = R.from_terms({(2, 0, 1): F.element((1, 2, 0, 0, 1, 2)), (0, 1, 0): F.gen ** 5 + 2,
                      (0, 0, 0): F.one, (1, 1, 1): F.element((0, 0, 0, 0, 0, 2))})
    assert f.text() == "(2*g^5+g^4+2*g+1)*x^2*z+(2*g^5)*x*y*z+(g^5+2)*y+1"
    rng = random.Random(5)
    g = R.from_terms({(rng.randrange(6), rng.randrange(6), rng.randrange(6)):
                      F.random_element(rng) for _ in range(300)})
    assert len(g.terms) == 164 and hashlib.sha256(g.text().encode()).hexdigest() == \
        "a186ddfaf7e3fb36c9066e72f471a25ad710849068c93cdebdd944f7ec650beb"
