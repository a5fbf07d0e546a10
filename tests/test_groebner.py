"""Tests for division, Buchberger, membership, and closure search."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invar.groebner as groebner
import invar.mpoly as mpoly
from invar.errors import ContextMismatch, ResourceLimit, UsageError
from invar.gf import field
from invar.mpoly import PolyRing, TermOrder
from invar.groebner import (GroebnerBasis, MembershipCertificate, buchberger,
                            change_ring, frobenius_closure_search,
                            frobenius_power_ideal, ideal_member, normal_form,
                            normal_form_of_product, _spoly)
from invar.fsing import symmetric_ideal_gb
from invar.invariants import vandermonde, vandermonde_rows
from oracles import (contains, eliminate, leading_coeff, membership_by_linear_algebra,
                     random_poly, reference_normal_form)


@pytest.fixture
def R():
    return PolyRing(field(7), ["x", "y"])


def test_division_identity_random():
    rng = random.Random(17)
    ring = PolyRing(field(5), ["x", "y", "z"])
    for _ in range(25):
        f = random_poly(ring, rng, nterms=8, maxdeg=5)
        basis = [random_poly(ring, rng, nterms=3, maxdeg=3) for _ in range(3)]
        cert = normal_form(f, basis, certificate=True)
        assert cert.check()
        assert cert.target == f
        # no remainder term is divisible by a basis leading monomial
        unpack = ring.order.unpack
        for key in cert.remainder.terms:
            e = unpack(key)
            for b in basis:
                if b.is_zero():
                    continue
                le = b.leading_exponents()
                assert not all(x >= y for x, y in zip(e, le))


def test_certificate_alignment_follows_given_order(R):
    x, y = R.gens()
    basis = [y ** 2, x]          # deliberately not ascending
    cert = normal_form(x * y ** 2 + x ** 2, basis, certificate=True)
    assert cert.basis == (y ** 2, x)
    assert cert.check()
    # x^2 reduces via basis[1], x*y^2 via basis[0] after the x is peeled:
    # the deterministic divisor is the ascending-LM scan, x first
    assert cert.cofactors[1] == y ** 2 + x


def test_zero_and_constant_edge_cases(R):
    x, y = R.gens()
    assert normal_form(R.zero, [x]).is_zero()
    assert normal_form(x, [R.zero, x]).is_zero()
    gb = buchberger([R.one * 3])
    assert gb.elements == (R.one,)
    assert contains(gb, x ** 5 + y)
    with pytest.raises(UsageError):
        buchberger([R.zero])
    with pytest.raises(ContextMismatch):
        normal_form(x, [PolyRing(field(7), ["x", "z"]).gen(0)])


def test_frozen_small_basis(R):
    x, y = R.gens()
    gb = buchberger([x ** 2, x * y + y ** 2])
    assert [b.text() for b in gb] == ["x*y+y^2", "x^2", "y^3"]
    F = field(3, 2)
    x, y = PolyRing(F, ["x", "y"]).gens()
    gb = buchberger([F.gen * x * y + 1, F.gen * y ** 2 + x])
    assert [b.text() for b in gb] == ["y^2+(2*g)*x", "x*y+(2*g)", "x^2+2*y"]


def test_buchberger_criterion_holds():
    """Every S-polynomial of the output reduces to zero: the definition
    of a Groebner basis, checked directly, also where leading
    coefficients lie outside GF(p)."""
    rng = random.Random(23)
    for ring, rounds in ((PolyRing(field(3), ["x", "y", "z"]), 10),
                         (PolyRing(field(3, 2), ["x", "y", "z"]), 4),
                         (PolyRing(field(2, 8), ["x", "y", "z"]), 4)):
        for _ in range(rounds):
            gens = [random_poly(ring, rng, nterms=3, maxdeg=3) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            assert all(leading_coeff(b) == ring.field.one for b in gb)
            for i in range(len(gb)):
                for j in range(i + 1, len(gb)):
                    assert normal_form(_spoly(gb[i], gb[j]), gb.elements).is_zero()
            for g in gens:
                assert contains(gb, g)


def test_reduced_basis_is_unique_under_shuffling():
    rng = random.Random(7)
    ring = PolyRing(field(5), ["x", "y", "z"])
    gens = [random_poly(ring, rng, nterms=3, maxdeg=3) for _ in range(4)]
    gens = [g for g in gens if not g.is_zero()]
    reference = buchberger(gens)
    assert len(reference) == 5
    for trial in range(20):
        shuffled = gens[:]
        random.Random(trial).shuffle(shuffled)
        assert buchberger(shuffled) == reference


def test_reduced_basis_properties():
    ring = PolyRing(field(3), ["x", "y", "z"])
    rng = random.Random(4)
    gens = [random_poly(ring, rng, nterms=4, maxdeg=3) for _ in range(3)]
    gb = buchberger([g for g in gens if not g.is_zero()])
    keys = [b.leading_key() for b in gb]
    assert keys == sorted(keys)
    unpack = ring.order.unpack
    for i, b in enumerate(gb):
        assert leading_coeff(b) == ring.field.one
        # no term of b is divisible by another element's leading monomial
        for j, other in enumerate(gb):
            if i == j:
                continue
            le = other.leading_exponents()
            for key in b.terms:
                assert not all(x >= y for x, y in zip(unpack(key), le))


def test_membership_matches_linear_algebra_oracle():
    rng = random.Random(77)
    for p in (3, 5):
        ring = PolyRing(field(p), ["x", "y", "z"])
        x, y, z = ring.gens()
        gens = [x ** 2 + y * z, x * y - z ** 2]
        gb = buchberger(gens)
        # homogeneous candidates of moderate degree
        for _ in range(30):
            d = rng.randrange(2, 7)
            terms = {}
            for _ in range(4):
                a = rng.randrange(d + 1)
                b = rng.randrange(d + 1 - a)
                c = d - a - b
                terms[(a, b, c)] = rng.randrange(p)
            f = ring.from_terms(terms)
            if f.is_zero():
                continue
            assert contains(gb, f) == membership_by_linear_algebra(f, gens)


def test_membership_oracle_four_vars_through_degree_12():
    """Every homogeneous degree 1..12 in four variables, candidates on
    both sides of the ideal."""
    rng = random.Random(5)
    ring = PolyRing(field(3), ["x1", "x2", "x3", "x4"])
    x1, x2, x3, x4 = ring.gens()
    gens = [x1 * x2 + x3 * x4, x1 ** 2 + x2 * x3]
    gb = buchberger(gens)
    xs = ring.gens()

    def random_homogeneous(d):
        terms = {}
        for _ in range(6):
            cuts = sorted(rng.randrange(d + 1) for _ in range(3))
            e = (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], d - cuts[2])
            terms[e] = rng.randrange(1, 3)
        return ring.from_terms(terms)

    def random_monomial(d):
        m = ring.one
        for _ in range(d):
            m = m * xs[rng.randrange(4)]
        return m

    for d in range(1, 13):
        for _ in range(2):
            f = random_homogeneous(d)
            if f.is_zero():
                continue
            assert contains(gb, f) == membership_by_linear_algebra(f, gens)
        if d >= 2:
            # a certified member of exact degree d
            g = random_monomial(d - 2) * gens[0] + \
                random_monomial(d - 2) * gens[1]
            if not g.is_zero():
                assert contains(gb, g)
                assert membership_by_linear_algebra(g, gens)


@pytest.mark.parametrize("n,p", [(3, 3), (4, 5), (3, 2)])
def test_elementary_symmetric_basis_shape(n, p):
    """The reduced basis of (e_1..e_n) has leading terms x_k^k."""
    ring = PolyRing(field(p), [f"x{i}" for i in range(1, n + 1)])
    xs = ring.gens()
    gens = []
    for k in range(1, n + 1):
        acc = ring.zero
        from itertools import combinations
        for comb in combinations(range(n), k):
            term = ring.one
            for i in comb:
                term = term * xs[i]
            acc = acc + term
        gens.append(acc)
    gb = buchberger(gens)
    lts = sorted(b.leading_exponents() for b in gb)
    expected = sorted(tuple(k if i == k - 1 else 0 for i in range(n))
                      for k in range(1, n + 1))
    assert lts == expected


def test_member_wrapper(R):
    x, y = R.gens()
    gens = [x ** 2, x * y + y ** 2]
    assert ideal_member(y ** 3, gens)
    assert not ideal_member(y ** 2, gens)
    ok, cert = ideal_member(x ** 3 + y ** 3, gens, certificate=True)
    assert ok and cert.check() and cert.is_member
    assert isinstance(cert, MembershipCertificate)


def test_eliminate_parametrized_curve():
    ring = PolyRing(field(7), ["t", "x", "y"])
    t, x, y = ring.gens()
    sub, elim = eliminate([x - t ** 2, y - t ** 3], 1)
    assert sub.names == ("x", "y")
    xx, yy = sub.gens()
    target = (yy ** 2 - xx ** 3).monic()
    assert any(b.monic() == target for b in elim)
    with pytest.raises(UsageError):
        eliminate([x - t ** 2], 3)


def test_change_ring_round_trip():
    a = PolyRing(field(3), ["x", "y"], order="grevlex")
    b = PolyRing(field(3), ["x", "y"], order="lex")
    rng = random.Random(2)
    f = random_poly(a, rng)
    g = change_ring(f, b)
    assert change_ring(g, a) == f
    with pytest.raises(ContextMismatch):
        change_ring(f, PolyRing(field(3), ["u", "v"], order="lex"))


def test_frobenius_power_ideal():
    ring = PolyRing(field(3), ["u", "v"])
    u, v = ring.gens()
    raised = frobenius_power_ideal([u + v, u * v], 1)
    assert raised == [u ** 3 + v ** 3, u ** 3 * v ** 3]


def test_closure_search_toy_example():
    """f = w, ideal (u, v) in GF(2)[u,v,w]/(w^2 + u^3 + v^3): the square
    of w lands in (u^2, v^2) + (relation) even though w itself is not in
    (u, v) + (relation)."""
    ring = PolyRing(field(2), ["u", "v", "w"])
    u, v, w = ring.gens()
    rel = w ** 2 + u ** 3 + v ** 3
    res = frobenius_closure_search(w, [u, v], e_max=3, fixed=[rel])
    assert res.e == 1
    assert res.certificate.check() and res.certificate.is_member
    assert res.certificate.target == w ** 2
    assert sorted(res.failures) == [0]
    assert not res.failures[0].is_zero()


def test_closure_search_fixed_block_not_raised():
    """The fixed relation enters unraised; raising it too would lose the
    closure at e = 1."""
    ring = PolyRing(field(2), ["u", "v", "w"])
    u, v, w = ring.gens()
    rel = w ** 2 + u ** 3 + v ** 3
    # demonstrate the contrast directly
    assert ideal_member(w ** 2, [u ** 2, v ** 2, rel])
    assert not ideal_member(w ** 2, [u ** 2, v ** 2, rel ** 2])
    res = frobenius_closure_search(w, [u, v], e_max=2)
    assert res.e is None and res.certificate is None
    assert sorted(res.failures) == [0, 1, 2]


def test_closure_search_e_zero():
    ring = PolyRing(field(3), ["u", "v"])
    u, v = ring.gens()
    res = frobenius_closure_search(u + v, [u, v], e_max=2)
    assert res.e == 0 and res.certificate.is_member


def test_pair_guard(monkeypatch):
    ring = PolyRing(field(3), ["x", "y", "z"])
    rng = random.Random(1)
    gens = [random_poly(ring, rng, nterms=4, maxdeg=4) for _ in range(3)]
    monkeypatch.setattr(groebner, "PAIR_GUARD", 1)
    with pytest.raises(ResourceLimit):
        buchberger([g for g in gens if not g.is_zero()])


def test_reduction_term_guard(monkeypatch):
    ring = PolyRing(field(5), ["x", "y"])
    x, y = ring.gens()
    f = (x + y + 1) ** 6
    monkeypatch.setattr(mpoly, "TERM_GUARD", 5)
    with pytest.raises(ResourceLimit):
        normal_form(f, [x ** 2 - y ** 5])


def test_reduction_exponent_cap():
    # grevlex division keeps the total degree, but moves it between
    # variables: x - y turns x^a y^b into y^(a+b), past the cap
    ring = PolyRing(field(5), ["x", "y"])
    x, y = ring.gens()
    top = ring.monomial((mpoly.EXP_CAP - 1, mpoly.EXP_CAP - 1))
    with pytest.raises(ResourceLimit):
        normal_form(top, [x - y])
    x_top = ring.monomial((mpoly.EXP_CAP - 1, 0))
    assert normal_form(top, [x_top - 1]) == ring.monomial((0, mpoly.EXP_CAP - 1))


# ---------------------------------------------------------------------------
# differential tests: the division against the reference it replaced
# ---------------------------------------------------------------------------

_FIELDS = ((2, 1), (5, 1), (3, 2))


@st.composite
def _rings(draw, fields=_FIELDS):
    p, e = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 4))
    order = draw(st.sampled_from(("grevlex", "lex", "block")))
    if order == "block":
        order = ("block", draw(st.integers(1, n - 1)))
    return PolyRing(field(p, e), [f"x{i}" for i in range(n)], order)


def _box(ring, max_deg):
    """Exponent tuples with every entry at most max_deg."""
    return st.tuples(*[st.integers(0, max_deg)] * ring.nvars)


def _degree(ring, d):
    """Exponent tuples of total degree d."""
    return st.sampled_from([e for e in product(range(d + 1), repeat=ring.nvars)
                            if sum(e) == d])


def _poly(draw, ring, max_terms, exps):
    F = ring.field
    terms = draw(st.dictionaries(exps, st.integers(1, F.order - 1), max_size=max_terms))
    return ring.from_terms({e: F.from_index(c) for e, c in terms.items()})


@st.composite
def _division_cases(draw):
    ring = draw(_rings())
    f = _poly(draw, ring, 10, _box(ring, 6))
    basis = [_poly(draw, ring, 4, _box(ring, 3)) for _ in range(draw(st.integers(1, 4)))]
    nonzero = [b for b in basis if not b.is_zero()]
    if nonzero and draw(st.booleans()):
        # a second element with the same leading monomial, another
        # leading coefficient and a different tail
        b = draw(st.sampled_from(nonzero))
        lead = b.leading_key()
        low = _poly(draw, ring, 4, _box(ring, 3))
        low = mpoly.Polynomial(ring, {k: c for k, c in low.terms.items() if k < lead})
        scale = ring.field.from_index(draw(st.integers(1, ring.field.order - 1)))
        basis.insert(draw(st.integers(0, len(basis))), b.scale(scale) + low)
    if draw(st.booleans()):
        basis.insert(draw(st.integers(0, len(basis))), ring.zero)
    return f, basis


@settings(max_examples=150, deadline=None)
@given(case=_division_cases())
def test_normal_form_matches_reference(case):
    f, basis = case
    got = normal_form(f, basis, certificate=True)
    ref = reference_normal_form(f, basis, certificate=True)
    assert got.remainder == ref.remainder
    assert got.cofactors == ref.cofactors
    assert normal_form(f, basis) == ref.remainder
    assert got.check()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_membership_matches_linear_algebra(data):
    ring = data.draw(_rings(fields=((2, 1), (5, 1))))
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        deg = data.draw(st.integers(1, 2))
        gens.append(_poly(data.draw, ring, 3, _degree(ring, deg)))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        gens = [ring.gen(0)]
    d = data.draw(st.integers(2, 3))
    # a random form (often empty) plus multiples of the generators
    f = _poly(data.draw, ring, 2, _degree(ring, d))
    for g in gens:
        k = d - g.total_degree()
        if k >= 0 and data.draw(st.booleans()):
            f = f + _poly(data.draw, ring, 2, _degree(ring, k)) * g
    gb = buchberger(gens)
    assert normal_form(f, gb).is_zero() == membership_by_linear_algebra(f, gens)


_EXPONENTS = st.one_of(st.integers(0, 3),
                       st.integers(0, mpoly.EXP_CAP - 1),
                       st.sampled_from((mpoly.EXP_CAP - 2, mpoly.EXP_CAP - 1)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_field_divisibility_matches_tuples(data):
    n = data.draw(st.integers(1, 5))
    kind = data.draw(st.sampled_from(("grevlex", "lex", "block") if n > 1
                                     else ("grevlex", "lex")))
    order = TermOrder(kind, n, data.draw(st.integers(1, n - 1)) if kind == "block" else 0)
    a = data.draw(st.tuples(*[_EXPONENTS] * n))
    # b near a in every coordinate, or anywhere
    shifts = st.tuples(*[st.integers(-1, 1)] * n)
    b = tuple(min(max(x + s, 0), mpoly.EXP_CAP - 1)
              for x, s in zip(a, data.draw(shifts)))
    if data.draw(st.booleans()):
        b = data.draw(st.tuples(*[_EXPONENTS] * n))
    A, B, G = order.fields(order.pack(a)), order.fields(order.pack(b)), order.guard
    assert (((A | G) - B) & G == G) == all(x >= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# the staged division of triangular bases against the heap loop and the
# reference division
# ---------------------------------------------------------------------------

def _spy_staged(mp) -> list:
    """Record every call of the staged division path."""
    calls = []
    staged = groebner._divide_staged

    def spy(*args):
        calls.append(args)
        return staged(*args)

    mp.setattr(groebner, "_divide_staged", spy)
    return calls


@st.composite
def _triangular_cases(draw):
    """A random triangular basis over GF(p), in grevlex: pure-power
    leading monomials in distinct variables; each element's tail (any
    monomials below its lead, so often of lower degree) avoids the
    variables of the leading monomials below it.  Elements come
    shuffled, sometimes with a zero among them."""
    p = draw(st.sampled_from((2, 3, 5, 2 ** 31 - 1)))
    n = draw(st.integers(2, 5))
    ring = PolyRing(field(p), [f"x{i}" for i in range(n)])
    pack = ring.order.pack
    coeff = st.integers(1, p - 1)
    leads = []
    for v in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
        a = draw(st.integers(1, 3))
        leads.append(tuple(a if u == v else 0 for u in range(n)))
    leads.sort(key=pack)
    basis, earlier = [], set()
    for lead in leads:
        box = st.tuples(*[st.just(0) if u in earlier else st.integers(0, max(lead))
                          for u in range(n)])
        tail = draw(st.dictionaries(box, coeff, max_size=6))
        terms = {e: c for e, c in tail.items() if pack(e) < pack(lead)}
        terms[lead] = draw(coeff)
        basis.append(ring.from_terms(terms))
        earlier.add(next(u for u in range(n) if lead[u]))
    basis = list(draw(st.permutations(basis)))
    if draw(st.booleans()):
        basis.insert(draw(st.integers(0, len(basis))), ring.zero)
    return _poly(draw, ring, 12, _box(ring, 5)), basis


@settings(max_examples=200, deadline=None)
@given(case=_triangular_cases())
def test_staged_division_matches_heap_and_reference(case):
    f, basis = case
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_staged(mp)
        got = normal_form(f, basis, certificate=True)
        plain = normal_form(f, basis)
        assert len(calls) == (2 if f else 0)
        mp.setattr(groebner, "_triangular", lambda ring, items: None)
        heap = normal_form(f, basis, certificate=True)
        assert len(calls) == (2 if f else 0)
    ref = reference_normal_form(f, basis, certificate=True)
    assert got.remainder == plain == heap.remainder == ref.remainder
    assert got.cofactors == heap.cofactors == ref.cofactors
    assert got.check()


def _heap_cases():
    """name -> (target, basis, the rule that rejects the basis shape):
    "lead" for the leading-monomial rules, "terms" for a later element
    holding an earlier leading variable, None for a triangular basis."""
    R = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = R.gens()
    f = (x + y + z + 1) ** 4
    cap = mpoly.EXP_CAP
    top = R.monomial((cap - 1, 0, 0))
    cases = {
        "non-pure-power lead": (f, [x * y + z, z ** 3], "lead"),
        "repeated leading variable": (f, [x ** 2 + y, x ** 3 + z], "lead"),
        "later element holds an earlier leading variable": (f, [x + y, y ** 2 + x], "terms"),
        "total degree at the cap": (R.monomial((cap - 1, 1, 0)), [top + z], None),
    }
    for name, ring in (("GF(9)", PolyRing(field(3, 2), ["x", "y", "z"])),
                       ("lex", PolyRing(field(5), ["x", "y", "z"], "lex"))):
        a, b, c = ring.gens()
        # triangular in both orders: the lead with the smaller key
        # (x^2 in grevlex, y^3 in lex) is on no other element
        cases[name] = ((a + b + c + 1) ** 4, [a ** 2 + c, b ** 3 + c], None)
    return cases


def _unpack_refused(*args):
    raise AssertionError("a basis rejected on its leading monomials was unpacked")


@pytest.mark.parametrize("name", sorted(_heap_cases()))
def test_heap_path_serves_every_other_basis(name, monkeypatch):
    f, basis, rule = _heap_cases()[name]
    if rule is not None:
        with monkeypatch.context() as mp:
            if rule == "lead":
                mp.setattr(TermOrder, "column", _unpack_refused)
                mp.setattr(TermOrder, "columns", _unpack_refused)
            assert groebner._triangular(f.ring, basis) is None
    calls = _spy_staged(monkeypatch)
    got = normal_form(f, basis, certificate=True)
    assert not calls
    ref = reference_normal_form(f, basis, certificate=True)
    assert got.remainder == ref.remainder and got.cofactors == ref.cofactors
    assert got.check()


def test_staged_path_boundaries(monkeypatch):
    # the GF(9) basis and target over GF(5), and the cap case one degree
    # lower, take the staged path
    R = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = R.gens()
    f, basis = (x + y + z + 1) ** 4, [x ** 2 + z, y ** 3 + z]
    cap = mpoly.EXP_CAP
    calls = _spy_staged(monkeypatch)
    assert normal_form(f, basis) == reference_normal_form(f, basis)
    target = R.monomial((cap - 2, 1, 0))
    assert normal_form(target, [R.monomial((cap - 1, 0, 0)) + z]) == target
    assert len(calls) == 2


def test_staged_division_trips_term_guard(monkeypatch):
    ring = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = ring.gens()
    basis = [x ** 2 + y ** 2 + y * z + z ** 2 + y + z + 1]
    # one term per x exponent: the first step adds six terms to a group
    # of one, so only the live count over all groups passes the guard
    f = sum((x ** k for k in range(12)), ring.zero)
    calls = _spy_staged(monkeypatch)
    monkeypatch.setattr(mpoly, "TERM_GUARD", 12)
    with pytest.raises(ResourceLimit, match="reduction exceeded 12 terms"):
        normal_form(f, basis)
    assert calls


def test_heap_division_trips_term_guard(monkeypatch):
    """x*y leads x*y + z^2 + 1, so no staged plan: the heap loop's dict
    starts with f's terms and passes a guard one below that count at
    its first reduction step."""
    ring = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = ring.gens()
    f = (x + y + z) ** 4
    heap = groebner._divide_heap
    calls = []

    def spy(*args):
        calls.append(args)
        return heap(*args)
    monkeypatch.setattr(groebner, "_divide_heap", spy)
    staged = _spy_staged(monkeypatch)
    monkeypatch.setattr(mpoly, "TERM_GUARD", len(f) - 1)
    with pytest.raises(ResourceLimit, match=f"reduction exceeded {len(f) - 1} terms"):
        normal_form(f, [x * y + z ** 2 + 1])
    assert len(calls) == 1 and not staged


# ---------------------------------------------------------------------------
# the division plan a GroebnerBasis keeps
# ---------------------------------------------------------------------------

def _planned_matches_plain(f, basis):
    """normal_form by a GroebnerBasis, by its elements as a list and by
    the reference division agree, with and without certificates."""
    gb = GroebnerBasis(f.ring, tuple(basis))
    ref = reference_normal_form(f, basis, certificate=True)
    for divisor in (gb, list(basis)):
        got = normal_form(f, divisor, certificate=True)
        assert got.remainder == ref.remainder and got.cofactors == ref.cofactors
        assert got.basis == tuple(basis) and got.check()
        assert normal_form(f, divisor) == ref.remainder
    assert gb.plan == groebner._triangular(f.ring, list(basis))


@settings(max_examples=60, deadline=None)
@given(case=_triangular_cases())
def test_planned_division_matches_plain_on_triangular_bases(case):
    _planned_matches_plain(*case)


@settings(max_examples=60, deadline=None)
@given(case=_division_cases())
def test_planned_division_matches_plain_on_any_basis(case):
    _planned_matches_plain(*case)


def test_planned_division_keeps_the_degree_gate(monkeypatch):
    # a triangular basis with a plan, and a target at the degree cap:
    # the gate is tested on every call, so the target takes the heap path
    R = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = R.gens()
    top = R.monomial((mpoly.EXP_CAP - 1, 0, 0))
    basis = [top + z, y ** 3 + z]
    assert groebner._triangular(R, basis) is not None
    calls = _spy_staged(monkeypatch)
    _planned_matches_plain((x + y + z + 1) ** 4, basis)
    assert len(calls) == 4
    _planned_matches_plain(top * y, basis)
    assert len(calls) == 4


@pytest.mark.parametrize("triangular", [True, False])
def test_plan_is_made_once_per_basis(triangular, monkeypatch):
    R = PolyRing(field(5), ["x", "y", "z"])
    x, y, z = R.gens()
    basis = [x ** 2 + z, y ** 3 + z] if triangular else [x + y, y ** 2 + x]
    calls = []
    shape = groebner._triangular

    def spy(ring, items):
        calls.append(items)
        return shape(ring, items)

    monkeypatch.setattr(groebner, "_triangular", spy)
    gb = GroebnerBasis(R, tuple(basis))
    f = (x + y + z + 1) ** 4
    for _ in range(3):
        normal_form(f, gb)
        normal_form(f, gb, certificate=True)
        ideal_member(f, gb, certificate=True)
    assert len(calls) == 1 and (gb.plan is None) != triangular
    normal_form(f, basis)
    normal_form(f, basis)
    assert len(calls) == 3


def test_groebner_basis_is_immutable():
    R = PolyRing(field(5), ["x", "y"])
    x, y = R.gens()
    gb = buchberger([x ** 2 - y, y ** 2 - x])
    plan, texts = gb.plan, gb.texts
    for name in ("ring", "elements", "plan", "texts"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(gb, name, None)
    assert gb.ring == R and gb.elements == buchberger([x ** 2 - y, y ** 2 - x]).elements
    assert gb.plan is plan and gb.texts is texts


# ---------------------------------------------------------------------------
# normal forms of products, factor by factor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_product_normal_form_of_the_vandermonde(n, p):
    """Any factor order gives the remainder of dividing the whole
    product: the last row first, as the claims reduce it, and at small n
    the product order of vandermonde too."""
    R, gb = symmetric_ideal_gb(n, p)
    want = normal_form(vandermonde(R), gb)
    rows = vandermonde_rows(R)
    assert [len(row) for row in rows] == list(range(1, n))
    assert normal_form_of_product([f for row in rows[::-1] for f in row], gb) == want
    if n <= 5:
        assert normal_form_of_product([f for row in rows for f in row], gb) == want
    assert want.is_zero() == (p <= n)


def _form(ring, rng, degree):
    """A random form of degree 1 or 2, possibly with a constant."""
    terms = {}
    for _ in range(4):
        e = [0] * ring.nvars
        for _ in range(rng.randrange(degree + 1)):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = rng.randrange(ring.field.p)
    return ring.from_terms(terms)


@pytest.mark.parametrize("p", [3, 5])
def test_product_normal_form_matches_dividing_the_product(p):
    rng = random.Random(p)
    for order in ("grevlex", "lex"):
        ring = PolyRing(field(p), ["x", "y", "z"], order)
        for case in range(30):
            gens = [_form(ring, rng, 2) for _ in range(rng.randrange(1, 4))]
            if all(g.is_zero() for g in gens):
                continue
            gb = buchberger(gens)
            factors = [_form(ring, rng, rng.randrange(1, 3))
                       for _ in range(rng.randrange(1, 6))]
            if case % 5 == 0:
                factors.insert(rng.randrange(len(factors) + 1), ring.zero)
            product = ring.one
            for f in factors:
                product = product * f
            assert normal_form_of_product(factors, gb) == normal_form(product, gb)
        assert normal_form_of_product([], gb) == normal_form(ring.one, gb)


def test_product_normal_form_needs_a_groebner_basis(R):
    x, y = R.gens()
    gb = buchberger([x ** 2 - y, y ** 2])
    for plain in (list(gb), gb.elements, [x ** 2 - y, y ** 2]):
        with pytest.raises(UsageError, match="GroebnerBasis"):
            normal_form_of_product([x, y], plain)


def test_product_normal_form_stops_at_zero(R, monkeypatch):
    x, y = R.gens()
    gb = buchberger([x ** 2])
    calls = []
    divide = groebner.normal_form

    def spy(f, basis, certificate=False):
        calls.append(f)
        return divide(f, basis, certificate)

    monkeypatch.setattr(groebner, "normal_form", spy)
    # NF(1), NF(x), NF(x^2) = 0; the two factors y are never multiplied in
    assert normal_form_of_product([x, x, y, y], gb).is_zero()
    assert calls == [R.one, x, x ** 2]
