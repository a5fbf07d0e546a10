"""Tests for Dickson, symplectic, and alternating constructions."""

import random

import pytest

import invar.invariants as invariants
from invar.errors import ContextMismatch, ResourceLimit, UsageError
from invar.gf import field
from invar.groebner import buchberger, normal_form
from invar.invariants import (MatrixGF, apply_matrix, dickson_at_point,
                              dickson_invariants, elementary_symmetric,
                              relation_side_degrees, staircase_monomial,
                              symplectic_relation_sides,
                              symplectic_relation_values, symplectic_xi,
                              symplectic_xi_value, truncated_monomial_sum,
                              vandermonde, xring)
from invar.mpoly import PolyRing
from oracles import (apply_point, diagonal_matrix, dickson_by_elements,
                     dickson_product_tree, identity_matrix, is_homogeneous,
                     is_invertible, is_symplectic, random_invertible,
                     random_symplectic, relation_sides_by_elements,
                     symplectic_form, symplectic_transvection, transpose,
                     xi_by_elements)


# -- Dickson invariants ---------------------------------------------------------


def test_dickson_hand_values_n1():
    R = xring(field(3), 1)
    (c0,) = dickson_invariants(1, field(3), R)
    assert c0 == R.gen(0) ** 2
    R2 = xring(field(5), 1)
    (c0,) = dickson_invariants(1, field(5), R2)
    assert c0 == R2.gen(0) ** 4


def test_dickson_hand_values_n2_q2():
    R = xring(field(2), 2)
    x1, x2 = R.gens()
    c0, c1 = dickson_invariants(2, field(2), R)
    assert c1 == x1 ** 2 + x1 * x2 + x2 ** 2
    assert c0 == x1 ** 2 * x2 + x1 * x2 ** 2


@pytest.mark.parametrize("n,p,e", [(1, 2, 1), (1, 3, 1), (1, 5, 1), (1, 7, 1),
                                   (2, 2, 1), (2, 3, 1), (3, 2, 1),
                                   (1, 2, 2), (2, 2, 2), (1, 3, 2)])
def test_dickson_recursion_matches_product_oracle(n, p, e):
    """The linearized recursion agrees with expanding the full product
    of q^n linear forms, including extension fields F_4 and F_9."""
    spec = field(p, e)
    assert dickson_invariants(n, spec) == dickson_product_tree(n, spec)


def test_dickson_tree_cap():
    with pytest.raises(ResourceLimit):
        dickson_product_tree(4, field(3))


def test_dickson_degrees():
    """deg c_i = q^n - q^i."""
    for n, spec in [(2, field(3)), (3, field(2)), (4, field(3))]:
        q = spec.order
        cs = dickson_invariants(n, spec)
        for i, ci in enumerate(cs):
            assert ci.total_degree() == q ** n - q ** i
            assert is_homogeneous(ci)


# q -> (p, e) with q = p^e, and the largest table-backed field of each
# characteristic; the point readings are checked there and in GF(p^32)
Q_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2)}
TABLE_DEGREE = {2: 10, 3: 6}


def _point_fields(p):
    return (field(p, TABLE_DEGREE[p]), field(p, 32))


def test_dickson_at_point_matches_polynomials():
    rng = random.Random(12)
    for q, n in ((2, 4), (3, 4), (4, 3)):
        p, e = Q_FIELDS[q]
        cs = dickson_invariants(n, field(p, e))
        for L in _point_fields(p):
            P = tuple(L.random_element(rng) for _ in range(n))
            assert [ci.evaluate(P) for ci in cs] == dickson_at_point(P, q)


def test_dickson_gl_invariance_exact():
    """c_i composed with 20 random invertible matrices stays put."""
    for n, spec in [(2, field(2)), (2, field(3)), (3, field(2))]:
        cs = dickson_invariants(n, spec)
        rng = random.Random(spec.p * 10 + n)
        for _ in range(20):
            M = random_invertible(spec, n, rng)
            for ci in cs:
                assert apply_matrix(ci, M) == ci


def test_dickson_gl4_invariance_numeric():
    """Degree-80 instances checked at random points instead of by
    substitution: c_i(M P) = c_i(P) for invertible M over F_3."""
    spec = field(3)
    L = field(3, 16)
    rng = random.Random(99)
    for _ in range(20):
        M = random_invertible(spec, 4, rng)
        P = tuple(L.random_element(rng) for _ in range(4))
        assert dickson_at_point(apply_point(M, P), 3) == dickson_at_point(P, 3)


def test_dickson_vanishing_on_spanned_point():
    """c_0(P) = 0 exactly when the coordinates are F_q-linearly
    dependent; a point with a repeated coordinate shows the zero."""
    L = field(2, 6)
    rng = random.Random(3)
    x = L.random_element(rng)
    y = L.random_element(rng)
    vals = dickson_at_point((x, x + y, y), 2)   # x + (x+y) + y = 0 over F_2
    assert not vals[0]


# -- symplectic invariants -------------------------------------------------------


def test_xi_shape_and_degree():
    R = xring(field(3), 4)
    for i in (1, 2, 3):
        xi = symplectic_xi(R, 3, i)
        assert xi.total_degree() == 3 ** i + 1
        assert len(xi) == 4
        assert is_homogeneous(xi)
    with pytest.raises(UsageError):
        symplectic_xi(xring(field(3), 3), 3, 1)
    with pytest.raises(UsageError):
        symplectic_xi(R, 3, 0)


def test_xi_value_matches_polynomial():
    rng = random.Random(8)
    for q, (p, _e) in Q_FIELDS.items():
        R = xring(field(p), 4)
        for i in (1, 2, 3):
            xi = symplectic_xi(R, q, i)
            for L in _point_fields(p):
                for _ in range(3):
                    P = tuple(L.random_element(rng) for _ in range(4))
                    assert xi.evaluate(P) == symplectic_xi_value(P, q, i)


def test_xi_invariance_exact():
    for q in (2, 3):
        spec = field(q)
        R = xring(spec, 4)
        rng = random.Random(q)
        xis = [symplectic_xi(R, q, i) for i in (1, 2, 3)]
        for _ in range(20):
            M = random_symplectic(spec, 2, rng)
            for xi in xis:
                assert apply_matrix(xi, M) == xi


def test_xi_not_gl_invariant():
    """A non-symplectic invertible matrix moves xi_1."""
    spec = field(3)
    R = xring(spec, 4)
    xi1 = symplectic_xi(R, 3, 1)
    M = diagonal_matrix(spec, [2, 1, 1, 1])
    assert is_invertible(M) and not is_symplectic(M)
    assert apply_matrix(xi1, M) != xi1


def test_sp4_relation_exact():
    """The single Sp_4 relation, fully expanded, for q = 2 and 3:
    xi_1 c_0 = xi_1^q c_2 - xi_2^q c_3 + xi_3^q.  Each materialized side,
    evaluated at a point, is what the point reading gives there."""
    rng = random.Random(5)
    for q in (2, 3):
        spec = field(q)
        R = xring(spec, 4)
        cs = dickson_invariants(4, spec, R)
        xis = [symplectic_xi(R, q, i) for i in (1, 2, 3)]
        lhs, rhs = symplectic_relation_sides(R, spec, 1, cs, xis)
        assert lhs == rhs
        for L in _point_fields(q):
            P = tuple(L.random_element(rng) for _ in range(4))
            assert (lhs.evaluate(P), rhs.evaluate(P)) == \
                symplectic_relation_values(P, q, 1)


def test_relation_side_degrees_match_materialized():
    for q in (2, 3):
        spec = field(q)
        R = xring(spec, 4)
        cs = dickson_invariants(4, spec, R)
        xis = [symplectic_xi(R, q, i) for i in (1, 2, 3)]
        lhs, rhs = symplectic_relation_sides(R, spec, 1, cs, xis)
        dl, dr = relation_side_degrees(q, 4, 1)
        assert lhs.total_degree() == dl
        assert rhs.total_degree() == dr


def test_relation_values_numeric_2n6():
    """For Sp_6 the i = 1, 2 relations hold at random points; the
    materialized polynomials would be enormous."""
    L = field(2, 20)
    rng = random.Random(21)
    for i in (1, 2):
        for _ in range(5):
            P = tuple(L.random_element(rng) for _ in range(6))
            lv, rv = symplectic_relation_values(P, 2, i)
            assert lv == rv


def test_relation_values_detect_perturbation():
    """Drop a term from the left side and points notice."""
    L = field(2, 20)
    rng = random.Random(2)
    seen_diff = False
    for _ in range(10):
        P = tuple(L.random_element(rng) for _ in range(6))
        lv, rv = symplectic_relation_values(P, 2, 1)
        c0 = dickson_at_point(P, 2)[0]
        wrong = lv + c0           # corrupt lhs by adding c_0(P)
        if wrong != rv:
            seen_diff = True
    assert seen_diff


# One field per kernel variant: GF(5) binds _bind_prime, the byte-slot
# fields the table kernels, and GF(5^32), with two-byte slots, _bind_slots.
READING_FIELDS = ((5, 1), (2, 8), (3, 6), (2, 32), (3, 32), (5, 32))


@pytest.mark.parametrize("s", (1, 2), ids=("q=p", "q=p^2"))
@pytest.mark.parametrize("p,e", READING_FIELDS, ids=[f"GF({p}^{e})" for p, e in READING_FIELDS])
def test_point_readings_match_element_oracle(p, e, s):
    """The readings on packed ints give the values the same bodies give
    on FieldElement operators: c, xi_1, xi_2 and both relation sides."""
    L, q = field(p, e), p ** s
    rng = random.Random(100 * p + 10 * e + s)
    for m in (4, 6):
        for _ in range(2):
            P = tuple(L.random_element(rng) for _ in range(m))
            assert dickson_at_point(P, q) == dickson_by_elements(P, q)
            for i in (1, 2):
                assert symplectic_xi_value(P, q, i) == xi_by_elements(P, q, i)
                if i < m // 2:
                    assert symplectic_relation_values(P, q, i) == \
                        relation_sides_by_elements(P, q, i)


def test_relation_values_build_only_the_xi_they_read(monkeypatch):
    """Relation i reads xi_1..xi_max(i, m - i): on six coordinates xi_1
    to xi_5 for i = 1 and xi_1 to xi_4 for i = 2, with the same sides."""
    built = []
    xi = invariants._xi
    monkeypatch.setattr(invariants, "_xi", lambda xs, k, ops: built.append(k) or xi(xs, k, ops))
    L = field(3, 2)
    rng = random.Random(6)
    P = tuple(L.random_element(rng) for _ in range(6))
    for i, top in ((1, 5), (2, 4)):
        del built[:]
        assert symplectic_relation_values(P, 3, i) == relation_sides_by_elements(P, 3, i)
        assert built == list(range(1, top + 1))


@pytest.mark.parametrize("odd", (0, 3))
@pytest.mark.parametrize("reading", (
    lambda P: dickson_at_point(P, 2),
    lambda P: symplectic_xi_value(P, 2, 1),
    lambda P: symplectic_relation_values(P, 2, 1),
), ids=("dickson_at_point", "symplectic_xi_value", "symplectic_relation_values"))
def test_point_readings_refuse_mixed_fields(reading, odd):
    """A point with one coordinate from another field of the same
    characteristic raises; its packed int means nothing in the first."""
    L, K = field(2, 8), field(2, 10)
    rng = random.Random(odd)
    P = [L.random_element(rng) for _ in range(4)]
    P[odd] = K.random_element(rng)
    with pytest.raises(ContextMismatch):
        reading(tuple(P))


def _refusals(polynomial, point) -> tuple:
    """The UsageError message of each reading of the same input."""
    messages = []
    for reading in (polynomial, point):
        with pytest.raises(UsageError) as info:
            reading()
        messages.append(str(info.value))
    return tuple(messages)


def _point(n, q=2):
    rng = random.Random(n)
    L = field(q, 8)
    return tuple(L.random_element(rng) for _ in range(n))


@pytest.mark.parametrize("n, q, message", [
    (0, 2, "need n >= 1"),
    (2, 3, "q = 3 is not a power of the characteristic 2"),
])
def test_dickson_readings_refuse_the_same_inputs(n, q, message):
    """No variables (an empty point), and a q of another characteristic
    than the ring or the point."""
    ring = xring(field(2), n) if n else None
    assert _refusals(lambda: dickson_invariants(n, field(q), ring),
                     lambda: dickson_at_point(_point(n), q)) == (message, message)


@pytest.mark.parametrize("n, i, message", [
    (3, 1, "symplectic constructions need evenly many variables"),
    (4, 0, "xi index starts at 1"),
    (4, -1, "xi index starts at 1"),
])
def test_xi_readings_refuse_the_same_inputs(n, i, message):
    """An odd variable count (the point reading used to drop the last
    coordinate) and an index below 1 (it used to read 0)."""
    assert _refusals(lambda: symplectic_xi(xring(field(2), n), 2, i),
                     lambda: symplectic_xi_value(_point(n), 2, i)) == (message, message)


@pytest.mark.parametrize("i", [0, 2, 3, 5, 10 ** 9])
def test_relation_readings_refuse_the_same_inputs(i):
    """On four variables only i = 1 is a relation; the point reading
    used to return values for i = 2 and 3 and raise IndexError at 5, and
    builds fewer than four xi for any i before refusing."""
    R = xring(field(2), 4)
    cs = dickson_invariants(4, field(2), R)
    xis = [symplectic_xi(R, 2, k) for k in (1, 2, 3)]
    message = "relation index must be in [1, 1]"
    assert _refusals(lambda: symplectic_relation_sides(R, field(2), i, cs, xis),
                     lambda: symplectic_relation_values(_point(4), 2, i)) == (message, message)


def test_relation_index_bounds():
    R = xring(field(2), 4)
    cs = dickson_invariants(4, field(2), R)
    xis = [symplectic_xi(R, 2, i) for i in (1, 2, 3)]
    with pytest.raises(UsageError):
        symplectic_relation_sides(R, field(2), 2, cs, xis)   # n-1 = 1 here


# -- matrices ---------------------------------------------------------------------


def test_matrix_basics():
    spec = field(5)
    A = MatrixGF.from_rows(spec, [[1, 2], [3, 4]])
    B = MatrixGF.from_rows(spec, [[0, 1], [1, 0]])
    assert (A * B).rows == MatrixGF.from_rows(spec, [[2, 1], [4, 3]]).rows
    assert transpose(A).rows == MatrixGF.from_rows(spec, [[1, 3], [2, 4]]).rows
    assert A.det() == spec.element(4 - 6)
    assert identity_matrix(spec, 3).det() == spec.one
    assert not is_invertible(MatrixGF.from_rows(spec, [[1, 2], [2, 4]]))


def test_symplectic_form_and_membership():
    spec = field(3)
    J = symplectic_form(spec, 2)
    assert is_symplectic(identity_matrix(spec, 4))
    assert is_symplectic(J)                          # J^T J J = J
    assert is_symplectic(diagonal_matrix(spec, [2, 2, 1, 1]))
    assert not is_symplectic(diagonal_matrix(spec, [2, 1, 1, 1]))
    assert not is_symplectic(identity_matrix(spec, 3))


def test_transvections_are_symplectic():
    for q in (2, 3, 5):
        spec = field(q)
        rng = random.Random(q)
        for _ in range(10):
            v = [spec.random_element(rng) for _ in range(4)]
            if not any(v):
                continue
            lam = spec.random_element(rng)
            assert is_symplectic(symplectic_transvection(spec, 2, v, lam))


def test_random_symplectic_deterministic():
    spec = field(3)
    a = random_symplectic(spec, 2, random.Random(6))
    b = random_symplectic(spec, 2, random.Random(6))
    c = random_symplectic(spec, 2, random.Random(7))
    assert a == b
    assert a != c
    assert is_symplectic(a) and is_symplectic(c)


def test_apply_matrix_composition():
    """Substitution is a right action: (f * M) * N = f * (N M)."""
    spec = field(5)
    R = xring(spec, 3)
    rng = random.Random(14)
    from oracles import random_poly
    f = random_poly(R, rng)
    M = random_invertible(spec, 3, rng)
    N = random_invertible(spec, 3, rng)
    assert apply_matrix(f, N * M) == apply_matrix(apply_matrix(f, M), N)


def test_apply_point_embedding():
    spec = field(3)
    M = MatrixGF.from_rows(spec, [[1, 1], [0, 1]])
    L = field(3, 4)
    rng = random.Random(4)
    P = tuple(L.random_element(rng) for _ in range(2))
    assert apply_point(M, P) == (P[0] + P[1], P[1])
    with pytest.raises(ContextMismatch):
        apply_point(M, tuple(field(2).one for _ in range(2)))


def test_apply_matrix_extension_entries():
    """GL_1(F_4) scaling: x -> g x maps x^3 to (g^3) x^3 = x^3."""
    F4 = field(2, 2)
    R = xring(field(2), 1)
    f = R.gen(0) ** 3
    M = MatrixGF.from_rows(F4, [[F4.gen]])
    assert apply_matrix(f, M) == xring(F4, 1).gen(0) ** 3


def test_apply_matrix_needs_an_embedding():
    """The ring of the result is over the matrix field, which f's
    coefficients must embed into."""
    R = xring(field(2), 2)
    f = R.gen(0) + R.gen(1) ** 3
    I3 = MatrixGF.from_rows(field(3, 2), [[1, 0], [0, 1]])
    with pytest.raises(ContextMismatch):
        apply_matrix(f, I3)
    F9 = field(3, 2)
    h = xring(F9, 2).gen(0) * F9.gen
    with pytest.raises(ContextMismatch):
        apply_matrix(h, MatrixGF.from_rows(field(3, 4), [[1, 0], [0, 1]]))
    g = apply_matrix(f, MatrixGF.from_rows(field(2, 3), [[1, 0], [0, 1]]))
    assert g.ring == xring(field(2, 3), 2) and g.terms == f.terms


# -- alternating group pieces ------------------------------------------------------


def test_elementary_symmetric_counts():
    R = xring(field(7), 4)
    from math import comb
    for k in range(5):
        assert len(elementary_symmetric(R, k)) == comb(4, k)
    assert elementary_symmetric(R, 0) == R.one
    with pytest.raises(UsageError):
        elementary_symmetric(R, 5)


def test_truncated_sum_recurrence():
    """T_j^i = T_{j-1}^i - X_{j-1} T_{j-1}^{i-1}."""
    R = xring(field(5), 4)
    gens = R.gens()
    for i in range(1, 5):
        for j in range(2, 5):
            lhs = truncated_monomial_sum(R, i, j)
            rhs = (truncated_monomial_sum(R, i, j - 1)
                   - gens[j - 2] * truncated_monomial_sum(R, i - 1, j - 1))
            assert lhs == rhs


def test_truncated_sum_edges():
    R = xring(field(3), 3)
    assert truncated_monomial_sum(R, 0, 2) == R.one
    assert truncated_monomial_sum(R, 3, 3) == R.gen(2) ** 3
    assert len(truncated_monomial_sum(R, 2, 1)) == 6   # all deg-2 monomials in 3 vars


def test_vandermonde_alternates():
    spec = field(7)
    R = xring(spec, 3)
    D = vandermonde(R)
    assert len(D) == 6
    assert D.total_degree() == 3
    # swapping two variables flips the sign
    swap = MatrixGF.from_rows(spec, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert apply_matrix(D, swap) == -D
    # an even permutation preserves it
    cycle = MatrixGF.from_rows(spec, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert apply_matrix(D, cycle) == D


def test_vandermonde_congruence_small():
    """Delta is congruent to n! X_n^{n-1} ... X_2 modulo the elementary
    symmetric ideal; over GF(7), n = 3, the residue is 6 x2 x3^2."""
    R = xring(field(7), 3)
    gens = [elementary_symmetric(R, k) for k in (1, 2, 3)]
    gb = buchberger(gens)
    r = normal_form(vandermonde(R), gb)
    x1, x2, x3 = R.gens()
    assert r == 6 * x2 * x3 ** 2


def test_staircase_monomials():
    R = xring(field(3), 4)
    assert staircase_monomial(R, 4).text() == "x4^4"
    assert staircase_monomial(R, 3).text() == "x3^3*x4^3"
    assert staircase_monomial(R, 1).text() == "x1*x2*x3^2*x4^3"
    with pytest.raises(UsageError):
        staircase_monomial(R, 5)
