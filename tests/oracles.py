"""Independent reference implementations and helpers used only by tests.

The references are deliberately naive: dense exponent-tuple arithmetic,
reference comparators straight from the textbook definitions, and a
linear-algebra ideal membership decision that never touches the
Groebner machinery it is meant to check.
"""

import heapq
import random
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from hypothesis import strategies as st

import invar.mpoly as mpoly
from invar.errors import (ContextMismatch, FieldZeroDivision, ParseError, ResourceLimit,
                          UsageError)
from invar.fsing import C0_XI_TERMS
from invar.gf import ENUM_CAP, FieldSpec, field
from invar.groebner import (GroebnerBasis, MembershipCertificate, buchberger,
                            change_ring, normal_form)
from invar.invariants import MatrixGF, xring
from invar.mpoly import PolyRing, Polynomial, random_points, sample_sides

TREE_CAP = 64     # refuse the product-of-linear-forms oracle past q^n of this


def random_poly(ring, rng, nterms=6, maxdeg=4):
    """Random sparse polynomial with exponents below maxdeg per variable."""
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randrange(maxdeg + 1) for _ in range(ring.nvars))
        terms[exps] = rng.randrange(ring.field.order)
    return ring.from_terms({e: ring.field.from_index(c) for e, c in terms.items()})


@st.composite
def rings(draw, fields):
    """A ring over one of the (p, e) fields in one to three variables
    x0, x1, x2, in any order the arity allows."""
    p, e = draw(st.sampled_from(fields))
    n = draw(st.integers(1, 3))
    orders = ("grevlex", "lex", "block") if n > 1 else ("grevlex", "lex")
    order = draw(st.sampled_from(orders))
    if order == "block":
        order = ("block", draw(st.integers(1, n - 1)))
    return PolyRing(field(p, e), [f"x{i}" for i in range(n)], order)


def draw_poly(draw, ring, max_terms=8):
    """Zero, constants and single terms come up often: max_deg 0 leaves
    only the constant monomial, and dictionaries start small."""
    F = ring.field
    max_deg = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, max_deg)] * ring.nvars)
    terms = draw(st.dictionaries(exps, st.integers(1, F.order - 1), max_size=max_terms))
    return ring.from_terms({e: F.from_index(c) for e, c in terms.items()})


# -- queries and constructors that only tests use ----------------------------


def degree_in(f: Polynomial, var) -> int:
    """Degree of f in one variable, given by name or index; -1 for 0."""
    if not f.terms:
        return -1
    i = f.ring._index[var] if isinstance(var, str) else var
    return max(f.ring.order.columns(list(f.terms))[i])


def weighted_degree(f: Polynomial, weights: Sequence[int]) -> int:
    if not f.terms:
        return -1
    unpack = f.ring.order.unpack
    return max(sum(w * a for w, a in zip(weights, unpack(k))) for k in f.terms)


def is_homogeneous(f: Polynomial, weights: Optional[Sequence[int]] = None) -> bool:
    if not f.terms:
        return True
    unpack = f.ring.order.unpack
    if weights is None:
        weights = (1,) * f.ring.nvars
    return len({sum(w * a for w, a in zip(weights, unpack(k))) for k in f.terms}) == 1


def leading_coeff(f: Polynomial):
    return f.ring.coeff_element(f.terms[f.leading_key()])


def leading_monomial(f: Polynomial) -> Polynomial:
    return Polynomial(f.ring, {f.leading_key(): f.ring._coeff(1)})


def leading_term(f: Polynomial) -> Polynomial:
    k = f.leading_key()
    return Polynomial(f.ring, {k: f.terms[k]})


def contains(gb: GroebnerBasis, f: Polynomial) -> bool:
    return normal_form(f, gb.elements).is_zero()


def diagonal_matrix(spec: FieldSpec, entries) -> MatrixGF:
    n = len(entries)
    return MatrixGF.from_rows(spec, [[entries[i] if i == j else 0 for j in range(n)]
                                     for i in range(n)])


def identity_matrix(spec: FieldSpec, n: int) -> MatrixGF:
    return diagonal_matrix(spec, [1] * n)


class IdentityResult(NamedTuple):
    """Outcome of a randomized polynomial identity test."""
    equal: bool
    bound: Fraction            # probability that agreement was coincidence
    witness: Optional[tuple]   # point where values differ, if any
    points: list               # all points sampled, replayable


def verify_identity_probabilistic(f: Polynomial, g: Polynomial,
                                  trials: int = 20, ext_degree: int = 32,
                                  seed: int = 0,
                                  points: Optional[list] = None) -> IdentityResult:
    """Randomized equality check with an exact error bound.

    Exact structural equality short-circuits with bound 0.  Otherwise
    evaluates both sides at points drawn uniformly from L^n where
    L = GF(p^ext_degree); if all trials agree the chance that f != g is
    at most (max(deg f, deg g) / |L|)^trials, returned as a Fraction.
    """
    if f.ring != g.ring:
        raise ContextMismatch("operands from different rings")
    if f == g:
        return IdentityResult(True, Fraction(0), None, [])
    ring = f.ring
    if ring.field.e != 1:
        raise UsageError("probabilistic check expects prime-field coefficients")
    d = max(f.total_degree(), g.total_degree(), 0)
    L = field(ring.field.p, ext_degree)
    if points is None:
        points = random_points(L, ring.nvars, random.Random(seed), trials)
    used, _, _, k = sample_sides(points, lambda P: (f.evaluate(P), g.evaluate(P)))
    if k is not None:
        return IdentityResult(False, Fraction(1), used[k], used)
    return IdentityResult(True, Fraction(d, L.order) ** len(used), None, used)


# -- reference monomial comparators ------------------------------------------


def grevlex_sort_key(exps):
    return (sum(exps),) + tuple(-exps[i] for i in range(len(exps) - 1, 0, -1))


def lex_sort_key(exps):
    return tuple(exps)


def block_sort_key(exps, k):
    return (grevlex_sort_key(exps[:k]), grevlex_sort_key(exps[k:]))


# -- dense reference arithmetic ------------------------------------------------


class TupleField:
    """GF(p^e) on coefficient tuples (rep[i] multiplies g^i), entry by
    entry mod p: the arithmetic gf ran before elements became packed
    ints, kept as the reference for it.  Products are schoolbook_vmul,
    and the inverse and the Frobenius map are plain powers."""

    def __init__(self, spec: FieldSpec):
        self.spec, self.p, self.e = spec, spec.p, spec.e
        self.zero = (0,) * spec.e
        self.one = (1,) + self.zero[1:]

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: tuple) -> tuple:
        return tuple(-x % self.p for x in a)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return schoolbook_vmul(self.spec, a, b)

    def inv(self, a: tuple) -> tuple:
        if not any(a):
            raise FieldZeroDivision("inversion of zero")
        return self.pow(a, self.p ** self.e - 2)

    def pow(self, a: tuple, k: int) -> tuple:
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = self.one
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def frob(self, a: tuple, k: int) -> tuple:
        return self.pow(a, self.p ** (k % self.e))


def schoolbook_vmul(spec: FieldSpec, a: tuple, b: tuple) -> tuple:
    """Product of two GF(p^e) reps: convolution, then reduction by
    g^e = -(m_0 + ... + m_{e-1} g^{e-1}) walking every modulus entry."""
    p, e = spec.p, spec.e
    if e == 1:
        return ((a[0] * b[0]) % p,)
    conv = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    red = [(-c) % p for c in spec.modulus[:e]]
    for i in range(2 * e - 2, e - 1, -1):
        c = conv[i] % p
        if c:
            base = i - e
            for j, rj in enumerate(red):
                conv[base + j] += c * rj
    return tuple(c % p for c in conv[:e])


def is_prime_by_trial_division(n: int) -> bool:
    """Whether n is prime, trying every odd divisor up to its square root."""
    return n == 2 or n > 2 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2))


def irreducible_by_trial_division(f: Sequence[int], p: int) -> bool:
    """Whether f (degree >= 1 over GF(p), constant term first) has no
    monic factor of degree 1..deg(f)//2, trying every such divisor."""
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    e = len(f) - 1
    if e < 1:
        return False
    for d in range(1, e // 2 + 1):
        for low in product(range(p), repeat=d):
            r = list(f)
            for i in range(e, d - 1, -1):
                c = r[i]
                if c:
                    for j, mj in enumerate(low):
                        r[i - d + j] = (r[i - d + j] - c * mj) % p
                    r[i] = 0
            if not any(r):
                return False
    return True


def enumerate_elements(F: FieldSpec, cap: int = ENUM_CAP) -> list:
    """Every element of F, reps in lexicographic order (rep[0] most
    significant), refused past cap elements."""
    if F.order > cap:
        raise ResourceLimit(
            f"enumeration of {F} ({F.order} elements) exceeds cap {cap}")
    return [F.element(rep) for rep in product(range(F.p), repeat=F.e)]


class ReferenceTokens:
    """The character-by-character lexer that polyio._Tokens replaced:
    .toks lists (kind, text, position) and ends with EOF, or the
    constructor raises the ParseError of the first bad character."""

    def __init__(self, text: str):
        toks = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                toks.append(("INT", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(("NAME", text[i:j], i))
                i = j
            elif ch in "^*+-()":
                toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        toks.append(("EOF", "", n))
        self.toks = toks


def reference_text(f: Polynomial) -> str:
    """Polynomial.text() as it was written before it read exponents by
    column: one unpack and one factor string per term."""
    if not f.terms:
        return "0"
    ring = f.ring
    parts = []
    for k in sorted(f.terms, reverse=True):
        factors = []
        for nm, a in zip(ring.names, ring.order.unpack(k)):
            if a == 1:
                factors.append(nm)
            elif a > 1:
                factors.append(f"{nm}^{a}")
        ctxt = mpoly._coeff_text(ring, f.terms[k])
        if not factors:
            parts.append(ctxt)
        elif ctxt == "1":
            parts.append("*".join(factors))
        else:
            parts.append(ctxt + "*" + "*".join(factors))
    return "+".join(parts)


def coeff_sum(ring: PolyRing, c1, c2):
    """The sum of two internal coefficients, added entry by entry mod p
    on their coefficient tuples; None for zero."""
    F = ring.field
    return F.element(TupleField(F).add(F.coeffs(c1), F.coeffs(c2))).rep or None


def reference_sum(f: Polynomial, g: Polynomial, sign: int = 1) -> Polynomial:
    """f + sign * g over exponent tuples and field elements."""
    ring = f.ring
    acc: dict = {}
    for poly, s in ((f, 1), (g, sign)):
        for k, c in poly.terms.items():
            e = ring.order.unpack(k)
            acc[e] = acc.get(e, ring.field.zero) + ring.coeff_element(c) * s
    return ring.from_terms(acc)


def naive_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    unpack = ring.order.unpack
    acc = {}
    for kf, cf in f.terms.items():
        ef = unpack(kf)
        for kg, cg in g.terms.items():
            eg = unpack(kg)
            e = tuple(a + b for a, b in zip(ef, eg))
            prod = ring.field._vmul(cf, cg)
            cur = acc.get(e)
            if cur is None:
                acc[e] = prod
            else:
                s = coeff_sum(ring, cur, prod)
                if s is None:
                    del acc[e]
                else:
                    acc[e] = s
    return Polynomial(ring, {ring.order.pack(e): c for e, c in acc.items()})


def sqr_cross_terms_once(f: Polynomial) -> Polynomial:
    """f * f over GF(p), p odd, forming each cross term once and
    doubling it: the squaring loop that the general product replaced."""
    ring = f.ring
    p = ring.field.p
    assert ring.field.e == 1 and p > 2
    if f.terms:
        ring.order.check_product(f.terms, f.terms)
    off = ring.order.offset
    items = list(f.terms.items())
    acc: dict = {}
    for i, (k1, c1) in enumerate(items):
        acc[k1 - off + k1] = acc.get(k1 - off + k1, 0) + c1 * c1
        for k2, c2 in items[i + 1:]:
            acc[k1 - off + k2] = acc.get(k1 - off + k2, 0) + 2 * c1 * c2
    return Polynomial(ring, {k: v % p for k, v in acc.items() if v % p})


def eval_by_substitution(f: Polynomial, point):
    """Term-by-term evaluation using only field element arithmetic."""
    L = point[0].spec
    unpack = f.ring.order.unpack
    total = L.zero
    for key, c in f.terms.items():
        exps = unpack(key)
        if f.ring.field.e == 1:
            acc = L.element(c)
        else:
            acc = f.ring.coeff_element(c)
        for x, a in zip(point, exps):
            for _ in range(a):
                acc = acc * x
        total = total + acc
    return total


# -- linear-algebra ideal membership -------------------------------------------


def membership_by_linear_algebra(f, gens, degree_cap=12):
    """Decide homogeneous ideal membership over a prime field by row
    reduction: f (homogeneous of degree d) lies in (gens) iff it is a
    GF(p) linear combination of m*g for generators g and monomials m
    with deg(m*g) = d.  Exact but exponential in variables; keep the
    degree and variable count small.
    """
    ring = f.ring
    assert ring.field.e == 1, "prime fields only"
    p = ring.field.p
    d = f.total_degree()
    if f.is_zero():
        return True
    assert is_homogeneous(f), "homogeneous targets only"
    assert d <= degree_cap
    unpack, pack = ring.order.unpack, ring.order.pack

    def monomials_of_degree(k):
        for exps in product(range(k + 1), repeat=ring.nvars):
            if sum(exps) == k:
                yield exps

    rows = []
    for g in gens:
        if g.is_zero():
            continue
        assert is_homogeneous(g)
        dg = g.total_degree()
        if dg > d:
            continue
        for m in monomials_of_degree(d - dg):
            shifted = {}
            for key, c in g.terms.items():
                e = tuple(a + b for a, b in zip(unpack(key), m))
                shifted[pack(e)] = c
            rows.append(shifted)

    cols = sorted({k for row in rows for k in row} | set(f.terms), reverse=True)
    col_index = {k: i for i, k in enumerate(cols)}
    matrix = []
    for row in rows:
        vec = [0] * len(cols)
        for k, c in row.items():
            vec[col_index[k]] = c
        matrix.append(vec)
    target = [0] * len(cols)
    for k, c in f.terms.items():
        target[col_index[k]] = c

    # row reduce [matrix | target is solvable] over GF(p)
    pivots = {}
    for vec in matrix:
        vec = vec[:]
        for col, pivot_row in pivots.items():
            if vec[col]:
                factor = vec[col]
                vec = [(a - factor * b) % p for a, b in zip(vec, pivot_row)]
        lead = next((i for i, a in enumerate(vec) if a), None)
        if lead is not None:
            inv = pow(vec[lead], p - 2, p)
            pivots[lead] = [(a * inv) % p for a in vec]
    for col, pivot_row in pivots.items():
        if target[col]:
            factor = target[col]
            target = [(a - factor * b) % p for a, b in zip(target, pivot_row)]
    return not any(target)


# -- reference division ------------------------------------------------------------


def reference_normal_form(f: Polynomial, basis, certificate: bool = False):
    """The lazy-deletion heap division that groebner.normal_form
    replaced: same divisor choice (first divisor in ascending
    leading-monomial order, index breaking ties), exponent tuples for
    divisibility, one heap entry per push with stale entries skipped,
    and the ring's coefficient methods for every term."""
    items = list(basis)
    ring = f.ring
    for b in items:
        if b.ring != ring:
            raise ContextMismatch("basis element from a different ring")

    # scan order: ascending leading monomial, original index breaks ties
    table = []
    unpack = ring.order.unpack
    for i, b in enumerate(items):
        if b.is_zero():
            continue
        lmk = b.leading_key()
        table.append((lmk, i, unpack(lmk), ring.field._vinv(b.terms[lmk]), b.terms))
    table.sort(key=lambda t: (t[0], t[1]))

    cneg, cmul = ring.field._vneg, ring.field._vmul
    off = ring.order.offset
    acc = dict(f.terms)
    heap = [-k for k in acc]
    heapq.heapify(heap)
    rem: dict = {}
    cof: Optional[list] = [{} for _ in items] if certificate else None
    guard = mpoly.TERM_GUARD
    pushes = len(heap)

    while heap:
        key = -heapq.heappop(heap)
        c = acc.pop(key, None)
        if c is None:
            continue            # stale heap entry
        exps = unpack(key)
        hit = None
        for lmk, i, lme, lcinv, bterms in table:
            if lmk > key:
                break           # monomial order refines divisibility
            ok = True
            for a, bb in zip(exps, lme):
                if a < bb:
                    ok = False
                    break
            if ok:
                hit = (lmk, i, lcinv, bterms)
                break
        if hit is None:
            rem[key] = c
            continue
        lmk, i, lcinv, bterms = hit
        factor = cmul(c, lcinv)
        shift = key - lmk
        for kb, cb in bterms.items():
            if kb == lmk:
                continue
            k2 = kb + shift
            delta = cneg(cmul(factor, cb))
            cur = acc.get(k2)
            if cur is None:
                acc[k2] = delta
                heapq.heappush(heap, -k2)
                pushes += 1
                if pushes > guard:
                    raise ResourceLimit(f"reduction exceeded {guard} terms")
            else:
                s = coeff_sum(ring, cur, delta)
                if s is None:
                    del acc[k2]
                else:
                    acc[k2] = s
        if certificate:
            qk = key - lmk + off
            ci = cof[i]
            cur = ci.get(qk)
            if cur is None:
                ci[qk] = factor
            else:
                s = coeff_sum(ring, cur, factor)
                if s is None:
                    del ci[qk]
                else:
                    ci[qk] = s

    remainder = Polynomial(ring, rem)
    if not certificate:
        return remainder
    cofactors = [Polynomial(ring, d) for d in cof]
    return MembershipCertificate(f, items, cofactors, remainder)


# -- exponent search ----------------------------------------------------------------


def reference_exponent_search(n: int, q: int) -> frozenset:
    """The loop that fsing.theorem_exponent_search(prune=False) replaced:
    every (a_1, ..., a_{2n-1}) with a_1 <= q-2 and a_i <= q-1 for i >= 2,
    one Python-level weighted sum per tuple, kept when the sum is
    q^{2n} - 1."""
    m = 2 * n - 1
    target = q ** (2 * n) - 1
    weights = [q ** i + 1 for i in range(1, m + 1)]
    sols = set()
    for a1 in range(q - 1):
        head = a1 * weights[0]
        for rest in product(range(q), repeat=m - 1):
            tot = head + sum(a * wt for a, wt in zip(rest, weights[1:]))
            if tot == target:
                sols.add((a1,) + rest)
    return frozenset(sols)


# -- Dickson invariants from the defining product ---------------------------------


def dickson_product_tree(n: int, q_spec: FieldSpec) -> list:
    """Oracle: expand the defining product over all q^n linear forms.

    Exponential in n; guarded by TREE_CAP.  Returns the same list as
    dickson_invariants, over GF(p), after checking that every
    coefficient of the product collapses into the prime field.
    """
    q = q_spec.order
    if q ** n > TREE_CAP:
        raise ResourceLimit(f"q^n = {q ** n} exceeds oracle cap {TREE_CAP}")
    ring = xring(q_spec, n)
    gens = ring.gens()

    # one factor per vector: T - (v . x), held as {T-degree: coefficient}
    factors = []
    for idx in product(range(q), repeat=n):
        ell = ring.zero
        for i, vi in enumerate(idx):
            coeff = q_spec.from_index(vi)
            if coeff:
                ell = ell + gens[i] * coeff
        f = {1: ring.one}
        if ell:
            f[0] = -ell
        factors.append(f)

    while len(factors) > 1:
        nxt = []
        for i in range(0, len(factors) - 1, 2):
            nxt.append(_tmul(factors[i], factors[i + 1]))
        if len(factors) % 2:
            nxt.append(factors[-1])
        factors = nxt
    poly_in_t = factors[0]

    expected = {q ** k for k in range(n + 1)}
    if set(poly_in_t) != expected:
        raise AssertionError("product is not q-linearized")
    prime_ring = xring(field(q_spec.p), n)
    out = []
    for i in range(n):
        coeff_poly = poly_in_t.get(q ** i, ring.zero)
        # (-1)^(n-i) c_i is the T^(q^i) coefficient
        ci = _demote(coeff_poly, prime_ring)
        if (n - i) % 2 == 1:
            ci = -ci
        out.append(ci)
    assert _demote(poly_in_t[q ** n], prime_ring) == prime_ring.one
    return out


def _tmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, fa in a.items():
        for db, fb in b.items():
            d = da + db
            prod = fa * fb
            cur = out.get(d)
            out[d] = prod if cur is None else cur + prod
    return {d: f for d, f in out.items() if not f.is_zero()}


def _demote(f: Polynomial, prime_ring: PolyRing) -> Polynomial:
    """Extension-coefficient polynomial whose coefficients are constants,
    rewritten over the prime field."""
    F = f.ring.field
    for rep in f.terms.values():
        if any(F.coeffs(rep)[1:]):
            raise AssertionError("coefficient does not lie in the prime field")
    return Polynomial(prime_ring, dict(f.terms))


# -- symplectic forms and random group elements ---------------------------------------


def transpose(M: MatrixGF) -> MatrixGF:
    return MatrixGF(M.spec, tuple(zip(*M.rows)))


def symplectic_form(spec: FieldSpec, n: int) -> MatrixGF:
    """Block-diagonal J with 2x2 blocks [[0, 1], [-1, 0]]."""
    size = 2 * n
    rows = [[0] * size for _ in range(size)]
    for k in range(n):
        rows[2 * k][2 * k + 1] = 1
        rows[2 * k + 1][2 * k] = -1
    return MatrixGF.from_rows(spec, rows)


def is_symplectic(M: MatrixGF) -> bool:
    if M.n % 2:
        return False
    J = symplectic_form(M.spec, M.n // 2)
    return transpose(M) * J * M == J


def symplectic_transvection(spec: FieldSpec, n: int, v: Sequence, lam) -> MatrixGF:
    """I - lam * v (v^T J): fixes the hyperplane orthogonal to v."""
    size = 2 * n
    J = symplectic_form(spec, n)
    vv = [spec.element(x) for x in v]
    if len(vv) != size:
        raise UsageError("vector has the wrong dimension")
    lam = spec.element(lam)
    vtj = [sum((vv[k] * J.rows[k][j] for k in range(size)), spec.zero)
           for j in range(size)]
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            x = spec.one if i == j else spec.zero
            row.append(x - lam * vv[i] * vtj[j])
        rows.append(tuple(row))
    return MatrixGF(spec, tuple(rows))


def random_symplectic(spec: FieldSpec, n: int, rng, factors: int = 12) -> MatrixGF:
    """Product of random symplectic transvections (they generate Sp_2n)."""
    size = 2 * n
    M = identity_matrix(spec, size)
    for _ in range(factors):
        while True:
            v = [spec.random_element(rng) for _ in range(size)]
            if any(v):
                break
        lam = spec.random_element(rng)
        M = M * symplectic_transvection(spec, n, v, lam)
    assert is_symplectic(M)
    return M


def is_invertible(M: MatrixGF) -> bool:
    return bool(M.det())


def apply_point(M: MatrixGF, point: Sequence) -> tuple:
    """Matrix-vector product; prime-field entries act on points of any
    extension of the same characteristic."""
    if len(point) != M.n:
        raise UsageError("dimension mismatch")
    L = point[0].spec
    if M.spec.e == 1:
        if L.p != M.spec.p:
            raise ContextMismatch("characteristic mismatch")
        return tuple(sum((a.rep * x for a, x in zip(row, point) if a.rep),
                         L.zero) for row in M.rows)
    if L != M.spec:
        raise ContextMismatch("extension matrices act on their own field")
    return tuple(sum((a * x for a, x in zip(row, point)), L.zero)
                 for row in M.rows)


def random_invertible(spec: FieldSpec, n: int, rng) -> MatrixGF:
    while True:
        M = MatrixGF(spec, tuple(tuple(spec.random_element(rng) for _ in range(n))
                                 for _ in range(n)))
        if is_invertible(M):
            return M


# -- elimination through a block order ------------------------------------------------


def eliminate(gens: Sequence[Polynomial], k: int):
    """Groebner basis of the ideal's k-th elimination ideal.

    Recomputes the basis under a block order whose first block holds the
    k variables to eliminate, keeps the elements free of them, and
    returns (subring, polynomials) over the remaining variables.
    """
    ring = gens[0].ring
    if not 1 <= k < ring.nvars:
        raise UsageError(f"can eliminate 1..{ring.nvars - 1} variables, got {k}")
    block_ring = PolyRing(ring.field, ring.names, ("block", k))
    gb = buchberger([change_ring(g, block_ring) for g in gens])
    sub = PolyRing(ring.field, ring.names[k:], "grevlex")
    unpack = block_ring.order.unpack
    out = []
    for b in gb.elements:
        exps = [unpack(key) for key in b.terms]
        if all(not any(e[:k]) for e in exps):
            out.append(Polynomial(sub, {sub.order.pack(e[k:]): c
                                        for e, c in zip(exps, b.terms.values())}))
    return sub, out


# -- mutation controls ------------------------------------------------------------------


def mutated_c0_terms(q: int, rng: random.Random):
    """A single random corruption of the stored q = 3 expression: one
    sign flip or one exponent changed by +-1.  (Over GF(2) sign flips
    are vacuous, so only q = 3 is supported.)"""
    if q != 3:
        raise UsageError("mutation control is defined for q = 3")
    terms = [[c, list(e)] for c, e in C0_XI_TERMS[q]]
    k = rng.randrange(len(terms))
    if rng.random() < 0.5:
        terms[k][0] = -terms[k][0]
    else:
        while True:
            j = rng.randrange(3)
            delta = rng.choice((-1, 1))
            if terms[k][1][j] + delta >= 0:
                terms[k][1][j] += delta
                break
    return tuple((c, tuple(e)) for c, e in terms)
