"""Constructions of classical modular invariants.

Dickson invariants of the full linear group, the xi family for the
symplectic group, elementary symmetric polynomials with the Vandermonde
determinant for the alternating group, and exact matrix machinery over
finite fields for invariance checks: apply_matrix substitutes linear
forms over the matrix field, into which GF(p) coefficients embed.

The Dickson invariants c_0, ..., c_{n-1} of GL_n(F_q) are defined by

    prod over v in the F_q-span of x_1..x_n of (T - v)
        = T^(q^n) - c_{n-1} T^(q^{n-1}) + ... + (-1)^n c_0 T,

so c_i is (-1)^(n-i) times the coefficient of T^(q^i).  They are built
by the additive recursion

    f_0(T) = T,    f_j(T) = f_{j-1}(T)^q - f_{j-1}(X_j)^(q-1) f_{j-1}(T),

whose coefficients stay in the prime field at every step.

Each construction is written once, over hooks (one, zero, add, sub, mul,
pow, frob) with frob(x, k) = x^(q^k), and read two ways: as polynomials
(dickson_invariants, symplectic_xi, symplectic_relation_sides), or as
values at a point (dickson_at_point, symplectic_xi_value,
symplectic_relation_values) on packed ints through the kernels of the
point's field, so the two readings cannot drift apart.
"""

from __future__ import annotations

import operator
from itertools import combinations, combinations_with_replacement
from math import prod
from typing import Optional, Sequence

from .errors import ContextMismatch, UsageError
from .gf import FieldElement, FieldSpec, field
from .mpoly import Polynomial, PolyRing, frobenius_power, substitute


def xring(spec: FieldSpec, n: int) -> PolyRing:
    return PolyRing(spec, [f"x{i}" for i in range(1, n + 1)], "grevlex")


# ---------------------------------------------------------------------------
# Construction bodies, shared by both readings
# ---------------------------------------------------------------------------


def _log_p(p: int, q: int) -> int:
    """s with q = p^s."""
    s, r = 0, 1
    while r < q:
        s, r = s + 1, r * p
    if r != q:
        raise UsageError(f"q = {q} is not a power of the characteristic {p}")
    return s


def _poly_ops(ring: PolyRing, q: int) -> tuple:
    """The hooks on polynomials over ring: operators, termwise Frobenius."""
    s = _log_p(ring.field.p, q)
    return (ring.one, ring.zero, operator.add, operator.sub, operator.mul,
            operator.pow, lambda f, k: frobenius_power(f, s * k))


def _point_ops(point: Sequence[FieldElement], q: int):
    """(L, packed ints, hooks on L's kernels) for a point in one field L."""
    L = point[0].spec
    if any(x.spec != L for x in point):
        raise ContextMismatch("point coordinates from different fields")
    s, vfrob = _log_p(L.p, q), L._vfrob
    return L, [x.rep for x in point], (
        1, 0, L._vadd, L._vsub, L._vmul, L._vpow, lambda a, k: vfrob(a, s * k))


def _dickson(xs: Sequence, q: int, ops: tuple) -> list:
    """c_0, ..., c_{n-1} of xs by the additive recursion."""
    one, zero, add, sub, mul, pw, frob = ops
    n = len(xs)
    # b[k] = coefficient of T^(q^k) in f_j
    b = [one]
    for j in range(1, n + 1):
        xj = xs[j - 1]
        fx = zero
        for k in range(j):
            fx = add(fx, mul(b[k], frob(xj, k)))
        u = pw(fx, q - 1)
        nb = []
        for k in range(j + 1):
            term = frob(b[k - 1], 1) if k >= 1 else zero
            if k < j:
                term = sub(term, mul(u, b[k]))
            nb.append(term)
        b = nb
    assert b[n] == one
    return [b[i] if (n - i) % 2 == 0 else sub(zero, b[i]) for i in range(n)]


def _xi(xs: Sequence, i: int, ops: tuple):
    """sum over pairs of X_{2k-1} X_{2k}^(q^i) - X_{2k} X_{2k-1}^(q^i)."""
    _, acc, add, sub, mul, _, frob = ops
    for k in range(len(xs) // 2):
        a, b = xs[2 * k], xs[2 * k + 1]
        acc = sub(add(acc, mul(a, frob(b, i))), mul(b, frob(a, i)))
    return acc


def _relation_sides(m: int, i: int, c: Sequence, xi: Sequence, ops: tuple):
    """Both sides of the i-th relation from c_0..c_{m-1} and
    xi_1..xi_{m-1} (index shifted by one); it reads xi up to
    xi_max(i, m - i) only."""
    _, zero, add, sub, mul, _, frob = ops
    lhs = zero
    for j in range(i):
        term = mul(frob(xi[i - j - 1], j), c[j])
        lhs = (add if j % 2 == 0 else sub)(lhs, term)
    rhs = zero
    for j in range(i + 1, m + 1):
        xi_part = frob(xi[j - i - 1], i)
        term = mul(xi_part, c[j]) if j < m else xi_part
        rhs = (add if j % 2 == 0 else sub)(rhs, term)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Dickson invariants
# ---------------------------------------------------------------------------


def dickson_invariants(n: int, q_spec: FieldSpec,
                       ring: Optional[PolyRing] = None) -> list:
    """c_0, ..., c_{n-1} for GL_n(F_q), as polynomials over GF(p)."""
    if n < 1:
        raise UsageError("need n >= 1")
    if ring is None:
        ring = xring(field(q_spec.p), n)
    elif ring.nvars != n:
        raise UsageError("ring has the wrong number of variables")
    q = q_spec.order
    return _dickson(ring.gens(), q, _poly_ops(ring, q))


def dickson_at_point(point: Sequence[FieldElement], q: int) -> list:
    """Values c_0(P), ..., c_{n-1}(P) by running the recursion on packed
    field ints; nothing is materialized."""
    L, xs, ops = _point_ops(point, q)
    return [FieldElement(L, c) for c in _dickson(xs, q, ops)]


# ---------------------------------------------------------------------------
# Symplectic invariants
# ---------------------------------------------------------------------------


def symplectic_xi(ring: PolyRing, q: int, i: int) -> Polynomial:
    """xi_i = sum over pairs (X_{2k-1} X_{2k}^(q^i) - X_{2k} X_{2k-1}^(q^i));
    an Sp_{2n}(F_q) invariant of degree q^i + 1."""
    if ring.nvars % 2:
        raise UsageError("symplectic constructions need evenly many variables")
    if i < 1:
        raise UsageError("xi index starts at 1")
    return _xi(ring.gens(), i, _poly_ops(ring, q))


def symplectic_xi_value(point: Sequence[FieldElement], q: int, i: int) -> FieldElement:
    L, xs, ops = _point_ops(point, q)
    return FieldElement(L, _xi(xs, i, ops))


def symplectic_relation_sides(ring: PolyRing, q_spec: FieldSpec, i: int,
                              dicksons: Sequence[Polynomial],
                              xis: Sequence[Polynomial]):
    """Materialized sides of the i-th Carlisle-Kropholler relation

        sum_{j=0}^{i-1} (-1)^j xi_{i-j}^(q^j) c_j
            = sum_{j=i+1}^{2n} (-1)^j xi_{j-i}^(q^i) c_j,   c_{2n} = 1,

    for 1 <= i <= n-1.  dicksons lists c_0..c_{2n-1}; xis lists
    xi_1..xi_{2n-1} (index shifted by one).
    """
    m = ring.nvars              # 2n
    if not 1 <= i <= m // 2 - 1:
        raise UsageError(f"relation index must be in [1, {m // 2 - 1}]")
    return _relation_sides(m, i, dicksons, xis, _poly_ops(ring, q_spec.order))


def symplectic_relation_values(point: Sequence[FieldElement], q: int, i: int):
    """The two sides of the i-th relation at one point, from packed c and xi."""
    m = len(point)
    L, xs, ops = _point_ops(point, q)
    xi = [_xi(xs, k, ops) for k in range(1, max(i, m - i) + 1)]
    sides = _relation_sides(m, i, _dickson(xs, q, ops), xi, ops)
    return tuple(FieldElement(L, v) for v in sides)


def relation_side_degrees(q: int, m: int, i: int):
    """Total degrees of the two relation sides; deg c_j = q^m - q^j and
    deg xi_k = q^k + 1."""
    lhs = max(q ** j * (q ** (i - j) + 1) + (q ** m - q ** j) for j in range(i))
    rhs_terms = []
    for j in range(i + 1, m + 1):
        d = q ** i * (q ** (j - i) + 1)
        if j < m:
            d += q ** m - q ** j
        rhs_terms.append(d)
    return lhs, max(rhs_terms)


# ---------------------------------------------------------------------------
# Matrices over finite fields
# ---------------------------------------------------------------------------


class MatrixGF:
    """Small dense matrix with FieldElement entries."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows: tuple):
        self.spec = spec
        self.rows = rows

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows) -> "MatrixGF":
        n = len(rows)
        out = []
        for row in rows:
            if len(row) != n:
                raise UsageError("matrix must be square")
            out.append(tuple(spec.element(x) for x in row))
        return cls(spec, tuple(out))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, MatrixGF) and self.spec == other.spec
                and self.rows == other.rows)

    def __mul__(self, other: "MatrixGF") -> "MatrixGF":
        if not isinstance(other, MatrixGF):
            return NotImplemented
        if other.spec != self.spec or other.n != self.n:
            raise ContextMismatch("matrix shapes or fields differ")
        n = self.n
        cols = list(zip(*other.rows))
        rows = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = self.spec.zero
                for a, b in zip(r, c):
                    acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return MatrixGF(self.spec, tuple(rows))

    def det(self) -> FieldElement:
        n = self.n
        m = [list(r) for r in self.rows]
        det = self.spec.one
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return self.spec.zero
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det = det * m[col][col]
            inv = m[col][col].inverse()
            for r in range(col + 1, n):
                if m[r][col]:
                    f = m[r][col] * inv
                    for c in range(col, n):
                        m[r][c] = m[r][c] - f * m[col][c]
        return det

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"<matrix {self.n}x{self.n} over {self.spec}: {body}>"


def apply_matrix(f: Polynomial, M: MatrixGF) -> Polynomial:
    """Substitute X_j -> sum_k M[k][j] X_k in a ring over the matrix
    field, into which f's coefficients must embed (substitute)."""
    if M.n != f.ring.nvars:
        raise UsageError("matrix size does not match the variable count")
    ring = PolyRing(M.spec, f.ring.names, f.ring.order)
    gens = ring.gens()
    images = {}
    for j, name in enumerate(ring.names):
        form = ring.zero
        for k in range(ring.nvars):
            entry = M.rows[k][j]
            if entry:
                form = form + gens[k] * entry
        images[name] = form
    return substitute(f, images)


# ---------------------------------------------------------------------------
# Alternating group ingredients
# ---------------------------------------------------------------------------


def _monomial_sum(ring: PolyRing, combos) -> Polynomial:
    """The sum of prod(X_v for v in combo) over the distinct combos
    (a repeated v raises its exponent); the empty combo gives 1."""
    terms = {}
    for comb in combos:
        e = [0] * ring.nvars
        for v in comb:
            e[v] += 1
        terms[tuple(e)] = 1
    return ring.from_terms(terms)


def elementary_symmetric(ring: PolyRing, k: int) -> Polynomial:
    n = ring.nvars
    if not 0 <= k <= n:
        raise UsageError(f"e_k needs 0 <= k <= {n}")
    return _monomial_sum(ring, combinations(range(n), k))


def truncated_monomial_sum(ring: PolyRing, i: int, j: int) -> Polynomial:
    """T_j^i: the sum of all monomials of degree i in X_j, ..., X_n
    (variables indexed from 1)."""
    n = ring.nvars
    if not 1 <= j <= n:
        raise UsageError(f"j must be in [1, {n}]")
    if i < 0:
        raise UsageError("degree must be nonnegative")
    return _monomial_sum(ring, combinations_with_replacement(range(j - 1, n), i))


def vandermonde_rows(ring: PolyRing) -> list:
    """The linear factors of the Vandermonde by rows: row j - 2 holds
    X_j - X_i for i = 1..j-1, for j = 2..n."""
    gens = ring.gens()
    return [[gens[j] - gens[i] for i in range(j)] for j in range(1, ring.nvars)]


def vandermonde(ring: PolyRing) -> Polynomial:
    """prod over i < j of (X_j - X_i), the alternating group's extra
    invariant, multiplied row by row."""
    return prod((f for row in vandermonde_rows(ring) for f in row), start=ring.one)


def staircase_monomial(ring: PolyRing, i: int) -> Polynomial:
    """X_i^i * prod_{r=i+1}^{n} X_r^{r-1}, for 1 <= i <= n."""
    n = ring.nvars
    if not 1 <= i <= n:
        raise UsageError(f"i must be in [1, {n}]")
    e = [0] * n
    e[i - 1] = i
    for r in range(i + 1, n + 1):
        e[r - 1] = r - 1
    return ring.monomial(e)
