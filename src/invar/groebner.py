"""Groebner bases, ideal membership with certificates, and Frobenius
closure searches.

normal_form divides by one of two paths with the same quotients and
remainder.  A GroebnerBasis that is triangular over GF(p) under grevlex,
such as the reduced basis {h_k(x_k..x_n)} of (e_1..e_n), is divided one
element at a time by _divide_staged: the pending terms are grouped by
the exponent of the element's leading variable, walked downward, and
each group becomes quotient terms in one pass, with no heap and no
divisor scan.  Both
paths write f = sum q_i b_i + r with every term of LM(b_i) q_i in cell i
(the monomials whose first divisor is b_i) and no term of r in any cell.
That decomposition is unique, so the two paths agree term for term (the
argument is in _divide_staged's docstring).  A GroebnerBasis makes its
division plan (the stages, or None) once and keeps it with its
elements' texts.

Every other division runs the heap loop, _divide_heap, and so does every
plain sequence of divisors, such as buchberger's S-pair reductions and
autoreduction.  The pending terms sit in a dict keyed by packed
monomial, and their keys in a max-heap.  Every key a reduction step adds is strictly smaller than the
key it cancels, so no key is pushed twice: a key enters the heap when it
first enters the dict, and its coefficient is read once, when it is
popped.  The heap thus holds only the distinct keys touched, with no
stale entries.  Coefficients, in any field, are the field's packed
ints, combined by its _vadd and _vmul, and a key whose coefficient
cancels to zero is skipped at its pop.  Each divisor carries its tail
as (key shift, negated coefficient) pairs.  Divisibility, here and in
buchberger's chain criterion and autoreduction, is one subtraction and
mask on TermOrder.fields.  A reduction whose exponents reach EXP_CAP,
or whose dict passes TERM_GUARD keys, raises ResourceLimit; the staged
path checks its live term count after each step.  Divisors are chosen
deterministically: the first element whose leading monomial divides,
scanning the basis in ascending leading monomial order (index breaking
ties), so quotients and remainders are those of the textbook division.

normal_form_of_product reduces a product factor by factor modulo a
GroebnerBasis.  The order matters: the Vandermonde modulo (e_1..e_7)
over GF(7), the last variable's row (X_7 - X_i) first, then X_6's and
so on, peaks at 20 terms, and in the product order at 469.

buchberger uses the normal selection strategy (smallest lcm first) with
the coprimality and chain criteria, then autoreduces, so the returned
basis is the unique reduced Groebner basis of the ideal: monic elements,
sorted ascending by leading monomial.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import mpoly
from .errors import ContextMismatch, ResourceLimit, UsageError
from .mpoly import Polynomial, PolyRing, frobenius_power

PAIR_GUARD = 10 ** 6


class MembershipCertificate:
    """An exact witness for a division: target = sum(cofactor_i * basis_i)
    + remainder.  check() re-multiplies everything and compares."""

    __slots__ = ("target", "basis", "cofactors", "remainder", "_gb")

    def __init__(self, target: Polynomial, basis: Sequence[Polynomial],
                 cofactors: Sequence[Polynomial], remainder: Polynomial):
        if len(basis) != len(cofactors):
            raise UsageError("one cofactor per basis element")
        self.target = target
        self.basis = tuple(basis)
        self.cofactors = tuple(cofactors)
        self.remainder = remainder
        self._gb = basis if isinstance(basis, GroebnerBasis) else None

    def basis_texts(self) -> Sequence[str]:
        return self._gb.texts if self._gb else [b.text() for b in self.basis]

    @property
    def is_member(self) -> bool:
        return self.remainder.is_zero()

    def check(self) -> bool:
        acc = self.remainder
        for h, b in zip(self.cofactors, self.basis):
            acc = acc + h * b
        return acc == self.target

    def __repr__(self):
        verdict = "member" if self.is_member else "non-member"
        return f"<certificate: {verdict}, {len(self.basis)} basis elements>"


def normal_form(f: Polynomial, basis, certificate: bool = False):
    """Remainder of f under division by basis; with certificate=True,
    returns a MembershipCertificate whose cofactors align with the basis
    as given.  A GroebnerBasis with a plan (GroebnerBasis.plan) is
    divided by _divide_staged when f's total degree is below EXP_CAP;
    every other division, a plain sequence's included, runs
    _divide_heap.  Both give the textbook quotients and remainder, so a
    caller who wants the staged path for a list wraps it in a
    GroebnerBasis."""
    planned = isinstance(basis, GroebnerBasis)
    items = basis.elements if planned else list(basis)
    ring = f.ring
    for b in items:
        if b.ring != ring:
            raise ContextMismatch("basis element from a different ring")
    cof: Optional[list] = [{} for _ in items] if certificate else None
    stages = basis.plan if planned else None
    # a plan means grevlex, whose division never raises the total
    # degree, so below the cap no exponent on either path can reach it
    if (stages is not None and f.terms
            and ring.order.total_degree_of(max(f.terms)) < mpoly.EXP_CAP):
        rem = _divide_staged(ring, f.terms, stages, cof)
    else:
        rem = _divide_heap(ring, f.terms, items, cof)
    remainder = Polynomial(ring, rem)
    if not certificate:
        return remainder
    cofactors = [Polynomial(ring, d) for d in cof]
    return MembershipCertificate(f, basis if planned else items, cofactors, remainder)


def normal_form_of_product(factors, gb: GroebnerBasis) -> Polynomial:
    """normal_form(prod(factors), gb) as NF(NF(f) g), reduced after each
    factor and stopped at zero: the remainder modulo a Groebner basis is
    unique (Cox, Little and O'Shea, ch. 2 sec. 6)."""
    if not isinstance(gb, GroebnerBasis):
        raise UsageError("normal_form_of_product needs a GroebnerBasis")
    acc = normal_form(gb.ring.one, gb)
    for f in factors:
        if acc.is_zero():
            break
        acc = normal_form(acc * f, gb)
    return acc


def _divide_heap(ring: PolyRing, terms: dict, items: list,
                 cof: Optional[list]) -> dict:
    """The remainder of terms under division by items, by the heap loop;
    quotient terms go into cof[i] when cof is given."""
    order = ring.order
    fields = order.fields
    F = ring.field

    # scan order: ascending leading monomial, original index breaks ties;
    # a reduction by entry i adds factor * nb at key + d for (d, nb) in tail
    table = []
    for i, b in enumerate(items):
        if b.is_zero():
            continue
        lmk = b.leading_key()
        tail = [(kb - lmk, F._vneg(cb)) for kb, cb in b.terms.items() if kb != lmk]
        table.append((lmk, i, fields(lmk), F._vinv(b.terms[lmk]), tail))
    table.sort(key=lambda t: t[:2])

    G = order.guard
    caps = order.every_field(mpoly.EXP_CAP)
    off = order.offset
    acc = dict(terms)
    get = acc.get
    heap = [-k for k in acc]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    vmul, vadd = F._vmul, F._vadd
    rem: dict = {}
    guard = mpoly.TERM_GUARD

    while heap:
        key = -pop(heap)
        c = acc[key]
        if not c:
            continue
        ag = fields(key) | G
        if (ag - caps) & G:
            raise ResourceLimit(f"reduction exponent reaches {mpoly.EXP_CAP}")
        hit = None
        for entry in table:
            if entry[0] > key:
                break           # monomial order refines divisibility
            if (ag - entry[2]) & G == G:
                hit = entry
                break
        if hit is None:
            rem[key] = c
            continue
        lmk, i, _, lcinv, tail = hit
        factor = vmul(c, lcinv)
        for d, nb in tail:
            k2 = key + d
            cur = get(k2)
            if cur is None:
                acc[k2] = vmul(factor, nb)
                push(heap, -k2)
            else:
                acc[k2] = vadd(cur, vmul(factor, nb))
        if len(acc) > guard:
            raise ResourceLimit(f"reduction exceeded {guard} terms")
        if cof is not None:
            # each key is popped once, so a quotient term is never revisited
            cof[i][key - lmk + off] = factor
    return rem


def _triangular(ring: PolyRing, items: Sequence[Polynomial]) -> Optional[list]:
    """The stages of _divide_staged when the nonzero items form a
    triangular basis, else None.  Triangular: every leading monomial is
    a pure power x_v^a (a >= 1), no two use the same variable, and in
    ascending leading-monomial order no element contains the variable
    of an earlier element's leading monomial (which covers the second
    rule: a lead in an earlier lead's variable contains it).  A stage is
    (index, v, a, leading key, inverse leading coefficient, tail), with
    the tail's negated terms grouped by x_v exponent as
    [(t, {key: coefficient})]."""
    order = ring.order
    p = ring.field.p
    stages = []
    done: list = []             # variables of earlier leading monomials
    for lmk, i in sorted((b.leading_key(), i) for i, b in enumerate(items) if b.terms):
        lme = order.unpack(lmk)
        powers = [v for v, a in enumerate(lme) if a]
        terms = items[i].terms
        keys = list(terms)
        if len(powers) != 1 or any(any(order.column(keys, u)) for u in done):
            return None
        v = powers[0]
        tails: dict = {}
        for k, t in zip(keys, order.column(keys, v)):
            if k != lmk:
                tails.setdefault(t, {})[k] = p - terms[k]
        stages.append((i, v, lme[v], lmk, ring.field._vinv(terms[lmk]),
                       sorted(tails.items())))
        done.append(v)
    return stages


def _divide_staged(ring: PolyRing, terms: dict, stages: list,
                   cof: Optional[list]) -> dict:
    """The remainder of terms under division by a triangular basis over
    GF(p), one stage (basis element) at a time in ascending leading
    monomial order; quotient terms go into cof[i] when cof is given.

    A stage with leading monomial x_v^a groups the pending terms by
    their x_v exponent and walks it downward from the top to a.  Each
    group becomes quotient terms (coefficient over the leading
    coefficient) in one pass, and quotient * tail is added into lower
    groups by the schoolbook accumulation of _mul: a tail term t has
    deg_v t < a, since x_v^a dividing t would put t above x_v^a in any
    monomial order, so each product term has a lower x_v exponent than
    the term it cancels and a group is complete when it is reached.
    The terms below a, kept in one dict, pass reduced mod p to the next
    stage.

    Why the result is the heap division's, term for term.  A later
    element contains no earlier leading variable, and the quotient of m
    by x_v^a keeps m's other exponents, so no stage recreates a power
    that an earlier stage removed; a stage reduces exactly the terms
    divisible by its x_v^a and by no earlier leading monomial, which
    are the terms the first-divisor rule gives it, and the last stage
    leaves no term divisible by any leading monomial.  So both paths
    write f = sum q_i b_i + r with supp(LM(b_i) q_i) inside cell i (the
    monomials whose first divisor is b_i) and no term of r in any cell.
    That decomposition is unique.  Subtract two of them: 0 = sum (q_i -
    q'_i) b_i + (r - r').  The monomials LM(q_i - q'_i) LM(b_i) lie in
    distinct cells and the terms of r - r' in none, so the largest
    monomial among them occurs in exactly one summand, and every other
    summand's terms lie below its own leading monomial: nothing cancels
    it, so every difference is zero (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2 sec. 3)."""
    order = ring.order
    p, off = ring.field.p, order.offset
    guard = mpoly.TERM_GUARD
    pending = terms
    for i, v, a, lmk, lcinv, tails in stages:
        col = order.column(list(pending), v)
        top = max(col, default=0)
        if top < a:
            continue
        rest = {}               # x_v exponent below a: done at this stage
        groups: dict = {}
        for (k, c), e in zip(pending.items(), col):
            if e < a:
                rest[k] = c
            else:
                groups.setdefault(e, {})[k] = c
        live = len(pending)
        for e in range(top, a - 1, -1):
            group = groups.pop(e, None)
            if group is None:
                continue
            live -= len(group)
            q = {}
            for k, c in group.items():
                c %= p
                if c:
                    q[k - lmk + off] = c * lcinv % p
            for t, tail in tails:
                low = rest if e - a + t < a else groups.setdefault(e - a + t, {})
                live -= len(low)
                mpoly._accumulate(low, tail, q, off)
                live += len(low)
            if live > guard:
                raise ResourceLimit(f"reduction exceeded {guard} terms")
            if cof is not None:
                cof[i].update(q)
        pending = {}
        for k, c in rest.items():
            c %= p
            if c:
                pending[k] = c
    return dict(pending)


class GroebnerBasis:
    """Reduced Groebner basis: monic elements in ascending leading
    monomial order; immutable, so its kept plan and texts stay valid."""

    def __init__(self, ring: PolyRing, elements: tuple):
        self.__dict__.update(ring=ring, elements=tuple(elements))

    def __setattr__(self, name, value):
        raise AttributeError("a GroebnerBasis is immutable")

    @cached_property
    def plan(self) -> Optional[list]:
        """_triangular's stages for the elements under grevlex over
        GF(p), else None; normal_form stages no other division."""
        ring = self.ring
        if ring.order.kind != "grevlex" or ring.field.e > 1:
            return None
        return _triangular(ring, self.elements)

    @cached_property
    def texts(self) -> tuple:
        return tuple(b.text() for b in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.ring == other.ring
                and self.elements == other.elements)

    def __repr__(self):
        return f"<groebner basis, {len(self.elements)} elements>"


def _lcm_key(ring: PolyRing, ka: int, kb: int) -> int:
    order = ring.order
    return order.pack(list(map(max, order.unpack(ka), order.unpack(kb))))


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    kf, kg = f.leading_key(), g.leading_key()
    lcm = _lcm_key(ring, kf, kg)
    off = ring.order.offset
    inv = ring.field._vinv
    mf = Polynomial(ring, {lcm - kf + off: inv(f.terms[kf])})
    mg = Polynomial(ring, {lcm - kg + off: inv(g.terms[kg])})
    return mf * f - mg * g


def buchberger(gens: Sequence[Polynomial]) -> GroebnerBasis:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise UsageError("no nonzero generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ContextMismatch("generators from different rings")

    fields, G = ring.order.fields, ring.order.guard
    basis = [g.monic() for g in gens]
    lm = [b.leading_key() for b in basis]
    # each pending pair with the key of its leading monomials' lcm
    pending = {(i, j): _lcm_key(ring, lm[i], lm[j])
               for j in range(len(basis)) for i in range(j)}
    processed = 0

    while pending:
        lcm, i, j = min((lcm, i, j) for (i, j), lcm in pending.items())
        del pending[i, j]
        processed += 1
        if processed > PAIR_GUARD:
            raise ResourceLimit(f"more than {PAIR_GUARD} S-pairs")
        # coprime leading monomials: S-polynomial reduces to zero
        if lcm == lm[i] + lm[j] - ring.order.offset:
            continue
        # chain criterion: skip when some k divides the lcm and both
        # companion pairs are already settled
        lcm_fields = fields(lcm) | G
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if (lcm_fields - fields(lm[k])) & G == G:
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = normal_form(_spoly(basis[i], basis[j]), basis)
        if r.is_zero():
            continue
        r = r.monic()
        new = len(basis)
        basis.append(r)
        lm.append(r.leading_key())
        pending.update(((t, new), _lcm_key(ring, lm[t], lm[new])) for t in range(new))

    return GroebnerBasis(ring, tuple(_autoreduce(ring, basis)))


def _autoreduce(ring: PolyRing, basis: list) -> list:
    fields, G = ring.order.fields, ring.order.guard
    keep = []
    for b in sorted(basis, key=lambda b: b.leading_key()):
        lead = fields(b.leading_key()) | G
        if any((lead - fields(k.leading_key())) & G == G for k in keep):
            continue
        keep.append(b)
    out = []
    for i, b in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(b, others) if others else b
        out.append(r.monic())
    out.sort(key=lambda b: b.leading_key())
    return out


def ideal_member(f: Polynomial, gens, certificate: bool = False):
    """Decide f in (gens).  gens may be raw generators or a GroebnerBasis.
    With certificate=True returns (bool, MembershipCertificate) whose
    basis is the Groebner basis actually used."""
    gb = gens if isinstance(gens, GroebnerBasis) else buchberger(gens)
    if certificate:
        cert = normal_form(f, gb, certificate=True)
        return cert.is_member, cert
    return normal_form(f, gb).is_zero()


def frobenius_power_ideal(gens: Sequence[Polynomial], m: int) -> list:
    """Generators raised termwise to the p^m: generates the ideal of
    p^m-th powers of (gens), the Frobenius power."""
    return [frobenius_power(g, m) for g in gens]


class ClosureResult(NamedTuple):
    e: Optional[int]                      # smallest exponent found, or None
    certificate: Optional[MembershipCertificate]
    failures: dict                        # e -> nonzero remainder polynomial


def frobenius_closure_search(f: Polynomial, gens: Sequence[Polynomial],
                             e_max: int, fixed: Sequence[Polynomial] = ()) -> ClosureResult:
    """Smallest e in [0, e_max] with f^(p^e) in the ideal generated by
    the p^e-th powers of gens together with the fixed polynomials.

    The fixed block is never Frobenius-raised: those are relations of
    the ambient quotient ring and must enter every ideal unchanged.
    """
    if e_max < 0:
        raise UsageError("e_max must be nonnegative")
    failures: dict = {}
    for e in range(e_max + 1):
        target = frobenius_power(f, e)
        raised = frobenius_power_ideal(gens, e) + list(fixed)
        gb = buchberger(raised)
        cert = normal_form(target, gb, certificate=True)
        if cert.is_member:
            return ClosureResult(e, cert, failures)
        failures[e] = cert.remainder
    return ClosureResult(None, None, failures)


def change_ring(f: Polynomial, new_ring: PolyRing) -> Polynomial:
    """Same polynomial under a different term order (names and field
    must match)."""
    old = f.ring
    if old.field != new_ring.field or old.names != new_ring.names:
        raise ContextMismatch("change_ring only swaps the term order")
    unpack, pack = old.order.unpack, new_ring.order.pack
    return Polynomial(new_ring, {pack(unpack(k)): c for k, c in f.terms.items()})

