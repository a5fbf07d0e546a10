"""Groebner bases, ideal membership with certificates, and Frobenius
closure searches.

normal_form runs a heap-driven multivariate division.  The pending terms
sit in a dict keyed by packed monomial, and their keys in a max-heap.
Every key a reduction step adds is strictly smaller than the key it
cancels, so no key is pushed twice: a key enters the heap when it first
enters the dict, and its coefficient is read once, when it is popped.
The heap thus holds only the distinct keys touched, with no stale
entries.  Over GF(p) the dict holds unreduced ints, reduced mod p at the
pop, where a zero is skipped; extension-field coefficients use the
field's own vector arithmetic.  Each divisor carries its tail as (key
shift, negated coefficient) pairs.  Divisibility, here and in
buchberger's chain criterion and autoreduction, is one subtraction and
mask on TermOrder.fields.  A reduction whose exponents reach EXP_CAP,
or whose dict passes TERM_GUARD keys, raises ResourceLimit.  Divisors
are chosen deterministically: the first element whose leading monomial
divides, scanning the basis in ascending leading monomial order (index
breaking ties), so quotients and remainders are those of the textbook
division.

buchberger uses the normal selection strategy (smallest lcm first) with
the coprimality and chain criteria, then autoreduces, so the returned
basis is the unique reduced Groebner basis of the ideal: monic elements,
sorted ascending by leading monomial.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional, Sequence

from . import mpoly
from .errors import ContextMismatch, ResourceLimit, UsageError
from .mpoly import Polynomial, PolyRing, frobenius_power

PAIR_GUARD = 10 ** 6


class MembershipCertificate:
    """An exact witness for a division: target = sum(cofactor_i * basis_i)
    + remainder.  check() re-multiplies everything and compares."""

    __slots__ = ("target", "basis", "cofactors", "remainder")

    def __init__(self, target: Polynomial, basis: Sequence[Polynomial],
                 cofactors: Sequence[Polynomial], remainder: Polynomial):
        if len(basis) != len(cofactors):
            raise UsageError("one cofactor per basis element")
        self.target = target
        self.basis = tuple(basis)
        self.cofactors = tuple(cofactors)
        self.remainder = remainder

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


def _basis_list(basis) -> list:
    if isinstance(basis, GroebnerBasis):
        return list(basis.elements)
    return list(basis)


def normal_form(f: Polynomial, basis, certificate: bool = False):
    """Remainder of f under division by basis; with certificate=True,
    returns a MembershipCertificate whose cofactors align with the basis
    as given."""
    items = _basis_list(basis)
    ring = f.ring
    for b in items:
        if b.ring != ring:
            raise ContextMismatch("basis element from a different ring")
    order = ring.order
    fields = order.fields
    F = ring.field
    prime = F.e == 1
    p = F.p

    # scan order: ascending leading monomial, original index breaks ties;
    # a reduction by entry i adds factor * nb at key + d for (d, nb) in tail
    table = []
    for i, b in enumerate(items):
        if b.is_zero():
            continue
        lmk = b.leading_key()
        tail = [(kb - lmk, ring._cneg(cb)) for kb, cb in b.terms.items() if kb != lmk]
        table.append((lmk, i, fields(lmk), ring._cinv(b.terms[lmk]), tail))
    table.sort(key=lambda t: t[:2])

    G = order.guard
    caps = order.every_field(mpoly.EXP_CAP)
    off = order.offset
    acc = dict(f.terms)         # prime field: unreduced ints
    get = acc.get
    heap = [-k for k in acc]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    vmul, vadd = F._vmul, F._vadd
    rem: dict = {}
    cof: Optional[list] = [{} for _ in items] if certificate else None
    guard = mpoly.TERM_GUARD

    while heap:
        key = -pop(heap)
        c = acc[key]
        if prime:
            c %= p
            if not c:
                continue
        elif not any(c):
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
        if prime:
            factor = c * lcinv % p
            for d, nb in tail:
                k2 = key + d
                cur = get(k2)
                if cur is None:
                    acc[k2] = factor * nb
                    push(heap, -k2)
                else:
                    acc[k2] = cur + factor * nb
        else:
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
        if certificate:
            # each key is popped once, so a quotient term is never revisited
            cof[i][key - lmk + off] = factor

    remainder = Polynomial(ring, rem)
    if not certificate:
        return remainder
    cofactors = [Polynomial(ring, d) for d in cof]
    return MembershipCertificate(f, items, cofactors, remainder)


class GroebnerBasis:
    """Reduced Groebner basis: monic elements in ascending leading
    monomial order."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: PolyRing, elements: tuple):
        self.ring = ring
        self.elements = elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.ring == other.ring
                and self.elements == other.elements)

    def leading_exponents(self) -> list:
        return [b.leading_exponents() for b in self.elements]

    def __repr__(self):
        return f"<groebner basis, {len(self.elements)} elements>"


def _lcm_key(ring: PolyRing, ka: int, kb: int) -> int:
    ea = ring.order.unpack(ka)
    eb = ring.order.unpack(kb)
    return ring.order._pack_raw(tuple(max(a, b) for a, b in zip(ea, eb)))


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    kf, kg = f.leading_key(), g.leading_key()
    lcm = _lcm_key(ring, kf, kg)
    off = ring.order.offset
    mf = Polynomial(ring, {lcm - kf + off: ring._cinv(f.terms[kf])})
    mg = Polynomial(ring, {lcm - kg + off: ring._cinv(g.terms[kg])})
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
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}
    processed = 0

    while pending:
        i, j = min(pending, key=lambda ij: (_lcm_key(ring, lm[ij[0]], lm[ij[1]]),
                                            ij[0], ij[1]))
        pending.discard((i, j))
        processed += 1
        if processed > PAIR_GUARD:
            raise ResourceLimit(f"more than {PAIR_GUARD} S-pairs")
        lcm = _lcm_key(ring, lm[i], lm[j])
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
        pending.update((t, new) for t in range(new))

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
        cert = normal_form(f, gb.elements, certificate=True)
        return cert.is_member, cert
    return normal_form(f, gb.elements).is_zero()


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
        cert = normal_form(target, gb.elements, certificate=True)
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

