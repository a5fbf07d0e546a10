"""Sparse multivariate polynomials over finite fields.

Terms are stored as a dict mapping packed integer keys to nonzero
coefficients.  Keys are packed so that the natural integer ordering of
keys coincides with the ring's monomial order, and so that monomial
multiplication is key addition up to a constant offset.  This keeps the
hot paths (merging, leading-term lookup, heap reduction) on machine
integers.

Every order has one key layout: a run of grevlex blocks, most
significant first (grevlex is one block, block(k) two, lex one per
variable), with one 28 bit field per variable.  A key is affine in the
exponents, key = offset + sum a_i * TermOrder.steps[i], so a product's
key is a sum of keys less offset and a Frobenius power's key is
offset + p^m (key - offset).  Per-variable exponents are capped at
EXP_CAP and term counts during multiplication at TERM_GUARD; both are
module-level and may be adjusted.  pack refuses an exponent at or above
the cap, and so does every product (checked once per product from the
two factors' degrees) and every Frobenius power, so exponents stay far
below the 28 bit boundary and no key wraps silently.  TermOrder.fields
turns a key into plain exponent fields with a free guard bit on top of
each, which makes divisibility one subtraction and one mask.

Coefficients live in GF(p^e) and are stored as the field's nonzero
packed ints (gf), so a GF(p) coefficient is an int in [1, p), and a
prime-field coefficient is the same int in every extension, with no
copy, wherever gf.check_embedding admits it.  Every sum
or difference of term dicts (+, -, substitute, and the parsers'
repeated monomials) goes through _merge, in place.  substitute expands
f as nested sums over the variables in ring order, so each group of
terms that shares the exponents of x_0..x_i costs one product by a
memoized power of x_i's image, not one product chain per term.

Over GF(p), a product runs by Kronecker substitution (_kronecker) when
both factors are homogeneous, it has at least DENSE_FLOOR term pairs,
the smaller factor has at least _DENSE_MIN terms per variable, and the
packing, sliced on one variable, takes at most _DENSE_SPAN slots per
term pair.  The packing is then sliced on more variables until each
slice fits _SLOT_TARGET slots, so that a lopsided product multiplies
many small, well filled slices instead of a few mostly empty ones.
Slicing changes how a packed product is laid out, never whether it
is packed.  All slices are read back at once: while w byte slots keep
w p < 256, byte j of each slot maps through x 256^j mod p (one translate
per byte lane, as gf reduces byte slots), the lanes add as ints, and one
more translate leaves each slot's residue; wider primes reduce per slot.
Only nonzero residues get a key.  Every other product, and every product
over GF(p^e) with e > 1, runs the schoolbook loop; over GF(p) that loop
is _accumulate, which groebner's staged division shares.  check_product
runs before either path, and TERM_GUARD trips at the same count on both:
the packed path counts nonzero slots, the schoolbook keys, before
reduction.  Every square goes through _sqr, which
in characteristic 2 is the termwise Frobenius map and otherwise the
general product.  __pow__ and substitute build every power by halving
in _power, which squares only through _sqr.
"""

from __future__ import annotations

import re
from array import array
from functools import reduce
from itertools import compress
from math import gcd, prod
from operator import mul, or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ContextMismatch, ResourceLimit, UsageError
from .gf import (_SWAP, FieldElement, FieldSpec, _poly_text, check_embedding,
                 slot_typecode)

EXP_CAP = 1 << 20
TERM_GUARD = 10 ** 7
# Below these, unpacking each term and reading back each slot costs
# more than the bigint multiply saves.
DENSE_FLOOR = 2000
_DENSE_MIN = 2
_DENSE_SPAN = 8
# Slices of at most this many slots multiply fastest (512 to 4,096 were
# within 5% on the Dickson and certificate products).
_SLOT_TARGET = 2048
# the packed read-back's table of nonzero bytes and scan for them
_NONZERO = bytes([0] + [1] * 255)
_HIT = re.compile(b"[^\\0]")

_W = 28
_M = 1 << 27
_FMASK = (1 << _W) - 1

_ORDER_KINDS = ("grevlex", "lex", "block")


class TermOrder:
    """Monomial order realized as an order isomorphism into the integers.

    Every order is a run of grevlex blocks of consecutive variables, most
    significant first: grevlex is one block of n, block(k) blocks of k
    and n - k, lex n blocks of one.  A block on x_s..x_t holds the fields
    [a_s + ... + a_t][M - a_t]...[M - a_{s+1}], most significant first,
    with bias M = 2^27, so a one-variable block is the exponent itself.
    Keys compare block by block, each by grevlex, which gives block(k)
    the elimination property for the first block.

    A key is affine in the exponents: key = offset + sum a_i * steps[i],
    with offset the biases alone and steps[i] the key of x_i less
    offset.
    """

    __slots__ = ("kind", "n", "block", "steps", "offset", "guard", "_pos",
                 "_heads", "_blocks", "_degmask")

    def __init__(self, kind: str, n: int, block: int = 0):
        if kind not in _ORDER_KINDS:
            raise UsageError(f"unknown order {kind!r}")
        if n < 1:
            raise UsageError("need at least one variable")
        if kind == "block" and not 1 <= block < n:
            raise UsageError(f"block size {block} must be in [1, {n})")
        self.kind = kind
        self.n = n
        self.block = block if kind == "block" else 0
        sizes = ((n,) if kind == "grevlex" else (block, n - block)
                 if kind == "block" else (1,) * n)
        # per variable: the bit offset of its field (a block's first
        # variable reads the block's total degree field) and, for a
        # block's first variable, the block's (top, low, mask, bias)
        pos, steps, heads = [], [], []
        low = _W * n
        for m in sizes:
            low -= _W * m
            top = low + _W * (m - 1)
            rest = [low + _W * t for t in range(m - 1)]
            pos += [top] + rest
            steps += [1 << top] + [(1 << top) - (1 << s) for s in rest]
            heads += [(top, low, (1 << (top - low)) - 1, _ones(m - 1) * _M)]
            heads += [None] * (m - 1)
        self._pos, self.steps, self._heads = pos, tuple(steps), heads
        self._blocks = [h for h in heads if h]
        self.offset = sum(bias << low for _, low, _, bias in self._blocks)
        self._degmask = sum(_FMASK << h[0] for h in self._blocks)
        # bit 27 of every field: free, since fields() values stay below it
        self.guard = self.every_field(_M)

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != self.n:
            raise UsageError(f"expected {self.n} exponents, got {len(exps)}")
        cap = EXP_CAP
        for a in exps:
            if not 0 <= a < cap:
                raise ResourceLimit(f"exponent {a} outside [0, {cap})")
        return self.offset + sum(map(mul, exps, self.steps))

    def unpack(self, key: int) -> tuple:
        f = self.fields(key)
        return tuple([(f >> s) & _FMASK for s in self._pos])

    def columns(self, keys: list) -> list:
        """unpack of many keys at once: column i lists exponent i of
        each key."""
        return [self.column(keys, i) for i in range(self.n)]

    def column(self, keys: list, i: int) -> list:
        """Exponent i of each key: columns(keys)[i] without the others."""
        head = self._heads[i]
        if head is None:
            s = self._pos[i]
            return [_M - ((k >> s) & _FMASK) for k in keys]
        top, low, mask, bias = head
        # the block's other exponents sum to less than 2^28 - 1, and
        # 2^28 = 1 mod 2^28 - 1
        return [((k >> top) & _FMASK) - (bias - ((k >> low) & mask)) % _FMASK
                for k in keys]

    def every_field(self, v: int) -> int:
        """v in each of the n exponent fields."""
        return _ones(self.n) * v

    def fields(self, key: int) -> int:
        """key's exponents as plain 28 bit fields, in place of the block
        fields: a block on x_s..x_t becomes [a_s][a_t]...[a_{s+1}].
        With G = self.guard and A, B the fields of a and b, b divides a
        iff ((A | G) - B) & G == G: every field keeps its own borrow."""
        out = 0
        for top, low, mask, bias in self._blocks:
            rest = bias - ((key >> low) & mask)     # no borrows
            out |= ((((key >> top) & _FMASK) - rest % _FMASK) << top) | (rest << low)
        return out

    def check_product(self, a: dict, b: dict) -> None:
        """Raise ResourceLimit when the product of two nonzero
        polynomials with these key sets has an exponent of EXP_CAP or
        more.  Over a field deg_i(fg) = deg_i(f) + deg_i(g), so the
        factors decide it.  A bound from each block's total degree
        field (the first block's read from max(keys)) settles the usual
        case; only past it are the factors' keys unpacked."""
        cap = EXP_CAP
        top = self._blocks[0][0]
        if (max(a) >> top) + (max(b) >> top) < cap and all(
                max((k >> t) & _FMASK for k in a) + max((k >> t) & _FMASK for k in b) < cap
                for t, _, _, _ in self._blocks[1:]):
            return
        da = list(map(max, self.columns(list(a))))
        db = list(map(max, self.columns(list(b))))
        if any(x + y >= cap for x, y in zip(da, db)):
            raise ResourceLimit(f"product exponent reaches {cap}")

    def total_degree_of(self, key: int) -> int:
        # the blocks' total degree fields, summed mod 2^28 - 1
        return (key & self._degmask) % _FMASK

    def __eq__(self, other):
        return (isinstance(other, TermOrder) and self.kind == other.kind
                and self.n == other.n and self.block == other.block)

    def __hash__(self):
        return hash((self.kind, self.n, self.block))

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.block})"
        return self.kind


def _ones(m: int) -> int:
    """1 in each of m fields."""
    return ((1 << (_W * m)) - 1) // _FMASK


def _valid_name(name: str) -> bool:
    if not name or name == "g":
        return False
    if not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


class PolyRing:
    """A polynomial ring: coefficient field, variable names, term order.

    The name 'g' is reserved for the extension field generator.
    """

    __slots__ = ("field", "names", "order", "_gens", "_index")

    def __init__(self, field_spec: FieldSpec, names: Sequence[str], order="grevlex"):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError("duplicate variable names")
        for nm in names:
            if not _valid_name(nm):
                raise UsageError(f"invalid variable name {nm!r}")
        if isinstance(order, TermOrder):
            if order.n != len(names):
                raise UsageError("order arity does not match variable count")
        elif isinstance(order, tuple):
            order = TermOrder("block", len(names), block=order[1])
        else:
            order = TermOrder(order, len(names))
        self.field = field_spec
        self.names = names
        self.order = order
        self._index = {nm: i for i, nm in enumerate(names)}
        self._gens = None

    @property
    def nvars(self) -> int:
        return len(self.names)

    # -- coefficient normalization -------------------------------------------

    def _coeff(self, value):
        """Canonical internal coefficient, or None for zero."""
        F = self.field
        if isinstance(value, FieldElement):
            check_embedding(value.spec, F)
            return value.rep or None
        if isinstance(value, int):
            return value % F.p or None
        if isinstance(value, tuple) and F.e > 1:
            return F.element(value).rep or None
        raise UsageError(f"cannot use {value!r} as a coefficient")

    # -- construction ----------------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        return self.monomial((0,) * self.nvars, value)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Polynomial":
        return self.from_terms({tuple(exps): coeff})

    def gens(self) -> tuple:
        if self._gens is None:
            out = []
            for i in range(self.nvars):
                e = [0] * self.nvars
                e[i] = 1
                out.append(self.monomial(e))
            self._gens = tuple(out)
        return self._gens

    def gen(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, str):
            if name_or_index not in self._index:
                raise UsageError(f"no variable named {name_or_index!r}")
            return self.gens()[self._index[name_or_index]]
        return self.gens()[name_or_index]

    def from_terms(self, mapping) -> "Polynomial":
        terms: dict = {}
        pack = self.order.pack
        for exps, coeff in mapping.items():
            c = self._coeff(coeff)
            if c is not None:
                # distinct exponent tuples never share a key
                terms[pack(exps)] = c
        return Polynomial(self, terms)

    # -- identity ---------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.field == other.field
                and self.names == other.names and self.order == other.order)

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.names)}; {self.order!r}]"


class Polynomial:
    """Immutable sparse polynomial; do not mutate .terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        tdeg = self.ring.order.total_degree_of
        return max(tdeg(k) for k in self.terms)

    def leading_key(self) -> int:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_exponents(self) -> tuple:
        return self.ring.order.unpack(self.leading_key())

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self._times(self.ring.field._vinv(self.terms[self.leading_key()]))

    def scale(self, c) -> "Polynomial":
        cc = self.ring._coeff(c)
        if cc is None:
            return Polynomial(self.ring, {})
        return self._times(cc)

    def _times(self, cc: int) -> "Polynomial":
        """Every coefficient times the nonzero internal coefficient cc."""
        vmul = self.ring.field._vmul
        return Polynomial(self.ring, {k: vmul(v, cc) for k, v in self.terms.items()})

    # -- ring operations -----------------------------------------------------------

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ContextMismatch("operands from different rings")
            return other
        if isinstance(other, (int, FieldElement)):
            return self.ring.constant(other)
        return NotImplemented

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        big, small = (self.terms, o.terms)
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        _merge(out, small, self.ring.field)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        vneg = self.ring.field._vneg
        return Polynomial(self.ring, {k: vneg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        out = dict(self.terms)
        _merge(out, o.terms, self.ring.field, -1)
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.scale(other)
        o = self._check(other)
        if o is NotImplemented:
            return o
        return _mul(self, o)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """f^k by halving (_power): f^k is the square of f^(k//2), times
        f when k is odd; the squarings go through _sqr."""
        if k < 0:
            raise UsageError("negative polynomial power")
        if k == 0:
            return self.ring.one
        # refuse before squaring; every product is checked as well
        if self.terms and _max_exponent(self) * k >= EXP_CAP:
            raise ResourceLimit(
                f"power {k} would push exponents past {EXP_CAP}")
        return _power(self, k, {})

    def __eq__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    __hash__ = None

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, point: Sequence[FieldElement]) -> FieldElement:
        """Evaluate at a point with coordinates in one field L, into
        which the coefficients must embed (gf.check_embedding)."""
        ring = self.ring
        if len(point) != ring.nvars:
            raise UsageError(f"expected {ring.nvars} coordinates")
        L = point[0].spec
        for x in point:
            if x.spec != L:
                raise ContextMismatch("point coordinates from different fields")
        check_embedding(ring.field, L)
        unpack = ring.order.unpack
        vmul, vadd, vpow = L._vmul, L._vadd, L._vpow
        caches: list[dict] = [{} for _ in range(ring.nvars)]
        reps = [x.rep for x in point]
        total = 0
        for key, acc in self.terms.items():
            exps = unpack(key)
            for i, a in enumerate(exps):
                if a:
                    cache = caches[i]
                    pa = cache.get(a)
                    if pa is None:
                        pa = vpow(reps[i], a)
                        cache[a] = pa
                    acc = vmul(acc, pa)
            total = vadd(total, acc)
        return FieldElement(L, total)

    # -- text -------------------------------------------------------------------------

    def text(self) -> str:
        """Canonical text form: terms descending in the ring order."""
        if not self.terms:
            return "0"
        ring = self.ring
        keys = sorted(self.terms, reverse=True)
        # per variable, each distinct exponent's factor text is built once
        factors = []
        for nm, col in zip(ring.names, ring.order.columns(keys)):
            shown = {a: nm if a == 1 else f"{nm}^{a}" for a in set(col) if a}
            factors.append([shown.get(a) for a in col])
        terms = self.terms
        parts = []
        for k, row in zip(keys, zip(*factors)):
            mono = "*".join(filter(None, row))
            ctxt = _coeff_text(ring, terms[k])
            if not mono:
                parts.append(ctxt)
            elif ctxt == "1":
                parts.append(mono)
            else:
                parts.append(ctxt + "*" + mono)
        return "+".join(parts)

    def __str__(self):
        return self.text()

    def __repr__(self):
        t = self.text()
        if len(t) > 120:
            t = t[:117] + "..."
        return f"<{t}>"


def _coeff_text(ring: PolyRing, c: int) -> str:
    # a constant is below p; any other element has a slot above the first
    if c < ring.field.p:
        return str(c)
    return "(" + _poly_text(ring.field.coeffs(c)) + ")"


def _merge(out: dict, terms: dict, field: FieldSpec, sign: int = 1) -> None:
    """out += terms (sign 1) or out -= terms (sign -1) in place, over
    the coefficient field; keys that cancel are deleted.  Over GF(p) one
    loop negates and reduces inline with % p; over GF(p^e) a difference
    reads terms through a negating map, and red reduces a sum of two
    coefficients."""
    get = out.get
    if field.e == 1:
        p, neg = field.p, sign < 0
        for k, c in terms.items():
            cur = get(k)
            if cur is None:
                out[k] = p - c if neg else c
            else:
                s = (cur - c if neg else cur + c) % p
                if s:
                    out[k] = s
                else:
                    del out[k]
        return
    items = terms.items()
    if sign < 0:
        items = zip(terms, map(field._vneg, terms.values()))
    red = field._mod
    for k, c in items:
        cur = get(k)
        if cur is None:
            out[k] = c
        else:
            s = red(cur + c)
            if s:
                out[k] = s
            else:
                del out[k]


def _kronecker(order: TermOrder, p: int, at: dict, bt: dict) -> Optional[dict]:
    """at * bt over GF(p), or None where the path does not apply.  Past
    a gcd per variable, a first slice variable (fewest exponent pairs)
    and a dropped one (the widest, fixed by homogeneity) decide the
    gate.  Then more variables are sliced, fewest exponent pairs first,
    while the packed box is above _SLOT_TARGET slots and more than one
    variable is left to pack.  Those are packed in mixed radix, digit
    max_a + max_b + 1, into slots holding min(len a, len b) products
    below p^2: no digit or slot carries.  A key is affine in the
    exponents, so it is a base, a slice offset (a step per sliced
    exponent, additive over a product) and a slot step.  All output
    slices are reduced mod p in one pass, by byte lanes while width * p
    < 256; TERM_GUARD counts nonzero slots before it."""
    la, lb = len(at), len(bt)
    if la * lb < DENSE_FLOOR or min(la, lb) < _DENSE_MIN * order.n:
        return None
    tc = slot_typecode(min(la, lb) * (p - 1) ** 2)
    ca, cb = order.columns(list(at)), order.columns(list(bt))
    dega, degb = set(map(sum, zip(*ca))), set(map(sum, zip(*cb)))
    if tc is None or len(dega) > 1 or len(degb) > 1:
        return None
    axes = []       # (key step, gcd, a's and b's exponents / gcd, digit)
    for i, (xa, xb) in enumerate(zip(ca, cb)):
        g = gcd(*xa, *xb)
        if g:
            xa, xb = [x // g for x in xa], [x // g for x in xb]
            axes.append((order.steps[i], g, xa, xb, max(xa) + max(xb) + 1))
    axes.sort(key=lambda v: len(set(v[2])) * len(set(v[3])))
    cuts = [axes.pop(0)] if len(axes) > 2 else []
    drop = max(axes, key=lambda v: v[4])
    axes.remove(drop)
    box = prod(v[4] for v in axes)
    if prod(len(set(v[2])) * len(set(v[3])) for v in cuts) * box > _DENSE_SPAN * la * lb:
        return None
    while box > _SLOT_TARGET and len(axes) > 1:
        cuts.append(axes.pop(0))
        box //= cuts[-1][4]
    oa, ob = [0] * la, [0] * lb     # slice offset of each term
    for key, g, xa, xb, _ in cuts:
        step = g * (key - drop[0])
        oa = [o + step * x for o, x in zip(oa, xa)]
        ob = [o + step * x for o, x in zip(ob, xb)]
    ia, ib, steps = [0] * la, [0] * lb, [0]   # slot of each term, key step of each slot
    for key, g, xa, xb, digit in axes:
        w = len(steps)
        ia = [i + w * x for i, x in zip(ia, xa)]
        ib = [i + w * x for i, x in zip(ib, xb)]
        steps = [x * g * (key - drop[0]) + s for x in range(digit) for s in steps]
    width = array(tc).itemsize
    nbytes = box * width
    pa = _pack_slices(tc, nbytes, oa, ia, at.values())
    pb = pa if at is bt else _pack_slices(tc, nbytes, ob, ib, bt.values())
    sums: dict = {}
    for j, (ka, A) in enumerate(pa):
        # a square forms each product of two distinct slices once, doubled
        for kb, B in pb[j:] if pb is pa else pb:
            sums[ka + kb] = sums.get(ka + kb, 0) + (A * B << (pb is pa and kb != ka))
    base = order.offset + (dega.pop() + degb.pop()) * drop[0]
    kbase = [base + k for k in sums]
    data = b"".join([P.to_bytes(nbytes, "little") for P in sums.values()])
    if width * p < 256:
        # lane j holds byte j of every slot; through x 256^j mod p the
        # lanes add as ints without a carry, and one translate reduces
        lanes = [data[j::width] for j in range(width)]
        found = reduce(or_, [int.from_bytes(x.translate(_NONZERO), "little")
                             for x in lanes]).bit_count()
        res = sum(int.from_bytes(x.translate(bytes(c * 256 ** j % p for c in range(256))),
                                 "little") for j, x in enumerate(lanes))
        res = res.to_bytes(len(lanes[0]), "little").translate(bytes(c % p for c in range(256)))
        hit = [m.start() for m in _HIT.finditer(res)]
    else:
        vals = array(tc, data)
        if _SWAP:
            vals.byteswap()
        found = len(vals) - vals.count(0)
        res = [v % p for v in vals]
        hit = compress(range(len(res)), res)
    # all coefficients are positive: a nonzero slot is one schoolbook key
    if found > TERM_GUARD:
        raise ResourceLimit(f"product exceeds {TERM_GUARD} terms")
    return {kbase[g // box] + steps[g % box]: res[g] for g in hit}


def _pack_slices(tc: str, nbytes: int, offsets: list, index: list, coeffs) -> list:
    """(slice offset, int) per slice, each coefficient in its slot."""
    slices: dict = {}
    for k, i, c in zip(offsets, index, coeffs):
        if k not in slices:
            slices[k] = array(tc, bytes(nbytes))
        slices[k][i] = c
    if _SWAP:
        for vals in slices.values():
            vals.byteswap()
    return [(k, int.from_bytes(vals, "little")) for k, vals in slices.items()]


def _accumulate(acc: dict, a: dict, b: dict, off: int) -> None:
    """acc[ka + kb - off] += ca * cb for every term pair of two GF(p)
    term dicts, as unreduced ints; the shorter dict (a on a tie) is the
    outer loop, and TERM_GUARD is checked on acc once per outer term."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    guard = TERM_GUARD
    for k1, c1 in a.items():
        base = k1 - off
        for k2, c2 in b.items():
            k = base + k2
            acc[k] = get(k, 0) + c1 * c2
        if len(acc) > guard:
            raise ResourceLimit(f"product exceeds {guard} terms")


def _mul(a: Polynomial, b: Polynomial) -> Polynomial:
    ring = a.ring
    if len(a.terms) > len(b.terms):
        a, b = b, a
    if not a.terms or not b.terms:
        return Polynomial(ring, {})
    ring.order.check_product(a.terms, b.terms)
    off = ring.order.offset
    bt = b.terms
    guard = TERM_GUARD
    if ring.field.e == 1:
        p = ring.field.p
        out = _kronecker(ring.order, p, a.terms, bt)
        if out is not None:
            return Polynomial(ring, out)
        acc: dict = {}
        _accumulate(acc, a.terms, bt, off)
        out = {}
        for k, v in acc.items():
            v %= p
            if v:
                out[k] = v
        return Polynomial(ring, out)
    F = ring.field
    vmul, vadd = F._vmul, F._vadd
    acc = {}
    for k1, c1 in a.terms.items():
        base = k1 - off
        for k2, c2 in bt.items():
            k = base + k2
            prod = vmul(c1, c2)
            cur = acc.get(k)
            acc[k] = prod if cur is None else vadd(cur, prod)
        if len(acc) > guard:
            raise ResourceLimit(f"product exceeds {guard} terms")
    out = {k: v for k, v in acc.items() if v}
    return Polynomial(ring, out)


def _sqr(f: Polynomial) -> Polynomial:
    """f * f.  In characteristic 2 the cross terms vanish and the square
    is the termwise Frobenius map; otherwise it is the general product."""
    if f.ring.field.p == 2:
        return frobenius_power(f, 1)
    return _mul(f, f)


def _power(f: Polynomial, k: int, memo: dict) -> Polynomial:
    """f^k for k >= 1 by halving (Knuth, TAOCP vol. 2, sec. 4.6.3): the
    square of f^(k//2), through _sqr, times f when k is odd.  memo maps
    exponents to powers of f already built and keeps each one built."""
    got = memo.get(k)
    if got is None:
        if k == 1:
            got = f
        else:
            got = _sqr(_power(f, k // 2, memo))
            if k % 2:
                got = _mul(got, f)
        memo[k] = got
    return got


def _max_exponent(f: Polynomial) -> int:
    """The largest exponent of a nonzero f."""
    return max(map(max, f.ring.order.columns(list(f.terms))))


def frobenius_power(f: Polynomial, m: int) -> Polynomial:
    """f^(p^m), computed termwise: in characteristic p the map x -> x^p
    is additive, so exponents scale by p^m and coefficients are raised
    to the p^m-th power (a no-op over the prime field).  A key is affine
    in the exponents, so scaling them is offset + p^m (key - offset)."""
    if m < 0:
        raise UsageError("negative Frobenius power")
    if m == 0:
        return f
    ring = f.ring
    q = ring.field.p ** m
    if f.terms and _max_exponent(f) * q >= EXP_CAP:
        raise ResourceLimit(f"Frobenius power {q} would push exponents past {EXP_CAP}")
    off = ring.order.offset
    if ring.field.e == 1:
        return Polynomial(ring, {off + q * (k - off): c for k, c in f.terms.items()})
    vfrob = ring.field._vfrob
    return Polynomial(ring, {off + q * (k - off): vfrob(c, m) for k, c in f.terms.items()})


def substitute(f: Polynomial, images: dict) -> Polynomial:
    """Ring map determined by name -> polynomial images, over a field
    that f's coefficients embed into (gf.check_embedding), as nested
    sums over the ring's variables in order (the multivariate Horner
    scheme): f is the sum over a of x_0^a f_a, each f_a in x_1, x_2, ...
    is substituted the same way, and its image is multiplied once by the
    image of x_0 to the a.  The sums are formed innermost first, so
    inner terms cancel before they meet the large outer powers, and a
    sum that cancels to zero is multiplied by nothing.  Powers of each
    image are built by _power with one memo per image, so every power
    is computed once."""
    ring = f.ring
    target = None
    for g in images.values():
        target = g.ring
        break
    if target is None:
        raise UsageError("empty image map")
    check_embedding(ring.field, target.field)
    imgs = []
    for name in ring.names:
        if name not in images:
            raise UsageError(f"no image for variable {name!r}")
        imgs.append(images[name])
    memos: list = [{} for _ in imgs]

    # sums: exponents e of x_0..x_i -> the sum of f's terms that have
    # them, with x_{i+1}, ... substituted; folding x_i in drops e[i]
    cols = ring.order.columns(list(f.terms))
    sums = {e: {target.order.offset: c} for e, c in zip(zip(*cols), f.terms.values())}
    for i in reversed(range(len(imgs))):
        outer: dict = {}
        for e, inner in sums.items():
            if e[i] and inner:
                power = _power(imgs[i], e[i], memos[i])
                inner = (Polynomial(target, inner) * power).terms
            got = outer.setdefault(e[:i], inner)
            if got is not inner:
                _merge(got, inner, target.field)
        sums = outer
    return Polynomial(target, sums.get((), {}))


def random_points(L: FieldSpec, nvars: int, rng, count: int) -> Iterator[tuple]:
    """count points of L^nvars drawn uniformly from rng, coordinate by
    coordinate.  The draws are lazy: a caller that stops early draws
    nothing more."""
    for _ in range(count):
        yield tuple(L.random_element(rng) for _ in range(nvars))


def sample_sides(points: Iterable[tuple], sides: Callable):
    """Evaluate sides(P) = (lhs, rhs) at each point in turn, stopping at
    the first point that separates them.  Returns (points used, lhs
    values, rhs values, index of the separating point or None)."""
    used, lhs, rhs = [], [], []
    for k, P in enumerate(points):
        lv, rv = sides(P)
        used.append(P)
        lhs.append(lv)
        rhs.append(rv)
        if lv != rv:
            return used, lhs, rhs, k
    return used, lhs, rhs, None
