"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^e).

Extension fields are represented as GF(p)[g]/(modulus) with a monic
irreducible modulus chosen deterministically (lexicographically smallest,
comparing coefficients from the constant term upward), so serialized
elements are portable across runs and machines.

The arithmetic of GF(p)[g]/(f), for any monic f, is _Quotient's: each
of its three variants (GF(p), slots without tables, byte slots with
tables) is written once and bound once per field, when it is built.
FieldSpec is that ring for an irreducible f; the Rabin irreducibility
test that certifies the modulus runs on a _Quotient of the candidate.

An element is one int in _Quotient's slot layout: slot i holds the
coefficient of g^i in [0, p).  So a GF(p) element is its own value, an
int c < p is the constant c in every field, and equality is structural;
check_embedding is that rule for callers that meet two fields.  All of
it is immutable after construction and every operation is pure.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, product, repeat
from typing import Optional, Sequence

from .errors import ContextMismatch, FieldZeroDivision, ResourceLimit, UsageError

ENUM_CAP = 1 << 20
_TABLE_BYTES = 1 << 17    # slot bytes of the rows in the tables of one map

_SWAP = sys.byteorder != "little"    # array items must be little-endian


def slot_typecode(bound: int) -> Optional[str]:
    """Typecode of the narrowest 1, 2, 4 or 8 byte slot above bound, or None."""
    return next((tc for tc in "BHILQ" if bound < 1 << (8 * array(tc).itemsize)), None)


# Miller-Rabin to the first 13 prime bases decides primality for every n
# below psi_13 (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86, 2017); the 12 bases up to 37 do not, as
# psi_12 = 399165290221 * 798330580441 passes all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981        # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above psi_13, where the bases
    prove nothing, raises ResourceLimit."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ResourceLimit(f"primality is decided only below {_MR_BOUND}, not for {n}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1       # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Irreducible moduli over GF(p).
#
# A polynomial is a sequence of coefficients, constant term first.
# ---------------------------------------------------------------------------


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin test: f of degree e over GF(p) is irreducible iff
    X^{p^e} = X mod f and gcd(X^{p^{e/l}} - X, f) = 1 for every prime l | e.
    """
    f = [c % p for c in coeffs]
    while f and not f[-1]:
        f.pop()
    e = len(f) - 1
    if e < 2:
        return e == 1
    lead_inv = pow(f[-1], p - 2, p)
    ring = _Quotient(p, e, tuple(c * lead_inv % p for c in f))
    x = ring._gen
    powers = [x]                      # powers[k] = X^(p^k) mod f
    for _ in range(e):
        powers.append(ring._vfrob(powers[-1], 1))
    if powers[e] != x:
        return False
    # Now f divides X^(p^e) - X, the product of the monic irreducibles of
    # degree dividing e, each once.  So GF(p)[X]/(f) is a product of fields
    # GF(p^d) with d | e, in which every nonzero y has y^(p^e - 1) = 1:
    # h is prime to f iff h^(p^e - 1) = 1.
    n = p ** e - 1
    return all(ring._vpow(ring._vsub(powers[e // ell], x), n) == 1
               for ell in _prime_factors(e))


def find_irreducible(p: int, e: int) -> tuple:
    """The lexicographically smallest monic irreducible of degree e over
    GF(p), comparing coefficient vectors from the constant term upward.
    Returned as a full coefficient tuple of length e+1 (monic).
    """
    if not is_prime(p):
        raise UsageError(f"characteristic {p} is not prime")
    if e < 1:
        raise UsageError(f"extension degree must be >= 1, got {e}")
    if e == 1:
        return (0, 1)
    if p > ENUM_CAP:
        raise ResourceLimit(f"no modulus search over GF({p}): p exceeds "
                            f"{ENUM_CAP}; pass a modulus")
    # Candidates with constant term 0 are divisible by X, so start at 1.
    # A root skips only a reducible candidate; the scan of the p residues
    # costs O(p e) and pays off over Rabin's test only where p <= e.
    scan = range(p) if p <= e else ()
    for c0 in range(1, p):
        for tail in product(range(p), repeat=e - 1):
            f = (c0,) + tail + (1,)
            if any(_eval_poly(f, a, p) == 0 for a in scan):
                continue
            if is_irreducible(f, p):
                return f
    raise UsageError(f"no irreducible of degree {e} over GF({p})")


def _eval_poly(f: Sequence[int], a: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def _poly_text(coeffs: Sequence[int]) -> str:
    """Compact text form, descending powers: 'g^2+2*g+1'."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("g" if c == 1 else f"{c}*g")
        else:
            parts.append(f"g^{i}" if c == 1 else f"{c}*g^{i}")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Arithmetic in GF(p)[g]/(f).
# ---------------------------------------------------------------------------


class _Quotient:
    """The ring GF(p)[g]/(f) for a monic f = modulus of degree e,
    irreducible or not (modulus None is GF(p) itself, e = 1).

    An element is one int: slot i, _slot bytes wide from byte offset
    i * _slot, holds the coefficient of g^i in [0, p).  A slot is wide
    enough for e products below p^2, so a sum, a difference (against p
    in every slot) or a whole product is one int operation that carries
    nothing between slots; _mod then reduces every slot mod p, through
    one bytes.translate when slots are bytes.

    The kernels (_mod, _vadd, _vsub, _vneg, _vmul, _vpow, _vfrob) are
    closures over the ring's constants, bound once per ring to one of
    three variants, each written once: GF(p), one int operation mod p;
    slots without tables, where a product is reduced degree by degree by
    the nonzero terms of f and a^(p^k) sums each slot times its row
    g^(i p^k); byte slots with tables, where both GF(p)-linear maps look
    up runs of reduced slots (see _tables).  Only FieldSpec builds tables,
    when its slots are bytes; the Rabin test's quotient has _chunk 0.
    """

    __slots__ = ("p", "e", "order", "modulus", "_slot", "_typecode", "_chunk",
                 "_red", "_high", "_frob", "_modp", "_pones", "_gen",
                 "_mod", "_vadd", "_vsub", "_vneg", "_vmul", "_vpow", "_vfrob",
                 "_vdraw", "_vtext")

    def __init__(self, p: int, e: int, modulus: Optional[tuple]):
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = modulus
        # A product or Frobenius slot sums at most e terms below p^2.
        bound = e * (p - 1) ** 2
        self._typecode = slot_typecode(bound)
        self._slot = (array(self._typecode).itemsize if self._typecode
                      else (bound.bit_length() + 7) // 8)
        self._chunk = 0
        self._frob = {}
        self._modp = bytes(i % p for i in range(256)) if self._slot == 1 else None
        self._pones = self._pack([p] * e)
        self._gen = 1 << 8 * self._slot
        # g^e = -(m_0 + m_1 g + ... + m_{e-1} g^{e-1}), nonzero terms only
        self._red = tuple((i, (-c) % p) for i, c in enumerate(modulus[:e]) if c) if modulus else ()
        if e == 1:
            self._bind_prime()
        else:
            self._bind_slots()

    def _bind_prime(self) -> None:
        """GF(p): each kernel is one int operation mod p."""
        p = self.p
        self._mod = lambda n: n % p
        self._vadd = lambda a, b: (a + b) % p
        self._vsub = lambda a, b: (a - b) % p
        self._vneg = lambda a: -a % p
        self._vmul = lambda a, b: a * b % p
        self._vpow = lambda a, k: pow(a if k >= 0 else self._vinv(a), abs(k), p)
        self._vfrob = lambda a, k: a

    def _bind_slots(self) -> None:
        """Slots of any width without tables; byte slots reduce by translate."""
        p, e, red, frob = self.p, self.e, self._red, self._frob
        pack, unpack, modp = self._pack, self._unpack, self._modp
        if modp is None:
            def mod(n):
                return pack([c % p for c in unpack(n, e)])
        else:
            def mod(n):
                return int.from_bytes(n.to_bytes(e, "little").translate(modp), "little")
        def vmul(a, b):
            conv = unpack(a * b, 2 * e - 1)
            for i in range(2 * e - 2, e - 1, -1):
                c = conv[i] % p
                if c:
                    for j, rj in red:
                        conv[i - e + j] += c * rj
            return pack([c % p for c in conv[:e]])
        def vfrob(a, k):
            k %= e                          # in a field, k < 0 inverts the map
            if not k:
                return a
            rows = frob.get(k)
            if rows is None:
                rows = frob[k] = self._frob_rows(k)
            acc = 0
            for c, row in zip(unpack(a, e), rows):
                if c:
                    acc += c * row
            return mod(acc)
        self._bind(mod, vmul, vfrob)

    def _bind_tables(self) -> None:
        """The table kernels; _high maps the high e - 1 slots of a product.
        _vdraw (index to rep) and _vtext (rep to text), which serve from_index
        and text, look up the same runs of slots through tables built on
        first use; other fields keep the digit loop and _poly_text."""
        p, e, high, mod, modp = self.p, self.e, self._high, self._mod, self._modp
        frob = self._frob = {}
        runs = [range(s, min(s + self._chunk, e)) for s in range(0, e, self._chunk)]
        draws = texts = None
        def vmul(a, b):
            data = (a * b).to_bytes(2 * e - 1, "little").translate(modp)
            acc = int.from_bytes(data[:e], "little")
            for cut, table in high:
                acc += table[data[cut]]
            return int.from_bytes(acc.to_bytes(e, "little").translate(modp), "little")
        def vfrob(a, k):
            k %= e
            if not k:
                return a
            tables = frob.get(k)
            if tables is None:
                tables = frob[k] = self._tables(self._frob_rows(k))
            data = a.to_bytes(e, "little")
            acc = 0
            for cut, table in tables:
                acc += table[data[cut]]
            return int.from_bytes(acc.to_bytes(e, "little").translate(modp), "little")
        def vdraw(i):
            # the last run holds the lowest base-p digits of i; its table
            # maps them to the run's bytes, slot e - 1 first (big-endian)
            nonlocal draws
            if draws is None:
                draws = [(p ** len(run), [bytes(t[::-1]) for t in
                                          product(range(p), repeat=len(run))])
                         for run in reversed(runs)]
            pieces = []
            for m, table in draws:
                i, v = divmod(i, m)
                pieces.append(table[v])
            return int.from_bytes(b"".join(pieces), "big")
        def vtext(a):
            nonlocal texts
            if texts is None:
                texts = [(slice(run.start, run.stop), self._text_table(run))
                         for run in reversed(runs)]
            data = a.to_bytes(e, "little")
            return "+".join([t for cut, table in texts if (t := table[data[cut]])]) or "0"
        self._vdraw, self._vtext = vdraw, vtext
        self._bind(mod, vmul, vfrob)

    def _text_table(self, run: range) -> dict:
        """The map from a run's slot bytes to the '+'-joined _poly_text of
        its nonzero terms, highest power first, built whole by doubling."""
        table = {b"": ""}
        for j in run:
            terms = [""] + [_poly_text((0,) * j + (c,)) for c in range(1, self.p)]
            table = {key + bytes((c,)): "+".join(filter(None, (terms[c], t)))
                     for c in range(self.p) for key, t in table.items()}
        return table

    def _bind(self, mod, vmul, vfrob) -> None:
        """An extension's kernels from its variant's mod, vmul and vfrob."""
        pones = self._pones
        self._mod, self._vmul, self._vfrob = mod, vmul, vfrob
        self._vadd = lambda a, b: mod(a + b)
        self._vsub = lambda a, b: mod(a + pones - b)
        self._vneg = lambda a: mod(pones - a)
        def vpow(a, k):
            if k < 0:
                a, k = self._vinv(a), -k
            result = 1 if k == 0 else a
            for bit in bin(k)[3:]:          # the bits of k below its top one
                result = vmul(result, result)
                if bit == "1":
                    result = vmul(result, a)
            return result
        self._vpow = vpow

    def _frob_rows(self, k: int) -> list:
        """The rows g^(i p^k), i < e, of a -> a^(p^k)."""
        h = self._vpow(self._gen, self.p ** k)
        return list(accumulate(repeat(h, self.e - 1), self._vmul, initial=1))

    def _tables(self, rows: list, start: int = 0) -> tuple:
        """The map sending slot start + i to rows[i] as (cut, table) for each
        run of _chunk slots (one byte each): table maps the run's bytes c_j
        to the unreduced sum of c_j * row_j, built whole by doubling.  _chunk
        is the most slots whose combinations fit 256 entries while the
        tables of one map hold at most _TABLE_BYTES of rows."""
        k, p = self._chunk, self.p
        out = []
        for i in range(0, len(rows), k):
            table = {b"": 0}
            for row in rows[i:i + k]:
                table = {key + bytes((c,)): v + c * row
                         for c in range(p) for key, v in table.items()}
            out.append((slice(start + i, start + i + k), table))
        return tuple(out)

    def _pack(self, a: Sequence[int]) -> int:
        """Coefficients (each below 2^(8 * slot)) as one int, slot i at
        byte offset i * slot."""
        w, tc = self._slot, self._typecode
        if w == 1:
            return int.from_bytes(bytes(a), "little")
        if tc is None:
            return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a),
                                  "little")
        arr = array(tc, a)
        if _SWAP:
            arr.byteswap()
        return int.from_bytes(arr.tobytes(), "little")

    def _unpack(self, n: int, count: int) -> list:
        """The first count slots of a packed int."""
        w, tc = self._slot, self._typecode
        data = n.to_bytes(count * w, "little")
        if w == 1:
            return list(data)
        if tc is None:
            return [int.from_bytes(data[i:i + w], "little")
                    for i in range(0, count * w, w)]
        arr = array(tc)
        arr.frombytes(data)
        if _SWAP:
            arr.byteswap()
        return arr.tolist()

    def _vinv(self, a: int) -> int:
        """Inverse in a field: a^(p^e - 2)."""
        if not a:
            raise FieldZeroDivision(f"inversion of zero in {self}")
        return self._vpow(a, self.order - 2)


# ---------------------------------------------------------------------------
# Field specs and elements.
# ---------------------------------------------------------------------------


class FieldSpec(_Quotient):
    """Description of GF(p^e) together with its element arithmetic.

    The enumeration index of an element orders coefficient tuples
    lexicographically, constant coefficient most significant.
    """

    __slots__ = ("zero", "one", "gen")

    def __init__(self, p: int, e: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise UsageError(f"characteristic {p} is not prime")
        if e < 1:
            raise UsageError(f"extension degree must be >= 1, got {e}")
        if e == 1:
            modulus = None
        elif modulus is None:
            modulus = find_irreducible(p, e)    # certified by its search
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise UsageError("modulus must be monic of degree e")
            if not is_irreducible(modulus, p):
                raise UsageError("modulus is not irreducible")
        super().__init__(p, e, modulus)
        if e > 1 and self._slot == 1:
            # g^(e-1) .. g^(2e-2), reduced by _red
            rows = list(accumulate(repeat(self._gen, e - 1), self._vmul,
                                   initial=self._gen ** (e - 1)))
            # byte slots keep e * p * e <= 2 * 255^2: one-slot tables fit
            self._chunk = max(k for k in range(1, 9) if p ** k <= 256 and
                              -(-e // k) * p ** k * e <= _TABLE_BYTES)
            self._high = self._tables(rows[1:], e)
            self._bind_tables()
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.gen = FieldElement(self, self._gen) if e > 1 else None

    # -- element construction ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an integer (reduced mod p, embedded as a constant), a
        coefficient tuple (constant term first), or an element of this
        same field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ContextMismatch(f"element of {value.spec} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, value % self.p)
        if isinstance(value, tuple):
            if len(value) != self.e:
                raise UsageError(f"rep length {len(value)} != {self.e}")
            return FieldElement(self, self._pack([c % self.p for c in value]))
        raise UsageError(f"cannot coerce {value!r} into {self}")

    def coeffs(self, rep: int) -> tuple:
        """The coefficient tuple of a rep, constant term first."""
        return tuple(self._unpack(rep, self.e))

    def text(self, rep: int) -> str:
        """The text of a rep, descending powers: 'g^2+2*g+1'."""
        if self._chunk:
            return self._vtext(rep)
        return _poly_text(self.coeffs(rep))

    def from_index(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise UsageError(f"index {i} out of range for {self}")
        if self._chunk:
            return FieldElement(self, self._vdraw(i))
        digits = []
        for _ in range(self.e):
            i, d = divmod(i, self.p)
            digits.append(d)
        # the constant coefficient is the most significant digit
        return FieldElement(self, self._pack(digits[::-1]))

    def random_element(self, rng) -> "FieldElement":
        return self.from_index(rng.randrange(self.order))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):                   # the kernels are closures
        return field, (self.p, self.e, self.modulus)

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def serialize(self) -> str:
        if self.e == 1:
            return f"{self.p}^1"
        return f"{self.p}^{self.e} {_poly_text(self.modulus)}"


_SPEC_CACHE: dict = {}


def field(p: int, e: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Interned FieldSpec factory; the default modulus is deterministic.

    One instance per (p, e, modulus), whether the modulus was given
    explicitly or resolved to the default; GF(p) ignores a modulus.
    Past 32 keys (fsing's basis memo keeps 32 bases) the oldest spec goes,
    under all its keys: documents with ever new primes do not grow it.
    """
    key = (p, e, None if modulus is None or e == 1 else tuple(modulus))
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, e, modulus)
        spec = _SPEC_CACHE[key] = _SPEC_CACHE.setdefault((p, e, spec.modulus), spec)
        while len(_SPEC_CACHE) > 32:
            old = next(iter(_SPEC_CACHE.values()))
            for k in [k for k, v in _SPEC_CACHE.items() if v is old]:
                del _SPEC_CACHE[k]
    return spec


def check_embedding(F: FieldSpec, L: FieldSpec) -> None:
    """Raise ContextMismatch unless coefficients over F are elements of L,
    as the same ints: L is F, or F is GF(p) and L has characteristic p, as
    GF(p) is the prime subfield of GF(p^e) (Lidl-Niederreiter, Thm 2.6)."""
    if not (F.e == 1 and F.p == L.p or F == L):
        raise ContextMismatch(f"coefficients over {F} are not elements of {L}")


class FieldElement:
    """An element of GF(p^e): a spec plus its canonical packed int."""

    __slots__ = ("spec", "rep")

    def __init__(self, spec: FieldSpec, rep: int):
        self.spec = spec
        self.rep = rep

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise ContextMismatch(
                    f"mixed fields {self.spec} and {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vadd(self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vsub(self.rep, o.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vsub(o.rep, self.rep))

    def __neg__(self):
        return FieldElement(self.spec, self.spec._vneg(self.rep))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vmul(self.rep, o.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vmul(self.rep, self.spec._vinv(o.rep)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.spec, self.spec._vmul(o.rep, self.spec._vinv(self.rep)))

    def __pow__(self, k: int):
        return FieldElement(self.spec, self.spec._vpow(self.rep, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec._vinv(self.rep))

    def frobenius(self, k: int = 1) -> "FieldElement":
        """a^(p^k), the k-th power of the Frobenius endomorphism."""
        return FieldElement(self.spec, self.spec._vfrob(self.rep, k))

    def __bool__(self):
        return self.rep != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.element(other)
        return (isinstance(other, FieldElement)
                and other.spec == self.spec
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.spec, self.rep))

    def __str__(self):
        return self.spec.text(self.rep)

    def __repr__(self):
        return f"<{self} in {self.spec}>"
