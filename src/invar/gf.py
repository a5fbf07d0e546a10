"""Exact arithmetic in prime fields GF(p) and extension fields GF(p^e).

Extension fields are represented as GF(p)[g]/(modulus) with a monic
irreducible modulus chosen deterministically (lexicographically smallest,
comparing coefficients from the constant term upward), so serialized
elements are portable across runs and machines.

The arithmetic of GF(p)[g]/(f) is written once, in _Quotient, for any
monic f.  FieldSpec is that ring for an irreducible f; the Rabin
irreducibility test that certifies the modulus runs on a _Quotient of
the candidate itself.

An element is one int in _Quotient's slot layout: slot i holds the
coefficient of g^i in [0, p).  So a GF(p) element is its own value, an
int c < p is the constant c in every field, and equality is structural.
Every field runs the same packed arithmetic.  Everything here is
immutable after construction and every operation is pure.
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
    for c0 in range(1, p):
        for tail in product(range(p), repeat=e - 1):
            f = (c0,) + tail + (1,)
            if any(_eval_poly(f, a, p) == 0 for a in range(p)):
                continue
            if is_irreducible(f, p):
                return f
    raise UsageError(f"no irreducible of degree {e} over GF({p})")


def _eval_poly(f: Sequence[int], a: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def _poly_text(coeffs: Sequence[int], symbol: str = "g") -> str:
    """Compact text form, descending powers: 'g^2+2*g+1'."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(symbol if c == 1 else f"{c}*{symbol}")
        else:
            parts.append(f"{symbol}^{i}" if c == 1 else f"{c}*{symbol}^{i}")
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

    Reduction by f and a -> a^(p^k) are GF(p)-linear, so each is a _fold
    of reduced slots through the images of the g^i: a product's high
    e - 1 slots through g^e .. g^(2e-2) mod f, the slots of a through
    g^(i p^k).  Only FieldSpec builds tables (see _tables), when its
    slots are bytes; without them (_chunk 0, as in the Rabin test's
    quotient) a product is reduced degree by degree by the nonzero terms of f.
    """

    __slots__ = ("p", "e", "order", "modulus", "_slot", "_typecode", "_chunk",
                 "_red", "_high", "_frob", "_modp", "_pones", "_gen")

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

    def _tables(self, rows: list) -> tuple:
        """The map sending slot i to rows[i] as (cut, table) for each run of
        _chunk slots (one byte each): table maps the run's bytes c_j to the
        unreduced sum of c_j * row_j, built whole by doubling.  _chunk is
        the most slots whose combinations fit 256 entries while the tables
        of one map hold at most _TABLE_BYTES of rows."""
        k, p = self._chunk, self.p
        out = []
        for i in range(0, len(rows), k):
            table = {b"": 0}
            for row in rows[i:i + k]:
                table = {key + bytes((c,)): v + c * row
                         for c in range(p) for key, v in table.items()}
            out.append((slice(i, i + k), table))
        return tuple(out)

    def _fold(self, tables: tuple, n: int, count: int, acc: int) -> int:
        """acc plus the image of count reduced slots of n; tables are rows if _chunk is 0."""
        if not self._chunk:
            for c, row in zip(self._unpack(n, count), tables):
                if c:
                    acc += c * row
            return acc
        data = n.to_bytes(count, "little")
        for cut, table in tables:
            acc += table[data[cut]]
        return acc

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

    def _mod(self, n: int, count: int = 0) -> int:
        """Every slot of n, or of its first count slots, reduced mod p."""
        if self.e == 1:
            return n % self.p
        count = count or self.e
        table = self._modp
        if table is not None:
            return int.from_bytes(n.to_bytes(count, "little").translate(table),
                                  "little")
        p = self.p
        return self._pack([c % p for c in self._unpack(n, count)])

    def _vadd(self, a: int, b: int) -> int:
        return self._mod(a + b)

    def _vsub(self, a: int, b: int) -> int:
        return self._mod(a + self._pones - b)

    def _vneg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self._mod(self._pones - a)

    def _vmul(self, a: int, b: int) -> int:
        p, e, red = self.p, self.e, self._red
        if e == 1:
            return a * b % p
        if self._chunk:
            n = self._mod(a * b, 2 * e - 1)
            return self._mod(self._fold(self._high, n >> 8 * e, e - 1,
                                        n & (1 << 8 * e) - 1))
        conv = self._unpack(a * b, 2 * e - 1)
        for i in range(2 * e - 2, e - 1, -1):
            c = conv[i] % p
            if c:
                base = i - e
                for j, rj in red:
                    conv[base + j] += c * rj
        return self._pack([c % p for c in conv[:e]])

    def _vinv(self, a: int) -> int:
        """Inverse in a field: a^(p^e - 2)."""
        if not a:
            raise FieldZeroDivision(f"inversion of zero in {self}")
        return self._vpow(a, self.order - 2)

    def _vpow(self, a: int, k: int) -> int:
        if k < 0:
            return self._vpow(self._vinv(a), -k)
        if self.e == 1:
            return pow(a, k, self.p)
        result = 1 if k == 0 else a
        for bit in bin(k)[3:]:          # the bits of k below its top one
            result = self._vmul(result, result)
            if bit == "1":
                result = self._vmul(result, a)
        return result

    def _vfrob(self, a: int, k: int) -> int:
        """a^(p^k); k is taken mod e, which in a field makes negative k
        invert the map."""
        k %= self.e
        if k == 0:
            return a
        tables = self._frob.get(k)
        if tables is None:
            h = self._vpow(self._gen, self.p ** k)
            rows = list(accumulate(repeat(h, self.e - 1), self._vmul, initial=1))
            tables = self._frob[k] = self._tables(rows) if self._chunk else rows
        return self._mod(self._fold(tables, a, self.e, 0))


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
            self._high = self._tables(rows[1:])
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

    def from_index(self, i: int) -> "FieldElement":
        if not 0 <= i < self.order:
            raise UsageError(f"index {i} out of range for {self}")
        digits = []
        for _ in range(self.e):
            i, d = divmod(i, self.p)
            digits.append(d)
        # the constant coefficient is the most significant digit
        return FieldElement(self, self._pack(digits[::-1]))

    def index(self, elem: "FieldElement") -> int:
        if elem.spec != self:
            raise ContextMismatch(f"element of {elem.spec} used in {self}")
        i = 0
        for d in self.coeffs(elem.rep):
            i = i * self.p + d
        return i

    def random_element(self, rng) -> "FieldElement":
        return self.from_index(rng.randrange(self.order))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

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
    """
    key = (p, e, None if modulus is None or e == 1 else tuple(modulus))
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, e, modulus)
        spec = _SPEC_CACHE[key] = _SPEC_CACHE.setdefault((p, e, spec.modulus), spec)
    return spec


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
        return (isinstance(other, FieldElement) and self.spec == other.spec
                and self.rep == other.rep)

    def __hash__(self):
        return hash((self.spec, self.rep))

    def __str__(self):
        return _poly_text(self.spec.coeffs(self.rep))

    def __repr__(self):
        return f"<{self} in {self.spec}>"
