"""Text and file formats for polynomials.

Polynomial grammar (whitespace-insensitive):

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := INT | NAME ['^' INT] | '(' gpoly ')'

A parenthesized gpoly in the generator symbol 'g' denotes an extension
field coefficient, e.g. (g^2+2*g+1)*x1.  The canonical printer in
mpoly emits exactly this grammar.

parse_poly has two paths.  _parse_canonical reads the prime-field text
Polynomial.text() prints (ASCII, no spaces or parentheses) in one pass
of str.split.  Any other text, and any term reaching EXP_CAP, goes to
the reference parser (_Tokens and the descent below), the only source
of ParseError messages and of the exponent ResourceLimit.

Poly files are line-oriented:

    field: 3^2 g^2+1
    order: grevlex
    vars: x1 x2 x3
    poly: x1^2+2*x2

Membership certificate files additionally carry the target, the basis,
one cofactor per basis element, and the remainder, so the asserted
identity can be rechecked without recomputing anything.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import ParseError, ResourceLimit, UsageError
from .gf import FieldElement, FieldSpec, field
from .groebner import MembershipCertificate
from .mpoly import Polynomial, PolyRing, TermOrder, _merge

_SYMBOL = "g"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = set("^*+-()")


class _Tokens:
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
            elif ch in _PUNCT:
                toks.append((ch, ch, i))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
        toks.append(("EOF", "", n))
        self.toks = toks
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", t[2])
        return t


def _int(tok) -> int:
    try:
        return int(tok[1])
    except ValueError:           # more digits than int() converts
        raise ParseError(f"integer of {len(tok[1])} digits", tok[2]) from None


def _signed(toks: _Tokens, term):
    """Yield (sign, term(toks)) over [sign] term (sign term)*."""
    t = toks.peek()
    while True:
        sign = 1
        if t[0] in "+-":
            toks.next()
            sign = -1 if t[0] == "-" else 1
        yield sign, term(toks)
        t = toks.peek()
        if t[0] not in "+-":
            return


# ---------------------------------------------------------------------------
# Extension field element text
# ---------------------------------------------------------------------------


def _parse_gpoly(toks: _Tokens, p: int, stop_at_paren: bool) -> dict:
    """Parse a polynomial in the symbol g into {degree: coefficient}."""
    coeffs: dict = {}
    for sign, (c, d) in _signed(toks, lambda tk: _parse_gterm(tk, p)):
        coeffs[d] = (coeffs.get(d, 0) + sign * c) % p
    t = toks.peek()
    if t[0] != "EOF" and not (stop_at_paren and t[0] == ")"):
        raise ParseError(f"unexpected {t[1]!r} in field element", t[2])
    return coeffs


def _parse_gterm(toks: _Tokens, p: int) -> tuple:
    t = toks.next()
    if t[0] == "INT":
        c = _int(t) % p
        if toks.peek()[0] == "*":
            toks.next()
            t = toks.next()
        else:
            return c, 0
    else:
        c = 1
    if t[0] != "NAME" or t[1] != _SYMBOL:
        raise ParseError(f"expected {_SYMBOL!r}, found {t[1]!r}", t[2])
    d = 1
    if toks.peek()[0] == "^":
        toks.next()
        d = _int(toks.expect("INT"))
    return c, d


def _gpoly_rep(toks: _Tokens, p: int, size: int, what: str,
               position: int = -1, stop_at_paren: bool = False) -> tuple:
    """Parse a polynomial in g into its first `size` coefficients."""
    coeffs = _parse_gpoly(toks, p, stop_at_paren)
    deg = max(coeffs) if coeffs else 0
    if deg >= size:
        raise ParseError(f"{what} degree {deg} not below {size}", position)
    return tuple(coeffs.get(i, 0) for i in range(size))


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse 'g^2+2*g+1' style text into an element of spec."""
    return FieldElement(spec, _gpoly_rep(_Tokens(text), spec.p, spec.e, "element"))


def _parse_modulus(text: str, p: int, e: int) -> tuple:
    rep = _gpoly_rep(_Tokens(text), p, e + 1, "modulus")
    if rep[e] != 1:
        raise ParseError(f"modulus must be monic of degree {e}")
    return rep


# ---------------------------------------------------------------------------
# Polynomial text
# ---------------------------------------------------------------------------


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    poly = _parse_canonical(text, ring)
    return poly if poly is not None else _parse_reference(text, ring)


def _parse_reference(text: str, ring: PolyRing) -> Polynomial:
    toks = _Tokens(text)
    terms: dict = {}
    pack, cadd = ring.order.pack, ring._cadd
    for sign, (coeff, exps) in _signed(toks, lambda tk: _parse_term(tk, ring)):
        c = ring._coeff(-coeff if sign < 0 else coeff)
        if c is not None:
            key = pack(exps)
            if key in terms:
                _merge(terms, {key: c}, cadd)
            else:
                terms[key] = c
    t = toks.peek()
    if t[0] != "EOF":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return Polynomial(ring, terms)


_SIGNS = re.compile(r"([+-])")


def _parse_canonical(text: str, ring: PolyRing) -> Optional[Polynomial]:
    """One pass over canonical prime-field text; None for any text the
    reference parser must read (or reject)."""
    if ring.field.e > 1 or not text.isascii():
        return None
    index, n, p = ring._index, ring.nvars, ring.field.p
    seen: dict = {}                # factor text -> (variable index, exponent)
    terms: dict = {}
    pack, cadd = ring.order.pack, ring._cadd
    parts = _SIGNS.split(text)     # term, sign, term, ...; '' before a leading sign
    try:
        for k in range(2 if len(parts) > 1 and not parts[0] else 0, len(parts), 2):
            c, exps = 1, [0] * n
            for fac in parts[k].split("*"):
                f = seen.get(fac)
                if f is None:
                    name, caret, a = fac.partition("^")
                    i = index.get(name)
                    if i is None:
                        if caret or not name.isdigit():
                            return None
                        c *= int(name)
                        continue
                    if caret and not a.isdigit():
                        return None
                    f = seen[fac] = (i, int(a) if caret else 1)
                exps[f[0]] += f[1]
            c = (-c if k and parts[k - 1] == "-" else c) % p
            if c:
                key = pack(exps)
                if key in terms:
                    _merge(terms, {key: c}, cadd)
                else:
                    terms[key] = c
    except (ValueError, ResourceLimit):
        # int() refuses very long digit strings, and an exponent reached
        # EXP_CAP: the reference parser raises the error for either
        return None
    return Polynomial(ring, terms)


def _parse_term(toks: _Tokens, ring: PolyRing):
    F = ring.field
    coeff = F.one
    exps = [0] * ring.nvars
    while True:
        t = toks.next()
        if t[0] == "INT":
            coeff = coeff * _int(t)
        elif t[0] == "NAME":
            name = t[1]
            if name not in ring._index:
                raise ParseError(f"unknown variable {name!r}", t[2])
            a = 1
            if toks.peek()[0] == "^":
                toks.next()
                a = _int(toks.expect("INT"))
            exps[ring._index[name]] += a
        elif t[0] == "(":
            if F.e == 1:
                raise ParseError("field element coefficient in a prime field ring", t[2])
            rep = _gpoly_rep(toks, F.p, F.e, "coefficient", t[2], stop_at_paren=True)
            toks.expect(")")
            coeff = coeff * FieldElement(F, rep)
        else:
            raise ParseError(f"expected a factor, found {t[1]!r}", t[2])
        if toks.peek()[0] == "*":
            toks.next()
        else:
            return coeff, exps


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------


def _order_text(order: TermOrder) -> str:
    if order.kind == "block":
        return f"block {order.block}"
    return order.kind


def ring_header_lines(ring: PolyRing) -> list:
    return [
        f"field: {ring.field.serialize()}",
        f"order: {_order_text(ring.order)}",
        f"vars: {' '.join(ring.names)}",
    ]


def format_polys(ring: PolyRing, polys: Sequence[Polynomial]) -> str:
    lines = ring_header_lines(ring)
    for f in polys:
        if f.ring != ring:
            raise UsageError("polynomial from a different ring")
        lines.append(f"poly: {f.text()}")
    return "\n".join(lines) + "\n"


def _tagged_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: missing ':' in {line!r}")
        tag, _, payload = line.partition(":")
        yield lineno, tag.strip(), payload.strip()


def parse_field_text(text: str) -> FieldSpec:
    """Parse a field description like "2^1" or "3^2 g^2+1"."""
    parts = text.split(None, 1)
    base = parts[0] if parts else ""
    if "^" not in base:
        raise ParseError(f"field must look like p^e, got {base!r}")
    p_txt, _, e_txt = base.partition("^")
    try:
        p, e = int(p_txt), int(e_txt)
    except ValueError:
        p = e = 0
    if p < 2 or e < 1:
        raise ParseError(f"bad field {base!r}")
    if e > 1:
        if len(parts) != 2:
            raise ParseError("extension field needs a modulus")
        return field(p, e, _parse_modulus(parts[1], p, e))
    if len(parts) != 1:
        raise ParseError(f"prime field takes no modulus, got {parts[1]!r}")
    return field(p)


def _parse_header(items):
    """Consume field/order/vars lines; returns (ring, remaining items)."""
    header = {}                       # tag -> (line number, parsed value)
    rest = []
    for lineno, tag, payload in items:
        if tag not in ("field", "order", "vars"):
            rest.append((lineno, tag, payload))
            continue
        try:
            if tag in header:
                raise ParseError(f"repeated {tag} line")
            if tag == "field":
                value = parse_field_text(payload)
            elif tag == "vars":
                value = tuple(payload.split())
            else:
                kind, *args = payload.split() or [""]
                if kind == "block":
                    try:
                        (size,) = args
                        value = ("block", int(size))
                    except ValueError:
                        raise ParseError("block order needs a size") from None
                elif kind in ("grevlex", "lex") and not args:
                    value = kind
                else:
                    raise ParseError(f"unknown order {payload!r}")
        except (ParseError, UsageError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        header[tag] = (lineno, value)
    if len(header) < 3:
        raise ParseError("file is missing a field, order, or vars line")
    spec = header["field"][1]
    names = header["vars"][1]
    # The names are checked under the default order first, so an error
    # names the vars line, and an order that does not fit them the order line.
    for lineno, order in (header["vars"][0], "grevlex"), header["order"]:
        try:
            ring = PolyRing(spec, names, order)
        except UsageError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return ring, rest


def parse_polys_text(text: str):
    ring, rest = _parse_header(_tagged_lines(text))
    polys = []
    for lineno, tag, payload in rest:
        if tag != "poly":
            raise ParseError(f"line {lineno}: unexpected tag {tag!r}")
        try:
            polys.append(parse_poly(payload, ring))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return ring, polys


# ---------------------------------------------------------------------------
# Membership certificates
# ---------------------------------------------------------------------------


def format_certificate(cert: MembershipCertificate) -> str:
    """The certificate file of cert, in the ring of its target."""
    lines = ring_header_lines(cert.target.ring)
    lines.append(f"target: {cert.target.text()}")
    for b in cert.basis:
        lines.append(f"basis: {b.text()}")
    for i, h in enumerate(cert.cofactors):
        lines.append(f"cofactor-of: {i}")
        lines.append(f"poly: {h.text()}")
    lines.append(f"remainder: {cert.remainder.text()}")
    return "\n".join(lines) + "\n"


def parse_certificate_text(text: str) -> MembershipCertificate:
    ring, rest = _parse_header(_tagged_lines(text))
    target = None
    basis = []
    cofactors = {}
    remainder = None
    pending: Optional[int] = None
    for lineno, tag, payload in rest:
        try:
            if tag == "target":
                target = parse_poly(payload, ring)
            elif tag == "basis":
                basis.append(parse_poly(payload, ring))
            elif tag == "cofactor-of":
                try:
                    pending = int(payload)
                except ValueError:
                    raise ParseError(f"bad cofactor index {payload!r}") from None
            elif tag == "poly":
                if pending is None:
                    raise ParseError("cofactor poly without an index")
                cofactors[pending] = parse_poly(payload, ring)
                pending = None
            elif tag == "remainder":
                remainder = parse_poly(payload, ring)
            else:
                raise ParseError(f"unexpected tag {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if target is None or remainder is None:
        raise ParseError("certificate is missing a target or remainder line")
    if set(cofactors) != set(range(len(basis))):
        raise ParseError("cofactor indices do not match the basis")
    return MembershipCertificate(target, basis, [cofactors[i] for i in range(len(basis))],
                                 remainder)
