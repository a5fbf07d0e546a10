"""Text and file formats for polynomials.

Polynomial grammar (whitespace-insensitive):

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := INT | NAME ['^' INT] | '(' element ')'

INT is a run of ASCII digits and NAME a run of word characters that
starts with a letter or '_'; one regex (_TOKEN) splits the text.  A
field element or an extension modulus is a poly in the one name 'g',
without parentheses: 'g^2+2*g+1', and also 'g*2' or '2*g*g'.  A
parenthesized element is an extension field coefficient, e.g.
(g^2+2*g+1)*x1.  The canonical printer in mpoly emits this grammar.

parse_poly has two paths.  _parse_canonical reads the integer-coefficient
text Polynomial.text() prints (ASCII, no spaces or parentheses) in one
pass of str.split.  Any other text, and any term of total degree EXP_CAP
or more, goes to the reference parser (_Tokens and _parse_term, which also
reads element text), the only source of ParseError messages and of the
exponent ResourceLimit.  Repeated monomials are summed by mpoly._merge.

Poly files are line-oriented:

    field: 3^2 g^2+1
    order: grevlex
    vars: x1 x2 x3
    poly: x1^2+2*x2

field_prefix reads the p^e of a field line alone, and parse_field_text
the whole line through it.

Membership certificate files additionally carry the target, the basis,
one cofactor per basis element, and the remainder, so the asserted
identity can be rechecked without recomputing anything.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .errors import ParseError, UsageError
from .gf import FieldElement, FieldSpec, field
from .groebner import MembershipCertificate
from .mpoly import EXP_CAP, Polynomial, PolyRing, TermOrder, _merge

_G = {"g": 0}           # the one name of element and modulus text


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# INT, NAME, punctuation, skipped whitespace, or any other character
_TOKEN = re.compile(r"([0-9]+)|(\w+)|([-^*+()])|[ \t\r\n]+|(.)", re.S)
_KINDS = (None, "INT", "NAME")


class _Tokens:
    def __init__(self, text: str):
        toks = []
        for m in _TOKEN.finditer(text):
            kind = m.lastindex
            if kind is None:
                continue
            s = m.group(kind)
            # \w also matches numerals such as '²': a NAME starts with a letter or '_'
            if kind == 4 or (kind == 2 and not (s[0].isalpha() or s[0] == "_")):
                raise ParseError(f"unexpected character {s[0]!r}", m.start())
            toks.append((_KINDS[kind] if kind < 3 else s, s, m.start()))
        toks.append(("EOF", "", len(text)))
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


def _parse_term(toks: _Tokens, index: dict, F: Optional[FieldSpec]):
    """term := factor ('*' factor)*, read as (coefficient, exponents of
    the names in index).  F is the coefficient field, whose elements
    may stand in parentheses; with F None the coefficient is an int and
    a parenthesis is no factor."""
    coeff = 1 if F is None else F.one
    exps = [0] * len(index)
    while True:
        t = toks.next()
        if t[0] == "INT":
            coeff = coeff * _int(t)
        elif t[0] == "NAME":
            i = index.get(t[1])
            if i is None:
                raise ParseError(f"unknown variable {t[1]!r}", t[2])
            a = 1
            if toks.peek()[0] == "^":
                toks.next()
                a = _int(toks.expect("INT"))
            exps[i] += a
        elif t[0] == "(" and F is not None:
            if F.e == 1:
                raise ParseError("field element coefficient in a prime field ring", t[2])
            rep = _gpoly_rep(toks, F.p, F.e, "coefficient", t[2], stop_at_paren=True)
            toks.expect(")")
            coeff = coeff * F.element(rep)
        else:
            raise ParseError(f"expected a factor, found {t[1]!r}", t[2])
        if toks.peek()[0] == "*":
            toks.next()
        else:
            return coeff, exps


# ---------------------------------------------------------------------------
# Extension field element text
# ---------------------------------------------------------------------------


def _gpoly_rep(toks: _Tokens, p: int, size: int, what: str,
               position: int = -1, stop_at_paren: bool = False) -> tuple:
    """Parse a polynomial in g into its first `size` coefficients mod p.
    A term whose coefficient vanishes still counts toward the degree."""
    coeffs: dict = {}
    for sign, (c, (d,)) in _signed(toks, lambda tk: _parse_term(tk, _G, None)):
        coeffs[d] = (coeffs.get(d, 0) + sign * c) % p
    t = toks.peek()
    if t[0] != "EOF" and not (stop_at_paren and t[0] == ")"):
        raise ParseError(f"unexpected {t[1]!r} in field element", t[2])
    deg = max(coeffs)
    if deg >= size:
        raise ParseError(f"{what} degree {deg} not below {size}", position)
    return tuple(coeffs.get(i, 0) for i in range(size))


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse 'g^2+2*g+1' style text into an element of spec."""
    return spec.element(_gpoly_rep(_Tokens(text), spec.p, spec.e, "element"))


# ---------------------------------------------------------------------------
# Polynomial text
# ---------------------------------------------------------------------------


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    poly = _parse_canonical(text, ring)
    return poly if poly is not None else _parse_reference(text, ring)


def _parse_reference(text: str, ring: PolyRing) -> Polynomial:
    toks = _Tokens(text)
    terms: dict = {}
    pack, index, F = ring.order.pack, ring._index, ring.field
    for sign, (coeff, exps) in _signed(toks, lambda tk: _parse_term(tk, index, F)):
        c = ring._coeff(-coeff if sign < 0 else coeff)
        if c is not None:
            _merge(terms, {pack(exps): c}, F)
    t = toks.peek()
    if t[0] != "EOF":
        raise ParseError(f"trailing input {t[1]!r}", t[2])
    return Polynomial(ring, terms)


_SIGNS = re.compile(r"([+-])")


def _parse_canonical(text: str, ring: PolyRing) -> Optional[Polynomial]:
    """One pass over canonical text with integer coefficients (in any
    GF(p^e) their packed ints are their residues mod p); None for any
    text the reference parser must read (or reject).  A key is offset +
    sum of exponent * step (TermOrder); below EXP_CAP none wraps."""
    if not text.isascii():
        return None
    index, steps, cap = ring._index, ring.order.steps, EXP_CAP
    seen: dict = {}                # factor text -> (exponent, exponent * step)
    terms: dict = {}
    F, p, off = ring.field, ring.field.p, ring.order.offset
    parts = _SIGNS.split(text)     # term, sign, term, ...; '' before a leading sign
    try:
        for k in range(2 if len(parts) > 1 and not parts[0] else 0, len(parts), 2):
            c, d, key = 1, 0, off
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
                    a = int(a) if caret else 1
                    f = seen[fac] = (a, a * steps[i])
                d, key = d + f[0], key + f[1]
            c = (-c if parts[k - 1] == "-" else c) % p
            if c:
                if d >= cap:
                    return None
                if key in terms:
                    _merge(terms, {key: c}, F)
                else:
                    terms[key] = c
    except ValueError:
        # int() refuses very long digit strings: the reference parser raises
        return None
    return Polynomial(ring, terms)


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
    # str.splitlines: text that is not a str raises TypeError
    for lineno, raw in enumerate(str.splitlines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: missing ':' in {line!r}")
        tag, _, payload = line.partition(":")
        yield lineno, tag.strip(), payload.strip()


def field_prefix(text: str) -> tuple:
    """(p, e, modulus text or None) of a field description: a caller can
    bound e before the modulus is parsed and its field built."""
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
    return p, e, parts[1] if len(parts) == 2 else None


def parse_field_text(text: str) -> FieldSpec:
    """Parse a field description like "2^1" or "3^2 g^2+1"."""
    p, e, rest = field_prefix(text)
    if e > 1:
        if rest is None:
            raise ParseError("extension field needs a modulus")
        modulus = _gpoly_rep(_Tokens(rest), p, e + 1, "modulus")
        if modulus[e] != 1:
            raise ParseError(f"modulus must be monic of degree {e}")
        return field(p, e, modulus)
    if rest is not None:
        raise ParseError(f"prime field takes no modulus, got {rest!r}")
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
    lines.extend(f"basis: {t}" for t in cert.basis_texts())
    for i, h in enumerate(cert.cofactors):
        lines.append(f"cofactor-of: {i}")
        lines.append(f"poly: {h.text()}")
    lines.append(f"remainder: {cert.remainder.text()}")
    return "\n".join(lines) + "\n"


def parse_certificate_text(text: str) -> MembershipCertificate:
    ring, rest = _parse_header(_tagged_lines(text))
    single = {}                       # "target" / "remainder" -> polynomial
    basis = []
    cofactors = {}
    lines = iter(rest)
    for lineno, tag, payload in lines:
        try:
            if tag in ("target", "remainder"):
                if tag in single:
                    raise ParseError(f"repeated {tag} line")
                single[tag] = parse_poly(payload, ring)
            elif tag == "basis":
                basis.append(parse_poly(payload, ring))
            elif tag == "cofactor-of":
                try:
                    index = int(payload)
                except ValueError:
                    raise ParseError(f"bad cofactor index {payload!r}") from None
                if index in cofactors:
                    raise ParseError(f"repeated cofactor index {index}")
                line = next(lines, None)
                if line is None or line[1] != "poly":
                    raise ParseError(f"cofactor index {index} has no poly line")
                lineno, _, payload = line
                cofactors[index] = parse_poly(payload, ring)
            elif tag == "poly":
                raise ParseError("cofactor poly without an index")
            else:
                raise ParseError(f"unexpected tag {tag!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if len(single) < 2:
        raise ParseError("certificate is missing a target or remainder line")
    if set(cofactors) != set(range(len(basis))):
        raise ParseError("cofactor indices do not match the basis")
    return MembershipCertificate(single["target"], basis,
                                 [cofactors[i] for i in range(len(basis))], single["remainder"])
