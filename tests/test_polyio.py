"""Tests for polynomial text parsing and file round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invar.errors import ParseError, ResourceLimit, UsageError
from invar.gf import field
from invar.groebner import MembershipCertificate, buchberger, normal_form
from invar.mpoly import EXP_CAP, PolyRing
from invar.gf import _poly_text
from invar.polyio import (_Tokens, _parse_canonical, _parse_reference, format_certificate,
                          field_prefix, format_polys, parse_certificate_text,
                          parse_element, parse_field_text, parse_poly,
                          parse_polys_text)
from oracles import ReferenceTokens, draw_poly, enumerate_elements, rings


@pytest.fixture
def R():
    return PolyRing(field(3), ["x", "y", "z"])


def test_grammar_basics(R):
    x, y, z = R.gens()
    assert parse_poly("x", R) == x
    assert parse_poly("2*x^2*y", R) == 2 * x ** 2 * y
    assert parse_poly("x + y - z", R) == x + y - z
    assert parse_poly("-x", R) == -x
    assert parse_poly("  x ^ 2 + 2 * y ", R) == x ** 2 + 2 * y
    assert parse_poly("0", R).is_zero()
    assert parse_poly("7", R) == R.constant(1)
    assert parse_poly("x*x*x", R) == x ** 3
    assert parse_poly("2*3*x", R) == R.zero          # 6 = 0 mod 3
    assert parse_poly("x - x", R).is_zero()


def test_parse_is_inverse_of_text(R):
    import random
    from oracles import random_poly
    rng = random.Random(31)
    for _ in range(30):
        f = random_poly(R, rng, nterms=8, maxdeg=5)
        assert parse_poly(f.text(), R) == f


def test_parse_errors_carry_position(R):
    with pytest.raises(ParseError) as e:
        parse_poly("x + $", R)
    assert "position 4" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x + w", R)          # unknown variable
    with pytest.raises(ParseError):
        parse_poly("x ^", R)
    with pytest.raises(ParseError):
        parse_poly("x y", R)            # missing operator
    with pytest.raises(ParseError):
        parse_poly("", R)
    with pytest.raises(ParseError):
        parse_poly("x +", R)
    with pytest.raises(ParseError):
        parse_poly("(g+1)*x", R)        # element coefficient in a prime field


def test_extension_coefficients_round_trip():
    F4 = field(2, 2)
    R = PolyRing(F4, ["u", "v"])
    f = R.monomial((2, 0), F4.gen) + R.monomial((0, 1), F4.gen + 1) + R.one
    text = f.text()
    assert "(g" in text
    assert parse_poly(text, R) == f
    with pytest.raises(ParseError):
        parse_poly("(g^2)*u", R)        # degree must stay below e


def test_parse_element():
    F9 = field(3, 2)
    assert parse_element("g+2", F9) == F9.gen + 2
    assert parse_element("2*g", F9) == 2 * F9.gen
    assert parse_element("0", F9) == F9.zero
    assert parse_element("g+g", F9) == 2 * F9.gen
    with pytest.raises(ParseError):
        parse_element("g^5", F9)
    with pytest.raises(ParseError):
        parse_element("h+1", F9)


def test_file_round_trip(tmp_path, R):
    x, y, z = R.gens()
    polys = [x ** 2 + 2 * y, R.zero, (x + y + z) ** 3]
    path = tmp_path / "polys.txt"
    path.write_text(format_polys(R, polys))
    ring2, polys2 = parse_polys_text(path.read_text())
    assert ring2 == R
    assert polys2 == polys
    # canonical output is stable
    assert format_polys(ring2, polys2) == format_polys(R, polys)


def test_file_round_trip_extension(tmp_path):
    F = field(3, 2)
    R = PolyRing(F, ["u", "v"], order="lex")
    f = R.monomial((1, 2), F.gen * 2 + 1)
    path = tmp_path / "ext.txt"
    path.write_text(format_polys(R, [f]))
    ring2, polys2 = parse_polys_text(path.read_text())
    assert ring2.field is F            # interning by resolved modulus
    assert ring2.order.kind == "lex"
    assert polys2 == [f]


def test_block_order_header_round_trip():
    R = PolyRing(field(2), ["a", "b", "x"], order=("block", 1))
    text = format_polys(R, [R.gen("a") + R.gen("x")])
    ring2, polys2 = parse_polys_text(text)
    assert ring2.order.kind == "block" and ring2.order.block == 1
    assert polys2[0] == R.gen("a") + R.gen("x")


def test_comments_and_blank_lines():
    text = """
# a comment
field: 3^1

order: grevlex
vars: x y
# another comment
poly: x+y
"""
    ring, polys = parse_polys_text(text)
    assert len(polys) == 1
    assert polys[0] == ring.gen("x") + ring.gen("y")


def test_header_errors():
    with pytest.raises(ParseError):
        parse_polys_text("order: grevlex\nvars: x\n")            # no field
    with pytest.raises(ParseError):
        parse_polys_text("field: 9\norder: grevlex\nvars: x\n")  # not p^e
    with pytest.raises(ParseError):
        parse_polys_text("field: 3^2\norder: grevlex\nvars: x\n")  # missing modulus
    with pytest.raises(ParseError):
        parse_polys_text("field: 3^1\norder: fancy\nvars: x\n")
    with pytest.raises(ParseError):
        parse_polys_text("field: 3^1\norder: grevlex\nvars: x\nnonsense line")
    with pytest.raises(ParseError):
        parse_polys_text("field: 3^1\norder: grevlex\nvars: x\nmystery: 3\n")



@pytest.mark.parametrize("text", ["a^b", "3^x", "x^2 g^2+1"])
def test_field_prefix_needs_integers(text):
    with pytest.raises(ParseError) as info:
        field_prefix(text)
    assert str(info.value) == f"bad field '{text.split()[0]}'"

def test_modulus_header_matches_runtime_field():
    F = field(2, 30)
    R = PolyRing(F, ["t"])
    ring2, _ = parse_polys_text(format_polys(R, []))
    assert ring2.field is F


def test_certificate_round_trip(R):
    x, y, z = R.gens()
    target = x ** 3 + y
    basis = [x, y ** 2]
    cof = [x ** 2, R.zero]
    rem = y
    text = format_certificate(MembershipCertificate(target, basis, cof, rem))
    cert = parse_certificate_text(text)
    assert cert.target.ring == R
    assert cert.target == target
    assert cert.basis == tuple(basis)
    assert cert.cofactors == tuple(cof)
    assert cert.remainder == rem
    # formatting the parsed certificate reproduces the bytes
    assert format_certificate(cert) == text


@pytest.mark.parametrize("q", [5, 9])
def test_certificate_bytes_from_a_groebner_basis(q):
    # a certificate over a GroebnerBasis prints the basis texts the basis
    # keeps: the bytes equal those of the same certificate over a tuple
    F = field(3, 2) if q == 9 else field(q)
    R = PolyRing(F, ["x", "y", "z"])
    x, y, z = R.gens()
    g = F.gen * x if q == 9 else x
    gb = buchberger([g * y - z ** 2, x ** 2 + y * z, y ** 3 - x])
    for f in ((x + y + z + 1) ** 4, x ** 3 * y ** 2 - z, R.zero):
        cert = normal_form(f, gb, certificate=True)
        plain = MembershipCertificate(f, tuple(gb.elements), cert.cofactors,
                                      cert.remainder)
        text = format_certificate(cert)
        assert text == format_certificate(plain)
        assert text == format_certificate(normal_form(f, list(gb), certificate=True))
        assert format_certificate(parse_certificate_text(text)) == text


def test_certificate_errors(R):
    x, y, _ = R.gens()
    with pytest.raises(UsageError):
        MembershipCertificate(x, [x, y], [x], y)
    good = format_certificate(MembershipCertificate(x, [y], [R.zero], x))
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("remainder: x\n", ""))
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("cofactor-of: 0", "cofactor-of: 1"))
    with pytest.raises(ParseError, match="^line 6: cofactor poly without an index"):
        parse_certificate_text(good.replace("cofactor-of: 0\n", ""))
    with pytest.raises(ParseError, match="^line 5: unexpected tag 'quotient'"):
        parse_certificate_text(good.replace("basis:", "quotient:"))


@pytest.mark.parametrize("extra, message", [
    ("target: y", "repeated target line"),
    ("remainder: y", "repeated remainder line"),
    ("cofactor-of: 0\npoly: y", "repeated cofactor index 0"),
])
def test_certificate_repeated_line_is_a_parse_error(R, extra, message):
    """A second target, remainder or cofactor index raises at its line,
    as a repeated header line does, instead of replacing the first."""
    x, y, _ = R.gens()
    good = format_certificate(MembershipCertificate(x, [y], [R.zero], x))
    assert len(good.splitlines()) == 8
    with pytest.raises(ParseError, match=f"^line 9: {message}$"):
        parse_certificate_text(good + extra + "\n")


@pytest.mark.parametrize("edit, line, index", [
    (lambda good: good + "cofactor-of: 1\n", 9, 1),
    (lambda good: good.replace("cofactor-of: 0\n", "cofactor-of: 1\ncofactor-of: 0\n"), 6, 1),
    (lambda good: good.replace("poly: 0\n", ""), 6, 0),
], ids=["at-the-end", "before-another-index", "before-the-remainder"])
def test_certificate_cofactor_index_without_a_poly_is_a_parse_error(R, edit, line, index):
    """A cofactor-of line must be followed by its poly line: at the end
    of the text, before another cofactor-of or before the remainder, the
    open index raises at its own line instead of being dropped."""
    x, y, _ = R.gens()
    good = format_certificate(MembershipCertificate(x, [y], [R.zero], x))
    assert good.splitlines()[5:7] == ["cofactor-of: 0", "poly: 0"]
    with pytest.raises(ParseError, match=f"^line {line}: cofactor index {index} has no poly line$"):
        parse_certificate_text(edit(good))


# ---------------------------------------------------------------------------
# malformed files: every one is a ParseError naming its line
# ---------------------------------------------------------------------------

HEAD = "field: 3^1\norder: grevlex\nvars: x y\n"

MALFORMED = {
    "non-ASCII digit": (HEAD + "poly: x^\u00b2\n", 4),
    "Arabic-Indic digit": (HEAD + "poly: \u0663*x\n", 4),
    "long integer": (HEAD + "poly: " + "1" * 4400 + "*x\n", 4),
    "long exponent": (HEAD + "poly: x^" + "1" * 4400 + "\n", 4),
    "empty order": ("field: 3^1\norder:\nvars: x y\npoly: x\n", 2),
    "block order without a size": (HEAD.replace("grevlex", "block x"), 2),
    "empty field": ("field:\norder: lex\nvars: x\npoly: x\n", 1),
    "zero characteristic": ("field: 0^2 g^2+1\norder: lex\nvars: x\n", 1),
    "cofactor index": (HEAD + "cofactor-of: a\npoly: x\n", 4),
    "prime field with a modulus": ("field: 3^1 junk\norder: lex\nvars: x\n", 1),
    "composite characteristic": ("field: 4^1\norder: lex\nvars: x\n", 1),
    "bad variable name": ("field: 3^1\norder: lex\nvars: x 1y\n", 3),
    "repeated variable": ("field: 3^1\norder: lex\nvars: x x\n", 3),
    "block wider than the vars": (HEAD.replace("grevlex", "block 5"), 2),
    "repeated field line": (HEAD + "field: 5^1\npoly: x\n", 4),
    "order with an argument": (HEAD.replace("grevlex", "grevlex x"), 2),
    # the order line's own error comes before a later line's
    "unknown order, then a repeated line": ("field: 3^1\norder: fancy\nvars: x\nvars: y\n", 2),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_is_a_parse_error_with_its_line(name):
    text, line = MALFORMED[name]
    for parse in (parse_polys_text, parse_certificate_text):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse(text)


def test_certificate_poly_errors_name_their_line(R):
    x, y, _ = R.gens()
    good = format_certificate(MembershipCertificate(x, [y], [R.zero], x))
    for tag in ("target", "basis", "poly", "remainder"):
        lines = good.splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(tag + ":"))
        lines[k] = tag + ": x+w"
        with pytest.raises(ParseError, match=f"^line {k + 1}: unknown variable"):
            parse_certificate_text("\n".join(lines))


def test_modulus_must_be_monic_of_full_degree():
    for bad in ("3^2 g+1", "3^2 2*g^2+1", "3^2 g^3+1"):
        with pytest.raises(ParseError):
            parse_polys_text(f"field: {bad}\norder: lex\nvars: x\n")


# ---------------------------------------------------------------------------
# the one-pass parser against the reference parser
# ---------------------------------------------------------------------------

_FIELDS = ((2, 1), (5, 1), (3, 2))      # GF(9) text has parenthesised coefficients


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_round_trips_text(data):
    R = data.draw(rings(_FIELDS))
    f = draw_poly(data.draw, R)
    text = f.text()
    assert parse_poly(text, R) == f
    if R.field.e == 1:
        assert _parse_canonical(text, R) == f
    elif "(" in text:
        assert _parse_canonical(text, R) is None


def _outcome(parse, text, R):
    try:
        return parse(text, R)
    except (ParseError, ResourceLimit) as exc:
        return type(exc), str(exc)


# the characters an edit inserts or swaps in
_EDITS = list("+-*^ 0123456789x(") + ["\u00b2", "\u0663", "\u00e9"]


def _check_against_reference(text, R):
    ref = _outcome(_parse_reference, text, R)
    fast = _parse_canonical(text, R)
    assert fast is None or fast == ref
    assert _outcome(parse_poly, text, R) == ref


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_fast_path_agrees_with_reference_on_edited_text(data):
    R = data.draw(rings(_FIELDS))
    text = data.draw(st.sampled_from([
        draw_poly(data.draw, R).text(),
        f"x0^{EXP_CAP}+1",
        f"2*x0^{EXP_CAP // 2}*x0^{EXP_CAP - EXP_CAP // 2}",
    ]))
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(("insert", "delete", "swap")))
        ch = data.draw(st.sampled_from(_EDITS))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + ch + text[i + 1:]
    _check_against_reference(text, R)


@pytest.mark.parametrize("text", [
    f"x^{EXP_CAP}",
    f"x^{EXP_CAP - 1}*x",
    f"y+2*x^3*x^{EXP_CAP - 3}",
    f"x^{EXP_CAP}+$",                    # the syntax error wins
    f"0*x^{EXP_CAP}+y",                  # a zero term is never packed
    "1" * 4400 + "*x",
    "x^0012*y^0+-y",
    "\u0663*x",
])
def test_fast_path_edge_cases_match_reference(R, text):
    _check_against_reference(text, R)


def test_fast_path_raises_the_reference_exponent_error(R):
    for text in (f"x^{EXP_CAP}", f"x^{EXP_CAP // 2}*x^{EXP_CAP - EXP_CAP // 2}"):
        assert _parse_canonical(text, R) is None
        with pytest.raises(ResourceLimit, match=f"exponent {EXP_CAP} outside"):
            parse_poly(text, R)


@pytest.mark.parametrize("text, fast", [
    ("x*x^2+2*x^3*y^0", True),                       # repeated factors
    ("x^2*y*x-y*x^3+z*z*z", True),
    (f"x^{EXP_CAP - 1}+2*y^{EXP_CAP - 1}*z^0", True),  # every exponent at the cap less one
    (f"x^{EXP_CAP - 2}*x", True),
    (f"x^{EXP_CAP}", False),
    (f"x^{EXP_CAP - 1}*x", False),
    (f"y+x^{EXP_CAP // 2}*y^{EXP_CAP - EXP_CAP // 2}", False),  # total degree at the cap
    (f"x^{EXP_CAP - 1}*y*z", False),
    (f"x^{EXP_CAP // 3}*y^{EXP_CAP // 3}*z^{EXP_CAP // 3}", True),
    ("-x*x^2+y", True),                              # a leading sign
    ("1_0*x", False),                                # int() reads 1_0, the grammar does not
    ("x^1_0", False),
])
@pytest.mark.parametrize("order", ["grevlex", "lex", ("block", 1), ("block", 2)])
def test_fast_path_keys_match_the_reference(text, fast, order):
    """The one-pass parser sums each factor's exponent times its step;
    it reads a term only below the total degree cap, where its key is
    TermOrder.pack's, and leaves any other term to the reference."""
    R = PolyRing(field(3), ["x", "y", "z"], order)
    _check_against_reference(text, R)
    got = _parse_canonical(text, R)
    assert (got is not None) == fast
    if fast:
        assert got == _parse_reference(text, R)


def test_fast_path_merges_repeated_terms(R):
    x, y, z = R.gens()
    # over GF(3): x + x stays, x*y + 2*y*x and z - z cancel
    assert _parse_canonical("x+x+x*y+2*y*x+z-z", R) == 2 * x
    assert _parse_canonical("y*x-x*y", R).is_zero()


# ---------------------------------------------------------------------------
# one grammar: the regex tokenizer, and element text read as a polynomial
# in g
# ---------------------------------------------------------------------------

# ASCII token characters, and the characters where str methods and \w could
# part ways: numerals, a letter with an accent, a combining mark, \f, \v,
# NBSP, a letter-number, an ordinal, a titlecase letter, NUL, a math digit
_LEXER_ALPHABET = list("ab_xyzgX019 \t\r\n^*+-()$.") + [
    "\u00b2", "\u0663", "\u00e9", "\u0301", "\f", "\v", "\u00a0", "\u216b",
    "\u00aa", "\u01c5", "\x00", "\U0001d7d8"]


def _lex(lexer, text):
    try:
        return lexer(text).toks
    except ParseError as exc:
        return str(exc)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=_LEXER_ALPHABET, max_size=12))
def test_regex_tokenizer_matches_the_reference_lexer(text):
    assert _lex(_Tokens, text) == _lex(ReferenceTokens, text)


@pytest.mark.parametrize("p,e,modulus", [
    (2, 2, None), (2, 3, None), (3, 2, None), (3, 2, (2, 2, 1)), (5, 2, None),
    (2, 4, (1, 1, 0, 0, 1)), (3, 3, None)])
def test_printed_elements_and_moduli_round_trip(p, e, modulus):
    F = field(p, e, modulus)
    assert parse_field_text(F.serialize()) is F
    assert parse_field_text(f"{p}^{e} {_poly_text(F.modulus)}") is F
    for x in enumerate_elements(F):
        assert parse_element(_poly_text(F.coeffs(x.rep)), F) == x
        assert parse_element(str(x), F) == x


def test_large_field_elements_round_trip():
    import random
    rng = random.Random(7)
    for F in (field(2, 32), field(3, 32)):
        assert parse_field_text(F.serialize()) is F
        for _ in range(20):
            x = F.random_element(rng)
            assert parse_element(str(x), F) == x


@pytest.mark.parametrize("text, rep", [
    ("g*2", (0, 2, 0)),
    ("12*1", (0, 0, 0)),            # 12 = 0 in GF(3)
    ("2*g*g", (0, 0, 2)),
    ("g^1*g+g*1", (0, 1, 1)),
    ("2*2+g", (1, 1, 0)),
    ("g*2*g^0-1*1", (2, 2, 0)),
])
def test_element_text_takes_products_of_factors(text, rep):
    """Products of factors in g, which the grammar of polynomials reads
    and element text now shares."""
    F27 = field(3, 3)
    assert F27.coeffs(parse_element(text, F27).rep) == rep
    R = PolyRing(F27, ["x"])
    assert parse_poly(f"({text})*x", R) == R.monomial((1,), parse_element(text, F27))


def test_modulus_text_takes_products_of_factors():
    assert parse_field_text("3^2 g*g+1") is parse_field_text("3^2 g^2+1")
    assert parse_field_text("2^3 g*g^2+g*1+1") is field(2, 3, (1, 1, 0, 1))


# Malformed element, coefficient and modulus text, with the position the
# grammar before element text took products reported; none of them has a
# '*' after a factor in g.
_ELEMENT_ERRORS = [
    ("", 0), ("-", 1), ("+", 1), ("h+1", 0), ("g h", 2), ("2*", 2), ("2 3", 2),
    ("g^", 2), ("(g)", 0), ("g)", 1), ("2g", 1), ("g2", 0), ("g^2^3", 3),
    ("--g", 1), ("g+", 2), ("g^x", 2), ("g $", 2), ("1+(g", 2), ("2**g", 2),
    ("*g", 0), ("g-", 2), ("g+g^", 4), ("\u00b2", 0), ("g \u00b2", 2),
    ("g^-1", 2), ("g^5", -1), ("g^2-g^2", -1), ("3*g^2", -1),
]
_COEFFICIENT_ERRORS = [
    ("(g x)*x", 3), ("(g", 2), ("(g))", 3), ("(h)*x", 1), ("()*x", 1),
    ("(g^2)*x", 0), ("(2 3)*x", 3), ("(g+)*x", 3), ("((g))*x", 1),
    ("(g^9999999999999)*x", 0), ("(g^2+g+1", 0), ("x*(g+1", 6),
    ("(g^2 x)*x", 5),                   # the stray token before the degree
]
_MODULUS_ERRORS = [
    ("3^2 h^2+1", 0), ("3^2 g^2+1)", 5), ("3^2 g^2+1 x", 6), ("3^2 (g^2+1)", 0),
    ("3^2 2*g^2+1", -1), ("3^2 g^3", -1), ("3^2 g^2+1+3*g^5", -1),
]


@pytest.mark.parametrize("text, position", _ELEMENT_ERRORS)
def test_malformed_element_text_keeps_its_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_element(text, field(3, 2))
    assert exc.value.position == position


@pytest.mark.parametrize("text, position", _COEFFICIENT_ERRORS)
def test_malformed_coefficient_text_keeps_its_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, PolyRing(field(3, 2), ["x", "y"]))
    assert exc.value.position == position


@pytest.mark.parametrize("text, position", _MODULUS_ERRORS)
def test_malformed_modulus_text_keeps_its_position(text, position):
    with pytest.raises(ParseError) as exc:
        parse_field_text(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text, message", [
    ("x + ^", "expected a factor, found '^' (at position 4)"),
    ("x*)", "expected a factor, found ')' (at position 2)"),
    ("(1)*x", "field element coefficient in a prime field ring (at position 0)"),
])
def test_prime_field_factor_errors(R, text, message):
    """A token that starts no factor, and a parenthesis over GF(p) even
    around a constant."""
    with pytest.raises(ParseError) as exc:
        parse_poly(text, R)
    assert str(exc.value) == message
