"""Tests for polynomial text parsing and file round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invar.errors import ParseError, ResourceLimit, UsageError
from invar.gf import field
from invar.groebner import MembershipCertificate
from invar.mpoly import EXP_CAP, PolyRing
from invar.polyio import (_parse_canonical, _parse_reference, format_certificate,
                          format_polys, parse_certificate_text, parse_element,
                          parse_poly, parse_polys_text)
from oracles import draw_poly, rings


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


def test_certificate_errors(R):
    x, y, _ = R.gens()
    with pytest.raises(UsageError):
        MembershipCertificate(x, [x, y], [x], y)
    good = format_certificate(MembershipCertificate(x, [y], [R.zero], x))
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("remainder: x\n", ""))
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("cofactor-of: 0", "cofactor-of: 1"))


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


def test_fast_path_merges_repeated_terms(R):
    x, y, z = R.gens()
    # over GF(3): x + x stays, x*y + 2*y*x and z - z cancel
    assert _parse_canonical("x+x+x*y+2*y*x+z-z", R) == 2 * x
    assert _parse_canonical("y*x-x*y", R).is_zero()
