"""Tests for polynomial text parsing and file round trips."""

import pytest

from invar.errors import ParseError, UsageError
from invar.gf import field
from invar.mpoly import PolyRing
from invar.polyio import (format_certificate, format_polys, parse_certificate_text,
                          parse_element, parse_poly, parse_polys_text)


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
    text = format_certificate(R, target, basis, cof, rem)
    d = parse_certificate_text(text)
    assert d["ring"] == R
    assert d["target"] == target
    assert d["basis"] == basis
    assert d["cofactors"] == cof
    assert d["remainder"] == rem
    # formatting the parsed data reproduces the bytes
    again = format_certificate(d["ring"], d["target"], d["basis"],
                               d["cofactors"], d["remainder"])
    assert again == text


def test_certificate_errors(R):
    x, y, _ = R.gens()
    with pytest.raises(UsageError):
        format_certificate(R, x, [x, y], [x], y)
    good = format_certificate(R, x, [y], [R.zero], x)
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("remainder: x\n", ""))
    with pytest.raises(ParseError):
        parse_certificate_text(good.replace("cofactor-of: 0", "cofactor-of: 1"))
