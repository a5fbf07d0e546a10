"""Command-line tests driven through click's test runner."""

import json
import os
import stat

import pytest
from click.testing import CliRunner

from invar import cache
from invar.cli import cli
from invar.fsing import RunConfig, replay_document
from invar.polyio import parse_certificate_text, parse_polys_text

IDEAL = """\
field: 2^1
order: grevlex
vars: x y
poly: x^2
poly: x*y+y^2
"""

MEMBER_ELT = """\
field: 2^1
order: grevlex
vars: x y
poly: x^3+x^2*y
"""

NON_MEMBER_ELT = """\
field: 2^1
order: grevlex
vars: x y
poly: x+y
"""


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    # keep user-level envvars from leaking into the assertions
    env = {k: None for k in os.environ if k.startswith("INVAR_")}
    env.update(kwargs.pop("env", {}))
    return runner.invoke(cli, args, env=env, **kwargs)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_dickson_output(runner, tmp_path):
    res = invoke(runner, ["dickson", "--p", "2", "--n", "2",
                          "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0
    assert "poly: x1^2*x2+x1*x2^2" in res.output
    assert "poly: x1^2+x1*x2+x2^2" in res.output


def test_dickson_cache_hit_is_byte_identical(runner, tmp_path):
    args = ["dickson", "--p", "3", "--e", "2", "--n", "2",
            "--cache-dir", str(tmp_path)]
    first = invoke(runner, args)
    assert first.exit_code == 0
    files = list(tmp_path.iterdir())
    assert [f.name for f in files] == ["dickson-3-2-2.poly"]
    stamp = files[0].stat().st_mtime_ns
    second = invoke(runner, args)
    assert second.exit_code == 0
    assert second.output == first.output
    assert files[0].stat().st_mtime_ns == stamp  # untouched on a hit


def test_dickson_corrupt_cache_recomputed(runner, tmp_path):
    args = ["dickson", "--p", "2", "--n", "3", "--cache-dir", str(tmp_path)]
    first = invoke(runner, args)
    path = tmp_path / "dickson-2-1-3.poly"
    entry = path.read_bytes()
    for bad in (b"x1^5", b"x1^\xff"):                # edited; not UTF-8
        path.write_bytes(entry.replace(b"x1^4", bad))
        second = invoke(runner, args)
        assert second.exit_code == 0
        assert second.output == first.output
        # and the cache file was healed
        assert path.read_bytes() == entry


def test_dickson_degree_guard(runner, tmp_path):
    res = invoke(runner, ["dickson", "--p", "3", "--n", "13",
                          "--cache-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_symplectic_lists_xis(runner):
    res = invoke(runner, ["symplectic", "--p", "2", "--n", "2"])
    assert res.exit_code == 0
    _ring, polys = parse_polys_text(res.output)
    assert len(polys) == 3
    assert [f.total_degree() for f in polys] == [3, 5, 9]


def test_altn_lists_elementary_and_vandermonde(runner):
    res = invoke(runner, ["altn", "--p", "5", "--n", "3"])
    assert res.exit_code == 0
    _ring, polys = parse_polys_text(res.output)
    assert len(polys) == 4
    assert [f.total_degree() for f in polys] == [1, 2, 3, 3]


# ---------------------------------------------------------------------------
# gb / member
# ---------------------------------------------------------------------------

def test_gb_reduced_basis(runner, tmp_path):
    src = tmp_path / "ideal.poly"
    src.write_text(IDEAL)
    res = invoke(runner, ["gb", str(src)])
    assert res.exit_code == 0
    _ring, basis = parse_polys_text(res.output)
    assert [f.text() for f in basis] == ["x*y+y^2", "x^2", "y^3"]


def test_gb_bad_order_flag(runner, tmp_path):
    src = tmp_path / "ideal.poly"
    src.write_text(IDEAL)
    res = invoke(runner, ["gb", str(src), "--order", "sillylex"])
    assert res.exit_code == 2
    assert "bad order" in res.output


def test_member_yes_with_certificate(runner, tmp_path):
    ideal = tmp_path / "ideal.poly"
    elt = tmp_path / "elt.poly"
    cert_path = tmp_path / "cert.txt"
    ideal.write_text(IDEAL)
    elt.write_text(MEMBER_ELT)
    res = invoke(runner, ["member", str(ideal), str(elt),
                          "--out", str(cert_path)])
    assert res.exit_code == 0
    assert res.output.strip().endswith("member")
    cert = parse_certificate_text(cert_path.read_text())
    assert cert.remainder.is_zero()
    acc = cert.remainder
    for h, b in zip(cert.cofactors, cert.basis):
        acc = acc + h * b
    assert acc == cert.target


def test_member_no_exits_one(runner, tmp_path):
    ideal = tmp_path / "ideal.poly"
    elt = tmp_path / "elt.poly"
    ideal.write_text(IDEAL)
    elt.write_text(NON_MEMBER_ELT)
    res = invoke(runner, ["member", str(ideal), str(elt)])
    assert res.exit_code == 1
    assert "non-member" in res.output
    assert "x+y" in res.output


def test_member_ring_mismatch(runner, tmp_path):
    ideal = tmp_path / "ideal.poly"
    elt = tmp_path / "elt.poly"
    ideal.write_text(IDEAL)
    elt.write_text(MEMBER_ELT.replace("vars: x y", "vars: x y z"))
    res = invoke(runner, ["member", str(ideal), str(elt)])
    assert res.exit_code == 2


@pytest.mark.parametrize("p,code", [(3, 0), (7, 1)])
def test_member_vandermonde_dichotomy(runner, tmp_path, p, code):
    """Delta(n = 4) lies in (e_1..e_4) over GF(3) but not over GF(7)."""
    from invar.gf import field
    from invar.invariants import elementary_symmetric, vandermonde, xring
    from invar.polyio import format_polys

    ring = xring(field(p), 4)
    gens = [elementary_symmetric(ring, k) for k in range(1, 5)]
    ideal = tmp_path / "sym.poly"
    elt = tmp_path / "delta.poly"
    ideal.write_text(format_polys(ring, gens))
    elt.write_text(format_polys(ring, [vandermonde(ring)]))
    res = invoke(runner, ["member", str(ideal), str(elt)])
    assert res.exit_code == code


def test_parse_error_exits_two(runner, tmp_path):
    src = tmp_path / "ideal.poly"
    src.write_text("field: nonsense\npoly: x\n")
    res = invoke(runner, ["gb", str(src)])
    assert res.exit_code == 2
    assert "error:" in res.output


_HEAD = "field: 2^1\norder: grevlex\nvars: x y\n"


_MALFORMED = {
    "non-ASCII digit": (_HEAD + "poly: x^\u00b2\n", 4),
    "long integer": (_HEAD + "poly: " + "1" * 4400 + "*x\n", 4),
    "empty order": ("field: 2^1\norder:\nvars: x y\npoly: x\n", 2),
    "block order without a size": (_HEAD.replace("grevlex", "block x") + "poly: x\n", 2),
    "cofactor index": (_HEAD + "cofactor-of: a\npoly: x\n", 4),
    "zero characteristic": ("field: 0^2 g^2+1\norder: lex\nvars: x\npoly: x\n", 1),
    "prime field with a modulus": ("field: 2^1 junk\norder: lex\nvars: x\npoly: x\n", 1),
    "composite characteristic": ("field: 4^1\norder: lex\nvars: x\npoly: x\n", 1),
    "bad variable name": ("field: 2^1\norder: lex\nvars: x 1y\npoly: x\n", 3),
    "repeated variable": ("field: 2^1\norder: lex\nvars: x x\npoly: x\n", 3),
    "block wider than the vars": (_HEAD.replace("grevlex", "block 5") + "poly: x\n", 2),
    "repeated field line": (_HEAD + "field: 3^1\npoly: x\n", 4),
}


@pytest.mark.parametrize("case", _MALFORMED)
@pytest.mark.parametrize("command", ["gb", "member"])
def test_malformed_input_exits_two(runner, tmp_path, command, case):
    """A malformed file is a documented parse error (exit 2) naming its
    line, never an internal error (exit 3)."""
    text, line = _MALFORMED[case]
    ideal = tmp_path / "ideal.poly"
    ideal.write_text(IDEAL)
    bad = tmp_path / "bad.poly"
    bad.write_text(text, encoding="utf-8")
    inputs = [str(bad)] if command == "gb" else [str(ideal), str(bad)]
    res = invoke(runner, [command] + inputs)
    assert res.exit_code == 2
    assert res.output.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("command", ["gb", "member"])
def test_unreadable_input_exits_two(runner, tmp_path, command):
    """Undecodable input and failed writes are errors (2), never the
    refuted/non-member status (1)."""
    ideal = tmp_path / "ideal.poly"
    ideal.write_text(IDEAL)
    bad = tmp_path / "bad.poly"
    bad.write_bytes(b"field: 2^1\xff\n")
    inputs = [str(bad)] if command == "gb" else [str(ideal), str(bad)]
    res = invoke(runner, [command] + inputs)
    assert res.exit_code == 2
    assert "error:" in res.output and "Traceback" not in res.output
    missing_dir = tmp_path / "missing" / "out.txt"
    elt = tmp_path / "elt.poly"
    elt.write_text(MEMBER_ELT)
    inputs = [str(ideal)] if command == "gb" else [str(ideal), str(elt)]
    res = invoke(runner, [command] + inputs + ["--out", str(missing_dir)])
    assert res.exit_code == 2
    assert "error:" in res.output


def test_modulus_search_for_large_p_exits_two(runner, tmp_path):
    res = invoke(runner, ["dickson", "--p", "4294967291", "--e", "2", "--n", "1",
                          "--cache-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert "error:" in res.output and "pass a modulus" in res.output


def test_internal_error_exits_three(runner, monkeypatch):
    """An unexpected exception is an internal error (3), never the
    refuted status (1)."""
    def fail(*args, **kwargs):
        raise RuntimeError("boom")
    monkeypatch.setattr("invar.cli.run_claim", fail)
    res = invoke(runner, ["verify", "sp4-fpurity", "--q", "2"])
    assert res.exit_code == 3
    assert "internal error: RuntimeError: boom" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("command", ["altn", "gb", "member", "verify"])
def test_failed_out_write_keeps_previous_file(runner, tmp_path, monkeypatch,
                                              command):
    """A write that fails before the switch leaves the old --out file
    byte for byte, and no temp file behind."""
    (tmp_path / "ideal.poly").write_text(IDEAL)
    (tmp_path / "elt.poly").write_text(MEMBER_ELT)
    ideal, elt = str(tmp_path / "ideal.poly"), str(tmp_path / "elt.poly")
    args = {"altn": ["altn", "--p", "3", "--n", "3"],
            "gb": ["gb", ideal],
            "member": ["member", ideal, elt],
            "verify": ["verify", "sp4-fpurity", "--q", "2"]}[command]
    out = tmp_path / "out.txt"
    out.write_bytes(b"previous\n")
    before = sorted(tmp_path.iterdir())

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    res = invoke(runner, args + ["--out", str(out)])
    assert res.exit_code == 2
    assert "error: disk full" in res.output
    assert out.read_bytes() == b"previous\n"
    assert sorted(tmp_path.iterdir()) == before


def test_out_to_a_device_writes_in_place(runner):
    """A target that is not a regular file is written, never replaced."""
    res = invoke(runner, ["altn", "--p", "3", "--n", "3", "--out", os.devnull])
    assert res.exit_code == 0, res.output
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_follows_symlink_and_keeps_mode(runner, tmp_path):
    real = tmp_path / "real.txt"
    real.write_bytes(b"previous\n")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    res = invoke(runner, ["altn", "--p", "3", "--n", "3", "--out", str(link)])
    assert res.exit_code == 0, res.output
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == res.output
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]


def test_cache_store_failing_partway_keeps_previous_entry(tmp_path):
    cache.store(str(tmp_path), "entry.poly", "old payload\n")
    entry = tmp_path / "entry.poly"
    before = entry.read_bytes()
    # the header encodes, the lone surrogate in the payload does not
    with pytest.raises(UnicodeEncodeError):
        cache.store(str(tmp_path), "entry.poly", "new \ud800 payload\n")
    assert entry.read_bytes() == before
    assert cache.fetch(str(tmp_path), "entry.poly") == "old payload\n"
    assert [p.name for p in tmp_path.iterdir()] == ["entry.poly"]


# ---------------------------------------------------------------------------
# verify / suite
# ---------------------------------------------------------------------------

def test_verify_writes_replayable_witness(runner, tmp_path):
    wit = tmp_path / "wit.json"
    res = invoke(runner, ["verify", "sp4-fpurity", "--q", "2",
                          "--out", str(wit)])
    assert res.exit_code == 0
    assert "verdict: VERIFIED" in res.output
    assert replay_document(wit.read_text())


def test_verify_machine_format(runner):
    res = invoke(runner, ["verify", "alt-dichotomy", "--n", "3", "--p", "5",
                          "--output", "machine"])
    assert res.exit_code == 0
    line = res.output.strip()
    assert line.startswith("claim=alt-dichotomy n=3 p=5 verdict=VERIFIED")
    assert "bound=0" in line


def test_verify_unknown_claim(runner):
    res = invoke(runner, ["verify", "nonsense"])
    assert res.exit_code == 2
    assert "unknown claim" in res.output


def test_verify_missing_param(runner):
    res = invoke(runner, ["verify", "alt-T", "--n", "3"])
    assert res.exit_code == 2
    assert "missing parameter" in res.output


def test_verify_env_output_override(runner):
    res = invoke(runner, ["verify", "alt-T", "--n", "3", "--p", "3"],
                 env={"INVAR_OUTPUT": "machine"})
    assert res.exit_code == 0
    assert res.output.startswith("claim=alt-T ")
    # an explicit flag wins over the environment
    res = invoke(runner, ["verify", "alt-T", "--n", "3", "--p", "3",
                          "--output", "text"],
                 env={"INVAR_OUTPUT": "machine"})
    assert res.output.startswith("claim: alt-T")


def test_verify_defaults_are_the_run_config_defaults():
    defaults = {opt.name: opt.default for opt in cli.commands["verify"].params}
    fields = ("seed", "trials", "ext_degree", "e_max")
    assert {k: defaults[k] for k in fields} == \
        {k: getattr(RunConfig(), k) for k in fields}


def test_suite_quick_machine_one_line_per_claim(runner):
    res = invoke(runner, ["suite", "quick", "--output", "machine",
                          "--trials", "5", "--ext-degree", "16"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 20
    assert all(line.startswith("claim=") for line in lines)
    assert all("verdict=" in line and "elapsed-ms=" in line for line in lines)


def test_suite_machine_stable_across_runs(runner):
    def strip_timing(text):
        return [line.split(" elapsed-ms=")[0]
                for line in text.strip().splitlines()]
    args = ["suite", "quick", "--output", "machine",
            "--trials", "5", "--ext-degree", "16"]
    a = invoke(runner, args)
    b = invoke(runner, args)
    assert strip_timing(a.output) == strip_timing(b.output)


def test_suite_text_summary(runner):
    res = invoke(runner, ["suite", "quick", "--trials", "5",
                          "--ext-degree", "16"])
    assert res.exit_code == 0
    last = res.output.strip().splitlines()[-1]
    assert last.startswith("summary: 20 claims")
    assert "refuted=0" in last


def test_help_lists_commands(runner):
    res = invoke(runner, ["--help"])
    assert res.exit_code == 0
    for name in ("altn", "dickson", "gb", "member", "suite",
                 "symplectic", "verify"):
        assert name in res.output
