"""Command-line surface.

Exit codes: 0 for verified/probable/member, 1 for refuted/non-member,
2 for usage, parse, resource, file-access or decoding errors, 3 for an
internal error (any other exception).  Every flag with an INVAR_*
environment variable falls back to it; explicit flags win.
"""

import functools
import os
import sys
import time

import click

from . import cache
from .errors import ParseError, ResourceLimit, UsageError
from .fsing import (MODES, PROBABLE, REFUTED, RUNNERS, SKIPPED, VERIFIED,
                    RunConfig, bound_text, params_text, render_machine,
                    render_text, run_claim, suite_claims, witness_document)
from .gf import field
from .groebner import buchberger, change_ring, ideal_member
from .invariants import (dickson_invariants, elementary_symmetric,
                         symplectic_xi, vandermonde, xring)
from .mpoly import EXP_CAP, PolyRing
from .polyio import format_certificate, format_polys, parse_polys_text


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (UsageError, ParseError, ResourceLimit, UnicodeDecodeError,
                OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _config_options(fn):
    decos = [
        click.option("--seed", type=int, default=RunConfig.seed,
                     envvar="INVAR_SEED", show_default=True,
                     help="Root seed for sampled points."),
        click.option("--trials", type=int, default=RunConfig.trials,
                     envvar="INVAR_TRIALS", show_default=True,
                     help="Samples per probabilistic check."),
        click.option("--ext-degree", type=int, default=RunConfig.ext_degree,
                     envvar="INVAR_EXT_DEGREE", show_default=True,
                     help="Extension degree of the sampling field."),
        click.option("--e-max", type=int, default=RunConfig.e_max,
                     envvar="INVAR_E_MAX", show_default=True,
                     help="Frobenius closure search depth."),
    ]
    for deco in reversed(decos):
        fn = deco(fn)
    return fn


_output_option = click.option(
    "--output", type=click.Choice(["text", "machine"]), default="text",
    envvar="INVAR_OUTPUT", show_default=True,
    help="Report style: blocks or one line per claim.")

_out_option = click.option(
    "--out", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Write the result to this file as well.")


def _emit(text: str, out):
    click.echo(text, nl=False)
    if out:
        cache.write_atomic(out, text)


def _parse_order_flag(text):
    if text is None:
        return None
    parts = text.split(":")
    if parts[0] in ("grevlex", "lex") and len(parts) == 1:
        return parts[0]
    if parts[0] == "block" and len(parts) == 2:
        try:
            return ("block", int(parts[1]))
        except ValueError:
            pass
    raise UsageError(f"bad order {text!r}; use grevlex, lex, or block:k")


@click.group()
def cli():
    """Exact invariant-theory computations and claim verification."""


@cli.command()
@click.option("--p", type=int, required=True, help="Characteristic.")
@click.option("--e", type=int, default=1, show_default=True,
              help="Field is GF(p^e).")
@click.option("--n", type=int, required=True, help="Number of variables.")
@click.option("--cache-dir", type=click.Path(file_okay=False),
              envvar="INVAR_CACHE_DIR", default=None,
              help="Cache directory (default ~/.cache/invar).")
@_out_option
@_guard
def dickson(p, e, n, cache_dir, out):
    """Write the n fundamental GL_n(GF(p^e)) invariants c_0..c_{n-1}."""
    if n < 1:
        raise UsageError("need n >= 1")
    spec = field(p, e)
    if spec.order ** n > EXP_CAP:
        raise ResourceLimit(
            f"degrees reach q^n = {spec.order ** n}, beyond the exponent cap {EXP_CAP}")
    if cache_dir is None:
        cache_dir = os.path.expanduser(os.path.join("~", ".cache", "invar"))
    key = f"dickson-{p}-{e}-{n}.poly"
    payload = cache.fetch(cache_dir, key)
    if payload is None:
        ring = xring(field(p), n)
        cs = dickson_invariants(n, spec, ring)
        payload = format_polys(ring, cs)
        cache.store(cache_dir, key, payload)
    _emit(payload, out)


@cli.command()
@click.option("--p", type=int, required=True, help="Characteristic.")
@click.option("--e", type=int, default=1, show_default=True,
              help="Invariants of Sp_{2n}(GF(p^e)).")
@click.option("--n", type=int, required=True, help="Half the variable count.")
@_out_option
@_guard
def symplectic(p, e, n, out):
    """Write the symplectic invariants xi_1..xi_{2n-1} in 2n variables."""
    if n < 1:
        raise UsageError("need n >= 1")
    spec = field(p, e)
    ring = xring(field(p), 2 * n)
    xis = [symplectic_xi(ring, spec.order, i) for i in range(1, 2 * n)]
    _emit(format_polys(ring, xis), out)


@cli.command()
@click.option("--p", type=int, required=True, help="Coefficient prime.")
@click.option("--n", type=int, required=True, help="Number of variables.")
@_out_option
@_guard
def altn(p, n, out):
    """Write the alternating-group generators: e_1..e_n and the
    Vandermonde product."""
    if n < 2:
        raise UsageError("need n >= 2")
    ring = xring(field(p), n)
    polys = [elementary_symmetric(ring, k) for k in range(1, n + 1)]
    polys.append(vandermonde(ring))
    _emit(format_polys(ring, polys), out)


@cli.command()
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--order", default=None,
              help="Recompute under this term order (grevlex, lex, block:k).")
@_out_option
@_guard
def gb(ideal_file, order, out):
    """Reduced Groebner basis of the ideal in IDEAL_FILE."""
    with open(ideal_file, "r", encoding="utf-8") as fh:
        ring, gens = parse_polys_text(fh.read())
    new_order = _parse_order_flag(order)
    if new_order is not None:
        ring = PolyRing(ring.field, ring.names, new_order)
        gens = [change_ring(g, ring) for g in gens]
    basis = buchberger(gens)
    _emit(format_polys(ring, list(basis)), out)


@cli.command()
@click.argument("ideal_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("element_file", type=click.Path(exists=True, dir_okay=False))
@_out_option
@_guard
def member(ideal_file, element_file, out):
    """Is the polynomial in ELEMENT_FILE inside the ideal of IDEAL_FILE?
    Exits 0 for member, 1 for non-member; --out saves the division
    certificate."""
    with open(ideal_file, "r", encoding="utf-8") as fh:
        ring, gens = parse_polys_text(fh.read())
    with open(element_file, "r", encoding="utf-8") as fh:
        ring2, polys = parse_polys_text(fh.read())
    if len(polys) != 1:
        raise UsageError("element file must hold exactly one polynomial")
    if ring2 != ring:
        raise UsageError("ideal and element files use different rings")
    is_member, cert = ideal_member(polys[0], gens, certificate=True)
    if out:
        cache.write_atomic(out, format_certificate(cert))
    if is_member:
        click.echo("member")
        sys.exit(0)
    click.echo(f"non-member; normal form: {cert.remainder.text()}")
    sys.exit(1)


@cli.command(help="Run one claim check.  CLAIM is one of: "
             + ", ".join(RUNNERS) + ".")
@click.argument("claim_id", metavar="CLAIM")
@click.option("--q", type=int, default=None, help="Field size parameter.")
@click.option("--n", type=int, default=None, help="Rank / variable count.")
@click.option("--p", type=int, default=None, help="Coefficient prime.")
@click.option("--mode", type=click.Choice(MODES),
              default=None, help="Identity-check strategy.")
@_config_options
@_output_option
@_out_option
@_guard
def verify(claim_id, q, n, p, mode, seed, trials, ext_degree, e_max,
           output, out):
    config = RunConfig(seed=seed, trials=trials, ext_degree=ext_degree,
                       e_max=e_max)
    report = run_claim(claim_id, config, q=q, n=n, p=p, mode=mode)
    witness_file = None
    if out and report.witness is not None:
        cache.write_atomic(out, witness_document(report))
        witness_file = out
    if output == "machine":
        click.echo(render_machine(report))
    else:
        click.echo(render_text(report, witness_file=witness_file), nl=False)
    if report.ok:
        sys.exit(0)
    if report.verdict == REFUTED:
        sys.exit(1)
    sys.exit(2)                    # SKIPPED: a guard stopped the check


@cli.command()
@click.argument("profile", type=click.Choice(["quick", "full"]),
                default="quick")
@_config_options
@_output_option
@_out_option
@_guard
def suite(profile, seed, trials, ext_degree, e_max, output, out):
    """Run every claim in a profile; exits 0 iff nothing was refuted."""
    config = RunConfig(seed=seed, trials=trials, ext_degree=ext_degree,
                       e_max=e_max)
    t0 = time.perf_counter()
    # each report is rendered as it arrives and dropped: only its row's
    # strings are kept, and no witness is read
    rows, verdicts = [], []
    for claim_id, params in suite_claims(profile):
        r = run_claim(claim_id, config, **params)
        verdicts.append(r.verdict)
        rows.append(render_machine(r) if output == "machine" else (
            r.claim_id, params_text(r), r.verdict, bound_text(r.bound),
            f"{r.elapsed * 1000:.0f}"))
    if output == "machine":
        lines = rows
    else:
        widths = [max(len(row[k]) for row in rows) for k in range(4)]
        lines = ["  ".join(row[k].ljust(widths[k]) for k in range(4))
                 + "  " + row[4].rjust(6) for row in rows]
        lines.append(f"summary: {len(verdicts)} claims | "
                     + " ".join(f"{v.lower()}={verdicts.count(v)}"
                                for v in (VERIFIED, PROBABLE, REFUTED, SKIPPED))
                     + f" | {time.perf_counter() - t0:.1f}s")
    text = "\n".join(lines) + "\n"
    _emit(text, out)
    sys.exit(1 if REFUTED in verdicts else 0)


def main():
    cli(prog_name="invar")


if __name__ == "__main__":
    main()
