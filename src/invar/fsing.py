"""Claim checks for the invariant rings.

Every computational assertion handled by this package is packaged as a
claim with a string id.  Running a claim produces a VerificationReport
whose verdict is one of

    VERIFIED   an exact identity or membership was established,
    PROBABLE   all sampled points agree, with a stated error bound,
    REFUTED    a counterexample or failed membership was found,
    SKIPPED    a resource guard stopped the exact path.

VERIFIED and REFUTED reports carry a replayable witness: a membership
certificate, a set of exponent tuples, or evaluation points with the
values of both sides.  replay_witness checks an alternating claim's
certificates and runs the claim of every other witness again; either
way the recorded parameters must be the ones the claim reports.
A document whose prime lies past gf.is_prime's bound replays False.
RunConfig refuses alt_nmax past REPLAY_NMAX and ext_degree past
REPLAY_EMAX, so a claim never writes a witness its replay refuses.
run_claim runs every claim by id, the alternating ones included,
refuses a parameter other than mode that is not an int, and times the
claim.  A report keeps the membership certificates its witness holds as
objects; their text is built the first time the report's witness is
read (_witness_text), so a run that never reads a witness never formats
one, and elapsed does not include the formatting.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import compress, product
from math import factorial
from typing import Callable, Optional

from .errors import ResourceLimit, UsageError
from .gf import FieldSpec, _prime_factors, field, is_prime
from .groebner import (MembershipCertificate, buchberger,
                       frobenius_closure_search, ideal_member, normal_form,
                       normal_form_of_product)
from .invariants import (dickson_at_point, dickson_invariants,
                         elementary_symmetric, relation_side_degrees,
                         staircase_monomial, symplectic_relation_sides,
                         symplectic_relation_values, symplectic_xi,
                         symplectic_xi_value, truncated_monomial_sum,
                         vandermonde, vandermonde_rows, xring)
from .mpoly import (Polynomial, PolyRing, random_points, sample_sides,
                    substitute)
from .polyio import (field_prefix, format_certificate, format_polys,
                     parse_certificate_text, parse_field_text)

VERIFIED = "VERIFIED"
PROBABLE = "PROBABLE"
REFUTED = "REFUTED"
SKIPPED = "SKIPPED"

SEARCH_CAP = 10 ** 9    # full-enumeration ceiling of the exponent search
AGREE_CAP = 10 ** 6     # below this, pruned vs full cross-check
REPLAY_NMAX = 8         # largest alt_nmax, so every alternating witness replays
REPLAY_EMAX = 64        # largest ext_degree, so every points witness replays

MODES = ("auto", "exact", "probabilistic")    # identity-check strategies


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every claim check.  All randomness flows from
    seed; verdicts must not depend on it, only witness points may."""
    seed: int = 0
    trials: int = 20
    ext_degree: int = 32
    e_max: int = 4
    alt_nmax: int = 6

    def __post_init__(self):
        if self.trials < 1 or self.ext_degree < 1:
            raise UsageError("trials and ext_degree must be positive")
        if self.e_max < 0 or self.alt_nmax < 2:
            raise UsageError("e_max must be >= 0 and alt_nmax >= 2")
        if self.ext_degree > REPLAY_EMAX or self.alt_nmax > REPLAY_NMAX:
            raise UsageError(f"ext_degree must be <= {REPLAY_EMAX} and "
                             f"alt_nmax <= {REPLAY_NMAX}")


@dataclass
class VerificationReport:
    """The outcome of one claim.  Only a PROBABLE check computes bound;
    it is 0 for VERIFIED and None otherwise.  elapsed is the wall time
    run_claim measured; a check function called directly leaves it at
    0.0.  raw_witness is the witness dict the check built, which may hold
    MembershipCertificate objects.  witness is the same dict with every
    certificate in it replaced by its text: the text is built the first
    time witness is read and kept, so elapsed does not include it."""
    claim_id: str
    parameters: dict
    verdict: str
    bound: Optional[Fraction] = None
    raw_witness: Optional[dict] = None
    elapsed: float = 0.0
    detail: tuple = ()

    def __post_init__(self):
        if self.verdict != PROBABLE:
            self.bound = Fraction(0) if self.verdict == VERIFIED else None

    @property
    def ok(self) -> bool:
        return self.verdict in (VERIFIED, PROBABLE)

    @cached_property
    def witness(self) -> Optional[dict]:
        return _witness_text(self.raw_witness)


def _witness_text(witness: Optional[dict]) -> Optional[dict]:
    """The one place a witness becomes text: each certificate at the top
    of witness or in one of its items is replaced by its text, in place.
    A witness without a certificate comes back untouched."""
    if witness is not None:
        for part in (witness, *witness.get("items", ())):
            for key, value in part.items():
                if isinstance(value, MembershipCertificate):
                    part[key] = format_certificate(value)
    return witness


def _sub_rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _label(claim_id: str, params: dict) -> str:
    core = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{claim_id}|{core}"


# ---------------------------------------------------------------------------
# The Sp_4 hypersurface presentation
# ---------------------------------------------------------------------------

PRES_VARS = ("a", "b", "u", "v", "w")

# c_0 of the 4-variable Dickson family written in the symplectic
# generators; exponent triples are on (u, v, w) = (xi_1, xi_2, xi_3).
# verify_c0_expression re-derives these from scratch.
C0_XI_TERMS = {
    2: ((1, (5, 0, 0)), (1, (0, 3, 0)), (1, (2, 0, 1))),
    3: ((1, (0, 8, 0)), (1, (3, 4, 1)), (1, (6, 0, 2)),
        (1, (10, 4, 0)), (-1, (13, 0, 1)), (1, (20, 0, 0))),
}


@dataclass(frozen=True)
class Presentation:
    """Invariant ring as generators-and-relations: an ambient polynomial
    ring, relation polynomials, and the section sending each ambient
    variable to the invariant it names."""
    ring: PolyRing
    relations: tuple
    images: dict


def c0_terms_poly(ring: PolyRing, terms) -> Polynomial:
    """The expression sum coeff * u^i v^j w^k inside a ring that has
    variables named u, v, w."""
    iu, iv, iw = (ring.names.index(nm) for nm in ("u", "v", "w"))
    data: dict = {}
    for coeff, (eu, ev, ew) in terms:
        e = [0] * ring.nvars
        e[iu], e[iv], e[iw] = eu, ev, ew
        key = tuple(e)
        data[key] = data.get(key, 0) + coeff
    return ring.from_terms(data)


def _sp4_polys(q: int):
    """(ring, [c_0..c_3], [xi_1, xi_2, xi_3]): the rank-2 symplectic
    invariants over GF(q), in 4 variables."""
    R = xring(field(q), 4)
    return (R, dickson_invariants(4, R.field, R),
            [symplectic_xi(R, q, i) for i in (1, 2, 3)])


def sp4_presentation(q: int) -> Presentation:
    """The rank-2 symplectic invariant ring as a hypersurface: variables
    (a, b, u, v, w) mapping to (c_2, c_3, xi_1, xi_2, xi_3), one
    relation  u*c0(u,v,w) - (u^q a - v^q b + w^q)."""
    if q not in (2, 3):
        raise UsageError("presentation data covers q = 2 and q = 3 only")
    amb = PolyRing(field(q), PRES_VARS, "grevlex")
    a, b, u, v, w = amb.gens()
    rel = u * c0_terms_poly(amb, C0_XI_TERMS[q]) - (u ** q * a - v ** q * b + w ** q)
    _, cs, xis = _sp4_polys(q)
    images = {"a": cs[2], "b": cs[3], "u": xis[0], "v": xis[1], "w": xis[2]}
    return Presentation(amb, (rel,), images)


def check_presentation(pres: Presentation) -> bool:
    """Do all relations expand to zero under the variable images?"""
    return all(substitute(r, pres.images).is_zero() for r in pres.relations)


# ---------------------------------------------------------------------------
# Identity claims: the points witness all three share, and the
# exact-then-sample driver of sp4-c0 and sp4-relation
# ---------------------------------------------------------------------------


def _points_witness(L: FieldSpec, pts, lhs_vals, rhs_vals, extras: dict,
                    **more) -> dict:
    w = {
        "kind": "points",
        "field": L.serialize(),
        "points": [[str(x) for x in P] for P in pts],
        "lhs": [str(v) for v in lhs_vals],
        "rhs": [str(v) for v in rhs_vals],
    }
    w.update(extras)
    w.update(more)
    return w


def _verify_identity(claim_id: str, params: dict, config: RunConfig,
                     mode: str, sides, exact, degree: int,
                     extras: dict, detail: list, *, equal: str, differ: str,
                     separates: Optional[str], agree: str) -> VerificationReport:
    """Exact-then-sample check of an identity in 4 variables.

    sides(P) gives the values of both sides at a point, exact() the
    materialized sides; degree bounds the total degree of their
    difference.  extras are the claim's witness keys: an exact VERIFIED
    witness carries them verbatim, every other witness adds mismatch.
    The remaining arguments word the notes: equal ({terms}, {degree})
    and differ ({terms}, {lead} of the difference) after an expansion,
    separates ({k}) and agree after sampling.
    """
    if mode not in MODES:
        raise UsageError(f"unknown mode {mode!r}")
    q = params["q"]
    params = dict(params, mode=mode)
    L = field(q, config.ext_degree)
    rng = _sub_rng(config.seed, _label(claim_id, {"q": q, "mode": mode}))

    def report(verdict, witness, bound=None):
        return VerificationReport(claim_id, dict(params, seed=config.seed),
                                  verdict, bound, witness, detail=tuple(detail))

    if mode in ("exact", "auto"):
        try:
            lhs, rhs = exact()
            if lhs == rhs:
                pts, lv, rv, _ = sample_sides(random_points(L, 4, rng, 3), sides)
                detail.append(equal.format(terms=len(lhs),
                                           degree=lhs.total_degree()))
                return report(VERIFIED, _points_witness(L, pts, lv, rv, extras))
            diff = lhs - rhs
            detail.append(differ.format(terms=len(diff),
                                        lead=diff.leading_exponents()))
            pts, lv, rv, k = sample_sides(random_points(L, 4, rng, 100), sides)
            # the separating point alone refutes; without one replay
            # re-expands
            keep = slice(0, 0) if k is None else slice(k, k + 1)
            return report(REFUTED, _points_witness(
                L, pts[keep], lv[keep], rv[keep], extras,
                mismatch=None if k is None else 0))
        except ResourceLimit as exc:
            if mode == "exact":
                detail.append(f"resource guard: {exc}")
                return report(SKIPPED, None)
            detail.append(f"exact path hit a guard ({exc}); sampling instead")

    params.update(trials=config.trials, ext_degree=config.ext_degree)
    pts, lv, rv, k = sample_sides(random_points(L, 4, rng, config.trials), sides)
    witness = _points_witness(L, pts, lv, rv, extras, mismatch=k)
    if k is not None:
        if separates:
            detail.append(separates.format(k=k + 1))
        return report(REFUTED, witness)
    detail.append(f"{config.trials} samples agree; {agree}")
    return report(PROBABLE, witness, Fraction(degree, L.order) ** config.trials)


# ---------------------------------------------------------------------------
# sp4-c0: the closed expression for c_0 in the symplectic generators
# ---------------------------------------------------------------------------


def _c0_sides(q: int, terms):
    """(sides, exact) of c_0 = the expression terms in xi_1, xi_2, xi_3."""
    expr = c0_terms_poly(PolyRing(field(q), ("u", "v", "w")), terms)

    def sides(P):
        xis = [symplectic_xi_value(P, q, i) for i in (1, 2, 3)]
        return dickson_at_point(P, q)[0], expr.evaluate(xis)

    def exact():
        _, cs, xis = _sp4_polys(q)
        return cs[0], substitute(expr, dict(zip(("u", "v", "w"), xis)))
    return sides, exact


def _c0_degree_bound(q: int, terms) -> int:
    cand = max(sum(a * (q ** (i + 1) + 1) for i, a in enumerate(exps))
               for _, exps in terms)
    return max(q ** 4 - 1, cand)


def verify_c0_expression(q: int, config: RunConfig = RunConfig(),
                         mode: str = "auto", terms=None) -> VerificationReport:
    """Does c_0 (4 variables, GL-invariant of degree q^4 - 1) equal the
    stored expression in xi_1, xi_2, xi_3?  terms overrides the stored
    expression, which is how the mutation controls are run."""
    if q not in (2, 3):
        raise UsageError("c0 expressions are stored for q = 2 and q = 3")
    used = C0_XI_TERMS[q] if terms is None else tuple(
        (int(c), tuple(int(a) for a in e)) for c, e in terms)
    detail = []
    if terms is not None:
        detail.append("candidate expression overridden (mutation control)")
    D = _c0_degree_bound(q, used)
    return _verify_identity(
        "sp4-c0", {"q": q}, config, mode, *_c0_sides(q, used), D,
        {"terms": [[c, list(e)] for c, e in used], "mismatch": None}, detail,
        equal="exact expansion equal; {terms} terms of degree {degree}",
        differ="exact difference has {terms} terms; leading exponents {lead}",
        separates="sample {k} separates the sides",
        agree=f"degree bound {D} over {q}^{config.ext_degree}")


# ---------------------------------------------------------------------------
# sp4-relation and the n = 3 relation family
# ---------------------------------------------------------------------------


def verify_sp4_relation(q: int, config: RunConfig = RunConfig(),
                        mode: str = "auto") -> VerificationReport:
    """The single rank-2 relation  xi_1 c_0 = xi_1^q c_2 - xi_2^q c_3 +
    xi_3^q, checked as materialized polynomials (or by sampling)."""
    if q not in (2, 3):
        raise UsageError("supported for q = 2 and q = 3")
    dl, dr = relation_side_degrees(q, 4, 1)

    def exact():
        R, cs, xis = _sp4_polys(q)
        return symplectic_relation_sides(R, R.field, 1, cs, xis)
    return _verify_identity(
        "sp4-relation", {"q": q, "i": 1}, config, mode,
        lambda P: symplectic_relation_values(P, q, 1),
        exact, max(dl, dr), {"i": 1}, [],
        equal="exact sides equal; {terms} terms of degree {degree}",
        differ="sides differ by {terms} terms", separates=None,
        agree=f"side degrees {dl}/{dr}")


def verify_relations_n3(q: int = 2,
                        config: RunConfig = RunConfig()) -> VerificationReport:
    """The relation family in 6 variables (i = 1 and 2), checked at
    random points only; the materialized sides are out of reach."""
    if not is_prime(q):
        raise UsageError("the 6-variable check needs a prime q")
    params = {"q": q, "trials": config.trials,
              "ext_degree": config.ext_degree, "seed": config.seed}
    detail = []
    L = field(q, config.ext_degree)
    rng = _sub_rng(config.seed, _label("relations-n3", {"q": q}))
    items = []
    verdict, worst = PROBABLE, Fraction(0)
    for i in (1, 2):
        dl, dr = relation_side_degrees(q, 6, i)
        pts, lv, rv, k = sample_sides(
            random_points(L, 6, rng, config.trials),
            lambda P, i=i: symplectic_relation_values(P, q, i))
        items.append(_points_witness(L, pts, lv, rv, {"i": i}, mismatch=k))
        if k is not None:
            detail.append(f"i={i}: sample {k + 1} separates the sides")
            verdict = REFUTED
            break
        worst = max(worst, Fraction(max(dl, dr), L.order) ** config.trials)
        detail.append(f"i={i}: {config.trials} samples agree; side degrees {dl}/{dr}")
    return VerificationReport(
        "relations-n3", params, verdict, worst,
        {"kind": "points-multi", "items": items}, detail=tuple(detail))


# ---------------------------------------------------------------------------
# sp4-fpurity: the Frobenius closure witness
# ---------------------------------------------------------------------------


def sp4_fpurity_check(q: int,
                      config: RunConfig = RunConfig()) -> VerificationReport:
    """In the hypersurface presentation: w is outside (u, v) + (rel) but
    w^q falls inside (u^q, v^q) + (rel), i.e. the Frobenius closure of
    (u, v) is strictly larger.  Level 0 of the closure search is the
    membership of w itself."""
    pres = sp4_presentation(q)
    amb = pres.ring
    u, v, w = amb.gen("u"), amb.gen("v"), amb.gen("w")
    params = {"q": q, "e_max": config.e_max}
    detail = []
    images_ok = check_presentation(pres)
    if images_ok:
        detail.append("presentation relation vanishes on the invariants")
    else:
        detail.append("presentation relation DOES NOT vanish on the invariants")

    closure = frobenius_closure_search(w, [u, v], config.e_max,
                                       fixed=pres.relations)
    # level 0 fails unless w itself is a member
    remainder = closure.failures.get(0, amb.zero)
    remainder_text = remainder.text()
    if closure.e == 0:
        detail.append("w IS in (u, v) + relation ideal")
    else:
        detail.append(f"w not in (u, v) + relation ideal; normal form {remainder_text}")

    witness: dict = {
        "kind": "closure",
        "e": closure.e,
        "membership-remainder": remainder_text,
        "failures": {str(e): r.text() for e, r in closure.failures.items()},
    }
    if closure.certificate is not None:
        witness["certificate"] = closure.certificate
    if closure.e is None:
        detail.append(f"no Frobenius-closure witness up to e_max = {config.e_max}")
    else:
        detail.append(f"Frobenius-closure witness at e = {closure.e}")

    return VerificationReport(
        "sp4-fpurity", params, VERIFIED if images_ok and closure.e == 1 else REFUTED,
        raw_witness=witness, detail=tuple(detail))


# ---------------------------------------------------------------------------
# theorem-search: the degree-counting enumeration
# ---------------------------------------------------------------------------


def theorem_exponent_search(n: int, q: int, prune: bool = True) -> frozenset:
    """All (a_1, ..., a_{2n-1}) with a_1 <= q-2, a_i <= q-1 for i >= 2,
    and sum a_i (q^i + 1) = q^{2n} - 1.  A search space above SEARCH_CAP,
    read at the call, raises ResourceLimit before q is factored.

    prune=True drives the base-q digit argument: writing s = sum a_i =
    lambda*q - 1, every digit of q^{2n-1} - lambda is forced, so only
    lambda is enumerated.  The reference semantics is the plain product
    enumeration; both must agree.
    """
    if n < 2:
        raise UsageError("need n >= 2")
    if q < 2:
        raise UsageError(f"{q} is not a prime power")
    m = 2 * n - 1
    # q^(m-1) has at least (m-1)(bits(q)-1) bits: a space past 2^14300 is
    # refused before its power is built, and one of more than the 4300
    # digits str() prints by default is named by its factors
    space = (q - 1) * q ** (m - 1) if (m - 1) * (q.bit_length() - 1) <= 14300 else None
    if space is None or space >= 10 ** 4300:
        raise ResourceLimit(f"search space {q - 1}*{q}^{m - 1} exceeds cap {SEARCH_CAP}")
    if space > SEARCH_CAP:
        raise ResourceLimit(f"search space {space} exceeds cap {SEARCH_CAP}")
    if len(_prime_factors(q)) != 1:
        raise UsageError(f"{q} is not a prime power")
    if prune:
        smax = (q - 2) + (m - 1) * (q - 1)
        sols = set()
        lam = 1
        while lam * q - 1 <= smax:
            s = lam * q - 1
            M = q ** (2 * n - 1) - lam
            digits = []
            for i in range(1, m + 1):
                a = M % q
                if i == 1 and a > q - 2:
                    digits = None
                    break
                digits.append(a)
                M = (M - a) // q
            if digits is not None and M == 0 and sum(digits) == s:
                sols.add(tuple(digits))
            lam += 1
        return frozenset(sols)
    # products of the terms a_i (q^i + 1) and of the digits a_i walk in
    # step; compress keeps the digits whose terms sum to the target
    digits = [range(q - 1)] + [range(q)] * (m - 1)
    terms = [range(0, len(r) * (q ** i + 1), q ** i + 1)
             for i, r in enumerate(digits, start=1)]
    sums = map(sum, product(*terms))
    return frozenset(compress(product(*digits), map((q ** (2 * n) - 1).__eq__, sums)))


def lambda_identity_check(n: int, q: int) -> dict:
    """Integer form of the closing step: which admissible lambda in
    [1, 2n-2] satisfy lambda (q+1) = 2nq - 2n - q + 3?"""
    rhs = 2 * n * q - 2 * n - q + 3
    sols = tuple(lam for lam in range(1, 2 * n - 1) if lam * (q + 1) == rhs)
    return {"rhs": rhs, "solutions": sols}


def verify_theorem_search(n: int, q: int,
                          config: RunConfig = RunConfig()) -> VerificationReport:
    """For q >= 4n-4 the exponent search must come up empty (that is
    the no-F-purity argument); below the threshold the solution set is
    reported as found."""
    params = {"n": n, "q": q}
    detail = []

    def report(verdict, witness):
        return VerificationReport("theorem-search", params, verdict,
                                  raw_witness=witness, detail=tuple(detail))

    try:
        sols = theorem_exponent_search(n, q)
    except ResourceLimit as exc:
        detail.append(str(exc))
        return report(SKIPPED, None)
    lam = lambda_identity_check(n, q)
    witness = {"kind": "exponents", "solutions": [list(t) for t in sorted(sols)],
               "lambda": dict(lam, solutions=list(lam["solutions"]))}
    space = (q - 1) * q ** (2 * n - 2)
    if space <= AGREE_CAP:
        full = theorem_exponent_search(n, q, prune=False)
        if full != sols:
            detail.append(f"pruned search {sorted(sols)} disagrees with full "
                          f"enumeration {sorted(full)}")
            return report(REFUTED, dict(witness, full=[list(t) for t in sorted(full)]))
        detail.append(f"pruned search agrees with full enumeration over {space} tuples")
    else:
        detail.append(f"space {space} above cross-check cap; digit search only")
    if lam["solutions"]:
        detail.append(f"lambda identity rhs={lam['rhs']}, admissible solutions {lam['solutions']}")
    else:
        detail.append(f"lambda identity rhs={lam['rhs']}, no admissible solution")
    if q < 4 * n - 4:
        detail.append(f"theorem hypothesis q >= 4n-4 = {4 * n - 4} not met; "
                      f"solution set {sorted(sols)} reported for reference")
    elif sols or lam["solutions"]:
        detail.append(f"q >= 4n-4 = {4 * n - 4} but solutions exist")
        return report(REFUTED, witness)
    else:
        detail.append(f"empty as required for q >= 4n-4 = {4 * n - 4}")
    return report(VERIFIED, witness)


# ---------------------------------------------------------------------------
# Alternating-group lemmas
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def symmetric_ideal_gb(n: int, p: int):
    """(ring, Groebner basis) for (e_1, ..., e_n) over GF(p), memoized:
    every alternating-group check reduces against this basis.  The memo
    keeps the 32 latest (n, p), so replaying documents with ever new
    primes does not grow it; a full suite uses 12."""
    R = xring(field(p), n)
    return R, buchberger([elementary_symmetric(R, k) for k in range(1, n + 1)])


def _alt_targets(claim_id: str, ring: PolyRing, p: int) -> list:
    """The (label, target) pairs an alternating claim puts in (e_1..e_n),
    in order.  A target is a call that builds the polynomial, so the
    certificate replay rejects a wrong label list before it builds
    n!-term Vandermondes, and the claim builds none past its first
    non-member.  alt-T: T_j^i (sum of the degree-i monomials in the last
    n-j+1 variables) lies in (e_1..e_n) whenever i >= j >= 1.
    alt-staircase: The n staircase monomials X_i^i X_{i+1}^i ...
    X_n^{n-1} lie in (e_1..e_n).  alt-delta: Delta = prod_{i<j}(X_j -
    X_i) is congruent to n! X_2 X_3^2 ... X_n^{n-1} modulo (e_1..e_n).
    alt-dichotomy: Delta in (e_1..e_n) exactly when p <= n (p odd);
    membership is what separates the F-regular from the non-F-regular
    invariants."""
    n = ring.nvars
    if claim_id == "alt-T":
        # T_j^i: the degree-i monomials in the last n-j+1 variables
        return [({"i": i, "j": j}, partial(truncated_monomial_sum, ring, i, j))
                for i in range(1, n + 1) for j in range(1, i + 1)]
    if claim_id == "alt-staircase":
        return [({"i": i}, partial(staircase_monomial, ring, i))
                for i in range(1, n + 1)]
    if claim_id == "alt-delta":
        return [({"target": "delta-congruence"},
                 lambda: vandermonde(ring) - _socle(ring, p))]
    return [({"target": "delta"}, partial(vandermonde, ring))]      # alt-dichotomy


def _socle(ring: PolyRing, p: int) -> Polynomial:
    """n! X_2 X_3^2 ... X_n^(n-1) over GF(p), which alt-delta subtracts."""
    return ring.monomial(list(range(ring.nvars))).scale(factorial(ring.nvars) % p)


def _delta_remainder(label: dict, gb, p: int) -> Optional[Polynomial]:
    """A Vandermonde target's normal form from its factors, the last
    variable's row first; None for a target with no product form."""
    if "target" not in label:
        return None
    rows = vandermonde_rows(gb.ring)[::-1]
    nf = normal_form_of_product([f for row in rows for f in row], gb)
    return nf if label["target"] == "delta" else nf - normal_form(_socle(gb.ring, p), gb)


def _alt_params(claim_id: str, n: int, p: int, nmax: int) -> None:
    """The parameters an alternating claim accepts, for the claim (nmax
    = alt_nmax) and for its certificate replay (nmax = REPLAY_NMAX)."""
    if not is_prime(p) or p == 2:
        raise UsageError("p must be an odd prime")
    if not 2 <= n <= nmax:
        raise UsageError(f"n must be in [2, {nmax}]")
    if claim_id == "alt-dichotomy" and n < 3:
        raise UsageError("the dichotomy grid starts at n = 3")


def _alt_claim(claim_id: str, n: int, p: int,
               config: RunConfig = RunConfig()) -> VerificationReport:
    """Put each target of _alt_targets in (e_1..e_n): collect the
    certificates, or stop at the first non-member with its normal form.
    Only a target whose _delta_remainder is None or zero is divided.
    _alt_verdict reads the verdict off membership."""
    _alt_params(claim_id, n, p, config.alt_nmax)
    R, gb = symmetric_ideal_gb(n, p)
    params = {"n": n, "p": p}
    items = []
    for label, target in _alt_targets(claim_id, R, p):
        f = target()
        remainder = _delta_remainder(label, gb, p)
        member = not remainder          # None (no product form) or zero
        if member:
            member, cert = ideal_member(f, gb, certificate=True)
            if remainder is not None and not member:
                raise AssertionError("a zero product normal form, but no member")
            remainder = cert.remainder
        if not member:
            break
        items.append(dict(label, certificate=cert))
    verdict = _alt_verdict(claim_id, params, member)
    notes = (f"n! = {factorial(n) % p} mod {p}",) if claim_id == "alt-delta" else ()
    if claim_id == "alt-dichotomy":
        held = " as required" if verdict == VERIFIED else (
            " but p > n" if member else " but p <= n")
        notes += (("Delta in I" if member else "Delta not in I") + held,)
    elif member:
        notes += (f"{len(items)} memberships established",)
    else:
        notes += (" ".join(f"{k}={v}" for k, v in label.items())
                  + f" is NOT in the ideal; normal form has {len(remainder)} terms",)
    witness = {"kind": "certificates", "items": items} if member else dict(
        label, kind="normal-form", polys=format_polys(R, [f, remainder]))
    return VerificationReport(claim_id, params, verdict, raw_witness=witness,
                              detail=notes)


def _alt_verdict(claim_id: str, params, member: bool) -> str:
    # the lemmas claim membership; the dichotomy claims it iff p <= n
    expected = claim_id != "alt-dichotomy" or params["p"] <= params["n"]
    return VERIFIED if member == expected else REFUTED


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------
#
# A replay returns the verdict the witness proves, or None when it does
# not hold.


def _replay_rerun(claim_id, params, witness) -> Optional[str]:
    """Run the claim again from what the document records, alternating
    claims with alt_nmax = REPLAY_NMAX, and require the recorded
    parameters and the same witness, then re-multiply the certificate it
    holds, if any; the verdict is the rerun's.  A points witness fixes
    the field and the draws: the rerun samples as many points as the
    first item holds from the recorded seed, and an item that does not
    stop at a mismatch must hold one point per recorded trial, checked
    before anything runs; after a mismatch, trials need only cover the
    stored points.  The extension degree, read from the field text's
    p^e prefix, goes through RunConfig's bound before the modulus is
    parsed; a malformed field raises."""
    settings = {k: params[k] for k in ("seed", "e_max") if k in params}
    points = witness["kind"] in ("points", "points-multi")
    if points:
        items = witness.get("items", [witness])
        if "trials" in params and any(item.get("mismatch") is None
                                      and len(item["points"]) != params["trials"]
                                      for item in items):
            return None
        ext = field_prefix(items[0]["field"])[1]
        if params.get("ext_degree", ext) != ext:
            return None
        settings.update(ext_degree=ext, trials=max(1, len(items[0]["points"])))
    config = RunConfig(alt_nmax=REPLAY_NMAX, **settings)
    if points:
        parse_field_text(items[0]["field"])
    claim = RUNNERS[claim_id]
    kw = {k: params[k] for k in claim.params if k in params}
    if "terms" in witness:
        kw["terms"] = witness["terms"]
    fresh = claim.check(config=config, **kw)
    got = dict(fresh.parameters)
    if "trials" in got:
        got["trials"] = max(got["trials"], params["trials"])
    if got != params or json.loads(json.dumps(fresh.witness)) != witness:
        return None
    if "certificate" in witness and not parse_certificate_text(
            witness["certificate"]).check():
        return None
    return fresh.verdict


def _proves(text: str, target: Callable[[], Polynomial], gb) -> bool:
    """Does the certificate text prove target() in the ideal of the
    reduced basis gb?  It must be over gb itself with a zero remainder,
    checked before target() is built, then be for target() and re-multiply."""
    cert = parse_certificate_text(text)
    return (cert.basis == gb.elements and cert.is_member
            and cert.target == target() and cert.check())


def _replay_certificates(claim_id, params, witness) -> Optional[str]:
    """One certificate per target of _alt_targets, in order, for exactly
    the n and p the claim accepts at n up to REPLAY_NMAX.  Parsing,
    rebuilding and re-multiplying skips the claim's certified divisions,
    which a rerun would add: about a quarter more time and CPU over the
    exact benchmark workload."""
    _alt_params(claim_id, params["n"], params["p"], REPLAY_NMAX)
    ring, gb = symmetric_ideal_gb(params["n"], params["p"])
    items = witness["items"]
    labels = [{k: v for k, v in item.items() if k != "certificate"}
              for item in items]
    pairs = _alt_targets(claim_id, ring, params["p"])
    if (params.keys() != {"n", "p"} or labels != [label for label, _ in pairs]
            or not all(_proves(item["certificate"], target, gb)
                       for item, (_, target) in zip(items, pairs))):
        return None
    return _alt_verdict(claim_id, params, True)


# ---------------------------------------------------------------------------
# Registry and suites
# ---------------------------------------------------------------------------

_REQUIRED = object()                # marks a parameter without a default


@dataclass(frozen=True)
class Claim:
    """A registered claim.  check(config=..., **params) runs it (an
    alternating claim binds _alt_claim to its id) and builds the
    report's parameters in the order reports list them; params maps each
    parameter run_claim accepts to its default (_REQUIRED when there is
    none).  Replay reruns check from the recorded parameters, except
    for an alternating claim's certificates (_replay)."""
    check: Callable[..., VerificationReport]
    params: dict


_ALT_IDS = ("alt-T", "alt-staircase", "alt-delta", "alt-dichotomy")
_ALT_PARAMS = {"n": _REQUIRED, "p": _REQUIRED}

RUNNERS = {
    "sp4-c0": Claim(verify_c0_expression, {"q": _REQUIRED, "mode": "auto"}),
    "sp4-fpurity": Claim(sp4_fpurity_check, {"q": _REQUIRED}),
    "sp4-relation": Claim(verify_sp4_relation, {"q": _REQUIRED, "mode": "auto"}),
    "theorem-search": Claim(verify_theorem_search, {"n": _REQUIRED, "q": _REQUIRED}),
    **{cid: Claim(partial(_alt_claim, cid), _ALT_PARAMS) for cid in _ALT_IDS},
    "relations-n3": Claim(verify_relations_n3, {"q": 2}),
}


def run_claim(claim_id: str, config: RunConfig = RunConfig(),
              **params) -> VerificationReport:
    """Run a registered claim and time it.  A parameter given as None
    counts as not given; any other but mode must be an int, since the
    memos would key a float or a bool like an int."""
    claim = RUNNERS.get(claim_id)
    if claim is None:
        known = ", ".join(RUNNERS)
        raise UsageError(f"unknown claim {claim_id!r}; known claims: {known}")
    given = {k: v for k, v in params.items() if v is not None}
    extra = set(given) - set(claim.params)
    if extra:
        raise UsageError(f"unknown parameter(s): {', '.join(sorted(extra))}")
    if any(type(v) is not int for k, v in given.items() if k != "mode"):
        raise UsageError("parameters other than mode must be integers")
    got = dict(claim.params, **given)
    missing = [k for k, v in got.items() if v is _REQUIRED]
    if missing:
        raise UsageError(f"missing parameter(s): {', '.join(sorted(missing))}")
    t0 = time.perf_counter()
    report = claim.check(config=config, **got)
    report.elapsed = time.perf_counter() - t0
    return report


_ALT_GRID = tuple((n, p) for n in (3, 4, 5, 6) for p in (3, 5, 7))

_QUICK = (
    ("sp4-c0", {"q": 2}),
    ("sp4-c0", {"q": 3, "mode": "probabilistic"}),
    ("sp4-fpurity", {"q": 2}),
    ("sp4-fpurity", {"q": 3}),
    ("sp4-relation", {"q": 2}),
    ("sp4-relation", {"q": 3}),
    ("theorem-search", {"n": 2, "q": 2}),
    ("theorem-search", {"n": 2, "q": 3}),
    ("theorem-search", {"n": 2, "q": 4}),
    ("theorem-search", {"n": 2, "q": 5}),
    ("alt-T", {"n": 3, "p": 3}),
    ("alt-T", {"n": 4, "p": 5}),
    ("alt-staircase", {"n": 3, "p": 5}),
    ("alt-staircase", {"n": 4, "p": 3}),
    ("alt-delta", {"n": 3, "p": 7}),
    ("alt-delta", {"n": 4, "p": 5}),
    ("alt-delta", {"n": 5, "p": 3}),
    ("alt-dichotomy", {"n": 3, "p": 3}),
    ("alt-dichotomy", {"n": 3, "p": 5}),
    ("alt-dichotomy", {"n": 4, "p": 3}),
)

_FULL_EXTRA = (
    ("sp4-c0", {"q": 3, "mode": "exact"}),
    ("theorem-search", {"n": 2, "q": 7}),
    ("theorem-search", {"n": 2, "q": 8}),
    ("theorem-search", {"n": 3, "q": 8}),
    ("theorem-search", {"n": 3, "q": 9}),
    ("relations-n3", {"q": 2}),
) + tuple((cid, {"n": n, "p": p})
          for cid in _ALT_IDS
          for n, p in _ALT_GRID if (cid, {"n": n, "p": p}) not in _QUICK)


def suite_claims(profile: str):
    """Ordered (claim_id, params) pairs for a suite run, grouped in
    registry order."""
    if profile == "quick":
        entries = list(_QUICK)
    elif profile == "full":
        entries = list(_QUICK) + list(_FULL_EXTRA)
    else:
        raise UsageError(f"unknown profile {profile!r} (quick or full)")
    order = {cid: k for k, cid in enumerate(RUNNERS)}
    entries.sort(key=lambda ent: order[ent[0]])
    return tuple((cid, dict(ps)) for cid, ps in entries)


def run_suite(profile: str, config: RunConfig = RunConfig()) -> list:
    return [run_claim(cid, config, **ps) for cid, ps in suite_claims(profile)]


def _replay(claim_id: str, params: dict, witness) -> Optional[str]:
    try:
        if any(type(v) is not int for k, v in params.items() if k != "mode"):
            return None
        if witness["kind"] == "certificates" and claim_id in _ALT_IDS:
            return _replay_certificates(claim_id, params, witness)
        return _replay_rerun(claim_id, params, witness)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError,
            ResourceLimit):
        # an unknown claim, a malformed witness or parameters (a
        # JSON value of the wrong type included), or one past a guard
        # proves nothing
        return None


def replay_witness(claim_id: str, params: dict, witness: dict) -> bool:
    """Re-validate a stored witness by one rule.  An alternating claim's
    certificates are checked: the parameters must be exactly the n and
    p the claim accepts at n up to REPLAY_NMAX, and each certificate
    must be for its rebuilt target over the reduced basis and
    re-multiply.  Every other witness runs its claim again (alternating
    claims at n up to REPLAY_NMAX): the rerun must report the recorded
    parameters, keys and values, its witness must equal the stored one
    whole, a certificate it holds must re-multiply, and the verdict is
    the rerun's, so replay costs what the claim cost.  A malformed
    witness, a parameter other than mode that is not an int, or one
    that would push replay past a resource guard (a prime past
    gf.is_prime's bound or an extension degree past REPLAY_EMAX
    included), replays False."""
    return _replay(claim_id, params, witness) is not None


def witness_document(report: VerificationReport) -> str:
    """JSON text for --out files; replay_document inverts it."""
    doc = {"claim": report.claim_id,
           "params": report.parameters,
           "verdict": report.verdict,
           "witness": report.witness}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def replay_document(text: str) -> bool:
    """Replay a witness document: the witness must hold and prove the
    verdict the document records.  A document that is not a JSON object,
    or lacks its claim, params, verdict or witness, replays False; text
    that is not JSON raises json.JSONDecodeError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or not {"claim", "params", "verdict", "witness"} <= doc.keys():
        return False
    return _replay(doc["claim"], doc["params"], doc["witness"]) == doc["verdict"]


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def bound_text(bound: Optional[Fraction]) -> str:
    if bound is None:
        return "-"
    if bound == 0:
        return "0"
    if bound >= 1:
        return "1"
    k = (bound.denominator // bound.numerator).bit_length() - 1
    return f"2^-{k}"


def params_text(report: VerificationReport) -> str:
    return " ".join(f"{k}={v}" for k, v in report.parameters.items())


def render_text(report: VerificationReport,
                witness_file: Optional[str] = None) -> str:
    lines = [f"claim: {report.claim_id}",
             f"params: {params_text(report)}",
             f"verdict: {report.verdict}"]
    if report.bound is not None:
        lines.append(f"bound: {bound_text(report.bound)}")
    for note in report.detail:
        lines.append(f"note: {note}")
    if witness_file:
        lines.append(f"witness-file: {witness_file}")
    lines.append(f"elapsed-ms: {report.elapsed * 1000:.1f}")
    return "\n".join(lines) + "\n"


def render_machine(report: VerificationReport) -> str:
    """One line per claim: claim, params in fixed order, verdict, bound,
    elapsed; greppable and diff-stable apart from the timing field."""
    parts = [f"claim={report.claim_id}"]
    ptext = params_text(report)
    if ptext:
        parts.append(ptext)
    parts.append(f"verdict={report.verdict}")
    parts.append(f"bound={bound_text(report.bound)}")
    parts.append(f"elapsed-ms={report.elapsed * 1000:.0f}")
    return " ".join(parts)
