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
values of both sides.  replay_witness re-validates a certificate or
exponent witness without re-running any search; an identity witness is
replayed by running its claim again from the recorded seed, so its
points must be the claim's own draws and replay costs what the claim
cost.  run_claim times each claim.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .errors import ResourceLimit, UsageError
from .gf import FieldSpec, _prime_factors, field, is_prime
from .groebner import (buchberger, frobenius_closure_search,
                       frobenius_power_ideal, ideal_member, normal_form)
from .invariants import (dickson_at_point, dickson_invariants,
                         elementary_symmetric, relation_side_degrees,
                         staircase_monomial, symplectic_relation_sides,
                         symplectic_relation_values, symplectic_xi,
                         symplectic_xi_value, truncated_monomial_sum,
                         vandermonde, xring)
from .mpoly import (Polynomial, PolyRing, frobenius_power, random_points,
                    sample_sides, substitute)
from .polyio import (format_certificate, format_polys, parse_certificate_text,
                     parse_field_text, parse_polys_text)

VERIFIED = "VERIFIED"
PROBABLE = "PROBABLE"
REFUTED = "REFUTED"
SKIPPED = "SKIPPED"

SEARCH_CAP = 10 ** 9    # full-enumeration ceiling of the exponent search
AGREE_CAP = 10 ** 6     # below this, pruned vs full cross-check


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


@dataclass
class VerificationReport:
    """The outcome of one claim.  elapsed is the wall time run_claim
    measured; a check function called directly leaves it at 0.0."""
    claim_id: str
    parameters: dict
    verdict: str
    bound: Optional[Fraction] = None
    witness: Optional[dict] = None
    elapsed: float = 0.0
    detail: tuple = ()

    @property
    def ok(self) -> bool:
        return self.verdict in (VERIFIED, PROBABLE)


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


def sp4_presentation(q: int) -> Presentation:
    """The rank-2 symplectic invariant ring as a hypersurface: variables
    (a, b, u, v, w) mapping to (c_2, c_3, xi_1, xi_2, xi_3), one
    relation  u*c0(u,v,w) - (u^q a - v^q b + w^q)."""
    if q not in (2, 3):
        raise UsageError("presentation data covers q = 2 and q = 3 only")
    spec = field(q)
    amb = PolyRing(spec, PRES_VARS, "grevlex")
    a, b, u, v, w = amb.gens()
    rel = u * c0_terms_poly(amb, C0_XI_TERMS[q]) - (u ** q * a - v ** q * b + w ** q)
    X = xring(spec, 4)
    cs = dickson_invariants(4, spec, X)
    xis = [symplectic_xi(X, q, i) for i in (1, 2, 3)]
    images = {"a": cs[2], "b": cs[3], "u": xis[0], "v": xis[1], "w": xis[2]}
    return Presentation(amb, (rel,), images)


def check_presentation(pres: Presentation) -> bool:
    """Do all relations expand to zero under the variable images?"""
    return all(substitute(r, pres.images).is_zero() for r in pres.relations)


# ---------------------------------------------------------------------------
# Identity claims: one driver for sp4-c0, sp4-relation and relations-n3
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
    if mode not in ("exact", "probabilistic", "auto"):
        raise UsageError(f"unknown mode {mode!r}")
    q = params["q"]
    params = dict(params, mode=mode, seed=config.seed)
    L = field(q, config.ext_degree)
    rng = _sub_rng(config.seed, _label(claim_id, {"q": q, "mode": mode}))

    def report(verdict, bound, witness):
        return VerificationReport(claim_id, params, verdict, bound, witness,
                                  detail=tuple(detail))

    if mode in ("exact", "auto"):
        try:
            lhs, rhs = exact()
            if lhs == rhs:
                pts, lv, rv, _ = sample_sides(random_points(L, 4, rng, 3), sides)
                detail.append(equal.format(terms=len(lhs),
                                           degree=lhs.total_degree()))
                return report(VERIFIED, Fraction(0),
                              _points_witness(L, pts, lv, rv, extras))
            diff = lhs - rhs
            detail.append(differ.format(terms=len(diff),
                                        lead=diff.leading_exponents()))
            pts, lv, rv, k = sample_sides(random_points(L, 4, rng, 100), sides)
            # the separating point alone refutes; without one replay
            # re-expands
            keep = slice(0, 0) if k is None else slice(k, k + 1)
            return report(REFUTED, None, _points_witness(
                L, pts[keep], lv[keep], rv[keep], extras,
                mismatch=None if k is None else 0))
        except ResourceLimit as exc:
            if mode == "exact":
                detail.append(f"resource guard: {exc}")
                return report(SKIPPED, None, None)
            detail.append(f"exact path hit a guard ({exc}); sampling instead")

    params.update(trials=config.trials, ext_degree=config.ext_degree)
    pts, lv, rv, k = sample_sides(random_points(L, 4, rng, config.trials), sides)
    witness = _points_witness(L, pts, lv, rv, extras, mismatch=k)
    if k is not None:
        if separates:
            detail.append(separates.format(k=k + 1))
        return report(REFUTED, None, witness)
    detail.append(f"{config.trials} samples agree; {agree}")
    return report(PROBABLE, Fraction(degree, L.order) ** config.trials, witness)


# ---------------------------------------------------------------------------
# sp4-c0: the closed expression for c_0 in the symplectic generators
# ---------------------------------------------------------------------------


def _c0_sides(q: int, terms):
    """(sides, exact) of c_0 = the expression terms in xi_1, xi_2, xi_3."""
    spec = field(q)
    expr = c0_terms_poly(PolyRing(spec, ("u", "v", "w")), terms)

    def sides(P):
        xis = [symplectic_xi_value(P, q, i) for i in (1, 2, 3)]
        return dickson_at_point(P, q)[0], expr.evaluate(xis)

    def exact():
        R = xring(spec, 4)
        xis = [symplectic_xi(R, q, i) for i in (1, 2, 3)]
        return (dickson_invariants(4, spec, R)[0],
                substitute(expr, dict(zip(("u", "v", "w"), xis))))
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
    L = field(q, config.ext_degree)
    return _verify_identity(
        "sp4-c0", {"q": q}, config, mode, *_c0_sides(q, used), D,
        {"terms": [[c, list(e)] for c, e in used], "mismatch": None}, detail,
        equal="exact expansion equal; {terms} terms of degree {degree}",
        differ="exact difference has {terms} terms; leading exponents {lead}",
        separates="sample {k} separates the sides",
        agree=f"degree bound {D} over {L.serialize().split()[0]}")


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
        spec = field(q)
        R = xring(spec, 4)
        xis = [symplectic_xi(R, q, i) for i in (1, 2, 3)]
        return symplectic_relation_sides(R, spec, 1,
                                         dickson_invariants(4, spec, R), xis)
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
            verdict, worst = REFUTED, None
            break
        worst = max(worst, Fraction(max(dl, dr), L.order) ** config.trials)
        detail.append(f"i={i}: {config.trials} samples agree; side degrees {dl}/{dr}")
    return VerificationReport(
        "relations-n3", params, verdict, worst,
        {"kind": "points-multi", "items": items}, detail=tuple(detail))


# ---------------------------------------------------------------------------
# sp4-fpurity: the Frobenius closure witness
# ---------------------------------------------------------------------------


def sp4_fpurity_check(q: int, config: RunConfig = RunConfig(),
                      include_relation: bool = True) -> VerificationReport:
    """In the hypersurface presentation: w is outside (u, v) + (rel) but
    w^q falls inside (u^q, v^q) + (rel), i.e. the Frobenius closure of
    (u, v) is strictly larger.  include_relation=False is a control: the
    closure witness must disappear without the relation."""
    pres = sp4_presentation(q)
    amb = pres.ring
    u, v, w = amb.gen("u"), amb.gen("v"), amb.gen("w")
    rel = pres.relations[0]
    params = {"q": q, "e_max": config.e_max}
    detail = []

    if check_presentation(pres):
        detail.append("presentation relation vanishes on the invariants")
        images_ok = True
    else:
        detail.append("presentation relation DOES NOT vanish on the invariants")
        images_ok = False

    fixed = (rel,) if include_relation else ()
    if not include_relation:
        params["include_relation"] = False
        detail.append("control run: relation generator disabled")
    member, mcert = ideal_member(w, [u, v] + list(fixed), certificate=True)
    if member:
        detail.append("w IS in (u, v) + relation ideal")
    else:
        detail.append(f"w not in (u, v) + relation ideal; normal form {mcert.remainder.text()}")

    closure = frobenius_closure_search(w, [u, v], config.e_max, fixed=fixed)
    witness: dict = {
        "kind": "closure",
        "e": closure.e,
        "membership-remainder": mcert.remainder.text(),
        "failures": {str(e): r.text() for e, r in closure.failures.items()},
    }
    if closure.certificate is not None:
        witness["certificate"] = format_certificate(closure.certificate)
    if closure.e is None:
        detail.append(f"no Frobenius-closure witness up to e_max = {config.e_max}")
    else:
        detail.append(f"Frobenius-closure witness at e = {closure.e}")

    ok = images_ok and not member and closure.e == 1
    return VerificationReport(
        "sp4-fpurity", params, VERIFIED if ok else REFUTED,
        Fraction(0) if ok else None, witness, detail=tuple(detail))


# ---------------------------------------------------------------------------
# theorem-search: the degree-counting enumeration
# ---------------------------------------------------------------------------


def theorem_exponent_search(n: int, q: int, cap: int = SEARCH_CAP,
                            prune: bool = True) -> frozenset:
    """All (a_1, ..., a_{2n-1}) with a_1 <= q-2, a_i <= q-1 for i >= 2,
    and sum a_i (q^i + 1) = q^{2n} - 1.

    prune=True drives the base-q digit argument: writing s = sum a_i =
    lambda*q - 1, every digit of q^{2n-1} - lambda is forced, so only
    lambda is enumerated.  The reference semantics is the plain product
    enumeration; both must agree.
    """
    if n < 2:
        raise UsageError("need n >= 2")
    if len(_prime_factors(q)) != 1:
        raise UsageError(f"{q} is not a prime power")
    m = 2 * n - 1
    space = (q - 1) * q ** (m - 1)
    if space > cap:
        raise ResourceLimit(f"search space {space} exceeds cap {cap}")
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
    target = q ** (2 * n) - 1
    weights = [q ** i + 1 for i in range(1, m + 1)]
    sols = set()
    for a1 in range(q - 1):
        head = a1 * weights[0]
        for rest in product(range(q), repeat=m - 1):
            tot = head + sum(a * wt for a, wt in zip(rest, weights[1:]))
            if tot == target:
                sols.add((a1,) + rest)
    return frozenset(sols)


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
        return VerificationReport(
            "theorem-search", params, verdict,
            Fraction(0) if verdict == VERIFIED else None, witness,
            detail=tuple(detail))

    m = 2 * n - 1
    space = (q - 1) * q ** (m - 1)
    lam = lambda_identity_check(n, q)
    try:
        sols = theorem_exponent_search(n, q, cap=SEARCH_CAP, prune=True)
    except ResourceLimit as exc:
        detail.append(str(exc))
        return report(SKIPPED, None)
    witness = {"kind": "exponents",
               "solutions": [list(t) for t in sorted(sols)],
               "lambda": _lam_json(lam)}
    if space <= AGREE_CAP:
        full = theorem_exponent_search(n, q, cap=SEARCH_CAP, prune=False)
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


def _lam_json(lam: dict) -> dict:
    return {"rhs": lam["rhs"], "solutions": list(lam["solutions"])}


# ---------------------------------------------------------------------------
# Alternating-group lemmas
# ---------------------------------------------------------------------------

_SYM_GB_CACHE: dict = {}


def symmetric_ideal_gb(n: int, p: int):
    """(ring, Groebner basis) for (e_1, ..., e_n) over GF(p), memoized:
    every alternating-group check reduces against this basis."""
    got = _SYM_GB_CACHE.get((n, p))
    if got is None:
        R = xring(field(p), n)
        gb = buchberger([elementary_symmetric(R, k) for k in range(1, n + 1)])
        got = (R, gb)
        _SYM_GB_CACHE[(n, p)] = got
    return got


def _alt_validate(n: int, p: int, config: RunConfig):
    if not is_prime(p) or p == 2:
        raise UsageError("p must be an odd prime")
    if not 2 <= n <= config.alt_nmax:
        raise UsageError(f"n must be in [2, {config.alt_nmax}]")


def _alt_labels(claim_id: str, n: int) -> list:
    """The labels of the targets an alternating claim puts in (e_1..e_n)."""
    if claim_id == "alt-T":
        return [{"i": i, "j": j} for i in range(1, n + 1) for j in range(1, i + 1)]
    if claim_id == "alt-staircase":
        return [{"i": i} for i in range(1, n + 1)]
    if claim_id == "alt-delta":
        return [{"target": "delta-congruence"}]
    return [{"target": "delta"}]        # alt-dichotomy


def _alt_target(claim_id: str, ring: PolyRing, label: dict, p: int) -> Polynomial:
    """The polynomial a label of _alt_labels names."""
    if claim_id == "alt-T":
        # T_j^i: the degree-i monomials in the last n-j+1 variables
        return truncated_monomial_sum(ring, label["i"], label["j"])
    if claim_id == "alt-staircase":
        return staircase_monomial(ring, label["i"])
    if claim_id == "alt-delta":
        # Delta - n! X_2 X_3^2 ... X_n^(n-1)
        socle = ring.monomial([r - 1 for r in range(1, ring.nvars + 1)])
        return vandermonde(ring) - socle.scale(_factorial_mod(ring.nvars, p))
    return vandermonde(ring)            # alt-dichotomy


def _alt_membership(claim_id: str, ring: PolyRing, gb, label: dict, p: int):
    """(member, remainder, piece) for one target: piece is its
    certificates item when it is a member, else its normal-form witness."""
    f = _alt_target(claim_id, ring, label, p)
    member, cert = ideal_member(f, gb, certificate=True)
    if member:
        return True, cert.remainder, dict(label, certificate=format_certificate(cert))
    return False, cert.remainder, dict(
        label, kind="normal-form", polys=format_polys(ring, [f, cert.remainder]))


def _alt_certificates(claim_id: str, n: int, p: int,
                      config: RunConfig) -> VerificationReport:
    """Each target of _alt_labels must lie in (e_1..e_n): collect the
    certificates, or refute on the first failure."""
    _alt_validate(n, p, config)
    R, gb = symmetric_ideal_gb(n, p)
    params = {"n": n, "p": p}
    items = []
    for label in _alt_labels(claim_id, n):
        member, remainder, piece = _alt_membership(claim_id, R, gb, label, p)
        if not member:
            return VerificationReport(
                claim_id, params, REFUTED, None, piece,
                detail=(f"{label_text(label)} is NOT in the ideal; "
                        f"normal form has {len(remainder)} terms",))
        items.append(piece)
    return VerificationReport(
        claim_id, params, VERIFIED, Fraction(0),
        {"kind": "certificates", "items": items},
        detail=(f"{len(items)} memberships established",))


def label_text(label: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in label.items())


def alt_lemma_T(n: int, p: int,
                config: RunConfig = RunConfig()) -> VerificationReport:
    """T_j^i (sum of the degree-i monomials in the last n-j+1 variables)
    lies in (e_1..e_n) whenever i >= j >= 1."""
    return _alt_certificates("alt-T", n, p, config)


def alt_lemma_staircase(n: int, p: int,
                        config: RunConfig = RunConfig()) -> VerificationReport:
    """The n staircase monomials X_i^i X_{i+1}^i ... X_n^{n-1} lie in
    (e_1..e_n)."""
    return _alt_certificates("alt-staircase", n, p, config)


def _factorial_mod(n: int, p: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out = out * k % p
    return out


def alt_delta_congruence(n: int, p: int,
                         config: RunConfig = RunConfig()) -> VerificationReport:
    """Delta = prod_{i<j}(X_j - X_i) is congruent to n! X_2 X_3^2 ...
    X_n^{n-1} modulo (e_1..e_n)."""
    report = _alt_certificates("alt-delta", n, p, config)
    report.detail = (f"n! = {_factorial_mod(n, p)} mod {p}",) + report.detail
    return report


def alt_fregularity_dichotomy(n: int, p: int,
                              config: RunConfig = RunConfig()) -> VerificationReport:
    """Delta in (e_1..e_n) exactly when p <= n (p odd); membership is
    what separates the F-regular from the non-F-regular invariants."""
    _alt_validate(n, p, config)
    if n < 3:
        raise UsageError("the dichotomy grid starts at n = 3")
    R, gb = symmetric_ideal_gb(n, p)
    [label] = _alt_labels("alt-dichotomy", n)
    member, _, piece = _alt_membership("alt-dichotomy", R, gb, label, p)
    expected = p <= n
    if member:
        witness = {"kind": "certificates", "items": [piece]}
        detail = "Delta in I" + (" as required" if expected else " but p > n")
    else:
        witness = piece
        detail = "Delta not in I" + (" as required" if not expected else " but p <= n")
    ok = member == expected
    return VerificationReport(
        "alt-dichotomy", {"n": n, "p": p}, VERIFIED if ok else REFUTED,
        Fraction(0) if ok else None, witness, detail=(detail,))


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------
#
# A replay returns the verdict the witness proves, or None when it does
# not hold.


def _replay_identity(claim_id, params, witness) -> Optional[str]:
    """Run the claim again from what the document records and require
    the same witness, so the stored points must be the claim's own draws
    from the recorded seed.  The re-run samples as many points as the
    first item holds; an item that does not stop at a mismatch must hold
    one point per recorded trial, checked before anything runs."""
    items = witness.get("items", [witness])
    if "trials" in params and any(item.get("mismatch") is None
                                  and len(item["points"]) != params["trials"]
                                  for item in items):
        return None
    ext = parse_field_text(items[0]["field"]).e
    if params.get("ext_degree", ext) != ext:
        return None
    config = RunConfig(seed=params["seed"], ext_degree=ext,
                       trials=max(1, len(items[0]["points"])))
    claim = RUNNERS[claim_id]
    kw = {k: params[k] for k in claim.params if k in params}
    if "terms" in witness:
        kw["terms"] = witness["terms"]
    fresh = claim.check(config=config, **kw)
    if json.loads(json.dumps(fresh.witness)) != witness:
        return None
    return fresh.verdict


def _replay_closure(claim_id, params, witness) -> Optional[str]:
    """VERIFIED for a closure witness at e = 1 with w outside (u, v)."""
    q = params["q"]
    pres = sp4_presentation(q)
    amb = pres.ring
    u, v, w = amb.gen("u"), amb.gen("v"), amb.gen("w")
    rel = pres.relations[0]
    fixed = () if params.get("include_relation") is False else (rel,)
    # the non-membership half
    nf = normal_form(w, buchberger([u, v] + list(fixed)))
    if nf.text() != witness["membership-remainder"]:
        return None
    e = witness.get("e")
    if e is None:
        stored = witness.get("failures", {})
        e_max = max((int(k) for k in stored), default=0)
        closure = frobenius_closure_search(w, [u, v], e_max, fixed=fixed)
        failures = {str(k): r.text() for k, r in closure.failures.items()}
        return REFUTED if closure.e is None and failures == stored else None
    cert = parse_certificate_text(witness["certificate"])
    if (cert.target.ring != amb or cert.target != frobenius_power(w, e)
            or not (cert.is_member and cert.check())):
        return None
    # certificate basis must generate no more than the raised ideal
    raised = frobenius_power_ideal([u, v], e) + list(fixed)
    gb = buchberger(raised)
    if not all(normal_form(bel, gb).is_zero() for bel in cert.basis):
        return None
    return VERIFIED if e == 1 and not nf.is_zero() else REFUTED


def _replay_exponents(claim_id, params, witness) -> Optional[str]:
    """REFUTED when the witness records a full enumeration holding a
    solution the pruned search missed.  A full list that lacks one of
    the pruned solutions cannot be an enumeration, so it proves
    nothing."""
    n, q = params["n"], params["q"]
    m = 2 * n - 1
    target = q ** (2 * n) - 1
    sols = witness["solutions"]
    full = witness.get("full", sols)
    for sol in sols + full:
        if len(sol) != m or sol[0] > q - 2 or any(a > q - 1 or a < 0 for a in sol):
            return None
        if sum(a * (q ** i + 1) for i, a in enumerate(sol, start=1)) != target:
            return None
    if any(sol not in full for sol in sols):
        return None
    lam = lambda_identity_check(n, q)
    if _lam_json(lam) != witness["lambda"]:
        return None
    if q >= 4 * n - 4 and (sols or lam["solutions"]):
        return None
    return REFUTED if any(sol not in sols for sol in full) else VERIFIED


def _alt_verdict(claim_id: str, params, member: bool) -> str:
    # the lemmas claim membership; the dichotomy claims it iff p <= n
    expected = claim_id != "alt-dichotomy" or params["p"] <= params["n"]
    return VERIFIED if member == expected else REFUTED


def _replay_certificates(claim_id, params, witness) -> Optional[str]:
    """One certificate per label of _alt_labels, in order."""
    n, p = params["n"], params["p"]
    ring, gb = symmetric_ideal_gb(n, p)
    items = witness["items"]
    labels = [{k: v for k, v in item.items() if k != "certificate"}
              for item in items]
    if labels != _alt_labels(claim_id, n):
        return None
    for item in items:
        cert = parse_certificate_text(item["certificate"])
        if (cert.target.ring != ring or cert.basis != gb.elements
                or cert.target != _alt_target(claim_id, ring, item, p)
                or not (cert.is_member and cert.check())):
            return None
    return _alt_verdict(claim_id, params, True)


def _replay_normal_form(claim_id, params, witness) -> Optional[str]:
    """A nonzero normal form of one labelled target."""
    n, p = params["n"], params["p"]
    ring, gb = symmetric_ideal_gb(n, p)
    label = {k: v for k, v in witness.items() if k not in ("kind", "polys")}
    if label not in _alt_labels(claim_id, n):
        return None
    parsed_ring, polys = parse_polys_text(witness["polys"])
    if parsed_ring != ring or len(polys) != 2:
        return None
    target, remainder = polys
    if target != _alt_target(claim_id, ring, label, p):
        return None
    if remainder.is_zero() or normal_form(target, gb) != remainder:
        return None
    return _alt_verdict(claim_id, params, False)


# ---------------------------------------------------------------------------
# Registry and suites
# ---------------------------------------------------------------------------

_REQUIRED = object()                # marks a parameter without a default


@dataclass(frozen=True)
class Claim:
    """A registered claim.  check(config=..., **params) runs it; params
    maps each parameter run_claim accepts to its default (_REQUIRED when
    there is none); order is the order in which reports list parameters,
    before any others; replays maps a witness kind to its
    replay(claim_id, params, witness), which returns the verdict the
    witness proves or None."""
    check: Callable[..., VerificationReport]
    params: dict
    order: tuple
    replays: dict


_IDENTITY_ORDER = ("mode", "trials", "ext_degree", "seed")
_ALT_PARAMS = {"n": _REQUIRED, "p": _REQUIRED}
_ALT_REPLAYS = {"certificates": _replay_certificates,
                "normal-form": _replay_normal_form}

RUNNERS = {
    "sp4-c0": Claim(verify_c0_expression, {"q": _REQUIRED, "mode": "auto"},
                    ("q",) + _IDENTITY_ORDER, {"points": _replay_identity}),
    "sp4-fpurity": Claim(sp4_fpurity_check, {"q": _REQUIRED},
                         ("q", "e_max", "include_relation"),
                         {"closure": _replay_closure}),
    "sp4-relation": Claim(verify_sp4_relation, {"q": _REQUIRED, "mode": "auto"},
                          ("q", "i") + _IDENTITY_ORDER,
                          {"points": _replay_identity}),
    "theorem-search": Claim(verify_theorem_search,
                            {"n": _REQUIRED, "q": _REQUIRED}, ("n", "q"),
                            {"exponents": _replay_exponents}),
    "alt-T": Claim(alt_lemma_T, _ALT_PARAMS, ("n", "p"), _ALT_REPLAYS),
    "alt-staircase": Claim(alt_lemma_staircase, _ALT_PARAMS, ("n", "p"),
                           _ALT_REPLAYS),
    "alt-delta": Claim(alt_delta_congruence, _ALT_PARAMS, ("n", "p"),
                       _ALT_REPLAYS),
    "alt-dichotomy": Claim(alt_fregularity_dichotomy, _ALT_PARAMS, ("n", "p"),
                           _ALT_REPLAYS),
    "relations-n3": Claim(verify_relations_n3, {"q": 2},
                          ("q", "trials", "ext_degree", "seed"),
                          {"points-multi": _replay_identity}),
}


def run_claim(claim_id: str, config: RunConfig = RunConfig(),
              **params) -> VerificationReport:
    """Run a registered claim and time it.  A parameter given as None
    counts as not given."""
    claim = RUNNERS.get(claim_id)
    if claim is None:
        known = ", ".join(RUNNERS)
        raise UsageError(f"unknown claim {claim_id!r}; known claims: {known}")
    given = {k: v for k, v in params.items() if v is not None}
    extra = set(given) - set(claim.params)
    if extra:
        raise UsageError(f"unknown parameter(s): {', '.join(sorted(extra))}")
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
          for cid in ("alt-T", "alt-staircase", "alt-delta", "alt-dichotomy")
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
    claim = RUNNERS.get(claim_id)
    if witness is None or claim is None:
        return None
    replay = claim.replays.get(witness.get("kind"))
    try:
        return replay(claim_id, params, witness) if replay else None
    except (KeyError, IndexError, TypeError, ValueError):
        return None                 # a malformed witness proves nothing


def replay_witness(claim_id: str, params: dict, witness: dict) -> bool:
    """Re-validate a stored witness.  Certificates are re-multiplied and
    exponent tuples re-checked without a search; the exception is a
    closure witness with no level, whose search is run again up to the
    largest stored level.  An identity witness is replayed by running its
    claim again from the recorded seed and must equal the fresh witness:
    its points must be the claim's own draws, and replay costs what the
    claim cost.  A malformed witness replays False."""
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
    verdict the document records."""
    doc = json.loads(text)
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
    claim = RUNNERS.get(report.claim_id)
    order = claim.order if claim else ()
    keys = [k for k in order if k in report.parameters]
    keys += sorted(k for k in report.parameters if k not in order)
    return " ".join(f"{k}={report.parameters[k]}" for k in keys)


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
