"""Tests for the claim registry: presentations, searches, witnesses."""

import json
import random
import time
from fractions import Fraction

import pytest

import invar.groebner as groebner
import invar.mpoly as mpoly
from invar.errors import UsageError
from invar.gf import field, is_prime
from invar.groebner import (MembershipCertificate, buchberger, change_ring,
                            frobenius_closure_search, frobenius_power_ideal,
                            normal_form)
from invar.mpoly import PolyRing, frobenius_power
from invar.invariants import (dickson_invariants, symplectic_relation_values,
                              symplectic_xi, truncated_monomial_sum, vandermonde,
                              xring)
from invar.polyio import (format_certificate, format_polys, parse_certificate_text,
                          parse_field_text, parse_polys_text)
from invar import fsing, gf
from invar.fsing import (C0_XI_TERMS, RunConfig, VerificationReport,
                         bound_text,
                         c0_terms_poly, check_presentation,
                         lambda_identity_check, params_text,
                         render_machine, render_text, replay_document,
                         replay_witness, run_claim, run_suite,
                         sp4_fpurity_check, sp4_presentation, substitute,
                         suite_claims, symmetric_ideal_gb,
                         theorem_exponent_search,
                         verify_c0_expression, verify_relations_n3,
                         verify_sp4_relation, verify_theorem_search,
                         witness_document, RUNNERS)
from oracles import mutated_c0_terms, reference_exponent_search

FAST = RunConfig(trials=5, ext_degree=16)


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_presentation_relation_vanishes(q):
    assert check_presentation(sp4_presentation(q))


def test_presentation_rejects_other_q():
    with pytest.raises(UsageError):
        sp4_presentation(5)


def test_presentation_shape():
    pres = sp4_presentation(2)
    assert pres.ring.names == ("a", "b", "u", "v", "w")
    assert set(pres.images) == {"a", "b", "u", "v", "w"}
    # images live in one common polynomial ring in 4 variables
    rings = {f.ring for f in pres.images.values()}
    assert len(rings) == 1 and next(iter(rings)).nvars == 4


def test_substitute_is_a_ring_map():
    R = PolyRing(field(5), ["a", "b"])
    S = PolyRing(field(5), ["x", "y"])
    x, y = S.gens()
    images = {"a": x + y, "b": x * y}
    f = R.gen("a") ** 2 + R.gen("b").scale(3)
    g = R.gen("a") - R.gen("b")
    assert substitute(f * g, images) == \
        substitute(f, images) * substitute(g, images)
    assert substitute(f + g, images) == \
        substitute(f, images) + substitute(g, images)


def test_stored_terms_degrees():
    # every stored monomial in xi_1, xi_2, xi_3 has total weighted degree
    # q^4 - 1, the degree of c_0
    for q, terms in C0_XI_TERMS.items():
        degs = [q + 1, q ** 2 + 1, q ** 3 + 1]
        for _c, exps in terms:
            assert sum(a * d for a, d in zip(exps, degs)) == q ** 4 - 1


# ---------------------------------------------------------------------------
# c_0 expression
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_c0_expression_exact(q):
    rep = verify_c0_expression(q, mode="exact")
    assert rep.verdict == "VERIFIED"
    assert rep.bound == 0
    assert rep.ok
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_c0_expression_probabilistic():
    rep = verify_c0_expression(3, mode="probabilistic")
    assert rep.verdict == "PROBABLE"
    assert rep.bound is not None and rep.bound <= Fraction(1, 2 ** 60)
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_c0_expression_matches_direct_expansion():
    # independent of the verifier: build both sides by hand for q = 2
    R = xring(field(2), 4)
    c0 = dickson_invariants(4, field(2), R)[0]
    uvw = PolyRing(field(2), ["u", "v", "w"])
    xis = [symplectic_xi(R, 2, i) for i in (1, 2, 3)]
    expr = c0_terms_poly(uvw, C0_XI_TERMS[2])
    assert substitute(expr, dict(zip(("u", "v", "w"), xis))) == c0


def test_mutation_requires_q3():
    with pytest.raises(UsageError):
        mutated_c0_terms(2, random.Random(0))


def test_mutations_are_refuted():
    """Ten random corruptions of the stored expression must all be
    caught, and each refutation witness must replay."""
    for k in range(10):
        rng = random.Random(1000 + k)
        bad = mutated_c0_terms(3, rng)
        assert bad != C0_XI_TERMS[3]
        rep = verify_c0_expression(3, FAST, mode="probabilistic", terms=bad)
        assert rep.verdict == "REFUTED", f"mutation {k} slipped through"
        assert not rep.ok
        assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_mutation_refuted_in_exact_mode():
    bad = mutated_c0_terms(3, random.Random(77))
    rep = verify_c0_expression(3, mode="exact", terms=bad)
    assert rep.verdict == "REFUTED"
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_points_witness_tamper_detected():
    rep = verify_c0_expression(3, mode="probabilistic")
    doc = json.loads(witness_document(rep))
    pts = doc["witness"]["points"]
    assert pts
    # corrupt one stored evaluation
    doc["witness"]["lhs"][0] = doc["witness"]["lhs"][0] + "+1"
    assert not replay_document(json.dumps(doc))


# ---------------------------------------------------------------------------
# sp4 relation and the n = 3 family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_sp4_relation_exact(q):
    rep = verify_sp4_relation(q, mode="exact")
    assert rep.verdict == "VERIFIED" and rep.bound == 0
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_sp4_relation_probabilistic_bound():
    rep = verify_sp4_relation(3, mode="probabilistic")
    assert rep.verdict == "PROBABLE"
    assert rep.bound <= Fraction(1, 2 ** 60)
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_relations_n3():
    rep = verify_relations_n3(2)
    assert rep.verdict == "PROBABLE"
    assert rep.bound <= Fraction(1, 2 ** 60)
    items = rep.witness["items"]
    assert [it["i"] for it in items] == [1, 2]
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_relations_n3_tamper_detected():
    rep = verify_relations_n3(2, FAST)
    doc = json.loads(witness_document(rep))
    doc["witness"]["items"][1]["rhs"][0] = "g^5"
    assert not replay_document(json.dumps(doc))


# ---------------------------------------------------------------------------
# F-purity failure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_fpurity_witness(q):
    rep = sp4_fpurity_check(q)
    assert rep.verdict == "VERIFIED"
    assert rep.witness["e"] == 1
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


@pytest.mark.parametrize("q", [2, 3])
def test_fpurity_control_needs_the_relation(q):
    """Dropping the hypersurface relation from the ideal must kill the
    closure witness; this guards against the search passing vacuously.
    A claim that searches no level past 0 refutes, and its report
    replays through the rerun up to e_max."""
    _, _, u, v, w = sp4_presentation(q).ring.gens()
    assert frobenius_closure_search(w, [u, v], 4).e is None
    rep = sp4_fpurity_check(q, RunConfig(e_max=0))
    assert rep.verdict == "REFUTED"
    assert rep.witness["e"] is None
    assert "no Frobenius-closure witness" in " ".join(rep.detail)
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)



def test_fpurity_refutes_a_presentation_that_fails(monkeypatch):
    """A relation that does not vanish on the invariants refutes the
    claim even though the closure witness at e = 1 is found."""
    monkeypatch.setattr(fsing, "check_presentation", lambda pres: False)
    rep = sp4_fpurity_check(2)
    assert rep.verdict == "REFUTED" and rep.bound is None
    assert rep.detail[0] == "presentation relation DOES NOT vanish on the invariants"
    assert rep.witness["e"] == 1


def test_fpurity_refutes_a_member_at_level_zero(monkeypatch):
    """The search run on u in place of w: u is in (u, v) + (rel) at e = 0,
    so there is no strict closure and the claim is refuted."""
    search = fsing.frobenius_closure_search

    def on_u(f, gens, e_max, fixed=()):
        return search(gens[0], gens, e_max, fixed=fixed)

    monkeypatch.setattr(fsing, "frobenius_closure_search", on_u)
    rep = sp4_fpurity_check(2)
    assert rep.verdict == "REFUTED" and rep.bound is None
    assert rep.detail[1] == "w IS in (u, v) + relation ideal"
    assert rep.detail[2] == "Frobenius-closure witness at e = 0"
    assert rep.witness["e"] == 0 and rep.witness["failures"] == {}
    assert rep.witness["membership-remainder"] == "0"

def test_fpurity_certificate_tamper_detected():
    rep = sp4_fpurity_check(2)
    doc = json.loads(witness_document(rep))
    cert = doc["witness"]["certificate"]
    # swap the stated closure level; target check must fail
    doc["witness"]["e"] = 2
    assert not replay_document(json.dumps(doc))
    doc["witness"]["e"] = 1
    doc["witness"]["membership-remainder"] = "0"
    assert not replay_document(json.dumps(doc))
    assert "target:" in cert


# ---------------------------------------------------------------------------
# exponent search
# ---------------------------------------------------------------------------

def test_search_finds_the_known_solution():
    sols = theorem_exponent_search(2, 3)
    assert sols == frozenset({(1, 2, 2)})


@pytest.mark.parametrize("n,q", [(2, 2), (2, 4), (2, 5), (3, 2)])
def test_search_empty_cases(n, q):
    assert theorem_exponent_search(n, q) == frozenset()


@pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_prune_agrees_with_full_enumeration(n, q):
    assert theorem_exponent_search(n, q, prune=True) == \
        theorem_exponent_search(n, q, prune=False)


_SUITE_SEARCHES = sorted((params["n"], params["q"])
                         for claim_id, params in suite_claims("full")
                         if claim_id == "theorem-search")


@pytest.mark.parametrize("n,q", _SUITE_SEARCHES + [(3, 11), (4, 5)])
def test_full_enumeration_matches_the_reference_loop(n, q):
    assert theorem_exponent_search(n, q, prune=False) == reference_exponent_search(n, q)


def test_search_disagreement_refutes(monkeypatch):
    # a full enumeration holding one tuple more than the pruned search
    search = theorem_exponent_search

    def lopsided(n, q, prune=True):
        sols = search(n, q, prune)
        return sols if prune else sols | {(0,) * (2 * n - 1)}

    monkeypatch.setattr(fsing, "theorem_exponent_search", lopsided)
    rep = verify_theorem_search(2, 3)
    assert rep.verdict == "REFUTED"
    assert rep.witness["full"] == [[0, 0, 0], [1, 2, 2]]
    assert any("disagrees with full enumeration" in note for note in rep.detail)



@pytest.mark.parametrize("patch", ["search", "lambda"])
def test_solutions_above_the_hypothesis_refute(monkeypatch, patch):
    """At n = 2, q = 7 >= 4n - 4 both the search and the lambda identity
    come up empty; a solution from either one refutes the theorem."""
    if patch == "search":
        monkeypatch.setattr(fsing, "theorem_exponent_search",
                            lambda n, q, prune=True: frozenset({(1, 2, 3)}))
    else:
        monkeypatch.setattr(fsing, "lambda_identity_check",
                            lambda n, q: {"rhs": 17, "solutions": (2,)})
    rep = verify_theorem_search(2, 7)
    assert rep.verdict == "REFUTED" and rep.bound is None
    assert rep.detail[-1] == "q >= 4n-4 = 4 but solutions exist"
    assert (rep.witness["solutions"], rep.witness["lambda"]["solutions"]) == \
        (([[1, 2, 3]], []) if patch == "search" else ([], [2]))

def test_search_solution_satisfies_constraints():
    n, q = 2, 3
    a1, a2, a3 = next(iter(theorem_exponent_search(n, q)))
    lam = 2
    s = lam * q - 1
    assert a1 + a2 + a3 == s
    assert a1 <= q - 2
    assert a1 + a2 * q + a3 * q * q == q ** (2 * n - 1) - lam


@pytest.mark.parametrize("n,q", [(2, 7), (2, 8), (3, 8), (3, 9)])
def test_theorem_holds_above_hypothesis(n, q):
    rep = verify_theorem_search(n, q)
    assert rep.verdict == "VERIFIED"
    assert rep.witness["solutions"] == []
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_theorem_below_hypothesis_reports_solutions():
    rep = verify_theorem_search(2, 3)
    assert rep.verdict == "VERIFIED"     # hypothesis fails, nothing claimed
    assert rep.witness["solutions"] == [[1, 2, 2]]
    assert any("not met" in line for line in rep.detail)
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_search_cap_skips(monkeypatch):
    monkeypatch.setattr(fsing, "SEARCH_CAP", 10)
    rep = verify_theorem_search(3, 8)
    assert rep.verdict == "SKIPPED"
    assert rep.witness is None


def _refuse_factoring(q):
    raise AssertionError(f"factored {q} before the cap check")


@pytest.mark.parametrize("n, q, note", [
    (5000, 3, "search space 2*3^9998 exceeds cap 1000000000"),
    (3_000_000, 3, "search space 2*3^5999998 exceeds cap 1000000000"),
    (2, 10 ** 12 + 39,
     f"search space {(10 ** 12 + 38) * (10 ** 12 + 39) ** 2} exceeds cap 1000000000"),
    # the largest space of at most 4300 digits is still printed whole
    (7143, 2, f"search space {2 ** 14284} exceeds cap 1000000000"),
    (7144, 2, "search space 1*2^14286 exceeds cap 1000000000"),
], ids=["n=5000", "n=3000000", "q=10^12+39", "printed-whole", "named-by-factors"])
def test_search_cap_comes_before_factoring(monkeypatch, n, q, note):
    """A space past SEARCH_CAP is refused before q is factored or a
    huge power is built; one too long to print is named by its factors."""
    monkeypatch.setattr(fsing, "_prime_factors", _refuse_factoring)
    rep = verify_theorem_search(n, q)
    assert rep.verdict == "SKIPPED" and rep.detail == (note,)
    doc = {"claim": "theorem-search", "params": {"n": n, "q": q},
           "verdict": "VERIFIED", "witness": {"kind": "exponents", "solutions": [],
                                               "lambda": {"rhs": 0, "solutions": []}}}
    t0 = time.perf_counter()
    assert not replay_document(json.dumps(doc))
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("text", [
    "[]", "3", "null", '"theorem-search"',
    '{"claim": "alt-T"}',
    '{"claim": "theorem-search", "params": {"n": 2, "q": 3}, "verdict": "VERIFIED"}',
    '{"params": {"n": 2, "q": 3}, "verdict": "VERIFIED", "witness": {}}',
])
def test_replay_document_that_is_not_a_full_object_is_false(text):
    assert replay_document(text) is False


def test_replay_document_of_text_that_is_not_json_raises():
    with pytest.raises(json.JSONDecodeError):
        replay_document("{")


def test_lambda_identity_values():
    got = lambda_identity_check(2, 3)
    assert got["rhs"] == 2 * 2 * 3 - 2 * 2 - 3 + 3
    assert got["solutions"] == (2,)
    # above the hypothesis no lambda in range satisfies the identity
    for n, q in [(2, 7), (2, 8), (3, 8), (3, 9)]:
        assert lambda_identity_check(n, q)["solutions"] == ()


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_search_rejects_non_prime_power(q):
    with pytest.raises(UsageError):
        theorem_exponent_search(2, q)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_search_accepts_prime_powers(q):
    assert theorem_exponent_search(2, q) == theorem_exponent_search(2, q, prune=False)


def test_exponent_witness_tamper_detected():
    rep = verify_theorem_search(2, 3)
    doc = json.loads(witness_document(rep))
    doc["witness"]["solutions"] = [[2, 1, 2]]
    assert not replay_document(json.dumps(doc))


# ---------------------------------------------------------------------------
# alternating-group lemmas
# ---------------------------------------------------------------------------

GRID = [(n, p) for n in (3, 4, 5) for p in (3, 5, 7)]


@pytest.mark.parametrize("n,p", GRID)
def test_alt_lemmas_verified(n, p):
    for cid in ("alt-T", "alt-staircase", "alt-delta"):
        rep = run_claim(cid, n=n, p=p)
        assert rep.verdict == "VERIFIED", (cid, n, p)
        assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


@pytest.mark.parametrize("n,p", GRID)
def test_dichotomy_matches_p_vs_n(n, p):
    rep = run_claim("alt-dichotomy", n=n, p=p)
    assert rep.verdict == "VERIFIED"
    if p <= n:
        assert rep.witness["kind"] == "certificates"
    else:
        assert rep.witness["kind"] == "normal-form"
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_alt_rejects_p_two():
    with pytest.raises(UsageError):
        run_claim("alt-T", n=3, p=2)


def test_alt_rejects_large_n():
    with pytest.raises(UsageError):
        run_claim("alt-T", n=9, p=3)


def test_delta_congruence_gives_membership_when_factorial_dies():
    # p <= n makes n! vanish mod p, so the congruence witness is itself
    # a membership certificate for the Vandermonde determinant
    rep = run_claim("alt-delta", n=5, p=3)
    assert rep.witness["kind"] == "certificates"
    item = rep.witness["items"][0]
    assert "remainder: 0" in item["certificate"]


def test_certificate_witness_tamper_detected():
    rep = run_claim("alt-staircase", n=3, p=5)
    doc = json.loads(witness_document(rep))
    item = doc["witness"]["items"][0]
    item["certificate"] = item["certificate"].replace(
        "remainder: 0", "remainder: 1")
    assert not replay_document(json.dumps(doc))


def test_normal_form_witness_tamper_detected():
    rep = run_claim("alt-dichotomy", n=3, p=5)
    assert rep.witness["kind"] == "normal-form"
    doc = json.loads(witness_document(rep))
    polys = doc["witness"]["polys"]
    doc["witness"]["polys"] = polys.replace("poly:", "poly: x1+", 1)
    assert not replay_document(json.dumps(doc))


# ---------------------------------------------------------------------------
# witness text on first read
# ---------------------------------------------------------------------------

def _count_formats(monkeypatch) -> list:
    """The certificates fsing formats from now on, one entry per call."""
    calls = []

    def spy(cert):
        calls.append(cert)
        return format_certificate(cert)
    monkeypatch.setattr(fsing, "format_certificate", spy)
    return calls


def test_certificates_are_formatted_once_on_first_read(monkeypatch):
    calls = _count_formats(monkeypatch)
    rep = run_claim("alt-T", n=3, p=3)
    assert calls == []
    certs = [item["certificate"] for item in rep.raw_witness["items"]]
    assert all(isinstance(c, MembershipCertificate) for c in certs)
    first = rep.witness
    assert first is rep.witness
    # each certificate once, in item order, and not again on the second read
    assert list(map(id, calls)) == list(map(id, certs)) and len(certs) == 6
    assert [item["certificate"] for item in first["items"]] == \
        [format_certificate(c) for c in certs]
    assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_closure_certificate_is_formatted_on_first_read(monkeypatch):
    calls = _count_formats(monkeypatch)
    rep = sp4_fpurity_check(2)
    cert = rep.raw_witness["certificate"]
    assert isinstance(cert, MembershipCertificate) and calls == []
    assert rep.witness["certificate"] == format_certificate(cert)
    assert calls == [cert]


def test_points_witness_is_the_dict_the_check_built(monkeypatch):
    built, original = [], fsing._points_witness

    def spy(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(fsing, "_points_witness", spy)
    rep = run_claim("sp4-c0", FAST, q=2)
    assert len(built) == 1 and rep.witness is built[0]


@pytest.mark.parametrize("claim", [
    lambda: sp4_fpurity_check(2, RunConfig(e_max=0)),
    lambda: verify_theorem_search(2, 3),
    lambda: run_claim("alt-dichotomy", n=3, p=5),
])
def test_witness_without_certificate_is_not_copied(claim, monkeypatch):
    calls = _count_formats(monkeypatch)
    rep = claim()
    raw = rep.raw_witness
    assert rep.witness is raw and calls == []


# ---------------------------------------------------------------------------
# registry and suites
# ---------------------------------------------------------------------------

def test_run_claim_dispatch():
    rep = run_claim("alt-T", n=3, p=3)
    assert isinstance(rep, VerificationReport)
    assert rep.claim_id == "alt-T" and rep.verdict == "VERIFIED"


def test_run_claim_unknown():
    with pytest.raises(UsageError):
        run_claim("no-such-claim")


def test_run_claim_bad_params():
    with pytest.raises(UsageError):
        run_claim("alt-T", n=3, p=3, extra=1)
    with pytest.raises(UsageError):
        run_claim("alt-T", n=3)


def test_every_registered_claim_runs():
    samples = {"sp4-c0": {"q": 2}, "sp4-fpurity": {"q": 2},
               "sp4-relation": {"q": 2}, "theorem-search": {"n": 2, "q": 4},
               "alt-T": {"n": 3, "p": 3}, "alt-staircase": {"n": 3, "p": 3},
               "alt-delta": {"n": 3, "p": 3},
               "alt-dichotomy": {"n": 3, "p": 3}, "relations-n3": {}}
    assert set(samples) == set(RUNNERS)
    for claim_id, params in samples.items():
        rep = run_claim(claim_id, FAST, **params)
        assert rep.ok, claim_id
        assert replay_witness(rep.claim_id, rep.parameters, rep.witness)


def test_quick_suite_contents():
    claims = suite_claims("quick")
    assert len(claims) >= 12
    ids = [c for c, _ in claims]
    # grouped by registry order
    seen = [c for k, c in enumerate(ids) if c not in ids[:k]]
    assert seen == [c for c in RUNNERS if c in seen]


def test_full_suite_extends_quick():
    quick = suite_claims("quick")
    full = suite_claims("full")
    assert set(map(repr, quick)) <= set(map(repr, full))
    assert ("sp4-c0", {"q": 3, "mode": "exact"}) in full
    assert ("relations-n3", {"q": 2}) in full


def test_suite_rejects_unknown_profile():
    with pytest.raises(UsageError):
        suite_claims("extended")


def test_suite_verdicts_independent_of_seed():
    def key(r):
        ps = {k: v for k, v in r.parameters.items() if k != "seed"}
        return (r.claim_id, ps, r.verdict)
    a = run_suite("quick", RunConfig(seed=7, trials=5, ext_degree=16))
    b = run_suite("quick", RunConfig(seed=11, trials=5, ext_degree=16))
    assert [key(r) for r in a] == [key(r) for r in b]
    assert all(r.ok for r in a)


# ---------------------------------------------------------------------------
# config and rendering
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(UsageError):
        RunConfig(trials=0)
    with pytest.raises(UsageError):
        RunConfig(alt_nmax=1)
    with pytest.raises(UsageError):
        run_claim("sp4-c0", q=2, mode="fuzzy")


def test_bound_text():
    assert bound_text(None) == "-"
    assert bound_text(Fraction(0)) == "0"
    assert bound_text(Fraction(1, 2 ** 60)) == "2^-60"
    assert bound_text(Fraction(80, 3 ** 32) ** 20) == "2^-887"


def test_run_claim_is_the_only_timer():
    assert run_claim("alt-delta", n=3, p=3).elapsed > 0
    assert fsing.RUNNERS["alt-delta"].check(n=3, p=3).elapsed == 0.0


def test_render_text_and_machine():
    rep = run_claim("alt-delta", n=3, p=3)
    text = render_text(rep)
    assert text.splitlines()[0] == "claim: alt-delta"
    assert "verdict: VERIFIED" in text
    line = render_machine(rep)
    assert line.startswith("claim=alt-delta n=3 p=3 verdict=VERIFIED")
    assert params_text(rep) == "n=3 p=3"


@pytest.mark.parametrize("claim_id, params, config, text", [
    ("sp4-c0", {"q": 2, "mode": "exact"}, RunConfig(), "q=2 mode=exact seed=0"),
    ("sp4-c0", {"q": 3, "mode": "probabilistic"}, RunConfig(),
     "q=3 mode=probabilistic trials=20 ext_degree=32 seed=0"),
    ("sp4-relation", {"q": 2}, RunConfig(seed=7), "q=2 i=1 mode=auto seed=7"),
    ("relations-n3", {"q": 2}, FAST, "q=2 trials=5 ext_degree=16 seed=0"),
])
def test_params_text_lists_parameters_in_report_order(claim_id, params, config, text):
    rep = run_claim(claim_id, config, **params)
    assert params_text(rep) == text
    assert render_machine(rep).startswith(f"claim={claim_id} {text} verdict=")


@pytest.mark.parametrize("n, labels", [
    (3, {"alt-T": [{"i": 1, "j": 1}, {"i": 2, "j": 1}, {"i": 2, "j": 2},
                   {"i": 3, "j": 1}, {"i": 3, "j": 2}, {"i": 3, "j": 3}],
         "alt-staircase": [{"i": 1}, {"i": 2}, {"i": 3}]}),
    (4, {"alt-T": [{"i": 1, "j": 1}, {"i": 2, "j": 1}, {"i": 2, "j": 2},
                   {"i": 3, "j": 1}, {"i": 3, "j": 2}, {"i": 3, "j": 3},
                   {"i": 4, "j": 1}, {"i": 4, "j": 2}, {"i": 4, "j": 3},
                   {"i": 4, "j": 4}],
         "alt-staircase": [{"i": 1}, {"i": 2}, {"i": 3}, {"i": 4}]}),
])
def test_alt_targets_labels(n, labels):
    labels = dict(labels, **{"alt-delta": [{"target": "delta-congruence"}],
                             "alt-dichotomy": [{"target": "delta"}]})
    ring, _ = symmetric_ideal_gb(n, 5)
    for claim_id, want in labels.items():
        pairs = fsing._alt_targets(claim_id, ring, 5)
        assert [label for label, _ in pairs] == want
        assert all(f().ring == ring and not f().is_zero() for _, f in pairs)


def test_certificate_replay_checks_labels_before_building_targets(monkeypatch):
    # a Vandermonde has n! terms: a wrong item list must not build one
    def build(ring):
        raise AssertionError("target built")
    monkeypatch.setattr(fsing, "vandermonde", build)
    for claim_id in ("alt-delta", "alt-dichotomy"):
        doc = {"claim": claim_id, "params": {"n": 4, "p": 3}, "verdict": "VERIFIED",
               "witness": {"kind": "certificates", "items": []}}
        assert not replay_document(json.dumps(doc))


@pytest.mark.parametrize("kind", ["certificates", "wrong basis", "normal-form"])
def test_forged_replay_parses_before_building_targets(kind):
    # n = 10 is past alt_nmax: the Vandermonde has 10! terms, and a
    # garbage witness text, or a certificate over another basis, is
    # rejected before one is built
    R = xring(field(3), 10)
    text = "garbage" if kind != "wrong basis" else format_certificate(
        MembershipCertificate(R.zero, [R.gen(0)], [R.zero], R.zero))
    witness = ({"kind": "certificates", "items": [{"target": "delta", "certificate": text}]}
               if kind != "normal-form" else
               {"kind": kind, "target": "delta", "polys": text})
    doc = {"claim": "alt-dichotomy", "params": {"n": 10, "p": 3},
           "verdict": "VERIFIED" if kind != "normal-form" else "REFUTED",
           "witness": witness}
    t0 = time.perf_counter()
    assert not replay_document(json.dumps(doc))
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("text", [None, 3, ["poly: x"]])
def test_replay_rejects_text_of_another_type(text):
    doc = _document("alt-dichotomy", n=3, p=5)
    doc["witness"]["polys"] = text
    assert not _replays(doc)
    doc = _document("alt-T", n=3, p=3)
    doc["witness"]["items"][0]["certificate"] = text
    assert not _replays(doc)


def test_symmetric_ideal_gb_is_memoized():
    assert symmetric_ideal_gb(3, 3) is symmetric_ideal_gb(3, 3)


def test_witness_document_roundtrip():
    rep = sp4_fpurity_check(2)
    text = witness_document(rep)
    doc = json.loads(text)
    assert doc["claim"] == "sp4-fpurity" and doc["verdict"] == "VERIFIED"
    assert replay_document(text)


def test_replay_missing_witness_is_false():
    assert not replay_witness("sp4-c0", {"q": 2}, None)
    assert not replay_witness("sp4-c0", {"q": 2}, {"kind": "nonsense"})
    assert not replay_witness("no-such-claim", {"q": 2}, {"kind": "points"})
    assert not replay_witness("sp4-c0", {"q": 2}, ["kind"])


# ---------------------------------------------------------------------------
# replay binds the item set and the recorded verdict
# ---------------------------------------------------------------------------

def _document(claim_id, **params):
    return json.loads(witness_document(run_claim(claim_id, FAST, **params)))


def _replays(doc) -> bool:
    return replay_document(json.dumps(doc))


@pytest.mark.parametrize("keep", [1, 0])
def test_certificates_replay_needs_every_item(keep):
    doc = _document("alt-T", n=3, p=3)
    assert len(doc["witness"]["items"]) == 6 and _replays(doc)
    doc["witness"]["items"] = doc["witness"]["items"][:keep]
    assert not _replays(doc)


def test_certificates_replay_needs_item_order():
    doc = _document("alt-staircase", n=3, p=5)
    doc["witness"]["items"].reverse()
    assert not _replays(doc)


def test_certificates_replay_binds_each_target():
    # two valid certificates swapped between items: the labels stay in
    # order, but each certificate now proves another item's target
    doc = _document("alt-T", n=3, p=3)
    items = doc["witness"]["items"]
    assert items[0]["certificate"] != items[1]["certificate"]
    items[0]["certificate"], items[1]["certificate"] = (items[1]["certificate"],
                                                        items[0]["certificate"])
    assert not _replays(doc)


def test_normal_form_replay_binds_the_remainder():
    doc = _document("alt-dichotomy", n=3, p=5)
    assert doc["witness"]["kind"] == "normal-form" and _replays(doc)
    ring, (target, remainder) = parse_polys_text(doc["witness"]["polys"])
    doc["witness"]["polys"] = format_polys(ring, [target, remainder * 2])
    assert not _replays(doc)


def _forged_normal_form(rule):
    """(document, verdict) whose normal-form witness breaks one rule of
    the normal-form replay.  Only the target and zero-remainder forgeries
    replay True with their rule removed.  The other two rules are
    equivalent mutants: a target parsed in another ring never equals
    the claim's target (polynomial equality compares rings), and
    unpacking other than two polynomials raises ValueError, which replay
    maps to False."""
    doc = _document("alt-dichotomy", n=3, p=5)
    witness = doc["witness"]
    ring, (target, remainder) = parse_polys_text(witness["polys"])
    if rule == "ring":
        lex = PolyRing(ring.field, ring.names, "lex")
        polys = [change_ring(target, lex), change_ring(remainder, lex)]
    elif rule == "two polynomials":
        polys = [target, remainder, remainder]
    elif rule == "target":
        # another target with the same nonzero normal form
        e1 = sum(ring.gens(), ring.zero)
        polys = [target + e1 * ring.gen(0), remainder]
    else:
        # Delta is in (e_1..e_3) over GF(3), so its true normal form is 0
        doc = _document("alt-dichotomy", n=3, p=3)
        ring, gb = symmetric_ideal_gb(3, 3)
        delta = vandermonde(ring)
        assert doc["verdict"] == "VERIFIED" and normal_form(delta, gb).is_zero()
        doc["verdict"] = "REFUTED"       # what a nonzero remainder would prove
        witness = {"kind": "normal-form", "target": "delta"}
        polys = [delta, ring.zero]
    doc["witness"] = dict(witness, polys=format_polys(polys[0].ring, polys))
    return doc


@pytest.mark.parametrize("rule", ["ring", "two polynomials", "target",
                                  "zero remainder"])
def test_normal_form_replay_checks_each_rule(rule):
    assert not _replays(_forged_normal_form(rule))


@pytest.mark.parametrize("keep", [1, 0])
def test_relations_n3_replay_needs_both_items(keep):
    doc = _document("relations-n3", q=2)
    assert [item["i"] for item in doc["witness"]["items"]] == [1, 2]
    doc["witness"]["items"] = doc["witness"]["items"][:keep]
    assert not _replays(doc)


@pytest.mark.parametrize("claim_id, params", [
    ("alt-dichotomy", {"n": 3, "p": 5}),
    ("sp4-fpurity", {"q": 2}),
    ("theorem-search", {"n": 2, "q": 4}),
    ("alt-delta", {"n": 3, "p": 3}),
])
def test_replay_binds_a_flipped_verdict(claim_id, params):
    doc = _document(claim_id, **params)
    assert doc["verdict"] == "VERIFIED" and _replays(doc)
    doc["verdict"] = "REFUTED"
    assert not _replays(doc)


def test_exponent_replay_needs_a_full_list_holding_the_solutions():
    doc = _document("theorem-search", n=2, q=3)
    witness = doc["witness"]
    assert witness["solutions"] and _replays(doc)
    # an empty "full enumeration" misses the pruned solutions: no proof
    forged = dict(witness, full=[])
    assert not _replays(dict(doc, verdict="REFUTED", witness=forged))
    assert not _replays(dict(doc, witness=forged))
    # the claim writes a full list only when the two searches disagree
    same = dict(witness, full=witness["solutions"])
    assert not _replays(dict(doc, witness=same))
    assert not _replays(dict(doc, verdict="REFUTED", witness=same))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("failures", [{"0": "u+v"}, {}])
def test_closure_replay_rebuilds_the_failures(q, failures):
    doc = _document("sp4-fpurity", q=q)
    assert doc["verdict"] == "VERIFIED" and _replays(doc)
    doc["witness"]["failures"] = failures
    assert not _replays(doc)


def test_exponent_replay_rebuilds_the_solutions():
    doc = _document("theorem-search", n=2, q=3)
    assert doc["witness"]["solutions"] == [[1, 2, 2]] and _replays(doc)
    doc["witness"]["solutions"] = []
    assert not _replays(doc)
    doc = _document("theorem-search", n=2, q=3)
    doc["witness"]["lambda"]["solutions"] = []
    assert not _replays(doc)


@pytest.mark.parametrize("claim_id, params, edit", [
    ("sp4-fpurity", {"q": 2}, lambda doc: doc["witness"].update(e=40)),
    ("sp4-fpurity", {"q": 2},
     lambda doc: (doc["witness"].update(e=40), doc["params"].update(e_max=40))),
    ("theorem-search", {"n": 2, "q": 3}, lambda doc: doc["params"].update(n=40)),
], ids=["level-40", "level-40-e_max-40", "n-40"])
def test_replay_past_a_guard_is_false(claim_id, params, edit):
    """A level or a search space past a resource guard proves nothing:
    replay answers False instead of raising."""
    doc = _document(claim_id, **params)
    edit(doc)
    assert not _replays(doc)


def _certificate_doc(rule):
    """An alt-dichotomy n=3 p=5 document that claims Delta in (e_1..e_3),
    which would refute the dichotomy, with a certificate that breaks one
    rule of _proves."""
    ring, gb = symmetric_ideal_gb(3, 5)
    delta, zeros = vandermonde(ring), [ring.zero] * len(gb)
    cert = {
        # re-multiplies, but the remainder is Delta itself
        "remainder": MembershipCertificate(delta, gb.elements, zeros, delta),
        # remainder zero, cofactors that do not re-multiply
        "cofactors": MembershipCertificate(delta, gb.elements, zeros, ring.zero),
        # Delta = 1 * Delta over a basis that is not (e_1..e_3)'s
        "basis": MembershipCertificate(delta, [delta], [ring.one], ring.zero),
    }[rule]
    item = {"target": "delta", "certificate": format_certificate(cert)}
    return {"claim": "alt-dichotomy", "params": {"n": 3, "p": 5},
            "verdict": "REFUTED",
            "witness": {"kind": "certificates", "items": [item]}}


@pytest.mark.parametrize("rule", ["remainder", "cofactors", "basis"])
def test_certificate_replay_checks_each_rule(rule):
    assert not _replays(_certificate_doc(rule))


def _closure_certificate(q, e):
    pres = sp4_presentation(q)
    _, _, u, v, w = pres.ring.gens()
    gb = buchberger(frobenius_power_ideal([u, v], e) + list(pres.relations))
    cert = normal_form(frobenius_power(w, e), gb, certificate=True)
    assert cert.is_member
    return format_certificate(cert)


def _forged_closure(rule):
    """An sp4-fpurity q=2 document that breaks one rule of the closure
    replay."""
    doc = _document("sp4-fpurity", q=2)
    witness = doc["witness"]
    if rule == "membership remainder":
        witness["membership-remainder"] = "u"
    elif rule == "level past e_max":
        doc["params"]["e_max"] = 0
    elif rule == "lower level succeeds":
        # a true certificate at level 2 over the failures of level 0 only
        doc["verdict"] = "REFUTED"
        witness.update(e=2, certificate=_closure_certificate(2, 2))
    else:
        # a true certificate, for another level's target
        witness["certificate"] = _closure_certificate(2, 2)
    return doc


@pytest.mark.parametrize("rule", ["membership remainder", "level past e_max",
                                  "lower level succeeds", "certificate target"])
def test_closure_replay_checks_each_rule(rule):
    assert not _replays(_forged_closure(rule))


def test_closure_replay_re_multiplies_the_certificate(monkeypatch):
    """The rerun writes the same certificate text, so only re-multiplying
    it catches cofactors that do not add up: here one is off by 1, and
    the claim still says VERIFIED because the remainder is zero."""
    honest = _document("sp4-fpurity", q=2)
    search = fsing.frobenius_closure_search

    def off_by_one(*args, **kwargs):
        found = search(*args, **kwargs)
        cert = found.certificate
        cofactors = list(cert.cofactors)
        cofactors[0] = cofactors[0] + cofactors[0].ring.one
        return found._replace(certificate=MembershipCertificate(
            cert.target, cert.basis, cofactors, cert.remainder))

    monkeypatch.setattr(fsing, "frobenius_closure_search", off_by_one)
    doc = _document("sp4-fpurity", q=2)
    assert doc["verdict"] == "VERIFIED"
    assert doc["witness"]["certificate"] != honest["witness"]["certificate"]
    assert not parse_certificate_text(doc["witness"]["certificate"]).check()
    assert not _replays(doc)


@pytest.mark.parametrize("claim_id, params, key", [
    ("sp4-fpurity", {"q": 2}, "e_max"),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, "seed"),
    ("sp4-c0", {"q": 2, "mode": "exact"}, "seed"),
    ("sp4-c0", {"q": 2, "mode": "exact"}, "mode"),
    ("relations-n3", {"q": 2}, "seed"),
    ("relations-n3", {"q": 2}, "trials"),
    ("theorem-search", {"n": 2, "q": 3}, "n"),
])
def test_rerun_replay_needs_every_parameter(claim_id, params, key):
    """A document that leaves out a parameter its claim reports proves
    nothing, even where the rerun would default it to the recorded value."""
    doc = _document(claim_id, **params)
    assert _replays(doc)
    del doc["params"][key]
    assert not _replays(doc)


@pytest.mark.parametrize("params", [[], [["q", 2]], "q", 3, None])
def test_replay_document_whose_params_are_not_an_object_is_false(params):
    doc = _document("sp4-c0", q=2, mode="probabilistic")
    assert replay_document(json.dumps(dict(doc, params=params))) is False


@pytest.mark.parametrize("claim_id, params, key, value", [
    ("relations-n3", {"q": 2}, "items", [1]),
    ("relations-n3", {"q": 2}, "items", {"i": 1}),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, "field", 3),
    ("alt-T", {"n": 3, "p": 3}, "items", [1]),
], ids=["items-of-ints", "items-object", "field-number", "certificate-items-of-ints"])
def test_witness_value_of_another_json_type_replays_false(claim_id, params, key, value):
    doc = _document(claim_id, **params)
    doc["witness"][key] = value
    assert replay_document(json.dumps(doc)) is False


@pytest.mark.parametrize("n, q, extra", [
    (2, 3, [1, 2, 2, 0]),            # shape: one entry too many
    (8, 2, [1, 0, 0] + [1] * 12),    # a_1 = 1 > q - 2
    (2, 3, [0, 8, 0]),               # an entry above q - 1
    (2, 3, [0, 0, 0]),               # weighted sum 0
], ids=["shape", "first-entry", "entry-range", "weighted-sum"])
def test_exponent_replay_checks_each_full_tuple(n, q, extra):
    """A full enumeration holding one tuple the pruned search lacks
    would refute; each such tuple breaks one rule.  All but the last
    satisfy the weighted sum."""
    weights = [q ** i + 1 for i in range(1, len(extra) + 1)]
    assert (sum(a * wt for a, wt in zip(extra, weights)) == q ** (2 * n) - 1) \
        == (extra != [0, 0, 0])
    doc = _document("theorem-search", n=n, q=q)
    witness = doc["witness"]
    doc["verdict"] = "REFUTED"
    doc["witness"] = dict(witness, full=witness["solutions"] + [extra])
    assert not _replays(doc)


@pytest.mark.parametrize("mode, verdict, other", [
    ("exact", "VERIFIED", "PROBABLE"),
    ("probabilistic", "PROBABLE", "VERIFIED"),
])
def test_points_replay_binds_the_verdict(mode, verdict, other):
    doc = _document("sp4-c0", q=2, mode=mode)
    assert doc["verdict"] == verdict and _replays(doc)
    for flipped in (other, "REFUTED"):
        assert not _replays(dict(doc, verdict=flipped))


def test_points_replay_binds_the_samples():
    doc = _document("sp4-c0", q=2, mode="probabilistic")
    witness = doc["witness"]
    assert len(witness["points"]) == FAST.trials
    # a mismatch index past the last point separates nothing
    assert not _replays(dict(doc, verdict="REFUTED",
                             witness=dict(witness, mismatch=99)))
    # fewer points than trials do not carry the stated bound
    cut = {key: witness[key][:2] for key in ("points", "lhs", "rhs")}
    assert not _replays(dict(doc, witness=dict(witness, **cut)))
    # value lists shorter than the points are malformed, not an error
    for key in ("lhs", "rhs"):
        assert not _replays(dict(doc, witness=dict(witness, **{key: witness[key][:2]})))


def test_exact_points_replay_expands_again():
    """A bound-0 witness whose expression is false does not replay, even
    when its stored points agree: the expansion is repeated."""
    doc = _document("sp4-c0", q=3, mode="exact")
    assert doc["verdict"] == "VERIFIED" and _replays(doc)
    witness = doc["witness"]
    terms = [[c, list(e)] for c, e in witness["terms"]]
    terms[0][1][0] += 1
    zeros = [["0"] * 4] * 3
    sides, _ = fsing._c0_sides(3, tuple((c, tuple(e)) for c, e in terms))
    L = field(3, FAST.ext_degree)
    vals = [sides(tuple(L.zero for _ in range(4)))] * 3
    forged = dict(witness, terms=terms, points=zeros,
                  lhs=[str(v[0]) for v in vals], rhs=[str(v[1]) for v in vals])
    assert vals[0][0] == vals[0][1]
    assert not _replays(dict(doc, witness=forged))


def _zero_points(item, sides):
    """The item with every stored point set to zero and both sides
    evaluated there, so the stored values agree with the stored points."""
    L = parse_field_text(item["field"])
    zero = tuple(L.zero for _ in item["points"][0])
    lhs, rhs = sides(zero)
    assert lhs == rhs
    k = len(item["points"])
    return dict(item, points=[[str(x) for x in zero]] * k,
                lhs=[str(lhs)] * k, rhs=[str(rhs)] * k)


def _forge_c0(witness):
    terms = [[c, list(e)] for c, e in witness["terms"]]
    terms[0][0] += 1
    sides, _ = fsing._c0_sides(3, tuple((c, tuple(e)) for c, e in terms))
    return _zero_points(dict(witness, terms=terms), sides)


def _forge_relation(q):
    def forge(witness):
        return dict(witness, items=[
            _zero_points(item, lambda P, i=item["i"]:
                         symplectic_relation_values(P, q, i))
            for item in witness["items"]])
    return forge


@pytest.mark.parametrize("claim_id, params, forge", [
    ("sp4-c0", {"q": 3, "mode": "probabilistic"}, _forge_c0),
    ("sp4-relation", {"q": 3, "mode": "probabilistic"},
     lambda w: _zero_points(w, lambda P: symplectic_relation_values(P, 3, 1))),
    ("relations-n3", {"q": 2}, _forge_relation(2)),
], ids=["sp4-c0", "sp4-relation", "relations-n3"])
def test_points_replay_binds_the_points_to_the_seed(claim_id, params, forge):
    """Points that agree but are not the claim's draws from the recorded
    seed prove nothing: the Schwartz-Zippel bound needs random points."""
    doc = json.loads(witness_document(run_claim(claim_id, **params)))
    assert doc["verdict"] == "PROBABLE" and _replays(doc)
    assert not _replays(dict(doc, witness=forge(doc["witness"])))


@pytest.mark.parametrize("key, value", [("trials", 10 ** 9),
                                        ("ext_degree", 10 ** 6)])
def test_points_replay_never_draws_past_the_stored_points(key, value):
    """Params that the stored points and field do not carry fail before
    the claim runs again, however much work they ask for."""
    doc = _document("sp4-c0", q=3, mode="probabilistic")
    doc["params"][key] = value
    t0 = time.perf_counter()
    assert not _replays(doc)
    assert time.perf_counter() - t0 < 1.0


def _drop(key):
    def edit(witness):
        del witness[key]
    return edit


def _bad_coordinate(witness):
    witness["points"][0][0] = "zz"


def _drop_certificate(witness):
    del witness["items"][0]["certificate"]


@pytest.mark.parametrize("claim_id, params, edit", [
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, _drop("lhs")),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, _drop("points")),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, _drop("field")),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, _bad_coordinate),
    ("alt-T", {"n": 3, "p": 3}, _drop_certificate),
], ids=["no-lhs", "no-points", "no-field", "bad-coordinate", "no-certificate"])
def test_malformed_witness_replays_false(claim_id, params, edit):
    doc = _document(claim_id, **params)
    edit(doc["witness"])
    assert not _replays(doc)


def test_normal_form_replay_needs_a_claimed_label():
    # T_2^1 lies outside (e_1, e_2, e_3), but alt-T claims only i >= j
    R, gb = symmetric_ideal_gb(3, 3)
    f = truncated_monomial_sum(R, 1, 2)
    witness = {"kind": "normal-form", "i": 1, "j": 2,
               "polys": format_polys(R, [f, normal_form(f, gb)])}
    doc = {"claim": "alt-T", "params": {"n": 3, "p": 3},
           "verdict": "REFUTED", "witness": witness}
    assert not _replays(doc)


# ---------------------------------------------------------------------------
# Vandermonde normal forms from the factors, and the replay bound on n
# ---------------------------------------------------------------------------


def _spy_divisions(monkeypatch) -> list:
    """The term count of every polynomial either division path divides."""
    sizes = []
    for name in ("_divide_staged", "_divide_heap"):
        def spy(ring, terms, *rest, divide=getattr(groebner, name)):
            sizes.append(len(terms))
            return divide(ring, terms, *rest)
        monkeypatch.setattr(groebner, name, spy)
    return sizes


def test_non_member_claim_and_replay_divide_no_vandermonde(monkeypatch):
    sizes = _spy_divisions(monkeypatch)
    rep = run_claim("alt-dichotomy", n=6, p=7)
    assert rep.witness["kind"] == "normal-form" and rep.verdict == "VERIFIED"
    ring, (delta, remainder) = parse_polys_text(rep.witness["polys"])
    assert len(delta) == 720 and not remainder.is_zero()
    assert sizes and max(sizes) < 720
    del sizes[:]
    assert replay_document(witness_document(rep))
    assert sizes and max(sizes) < 720


def test_member_targets_are_divided_once(monkeypatch):
    symmetric_ideal_gb(7, 5), symmetric_ideal_gb(5, 5)     # no Buchberger below
    sizes = _spy_divisions(monkeypatch)
    rep = run_claim("alt-T", RunConfig(alt_nmax=7), n=7, p=5)
    assert rep.verdict == "VERIFIED" and len(rep.witness["items"]) == 28
    assert len(sizes) == 28
    del sizes[:]
    # a member Vandermonde pays for the product normal form, then the
    # one certified division of the whole n!-term target
    rep = run_claim("alt-dichotomy", n=5, p=5)
    assert rep.witness["kind"] == "certificates" and max(sizes) == 120


def test_product_and_division_disagreeing_raise(monkeypatch):
    monkeypatch.setattr(fsing, "normal_form_of_product", lambda factors, gb: gb.ring.zero)
    with pytest.raises(AssertionError, match="no member"):
        run_claim("alt-dichotomy", n=3, p=5)


def test_non_member_without_a_product_form_stops_the_claim(monkeypatch):
    # T_2^1 lies outside (e_1, e_2, e_3): a target with no product form
    # is divided once, and its remainder is the witness
    R, gb = symmetric_ideal_gb(3, 3)
    f = truncated_monomial_sum(R, 1, 2)
    label = {"i": 1, "j": 2}
    monkeypatch.setattr(fsing, "_alt_targets", lambda claim_id, ring, p: [
        (label, lambda: f), ({"i": 1, "j": 1}, lambda: truncated_monomial_sum(R, 1, 1))])
    rep = run_claim("alt-T", n=3, p=3)
    assert rep.verdict == "REFUTED"
    assert rep.witness == dict(label, kind="normal-form",
                               polys=format_polys(R, [f, normal_form(f, gb)]))
    # its replay divides the target too
    assert replay_document(witness_document(rep))


def test_refuted_dichotomy_notes(monkeypatch):
    """The notes of a dichotomy that fails, with the division faked:
    Delta outside I at p <= n, and Delta in I at p > n."""
    monkeypatch.setattr(fsing, "normal_form_of_product", lambda factors, gb: gb.ring.one)
    rep = run_claim("alt-dichotomy", n=3, p=3)
    assert rep.verdict == "REFUTED" and rep.witness["kind"] == "normal-form"
    assert rep.detail == ("Delta not in I but p <= n",)
    monkeypatch.setattr(fsing, "normal_form_of_product", lambda factors, gb: gb.ring.zero)
    monkeypatch.setattr(fsing, "ideal_member", lambda f, gb, certificate: (
        True, normal_form(gb.ring.zero, gb, certificate=True)))
    rep = run_claim("alt-dichotomy", n=3, p=5)
    assert rep.verdict == "REFUTED" and rep.witness["kind"] == "certificates"
    assert rep.detail == ("Delta in I but p > n",)


def test_alt_parameter_checks():
    assert run_claim("alt-T", n=2, p=3).verdict == "VERIFIED"
    with pytest.raises(UsageError, match="starts at n = 3"):
        run_claim("alt-dichotomy", n=2, p=3)
    with pytest.raises(UsageError, match="odd prime"):
        run_claim("alt-T", n=3, p=9)


@pytest.mark.parametrize("claim_id, p", [("alt-dichotomy", 11), ("alt-T", 5)])
def test_documents_at_the_replay_bound_replay(claim_id, p):
    assert fsing.REPLAY_NMAX == 8
    rep = run_claim(claim_id, RunConfig(alt_nmax=8), n=8, p=p)
    assert rep.verdict == "VERIFIED" and replay_document(witness_document(rep))


def _forged_past_the_bound(kind, n):
    """A document at n past REPLAY_NMAX whose text would pass the checks
    that run before the n!-term Vandermonde is built: a zero certificate
    over the reduced basis {h_k(x_k..x_n)} of (e_1..e_n), or a normal
    form in the right ring."""
    R = xring(field(3), n)
    if kind == "certificates":
        basis = [truncated_monomial_sum(R, k, k) for k in range(1, n + 1)]
        cert = MembershipCertificate(R.zero, basis, [R.zero] * n, R.zero)
        witness = {"kind": kind,
                   "items": [{"target": "delta", "certificate": format_certificate(cert)}]}
    else:
        witness = {"kind": kind, "target": "delta",
                   "polys": format_polys(R, [R.gen(0), R.gen(0)])}
    return {"claim": "alt-dichotomy", "params": {"n": n, "p": 3},
            "verdict": "VERIFIED" if kind == "certificates" else "REFUTED",
            "witness": witness}


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("kind", ["certificates", "normal-form"])
def test_replay_past_the_bound_on_n_is_false_at_once(kind, n):
    text = json.dumps(_forged_past_the_bound(kind, n))
    t0 = time.perf_counter()
    assert not replay_document(text)
    assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# one parameter gate for the alternating claims and their replays
# ---------------------------------------------------------------------------


def test_normal_form_witnesses_rerun_their_claim(monkeypatch):
    """A normal form reruns its claim and certificates are checked, for
    the same claim: the spies see which replay each document takes."""
    calls = []
    for name in ("_replay_rerun", "_replay_certificates"):
        monkeypatch.setattr(fsing, name, lambda *args, name=name, real=getattr(
            fsing, name): calls.append(name) or real(*args))
    for p, kind, name in [(5, "normal-form", "_replay_rerun"),
                          (3, "certificates", "_replay_certificates")]:
        doc = _document("alt-dichotomy", n=3, p=p)
        calls.clear()
        assert doc["witness"]["kind"] == kind and _replays(doc)
        assert calls == [name]


def _true_certificates(claim_id, n, p):
    """A certificates document with a true certificate for each target of
    the claim, whatever n and p are, and the verdict membership gives."""
    ring, gb = symmetric_ideal_gb(n, p)
    items = []
    for label, target in fsing._alt_targets(claim_id, ring, p):
        member, cert = groebner.ideal_member(target(), gb, certificate=True)
        assert member
        items.append(dict(label, certificate=format_certificate(cert)))
    params = {"n": n, "p": p}
    return {"claim": claim_id, "params": params,
            "verdict": fsing._alt_verdict(claim_id, params, True),
            "witness": {"kind": "certificates", "items": items}}


@pytest.mark.parametrize("claim_id, n, p", [
    ("alt-dichotomy", 2, 2), ("alt-T", 3, 2), ("alt-staircase", 3, 2), ("alt-T", 1, 3)])
def test_certificate_replay_refuses_what_the_claim_refuses(claim_id, n, p):
    with pytest.raises(UsageError):
        run_claim(claim_id, n=n, p=p)
    assert not _replays(_true_certificates(claim_id, n, p))


def test_certificate_replay_accepts_what_the_claim_accepts():
    doc = _true_certificates("alt-T", 3, 3)
    assert _replays(doc) and doc == _document("alt-T", n=3, p=3)


def test_normal_form_replay_refuses_an_extra_key():
    doc = _document("alt-dichotomy", n=3, p=5)
    assert doc["witness"]["kind"] == "normal-form" and _replays(doc)
    doc["witness"]["note"] = "extra"
    assert not _replays(doc)


@pytest.mark.parametrize("label", [{"target": "delta-congruence"}, {"i": 1, "j": 1}])
def test_normal_form_replay_refuses_another_claims_label(label):
    doc = _document("alt-dichotomy", n=3, p=5)
    witness = {k: v for k, v in doc["witness"].items() if k != "target"}
    doc["witness"] = dict(witness, **label)
    assert not _replays(doc)


@pytest.mark.parametrize("q", [2 ** 61 - 1, 2 ** 89 - 1])
@pytest.mark.parametrize("claim_id, params, key", [
    ("relations-n3", {"q": 2}, "q"),
    ("alt-dichotomy", {"n": 3, "p": 3}, "p"),
    ("alt-dichotomy", {"n": 3, "p": 5}, "p"),
])
def test_replay_with_a_large_prime_is_false_at_once(claim_id, params, key, q):
    # 2^61 - 1 is a prime below is_prime's bound, 2^89 - 1 one past it
    doc = _document(claim_id, **params)
    doc["params"][key] = q
    t0 = time.perf_counter()
    assert not _replays(doc)
    assert time.perf_counter() - t0 < 0.1


# ---------------------------------------------------------------------------
# one replay rule: the rerun reports the recorded parameters, keys and values
# ---------------------------------------------------------------------------

_KINDS = [
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, "points"),
    ("relations-n3", {"q": 2}, "points-multi"),
    ("sp4-fpurity", {"q": 2}, "closure"),
    ("theorem-search", {"n": 2, "q": 3}, "exponents"),
    ("alt-T", {"n": 3, "p": 3}, "certificates"),
    ("alt-dichotomy", {"n": 3, "p": 5}, "normal-form"),
]


@pytest.mark.parametrize("claim_id, params, kind", _KINDS,
                         ids=[kind for *_, kind in _KINDS])
def test_replay_refuses_an_extra_parameter(claim_id, params, kind):
    doc = _document(claim_id, **params)
    assert doc["witness"]["kind"] == kind and _replays(doc)
    doc["params"]["extra"] = 1
    assert not _replays(doc)


@pytest.mark.parametrize("claim_id, params, key, value", [
    ("sp4-relation", {"q": 2, "mode": "probabilistic"}, "i", 2),
    ("sp4-relation", {"q": 2, "mode": "exact"}, "i", 2),
    ("sp4-c0", {"q": 2, "mode": "probabilistic"}, "e_max", 0),
    ("sp4-c0", {"q": 2, "mode": "exact"}, "trials", 3),
    ("alt-dichotomy", {"n": 3, "p": 3}, "alt_nmax", 8),
], ids=["i-sampled", "i-exact", "e_max-on-points", "trials-on-exact",
        "alt_nmax-on-certificates"])
def test_replay_binds_each_parameter_value(claim_id, params, key, value):
    """A value the rerun does not report, such as i = 2 on a relation
    that proves i = 1, or a key it does not report, such as trials on an
    exact witness of three points, proves nothing."""
    doc = _document(claim_id, **params)
    assert _replays(doc)
    doc["params"][key] = value
    assert not _replays(doc)


def test_trials_after_a_mismatch_cover_the_stored_points():
    """The rerun of a sampled refutation draws only the stored points, so
    the recorded trials may exceed them but not fall short."""
    bad = mutated_c0_terms(3, random.Random(1000))
    doc = json.loads(witness_document(verify_c0_expression(
        3, FAST, mode="probabilistic", terms=bad)))
    drawn = len(doc["witness"]["points"])
    assert doc["verdict"] == "REFUTED" and drawn < FAST.trials and _replays(doc)
    for trials, replays in [(drawn, True), (10 ** 9, True), (drawn - 1, False)]:
        assert _replays(dict(doc, params=dict(doc["params"], trials=trials))) is replays


def test_points_replay_refuses_another_ext_degree_before_the_rerun(monkeypatch):
    """The rerun would report the field's degree and fail the value
    rule, but a pre-check refuses the document before the claim samples."""
    doc = _document("sp4-c0", q=3, mode="probabilistic")
    assert _replays(doc)
    calls = []
    monkeypatch.setattr(fsing, "sample_sides", lambda *args: calls.append(args))
    doc["params"]["ext_degree"] += 1
    assert not _replays(doc) and calls == []


@pytest.mark.parametrize("claim_id", ["relations-n3", "sp4-c0", "theorem-search"])
def test_certificates_relabelled_as_another_claim_replay_false(claim_id):
    """Only an alternating claim's certificates are checked; under any
    other claim they rerun that claim, whose witness they are not."""
    doc = _document("alt-dichotomy", n=3, p=3)
    assert doc["witness"]["kind"] == "certificates" and _replays(doc)
    assert not _replays(dict(doc, claim=claim_id))


# ---------------------------------------------------------------------------
# bounds on what replay builds: the extension degree and the basis memo
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("claim_id, q, e", [
    ("sp4-c0", 3, 32), ("relations-n3", 2, 8), ("relations-n3", 3, 6)])
def test_points_documents_at_the_measured_degrees_replay(claim_id, q, e):
    assert fsing.REPLAY_EMAX == 64
    params = {"mode": "probabilistic"} if claim_id == "sp4-c0" else {}
    rep = run_claim(claim_id, RunConfig(trials=3, ext_degree=e), q=q, **params)
    assert rep.verdict == "PROBABLE" and replay_document(witness_document(rep))


@pytest.mark.parametrize("claim_id", ["sp4-c0", "relations-n3"])
def test_replay_past_the_bound_on_the_degree_is_false_at_once(claim_id, monkeypatch):
    """The field text is never parsed, whether the parameters name the
    same degree, another one or none: building and certifying GF(2^2281)
    alone takes seconds, and the claim would then run in it."""
    params = {"mode": "probabilistic"} if claim_id == "sp4-c0" else {}
    doc = _document(claim_id, q=2, **params)

    def parse(text):
        raise AssertionError(f"parsed {text!r}")
    monkeypatch.setattr(fsing, "parse_field_text", parse)
    for text, ext in [("2^2281 g^2281+g^715+1", 2281), ("2^65 g^65+g^18+1", 65),
                      ("2^2281 g^2281+g^715+1", FAST.ext_degree),
                      ("2^2281 g^2281+g^715+1", None)]:
        for item in doc["witness"].get("items", [doc["witness"]]):
            item["field"] = text
        doc["params"]["ext_degree"] = ext
        if ext is None:
            del doc["params"]["ext_degree"]
        t0 = time.perf_counter()
        assert not _replays(doc)
        assert time.perf_counter() - t0 < 0.1


def test_forged_primes_do_not_grow_the_basis_memo():
    """Forty alternating-group documents, each naming another prime near
    10^9, each replay False; the memo keeps at most 32 bases."""
    doc = _document("alt-dichotomy", n=3, p=3)
    primes = [q for q in range(10 ** 9 + 1, 10 ** 9 + 2000, 2) if is_prime(q)][:40]
    misses = symmetric_ideal_gb.cache_info().misses
    for q in primes:
        assert not _replays(dict(doc, params=dict(doc["params"], p=q)))
    info = symmetric_ideal_gb.cache_info()
    assert len(primes) == 40 and info.misses - misses == 40
    assert info.currsize <= 32 == info.maxsize


def test_points_replay_refuses_a_bad_field_before_the_rerun(monkeypatch):
    """A field text of the right p^e whose modulus is reducible, of the
    wrong degree or missing replays False before the claim samples."""
    doc = _document("relations-n3", q=2)
    calls = []
    monkeypatch.setattr(fsing, "sample_sides", lambda *args: calls.append(args))
    for text in ("2^16 g^16+1", "2^16 g^2+1", "2^16"):
        for item in doc["witness"]["items"]:
            item["field"] = text
        assert not _replays(doc)
    assert calls == []


def test_forged_primes_do_not_grow_the_field_table():
    """Forty forged documents as above reach gf.field with forty new
    primes; its intern table keeps at most 32 keys, and a field it keeps
    is still one instance."""
    doc = _document("alt-dichotomy", n=3, p=3)
    primes = [q for q in range(10 ** 9 + 1, 10 ** 9 + 2000, 2) if is_prime(q)][:40]
    for q in primes:
        assert not _replays(dict(doc, params=dict(doc["params"], p=q)))
    assert (primes[-1], 1, None) in gf._SPEC_CACHE
    assert len(gf._SPEC_CACHE) <= 32
    assert field(2, 32) is field(2, 32)
    assert parse_field_text(field(2, 32).serialize()) is field(2, 32)


def test_forged_document_with_a_large_prime_modulus_is_false_quickly():
    """relations-n3 over GF(1048573^32), a prime below gf.ENUM_CAP, with
    the irreducible modulus g^32 - a for a non-residue a (p = 1 mod 4):
    the text parses and the rerun searches its own default modulus,
    which must not evaluate each candidate at a million residues."""
    p = 1048573
    assert is_prime(p) and p < gf.ENUM_CAP and p % 4 == 1
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    item = {"kind": "points", "field": f"{p}^32 g^32+{p - a}", "i": 1,
            "mismatch": None, "points": [["1", "2", "3", "4", "5", "6"]],
            "lhs": ["0"], "rhs": ["0"]}
    doc = {"claim": "relations-n3", "verdict": "PROBABLE",
           "params": {"q": p, "trials": 1, "ext_degree": 32, "seed": 0},
           "witness": {"kind": "points-multi", "items": [item]}}
    assert parse_field_text(item["field"]).modulus == (p - a,) + (0,) * 31 + (1,)
    t0 = time.perf_counter()
    assert not _replays(doc)
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("kw", [{"ext_degree": 65}, {"alt_nmax": 9},
                                {"ext_degree": 0}, {"e_max": -1}])
def test_config_refuses_what_replay_refuses(kw):
    """ext_degree past REPLAY_EMAX and alt_nmax past REPLAY_NMAX are
    refused like the other bad values (test_config_validation has the
    rest), so no claim writes a witness its replay refuses."""
    with pytest.raises(UsageError):
        RunConfig(**kw)


def test_documents_at_the_config_limits_replay():
    config = RunConfig(trials=2, ext_degree=fsing.REPLAY_EMAX,
                       alt_nmax=fsing.REPLAY_NMAX, e_max=0)
    rep = run_claim("sp4-relation", config, q=2, mode="probabilistic")
    assert rep.verdict == "PROBABLE" and replay_document(witness_document(rep))


# ---------------------------------------------------------------------------
# branches no other test or benchmark pass reaches
# ---------------------------------------------------------------------------


def test_identity_claim_past_a_guard(monkeypatch):
    """An exact expansion past TERM_GUARD: exact mode is SKIPPED, with
    no witness; auto mode samples instead, drawing the points that mode
    "probabilistic" draws, and its witness replays under that guard and
    under the default one: replay samples again instead of expanding."""
    monkeypatch.setattr(mpoly, "TERM_GUARD", 10)
    rep = verify_sp4_relation(2, FAST, mode="exact")
    assert rep.verdict == "SKIPPED" and rep.witness is None
    assert rep.detail == ("resource guard: product exceeds 10 terms",)
    rep = run_claim("sp4-relation", FAST, q=2, mode="auto")
    assert rep.verdict == "PROBABLE"
    assert rep.detail[0] == ("exact path hit a guard (product exceeds 10 terms); "
                             "sampling instead")
    assert rep.parameters["trials"] == FAST.trials
    sampled = run_claim("sp4-relation", FAST, q=2, mode="probabilistic")
    assert rep.witness == sampled.witness and rep.bound == sampled.bound
    doc = json.loads(witness_document(rep))
    assert _replays(doc)
    monkeypatch.undo()
    assert _replays(doc)
    # the exact path expands at the default guard; that document has no
    # trials and still replays by expanding
    exact = json.loads(witness_document(run_claim("sp4-relation", FAST, q=2, mode="auto")))
    assert exact["verdict"] == "VERIFIED" and "trials" not in exact["params"]
    assert _replays(exact)


@pytest.mark.parametrize("guard", [10, None])
def test_sampled_auto_witness_with_a_forged_point_replays_false(guard, monkeypatch):
    """A sampled auto document that claims a separating point its seed
    does not draw, or that records mode "exact", replays False under
    either guard."""
    monkeypatch.setattr(mpoly, "TERM_GUARD", 10)
    doc = json.loads(witness_document(run_claim("sp4-relation", FAST, q=2, mode="auto")))
    if guard is None:
        monkeypatch.undo()
    witness = doc["witness"]
    forged = dict(witness, points=witness["points"][:1], lhs=witness["lhs"][:1],
                  rhs=[witness["lhs"][0] + "+1"], mismatch=0)
    assert not _replays(dict(doc, verdict="REFUTED", witness=forged))
    assert not _replays(dict(doc, verdict="REFUTED", witness=dict(forged, rhs=witness["rhs"][:1])))
    assert not _replays(dict(doc, params=dict(doc["params"], mode="exact")))
    # the same draws prove the same bound in mode "probabilistic"
    assert _replays(doc)
    assert _replays(dict(doc, params=dict(doc["params"], mode="probabilistic")))


def test_relations_n3_separating_sample(monkeypatch):
    """A separated i = 2 sample refutes the family and stops the check;
    the witness replays while the sides stay as patched."""
    values = fsing.symplectic_relation_values

    def patched(P, q, i):
        lhs, rhs = values(P, q, i)
        return lhs, rhs + 1 if i == 2 else rhs
    monkeypatch.setattr(fsing, "symplectic_relation_values", patched)
    rep = run_claim("relations-n3", FAST, q=2)
    assert rep.verdict == "REFUTED" and rep.bound is None
    assert rep.detail[1] == "i=2: sample 1 separates the sides"
    items = rep.witness["items"]
    assert [item["mismatch"] for item in items] == [None, 0]
    assert len(items[1]["points"]) == 1
    assert replay_document(witness_document(rep))


def test_theorem_search_above_the_cross_check_cap():
    rep = run_claim("theorem-search", n=3, q=17)
    assert 16 * 17 ** 4 > fsing.AGREE_CAP
    assert rep.verdict == "VERIFIED"
    assert rep.detail[0] == "space 1336336 above cross-check cap; digit search only"
    assert "full" not in rep.witness
    assert replay_document(witness_document(rep))


def test_certificate_with_a_repeated_cofactor_replays_false():
    """A bogus cofactor block before the real one: the parser refuses
    the repeated index instead of keeping the last block."""
    doc = _document("alt-T", n=2, p=3)
    assert _replays(doc)
    item = doc["witness"]["items"][0]
    assert item["certificate"].count("cofactor-of: 0\n") == 1
    item["certificate"] = item["certificate"].replace(
        "cofactor-of: 0\n", "cofactor-of: 0\npoly: x1^5+x2\ncofactor-of: 0\n")
    assert not _replays(doc)


@pytest.mark.parametrize("forge", [
    lambda cert: cert.replace("remainder:", "cofactor-of: 7\nremainder:"),
    lambda cert: cert + "cofactor-of: 7\n",
    lambda cert: cert.replace("cofactor-of: 1\n", "cofactor-of: 9\ncofactor-of: 1\n"),
], ids=["before-the-remainder", "at-the-end", "before-another-index"])
def test_certificate_with_a_dangling_cofactor_index_replays_false(forge):
    """A cofactor-of line that no poly line follows, before the
    remainder, at the end or before the next cofactor-of: the parser
    refuses it instead of dropping it."""
    doc = _document("alt-T", n=2, p=3)
    item = doc["witness"]["items"][0]
    assert "cofactor-of: 1\n" in item["certificate"]
    assert "cofactor-of: 9" not in item["certificate"]
    item["certificate"] = forge(item["certificate"])
    assert not _replays(doc)


@pytest.mark.parametrize("claim_id, params, key, warm", [
    ("alt-T", {"n": 3, "p": 3}, "n", lambda: symmetric_ideal_gb(3, 3)),
    ("sp4-fpurity", {"q": 2}, "q", lambda: gf.field(2)),
])
def test_float_parameter_replays_false_with_a_warm_memo(claim_id, params, key, warm):
    """A float equal to an int keys the basis memo and the field table
    like the int, so once those hold the int's entry a rerun could
    succeed where a fresh process fails in range() or the field search.
    The document replays False either way."""
    doc = _document(claim_id, **params)
    assert _replays(doc)
    doc["params"][key] = float(doc["params"][key])
    warm()
    assert not _replays(doc)


def test_float_parameter_is_a_usage_error_whatever_the_memo():
    symmetric_ideal_gb.cache_clear()
    for _ in range(2):
        with pytest.raises(UsageError, match="must be integers"):
            run_claim("alt-T", n=3.0, p=3)
        symmetric_ideal_gb(3, 3)


@pytest.mark.parametrize("claim_id, config, key", [
    ("sp4-relation", FAST, "i"),
    ("sp4-fpurity", RunConfig(e_max=1), "e_max"),
])
def test_json_true_parameter_replays_false(claim_id, config, key):
    """JSON true equals 1, the value the document records."""
    doc = json.loads(witness_document(run_claim(claim_id, config, q=2)))
    assert doc["params"][key] == 1 and _replays(doc)
    doc["params"][key] = True
    assert not _replays(doc)
