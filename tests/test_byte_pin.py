"""Byte pins for the claim reports and witnesses.

sha256 digests of ``witness_document`` and of ``render_text`` (with the
``elapsed-ms`` line removed) for sp4-c0, sp4-relation and relations-n3
at claim seeds 0 and 1, in every mode, plus two c_0 mutation controls.

For every record of ``suite_claims("full")`` at claim seeds 0 and 1,
``full_suite_pins.json`` holds the sha256 of ``witness_document``, of
``render_text`` without its ``elapsed-ms`` line and of ``render_machine``
without its ``elapsed-ms=`` field, and the ``replay_document`` result.
Running this file as a script prints that table.

``FIELD_PINS`` holds the sha256 of the default moduli ``find_irreducible``
finds, of ``is_irreducible`` over a seeded sample of polynomials and of
the text and index of a seeded ``random_element`` sequence in each of
seven fields.  Running this file as a script with the argument
``fields`` prints those digests.

Any change to a verdict, a witness byte, a report line or a replay
result of these claims, or to a default modulus, an irreducibility
verdict, an element's text or index or a random draw, fails here.
"""

import functools
import hashlib
import json
import random
import re
import sys
from pathlib import Path

import pytest

from invar.fsing import (RunConfig, render_machine, render_text,
                         replay_document, run_claim, run_suite, suite_claims,
                         verify_c0_expression, witness_document)
from invar.gf import field, find_irreducible, is_irreducible
from oracles import field_index, mutated_c0_terms

MODES = ("exact", "probabilistic", "auto")


def _cases():
    out = {}
    for q in (2, 3):
        for mode in MODES:
            out[f"sp4-c0 q={q} mode={mode}"] = \
                lambda cfg, q=q, mode=mode: run_claim("sp4-c0", cfg, q=q, mode=mode)
    # the mutation controls of test_fsing and test_acceptance
    for rng_seed, mode in ((77, "exact"), (9000, "probabilistic")):
        out[f"sp4-c0 q=3 mutant-{rng_seed} mode={mode}"] = \
            lambda cfg, rng_seed=rng_seed, mode=mode: verify_c0_expression(
                3, cfg, mode=mode, terms=mutated_c0_terms(3, random.Random(rng_seed)))
    for q in (2, 3):
        for mode in MODES:
            out[f"sp4-relation q={q} mode={mode}"] = \
                lambda cfg, q=q, mode=mode: run_claim("sp4-relation", cfg, q=q, mode=mode)
    out["relations-n3 q=2"] = lambda cfg: run_claim("relations-n3", cfg, q=2)
    return out


CASES = _cases()

# "<case> seed=<seed>": (witness_document sha256, render_text sha256)
PINS = {
    "sp4-c0 q=2 mode=exact seed=0": (
        "8443eba9e3fc3df14c18482a5bb9ff2a8b4d7b2d964bd6dc5c37a52055718846",
        "efaea3157eaa7307f33216c128b5d9dbd93ba5547d25deac2df4f60d38aaf68d"),
    "sp4-c0 q=2 mode=exact seed=1": (
        "0af0e0e3fc9dbb0ff6b33b406c18d10a7ffb27e93b4cff63e0994f1c7f99cad7",
        "ad989204e406eb0529e5501649ac38690ef9f8613d12f3b77e489a6ead85f38b"),
    "sp4-c0 q=2 mode=probabilistic seed=0": (
        "6fe17c69fab6f1f01cdd799ea1f35823e9a55ece306d72763b839a5260c988e6",
        "84ca8da66477939a04c873ada6ee54099701ab1cb633068d8163611e634f56a5"),
    "sp4-c0 q=2 mode=probabilistic seed=1": (
        "38c4dca3ffe884444c3ed5feca637a7a9d493473a30d0a20d3562f7ad53fbf89",
        "0f7aa7a5379755d5458bd96c925e05e1d8e18211a722dd5d70b62808b986019f"),
    "sp4-c0 q=2 mode=auto seed=0": (
        "29dc434fd6cf303c99b912bb48124ad41431523a19188977e67ea34a2d0850d4",
        "1aa2dab4f49d02404ea7a7acf6901caa57da6f45321f8743ec046854f319cc51"),
    "sp4-c0 q=2 mode=auto seed=1": (
        "d2921d19d0fdf20ff5a37cd9174d27fa7c24f2cf3448efbcad0edc9a66609d91",
        "2dc279c21dc763af521eac3d1be9d2e40e24e1431e04c8154053fb0d8b64df04"),
    "sp4-c0 q=3 mode=exact seed=0": (
        "30d945b52e25c7bd42445d47015d832aac532b3725ff20d8922f98b6099a3f0a",
        "cc700593ba1df20ec6fccf142b4b7c2c39ffc8d48c9b4cb6d697da6335470e2b"),
    "sp4-c0 q=3 mode=exact seed=1": (
        "7cdf5b5eb97e9b8407a9d1c0596ff919c9fa028f9bf5b20eaafe23ee50dc7c89",
        "fb6c5a9f8d0746d45ed42e3c4314c2fe0274be66f63ef45d739bd891499be619"),
    "sp4-c0 q=3 mode=probabilistic seed=0": (
        "0ebeb93029b2daedd3b05bada22265963c9586d672fd0f7d61e642bedf4c3b68",
        "3a6a34680300040166194b69440b1ee500e09db8b764a35fa75bf15f13c037df"),
    "sp4-c0 q=3 mode=probabilistic seed=1": (
        "4fea0efe1911f49aabd035d9d636de072f6a6c54eaaf1a0572ed368d16436721",
        "b83ba946730b52ace66b2f487381daeb03e96e9490e0eb825648b17a0064854e"),
    "sp4-c0 q=3 mode=auto seed=0": (
        "3934e6fc9cb1e70b7d40ad46aa64fbd3898dd4704e24fc65a24654d67c21b492",
        "09c7f676aba8babb3349b29aa05be0a488c5e9696c192faf27a58eab18c1dfd3"),
    "sp4-c0 q=3 mode=auto seed=1": (
        "e5fdda3e1e3f44b75da6ce6f1920022d6805bdd287a24a08284ca3bf6235a450",
        "e7d951f3cdea91759a6685b0a466d64bb596f838eecff483d67b6aa9911713f2"),
    "sp4-c0 q=3 mutant-77 mode=exact seed=0": (
        "8c840de47f7a1213a300766324c52e73df3d1db0e01b6756dda1d02ec230206f",
        "d4a1460b41dcbc77468ede4d86ee47fa3d39e7566367d7ef188300fc402c093f"),
    "sp4-c0 q=3 mutant-77 mode=exact seed=1": (
        "d2711982e9282470af5bfc333be523409dd983daa58bbb506d62bee6fd66ef43",
        "30b9036f36b06e9b15f3377acac9bc82d74f5b648d8979f3f3f4f493a5c4067e"),
    "sp4-c0 q=3 mutant-9000 mode=probabilistic seed=0": (
        "63f92cbdad274f1eb05923425f1b6e63fa92586288ef07ce25a9722b058a3ad0",
        "13646d35c3a027ee03aa99fdf5ad2b102ae237b9e7422da707ac0aa992831671"),
    "sp4-c0 q=3 mutant-9000 mode=probabilistic seed=1": (
        "56270b2d7b57c853aa7523fcf3cc9ee4c53aff043b78f7c33f2b71e0aade0a17",
        "fd2d337ec1d80738bfaab85b312e9fe6e55473c88f4b25a1c15cc94dd294af35"),
    "sp4-relation q=2 mode=exact seed=0": (
        "0e3d278669c35393126802b4d9d33ceac757db3e9518aa1648b100ad8d5d9f10",
        "c635494034d5bff9443c1d498f1b86756cab01fff8915ded0f02117caa73f103"),
    "sp4-relation q=2 mode=exact seed=1": (
        "e7e9a7ef089870ab5319ece6bd97cf7ab60c0ed156903235d906f4314c3f71ff",
        "4940018dea89b6582f2b6ce2f7c079a993ede108aa3ef5b23b8f0f2e0cf5cab1"),
    "sp4-relation q=2 mode=probabilistic seed=0": (
        "30b79573fb56c7d88057d1a68c633cfb7521bb67f447175c7f39e45328ed54a2",
        "e1bce01e4b743c1ed1b28f57dfaa45d364006e438e201bd8d0685d42c1dac704"),
    "sp4-relation q=2 mode=probabilistic seed=1": (
        "bd9e84ceb9b0ef13efe845a6d414a470ce72aa12dd722f4501b855de6d7b0b51",
        "8c1c33a6fcf478beef9817349e0b3ba48553f67f0f943269f5b2bb66388484ab"),
    "sp4-relation q=2 mode=auto seed=0": (
        "d087ffbd05b59876e85670b04f105ff04b2161be5b311f7c14a965fcddec6ff4",
        "d3716de53785a9a7f158383761b72889ef8d848cb49ee418b2910ebadd5453ad"),
    "sp4-relation q=2 mode=auto seed=1": (
        "248dd599b46898a504aa857cb25b4d308eca3ddcf6b5d8e8f46b2c3ae1ac7889",
        "56ec60737bf964a59645a84677e965c4c36c15d4b203d04a01ec64d1d8c9934c"),
    "sp4-relation q=3 mode=exact seed=0": (
        "ff4aff01e2538aa59542d6fef21a3ec0b5aa210e9ba6db00121d61ebe806fdc2",
        "945439afe4d35f62c3e87c2ea5fb6a17f2df7e22960d03810c42c88f634677e3"),
    "sp4-relation q=3 mode=exact seed=1": (
        "b64155561b05170da567b129ee572d0d95e9319a96c18fa1e58fdfd474fed38c",
        "7c591978411e32fe9030c16eb32be74dd79a0cf880c39d11669a4b6f8c1bc339"),
    "sp4-relation q=3 mode=probabilistic seed=0": (
        "34e7a0d7a5cab825bd0c16ccd2b8433f319b4e335b4e96ff6b9b23965313a419",
        "c623674369e7522df1bd1c54ab42e91d39fc02302507061f92245f9af7497c55"),
    "sp4-relation q=3 mode=probabilistic seed=1": (
        "da752e95c4f1ad4393109f27d5f23a71d0818b6f858bde047af19cd55ddff1db",
        "7b32d5aabaf5ad4f04a9199ad39416356477cf387a9f67d14b3d4b3d9295b494"),
    "sp4-relation q=3 mode=auto seed=0": (
        "506f68f325cae9299014c3fc5eb56b3ddb2940409d6ee3fc5d77774022f76c6d",
        "78fb186f4bbdcdc320c20d9744e1e31514751ad40c0fb592332469b10fe8881b"),
    "sp4-relation q=3 mode=auto seed=1": (
        "7b1345f6f787181cb0ac31437d65b8568dc6cea18fd667702ddd85930c6931e5",
        "72d081e5fd81e61ba1273678e2797d2716095be3e11eecc18af3b6009f431ede"),
    "relations-n3 q=2 seed=0": (
        "36d56478de1d62e7740a3ca3da461d703d5f706961fbbdd8d0472aa53641a66a",
        "fa7142886a5b31695909b9e74cbc36a9d39887a3e9cdb4f1a490356f1aeca24f"),
    "relations-n3 q=2 seed=1": (
        "ca250748a801cadb32927e87e9de82fe3e90b364ea897a38399250f259b0f29b",
        "64010460041d47c45b87601dcfdd70e658a7e1e1f80e79ba725be0e238d78dae"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINS))
def test_identity_claim_bytes_pinned(key):
    case, seed = key.rsplit(" seed=", 1)
    report = CASES[case](RunConfig(seed=int(seed)))
    text = re.sub(r"^elapsed-ms: .*\n", "", render_text(report), flags=re.M)
    assert (_sha(witness_document(report)), _sha(text)) == PINS[key]


FULL_PINS_FILE = Path(__file__).with_name("full_suite_pins.json")
SEEDS = (0, 1)


def _record_key(claim_id: str, params: dict, seed: int) -> str:
    ptext = " ".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{claim_id} {ptext} seed={seed}"


@functools.lru_cache(maxsize=None)
def _full_suite_digests(seed: int) -> dict:
    """key -> [witness sha256, text sha256, machine sha256, replay]."""
    config = RunConfig(seed=seed)
    out = {}
    for claim_id, params in suite_claims("full"):
        report = run_claim(claim_id, config, **params)
        doc = witness_document(report)
        text = re.sub(r"^elapsed-ms: .*\n", "", render_text(report), flags=re.M)
        line = re.sub(r" elapsed-ms=\d+$", "", render_machine(report))
        out[_record_key(claim_id, params, seed)] = [
            _sha(doc), _sha(text), _sha(line), replay_document(doc)]
    return out


FULL_PINS = json.loads(FULL_PINS_FILE.read_text())


def test_full_pins_cover_the_suite():
    keys = {_record_key(cid, ps, seed) for seed in SEEDS
            for cid, ps in suite_claims("full")}
    assert len(keys) == 2 * len(suite_claims("full")) == 128
    assert set(FULL_PINS) == keys


@pytest.mark.parametrize("key", sorted(FULL_PINS))
def test_full_suite_record_pinned(key):
    seed = int(key.rsplit(" seed=", 1)[1])
    assert _full_suite_digests(seed)[key] == FULL_PINS[key]


def test_run_suite_witnesses_match_the_pins():
    # run_suite still returns a list of reports; reading their witnesses
    # after the run gives the pinned document bytes
    reports = run_suite("quick")
    assert isinstance(reports, list)
    assert [_sha(witness_document(r)) for r in reports] == [
        FULL_PINS[_record_key(cid, ps, 0)][0] for cid, ps in suite_claims("quick")]


def _moduli_text() -> str:
    degrees = [(p, e) for p in (2, 3, 5, 7, 11, 13) for e in range(2, 11)]
    degrees += [(p, 32) for p in (2, 3, 5, 7)]
    return "".join(f"{p} {e} {find_irreducible(p, e)}\n" for p, e in degrees)


def _irreducible_text() -> str:
    rng = random.Random(2024)
    lines = []
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 9):
            for _ in range(40):
                f = tuple(rng.randrange(p) for _ in range(e)) + (rng.randrange(1, p),)
                lines.append(f"{p} {f} {is_irreducible(f, p)}\n")
    return "".join(lines)


def _elements_text() -> str:
    rng = random.Random(2026)
    lines = []
    for p, e in ((7, 1), (3, 2), (2, 8), (3, 6), (2, 32), (3, 32), (65521, 2)):
        F = field(p, e)
        for _ in range(40):
            x = F.random_element(rng)
            lines.append(f"{p} {e} {x} {field_index(F, x)}\n")
    return "".join(lines)


FIELD_TEXTS = {"moduli": _moduli_text, "irreducible-sample": _irreducible_text,
               "elements": _elements_text}

FIELD_PINS = {
    "elements": "fe0fab195f08d8f4ad20d8654661a563a5569ed2c177ca19e05843d9d5332ee8",
    "irreducible-sample": "fccdf7549c82caa4798735d48f2918ae5ff7e67c12293194e934fd2c75551e7d",
    "moduli": "7ca6ebf0013bf0c71f44770356204d1de7c251168c42cc6c9f3719e54ee7315f",
}


@pytest.mark.parametrize("name", sorted(FIELD_TEXTS))
def test_field_pinned(name):
    assert _sha(FIELD_TEXTS[name]()) == FIELD_PINS[name]


if __name__ == "__main__":
    if sys.argv[1:] == ["fields"]:
        table = {name: _sha(text()) for name, text in FIELD_TEXTS.items()}
    else:
        table = {}
        for seed in SEEDS:
            table.update(_full_suite_digests(seed))
    print(json.dumps(table, indent=1, sort_keys=True))
