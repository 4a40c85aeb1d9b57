"""Certificates frozen from `check --out` at version 0.1.0.

The files under fixtures/ were written by `pretzelslice check A --out F`
at version 0.1.0: two Inconclusive survivors (their Fox-Milnor blocks
come from the structured route), a parity verdict and a palindromic
factor verdict.  `check_71_oracle_always.json` was written with
`--oracle-level always`, so its self-reciprocal witness states the full
`oracle_sr_*` evidence, and `check_15_all_witnesses.json` with
`--all-witnesses`.  Version 0.2.0 decides composite-d pairs by closed
form and so no longer states the factorization oracles' evidence; apart
from that and the version string, `decide` must reproduce each file
byte for byte, and the verifier must keep accepting the 0.1.0 files.
"""

import json
from pathlib import Path

import pytest

from pretzelslice import obstruction as ob

FIXTURES = Path(__file__).parent / "fixtures"
FROZEN = (1081, 3577, 3, 7, 71, "71_oracle_always", "15_all_witnesses")
SURVIVORS = (1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881)
ORACLE_KEYS = ("oracle_count", "oracle_sr_exists", "oracle_sr_power",
               "oracle_sr_divisor", "oracle_sr_gcd_degree")


def frozen(name):
    return json.loads((FIXTURES / f"check_{name}.json").read_text(encoding="utf-8"))


def as_0_2_0(data):
    """The 0.1.0 certificate as 0.2.0 emits it: no oracle keys, new version."""
    ev = data["evidence"]
    for pair_ev in [ev] + ev.get("pairs", []):
        for key in ORACLE_KEYS:
            pair_ev.pop(key, None)
    data["version"] = "0.2.0"
    return data


@pytest.mark.parametrize("a", FROZEN)
def test_decide_reproduces_frozen_certificate(a):
    data = frozen(a)
    all_witnesses = "all_failures" in data["evidence"]
    want = json.dumps(as_0_2_0(data), indent=2) + "\n"
    cert = ob.decide(int(data["a"]), all_witnesses=all_witnesses)
    got = json.dumps(ob.certificate_to_json(cert), indent=2) + "\n"
    assert got == want


@pytest.mark.parametrize("a", FROZEN)
def test_frozen_certificate_verifies(a):
    assert ob.verify_certificate(frozen(a)) == (True, [])


def test_survivor_certificates_verify_without_the_oracles(polynomials_raise):
    # verify reaches no polynomial code, for either certificate version
    for a in SURVIVORS:
        data = json.loads(json.dumps(ob.certificate_to_json(ob.decide(a))))
        assert ob.verify_certificate(data) == (True, []), a
    for a in FROZEN:
        assert ob.verify_certificate(frozen(a)) == (True, []), a


@pytest.mark.parametrize("field, value", [
    ("sr_exists", True), ("count", "6"), ("oracle_count", "6"),
    ("oracle_sr_exists", True), ("oracle_sr_gcd_degree", "5"), ("oracle_sr_power", "1"),
])
def test_tampered_composite_pair_of_a_frozen_survivor_fails(oracles_raise, field, value):
    data = frozen(1081)
    pairs = data["evidence"]["pairs"]
    i = next(i for i, e in enumerate(pairs) if e["d_is_prime"] is False)
    assert pairs[i][field] != value
    pairs[i][field] = value
    ok, problems = ob.verify_certificate(data)
    assert not ok and any(f"d={pairs[i]['d']}" in msg for msg in problems)


FOX_MILNOR_TAMPERS = {
    "part_exists": lambda block: block["parts"][1].update(exists=True),
    "part_dropped": lambda block: block["parts"].pop(2),
    "part_d_999": lambda block: block["parts"][0].update(d="999"),
    "route_bogus": lambda block: block.update(route="bogus"),
    "not_squarefree": lambda block: block.update(squarefree=False),
    "parts_removed": lambda block: block.pop("parts"),
}


@pytest.mark.parametrize("tamper", FOX_MILNOR_TAMPERS)
@pytest.mark.parametrize("a", (1081, 3577))
def test_tampered_fox_milnor_block_fails(oracles_raise, a, tamper):
    # the block is checked by arithmetic alone: the pairs rule out a
    # self-reciprocal factor in every part, so by Lemma (b) it must state
    # exactly the clean parts of a and a+2
    assert ob.verify_certificate(frozen(a)) == (True, [])
    data = frozen(a)
    FOX_MILNOR_TAMPERS[tamper](data["evidence"]["fox_milnor"][0])
    ok, problems = ob.verify_certificate(data)
    assert not ok and problems
