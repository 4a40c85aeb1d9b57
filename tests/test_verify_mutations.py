"""The verifier is sound and complete on every field of a certificate.

Each certificate `decide` emits for odd a <= 200 and for the eight
survivors, and each frozen fixture, must verify untouched.  Every
one-field mutant must fail: each leaf replaced by a different value of
its own kind, and each key deleted.  `seed` is the only leaf left
alone, since it records a PRNG seed that no closed form reads.  The
one mutant that must verify is an `all_witnesses` certificate with its
`all_failures` list deleted: that is the certificate `decide` emits
without `all_witnesses`.  The walk is deterministic, so every run
checks the same mutants.
"""

import functools
import json
import operator
from pathlib import Path

import pytest

from pretzelslice import obstruction as ob

FIXTURES = Path(__file__).parent / "fixtures"
SURVIVORS = (1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881)


def emitted(a):
    return json.loads(json.dumps(ob.certificate_to_json(ob.decide(a))))


def certificates():
    certs = [emitted(a) for a in range(3, 201, 2)]
    certs += [emitted(a) for a in SURVIVORS]
    certs += [json.loads(f.read_text(encoding="utf-8"))
              for f in sorted(FIXTURES.glob("*.json"))]
    return certs


def walk(node, path=()):
    """Yield (path, value) for every key and list entry, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)) and value:
            yield from walk(value, path + (key,))


def other_value(v):
    """A different value of the same JSON kind as v."""
    if isinstance(v, bool):
        return not v
    if v is None:
        return "-1"  # no field that is null in an emitted certificate can take it
    if isinstance(v, str):
        return str(int(v) + 1) if v.lstrip("-").isdigit() else v + "x"
    return ["x"] if isinstance(v, list) else {"x": "x"}  # empty container


def mutants(cert):
    """(description, mutant) for every deleted key and replaced leaf."""
    blob = json.dumps(cert)
    for path, value in walk(cert):
        *head, last = path
        edits = []
        if isinstance(last, str):
            edits.append(("delete", lambda target: target.pop(last)))
        leaf = not isinstance(value, (dict, list)) or not value
        if leaf and path != ("seed",):
            edits.append(("replace", lambda target: target.__setitem__(last, other_value(value))))
        for what, edit in edits:
            mutant = json.loads(blob)
            edit(functools.reduce(operator.getitem, head, mutant))
            yield f"{what} {path}", mutant


def test_every_certificate_verifies_and_every_one_field_mutant_fails():
    count = 0
    for cert in certificates():
        assert ob.verify_certificate(cert) == (True, []), cert["a"]
        for what, mutant in mutants(cert):
            ok, problems = ob.verify_certificate(mutant)
            if what == "delete ('evidence', 'all_failures')":
                assert ok, problems
                continue
            assert not ok and problems, (cert["a"], cert["version"], what)
            count += 1
    assert count > 7000, count


def pair_of(data, d_is_prime):
    return next(e for e in data["evidence"]["pairs"] if e["d_is_prime"] is d_is_prime)


# one-field tampers of emitted certificates that an evidence-only
# verifier, which reads each field it knows of, accepted
PROBES = {
    "71 order": (71, lambda c: c["evidence"].update(order="24")),
    "71 count": (71, lambda c: c["evidence"].update(count="3")),
    "71 parity": (71, lambda c: c["evidence"].update(parity="odd")),
    "71 legendre": (71, lambda c: c["evidence"].update(legendre="-1")),
    "71 u_odd_part": (71, lambda c: c["evidence"].update(u_odd_part="3")),
    "71 power_at_u": (71, lambda c: c["evidence"].update(power_at_u="1")),
    "71 source": (71, lambda c: c["evidence"].update(source="a")),
    "71 kind": (71, lambda c: c["evidence"].update(kind="parity")),
    "71 d_is_prime": (71, lambda c: c["witness"].update(d_is_prime="yes")),
    "3 phi": (3, lambda c: c["evidence"].update(phi="4")),
    "3 kind": (3, lambda c: c["evidence"].update(kind="self_reciprocal")),
    "3 source": (3, lambda c: c["evidence"].update(source="a+2")),
    "3 version": (3, lambda c: c.update(version="9.9.9")),
    "3 all_failures": (3, lambda c: c["evidence"].update(
        all_failures=[{"p": "2", "d": "5", "status": "parity_failed"}])),
    "1081 note": (1081, lambda c: c["evidence"].update(note="slice")),
    "1081 kind": (1081, lambda c: c["evidence"].update(kind="parity")),
    "1081 pair order": (1081, lambda c: pair_of(c, False).update(order="1")),
    "1081 pair w": (1081, lambda c: pair_of(c, True).update(w="11")),
    "1081 pair source": (1081, lambda c: pair_of(c, True).update(source="a+2")),
    "1081 pair u_odd_part": (1081, lambda c: pair_of(c, False).update(u_odd_part="1")),
    "1081 composite source": (1081, lambda c: pair_of(c, False).update(source="a+2")),
    "1081 composite w": (1081, lambda c: pair_of(c, False).update(w="1")),
    "1081 prime order": (1081, lambda c: pair_of(c, True).update(order="22")),
}


@pytest.mark.parametrize("name", PROBES)
def test_field_tamper_fails(name):
    a, change = PROBES[name]
    data = emitted(a)
    change(data)
    ok, problems = ob.verify_certificate(data)
    assert not ok and problems
