"""Certificates frozen from `check --out` must be reproduced byte for byte.

The files under fixtures/ were written by `pretzelslice check A --out F`
at version 0.1.0: two Inconclusive survivors (their Fox-Milnor blocks
come from the structured route), a parity verdict and a palindromic
factor verdict.  A change to the decision code that alters any emitted
field, or stops the verifier from accepting an earlier certificate,
fails here.
"""

import json
from pathlib import Path

import pytest

from pretzelslice import obstruction as ob

FIXTURES = Path(__file__).parent / "fixtures"
FROZEN = (1081, 3577, 3, 7, 71)


@pytest.mark.parametrize("a", FROZEN)
def test_decide_reproduces_frozen_certificate(a):
    text = (FIXTURES / f"check_{a}.json").read_text(encoding="utf-8")
    got = json.dumps(ob.certificate_to_json(ob.decide(a)), indent=2) + "\n"
    assert got == text


@pytest.mark.parametrize("a", FROZEN)
def test_frozen_certificate_verifies(a):
    data = json.loads((FIXTURES / f"check_{a}.json").read_text(encoding="utf-8"))
    assert ob.verify_certificate(data) == (True, [])
