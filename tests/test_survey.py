"""The survey to the default max_a, frozen.

fixtures/survey/survey_3_199999.json was written from
`scan(3, 199999, 120, [1, 97])` and from `decide` on a stratified slice
of every other odd class mod 120.  It extends "the same survivors"
from the eight below 18000 to the 70 Inconclusive values below 200000,
and pins that every a outside 1, 97 mod 120 is Obstructed.
"""

import json
from collections import Counter
from pathlib import Path

from pretzelslice import obstruction as ob

SURVEY = json.loads((Path(__file__).parent / "fixtures" / "survey" / "survey_3_199999.json")
                    .read_text(encoding="utf-8"))


def test_survey_reproduces_the_inconclusive_list():
    want = SURVEY["survey"]
    counts, inconclusive = Counter(), []
    for row in ob.scan(want["lo"], want["hi"], want["modulus"], want["residues"]):
        counts[row.verdict] += 1
        if row.verdict == ob.VERDICT_INCONCLUSIVE:
            inconclusive.append(row.a)
    assert sum(counts.values()) == want["rows"] == 3332
    assert counts == want["counts"]
    assert inconclusive == want["inconclusive"]
    assert len(inconclusive) == 70
    assert inconclusive[:8] == [1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881]


def test_every_other_class_is_obstructed():
    # the slice takes every `stride`-th a of each class, from an offset
    # that moves with the class, over the whole range
    sl = SURVEY["slice"]
    m, stride = sl["modulus"], sl["stride"]
    classes = [r for r in range(1, m, 2) if r not in (1, 97)]
    assert sorted(map(int, sl["by_class"])) == classes
    total = 0
    for r in classes:
        counts = {}
        for a in range(r + m * ((r // 2) % stride), sl["hi"] + 1, m * stride):
            verdict = ob.decide(a).verdict
            counts[verdict] = counts.get(verdict, 0) + 1
        assert ob.VERDICT_INCONCLUSIVE not in counts, r
        assert counts == sl["by_class"][str(r)], r
        total += sum(counts.values())
    assert total == sl["values"]
