"""Decision pipeline: witness pairs, verdicts, certificates, scans."""

import json
import math

import pytest

from pretzelslice import numth, obstruction as ob, pretzel
from pretzelslice.cyclotomic import (
    CyclotomicQuery,
    count_irreducible_factors,
    factor_count_oracle,
    has_self_reciprocal_factor,
    self_reciprocal_factor_oracle,
)

SURVIVORS = (1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881)


def pairs_of(a):
    return [(w.p, w.d) for w in ob.witness_pairs(a)]


def test_witness_pairs_golden():
    assert pairs_of(3) == [(2, 3), (2, 5)]
    assert pairs_of(7) == [(2, 7), (2, 3), (2, 9)]
    assert pairs_of(49) == [(5, 7), (5, 49), (5, 3), (5, 17), (5, 51)]


def test_witness_pairs_structure():
    for a in (15, 33, 105, 1081):
        ws = ob.witness_pairs(a)
        half = (a + 1) // 2
        for w in ws:
            assert numth.is_prime(w.p) and half % w.p == 0
            assert w.d > 1 and (a % w.d == 0 or (a + 2) % w.d == 0)
            assert w.d_is_prime == numth.is_prime(w.d)
        # p blocks ascend; within a block, a-divisors precede (a+2)-divisors
        ps = [w.p for w in ws]
        assert ps == sorted(ps)
        per_p = [w for w in ws if w.p == ps[0]]
        sources = [w.source for w in per_p]
        assert sources == sorted(sources, key=lambda s: s != "a")


def reference_pairs(a):
    """The canonical order built eagerly, each divisor tested for primality."""
    def divisors_over_one(n):
        small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
        return sorted({x for i in small for x in (i, n // i)} - {1})

    by_source = []
    for n, source in ((a, "a"), (a + 2, "a+2")):
        divs = divisors_over_one(n)
        by_source += [(d, True, source) for d in divs if numth.is_prime(d)]
        by_source += [(d, False, source) for d in divs if not numth.is_prime(d)]
    ps = [p for p in divisors_over_one((a + 1) // 2) if numth.is_prime(p)]
    return [ob.WitnessPair(p, d, prime, source) for p in ps for d, prime, source in by_source]


def test_lazy_walk_matches_the_eager_order():
    # the generator yields the eager order, and reading d's primality off
    # the factorization agrees with testing it
    for a in range(3, 5000, 2):
        walk = list(ob.iter_witness_pairs(a))
        assert walk == reference_pairs(a), a
        assert ob.witness_pairs(a) == walk, a
        assert all(w.d_is_prime == numth.is_prime(w.d) for w in walk), a


def test_lazy_walk_validates_on_first_next():
    walk = ob.iter_witness_pairs(4)
    with pytest.raises(ValueError):
        next(walk)
    with pytest.raises(ValueError):
        ob.witness_pairs(21, max_a=19)


@pytest.mark.parametrize("a", [3, 11, 19, 43])
def test_decide_does_not_factor_a_plus_2_when_a_decides(a, monkeypatch):
    # each of these a fails at its first pair, (2, a): a+2 is never reached
    factored = []
    orig = numth.factorize

    def spy(n):
        factored.append(n)
        return orig(n)

    numth.factorize.cache_clear()
    monkeypatch.setattr(numth, "factorize", spy)
    cert = ob.decide(a)
    assert (cert.witness.p, cert.witness.d, cert.witness.source) == (2, a, "a")
    assert a in factored and a + 2 not in factored, factored


def test_decide_checks_pairs_up_to_the_first_failure(monkeypatch):
    # decide makes exactly (index of the first failing pair + 1) check_pair
    # calls, or one per pair when every pair passes
    orig = ob.check_pair
    calls = [0]

    def counting(a_, pair):
        calls[0] += 1
        return orig(a_, pair)

    for a in range(3, 5000, 2):
        pairs = ob.witness_pairs(a)
        statuses = [orig(a, w).status for w in pairs]
        fails = [i for i, s in enumerate(statuses) if s != ob.STATUS_PASS]
        want = fails[0] + 1 if fails else len(pairs)
        calls[0] = 0
        monkeypatch.setattr(ob, "check_pair", counting)
        cert = ob.decide(a)
        monkeypatch.setattr(ob, "check_pair", orig)
        assert calls[0] == want, a
        if fails:
            w = pairs[fails[0]]
            assert (cert.witness.p, cert.witness.d) == (w.p, w.d), a


def test_check_pair_parity_failure():
    out = ob.check_pair(3, ob.witness_pairs(3)[0])
    assert out.status == "parity_failed"
    assert out.count == 1 and out.parity == "odd" and out.legendre == -1


def test_check_pair_self_reciprocal_failure():
    out = ob.check_pair(15, ob.WitnessPair(2, 17, True, "a+2"))
    assert out.status == "self_reciprocal_failed"
    assert out.count == 2 and out.w == 4
    assert pow(2, out.w, 17) == 16


def test_check_pair_pass():
    # all of a=1081's pairs pass both conditions
    for w in ob.witness_pairs(1081):
        out = ob.check_pair(1081, w)
        assert out.status == "pass", (w.p, w.d)
        assert out.count % 2 == 0
        assert out.sr_exists is False


def test_check_pair_validates_membership():
    with pytest.raises(ValueError):
        ob.check_pair(3, ob.WitnessPair(3, 3, True, "a"))  # 3 does not divide 2
    with pytest.raises(ValueError):
        ob.check_pair(3, ob.WitnessPair(2, 7, True, "a"))  # 7 divides neither


def test_decision_never_calls_the_oracles(oracles_raise):
    out = ob.check_pair(31, ob.WitnessPair(2, 33, False, "a+2"))
    assert out.status == "self_reciprocal_failed"
    assert (out.count, out.w) == (2, 5)  # 2^5 = -1 mod 33
    out = ob.check_pair(15, ob.WitnessPair(2, 15, False, "a"))
    assert (out.status, out.count, out.sr_exists) == ("pass", 2, False)
    cert = ob.decide(1081)
    assert cert.verdict == "Inconclusive"
    assert any(not e["d_is_prime"] for e in cert.evidence["pairs"])


def _fails(p, d):
    q = CyclotomicQuery(d, p)
    return count_irreducible_factors(q).parity == "odd" or has_self_reciprocal_factor(q).exists


def test_composite_d_is_never_the_first_failure():
    # Lemma (a) in check_pair: whenever (p, d) fails for odd composite d,
    # some prime q | d fails for the same p
    primes = [p for p in range(2, 51) if numth.is_prime(p)]
    pairs = failing = 0
    for d in range(9, 3001, 2):
        if numth.is_prime(d):
            continue
        qs = numth.factorize(d).primes
        for p in primes:
            if d % p == 0:
                continue
            pairs += 1
            if _fails(p, d):
                failing += 1
                assert any(_fails(p, q) for q in qs), (p, d)
    assert (pairs, failing) == (14322, 2281)


def test_closed_form_matches_the_oracles_on_survivor_composites():
    # the cross-check decide made at run time before 0.2.0, over every
    # composite-d pair in the witness lists of the 8 survivors
    queries = [w.query() for a in SURVIVORS for w in ob.witness_pairs(a)
               if not w.d_is_prime]
    assert len(queries) == 47
    for q in queries:
        assert count_irreducible_factors(q).count == factor_count_oracle(q), q
        assert (has_self_reciprocal_factor(q).exists
                == self_reciprocal_factor_oracle(q).exists), q


def test_theorem_tags():
    assert ob.theorem_tags(3) == ("legendre_parity", "self_reciprocal_factor")
    assert ob.theorem_tags(5) == ("legendre_parity",)
    assert ob.theorem_tags(7) == ("self_reciprocal_factor",)
    assert ob.theorem_tags(17) == ("legendre_parity",)  # 17 = 5 mod 12
    assert ob.theorem_tags(1081) == ()
    assert ob.theorem_tags(49) == ()


def test_decide_a3():
    cert = ob.decide(3)
    assert cert.verdict == "ObstructedParity"
    assert (cert.witness.p, cert.witness.d) == (2, 3)
    assert cert.evidence["kind"] == "parity"
    assert cert.theorem_tags == ("legendre_parity", "self_reciprocal_factor")


def test_decide_a5():
    cert = ob.decide(5)
    assert cert.verdict == "ObstructedParity"
    assert (cert.witness.p, cert.witness.d) == (3, 5)


def test_decide_survivor_is_inconclusive():
    cert = ob.decide(1081)
    assert cert.verdict == "Inconclusive"
    assert cert.witness is None
    assert "not a sliceness claim" in cert.evidence["note"]
    assert len(cert.evidence["pairs"]) == len(ob.witness_pairs(1081))
    fm = cert.evidence["fox_milnor"]
    assert [s["p"] for s in fm] == [541]
    assert all(s["admits"] for s in fm)


def test_decide_never_inconclusive_when_a_pair_fails():
    for a in range(3, 260, 2):
        cert = ob.decide(a)
        if cert.verdict == "Inconclusive":
            for w in ob.witness_pairs(a):
                assert ob.check_pair(a, w).status == "pass"


def test_decide_covered_classes_are_obstructed():
    for a in range(3, 420, 2):
        if ob.theorem_tags(a):
            assert ob.decide(a).verdict.startswith("Obstructed"), a


def test_decide_all_witnesses_collects_failures():
    cert = ob.decide(15, all_witnesses=True)
    failing = cert.evidence["all_failures"]
    assert {(f["p"], f["d"]) for f in failing} == {(2, 3), (2, 5), (2, 17)}


@pytest.mark.parametrize("a, all_witnesses", [
    (3, False), (15, False), (49, False), (1081, False), (17521, False),
    (15, True), (105, True),
])
def test_decide_checks_each_pair_once(a, all_witnesses, monkeypatch):
    checked = []
    orig = ob.check_pair

    def counting(a_, pair):
        checked.append((pair.p, pair.d))
        return orig(a_, pair)

    monkeypatch.setattr(ob, "check_pair", counting)
    cert = ob.decide(a, all_witnesses=all_witnesses)
    pairs = pairs_of(a)
    if cert.witness is None or all_witnesses:
        assert checked == pairs
    else:
        assert checked == pairs[: pairs.index((cert.witness.p, cert.witness.d)) + 1]
    # the certificate is the one verify rebuilds from the stated witness
    monkeypatch.setattr(ob, "check_pair", orig)
    data = ob.certificate_to_json(cert)
    assert ob.verify_certificate(data) == (True, [])
    rebuilt = ob.build_certificate(a, cert.witness, all_witnesses=all_witnesses)
    assert ob.certificate_to_json(rebuilt) == data


def test_parity_witness_branches():
    pw, ev = ob.parity_witness(11)
    assert (pw.p, pw.d) == (2, 11) and ev["branch"] == "a=3 mod 8"
    pw, ev = ob.parity_witness(5)
    assert (pw.p, pw.d) == (3, 5) and ev["branch"] == "a=5 mod 12"
    pw, ev = ob.parity_witness(13)
    assert (pw.p, pw.d) == (7, 13) and ev["branch"] == "a=5 mod 8"
    for _, ev in (ob.parity_witness(a) for a in (11, 5, 13, 29, 37, 45)):
        assert ev["legendre"] == -1
        assert ev["count"] % 2 == 1


def test_parity_witness_rejects_uncovered_classes():
    with pytest.raises(ValueError):
        ob.parity_witness(7)  # 7 = 7 mod 8, 7 mod 12
    with pytest.raises(ValueError):
        ob.parity_witness(49)


def test_parity_witness_sample_sweep():
    for a in range(3, 700, 2):
        if a % 8 in (3, 5) or a % 12 == 5:
            pw, ev = ob.parity_witness(a)
            assert numth.legendre(pw.p, pw.d) == -1
            assert ev["count"] % 2 == 1


def test_self_reciprocal_witness_branches():
    sw, ev = ob.self_reciprocal_witness(7)
    assert (sw.p, sw.d) == (2, 3) and ev["branch"] == "half-power trivial"
    assert ev["u_odd_part"] == 9
    sw, ev = ob.self_reciprocal_witness(3)
    assert (sw.p, sw.d) == (2, 3) and ev["branch"] == "prime-power descent"
    sw, ev = ob.self_reciprocal_witness(11)
    assert ev["u_odd_part"] == 15  # odd part of phi(143) = 120
    assert has_self_reciprocal_factor(CyclotomicQuery(sw.d, sw.p)).exists


def test_self_reciprocal_witness_rejects_wrong_class():
    with pytest.raises(ValueError):
        ob.self_reciprocal_witness(5)


def test_self_reciprocal_witness_sample_sweep():
    for a in range(3, 700, 4):
        sw, _ = ob.self_reciprocal_witness(a)
        assert numth.is_prime(sw.d)
        assert has_self_reciprocal_factor(CyclotomicQuery(sw.d, sw.p)).exists


def test_scan_report_shape():
    # an iterator of rows, one per odd a, in order of a
    rows = ob.scan(3, 99)
    assert iter(rows) is rows
    rows = list(rows)
    assert [r.a for r in rows] == list(range(3, 100, 2))
    assert all(type(r) is ob.ScanRow for r in rows)
    assert all(r.verdict != ob.VERDICT_INCONCLUSIVE for r in rows)


def test_scan_residue_filter():
    # a = 5 mod 8 always carries a parity witness, though the first
    # failing pair may trip the palindromic-factor condition instead
    rows = list(ob.scan(3, 500, modulus=8, residues=(5,)))
    assert [r.a for r in rows] == list(range(5, 501, 8))
    assert all(r.verdict.startswith("Obstructed") for r in rows)


def test_scan_is_deterministic():
    assert list(ob.scan(3, 151)) == list(ob.scan(3, 151))


def test_scan_parallel_matches_serial():
    assert list(ob.scan(3, 61, jobs=2)) == list(ob.scan(3, 61))


def test_scan_keeps_exactly_the_filtered_odd_a(monkeypatch):
    # against the filter applied to every odd a, with rows stubbed to a
    monkeypatch.setattr(ob, "_scan_one", lambda args: args[0])
    for modulus in range(1, 13):
        for residues in ((0,), (1,), (2, 5), (-1, 3, modulus + 3), tuple(range(modulus))):
            if modulus % 2 == 0 and all(r % 2 == 0 for r in residues):
                with pytest.raises(ValueError, match="excludes every odd a"):
                    ob.scan(3, 9, modulus=modulus, residues=residues)
                continue
            rset = {r % modulus for r in residues}
            for lo, hi in ((3, 3), (3, 4), (4, 60), (17, 101), (98, 99)):
                want = [a for a in range(lo | 1, hi + 1, 2) if a % modulus in rset]
                assert list(ob.scan(lo, hi, modulus, residues)) == want, (modulus, residues, lo, hi)
    assert list(ob.scan(3, 21)) == list(range(3, 22, 2))


def _count_decides(monkeypatch):
    calls = []
    real = ob.decide

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(ob, "decide", counted)
    return calls


def test_scan_decides_each_a_as_its_row_is_taken(monkeypatch):
    calls = _count_decides(monkeypatch)
    rows = ob.scan(3, 199999)
    assert calls == []
    assert next(rows).a == 3 and calls == [3]
    assert next(rows).a == 5 and calls == [3, 5]
    rows = ob.scan(3, 199999, modulus=120, residues=(97, 1))
    assert [next(rows).a for _ in range(3)] == calls[2:] == [97, 121, 217]


def test_scan_validation():
    with pytest.raises(ValueError):
        ob.scan(10, 5)
    with pytest.raises(ValueError):
        ob.scan(1, 9)
    with pytest.raises(ValueError):
        ob.scan(3, 9, modulus=4)  # residues missing
    with pytest.raises(ValueError):
        ob.scan(3, 9, modulus=4, residues=())
    with pytest.raises(ValueError):
        ob.scan(3, 9, modulus=4, residues=(0, 2))  # no odd a possible
    with pytest.raises(ValueError):
        ob.scan(3, 9, jobs=0)


def test_scan_refuses_a_target_past_max_a_before_deciding(monkeypatch):
    calls = _count_decides(monkeypatch)
    with pytest.raises(ValueError, match="a = 60001 exceeds the configured bound 60000"):
        ob.scan(3, 60001, max_a=60000)
    assert calls == []  # not even the 29,999 values below the bound
    with pytest.raises(ValueError, match="a = 121 exceeds"):
        ob.scan(3, 200, modulus=120, residues=(1, 97), max_a=120)
    assert calls == []
    # the targets are checked, not hi: 97 and 121 are kept, 131 is not
    rows = ob.scan(3, 131, modulus=120, residues=(1, 97), max_a=121)
    assert [r.a for r in rows] == calls == [97, 121]


def test_scan_refuses_a_range_past_the_exact_factoring_range(monkeypatch):
    # numth is exact below 2^64, and a + 2 is factored: the range is
    # refused at the call, before the a below the limit are decided
    calls = _count_decides(monkeypatch)
    with pytest.raises(ValueError, match=r"a = 18446744073709551621 is too large: "
                                         r"a \+ 2 must be below 2\^64"):
        ob.scan(2**64 - 101, 2**64 + 5, max_a=2**66)
    # 2^64 - 1 itself, although its walk would stop in a's block
    with pytest.raises(ValueError, match=r"2\^64"):
        ob.scan(2**64 - 1, 2**64 - 1, max_a=2**66)
    assert calls == []
    with pytest.raises(ValueError, match=r"2\^64"):
        pretzel.validate_member(2**64 - 1, max_a=2**66)
    assert pretzel.validate_member(2**64 - 3, max_a=2**66).a == 2**64 - 3


def test_inconclusive_set_confined_to_the_known_residues():
    inconclusive = [r.a for r in ob.scan(900, 1200) if r.verdict == ob.VERDICT_INCONCLUSIVE]
    assert inconclusive == [1081]
    assert all(a % 120 in (1, 97) for a in inconclusive)


def test_certificate_json_uses_decimal_strings():
    data = ob.certificate_to_json(ob.decide(3))

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert x is None or isinstance(x, (str, bool)), repr(x)

    walk(data)
    assert data["a"] == "3"
    assert data["witness"]["p"] == "2"
    assert json.loads(json.dumps(data)) == data


def test_certificates_roundtrip_through_json_and_verify():
    for a in (3, 5, 7, 15, 71, 49, 121):
        cert = ob.decide(a)
        data = json.loads(json.dumps(ob.certificate_to_json(cert)))
        ok, problems = ob.verify_certificate(data)
        assert ok, (a, problems)


def test_verify_inconclusive_certificate():
    data = json.loads(json.dumps(ob.certificate_to_json(ob.decide(1081))))
    ok, problems = ob.verify_certificate(data)
    assert ok, problems


def test_verify_detects_tampering():
    base = ob.certificate_to_json(ob.decide(3))

    def tampered(**changes):
        data = json.loads(json.dumps(base))
        data["evidence"].update(changes)
        return data

    ok, _ = ob.verify_certificate(tampered(count="2"))
    assert not ok
    ok, _ = ob.verify_certificate(tampered(order="4"))
    assert not ok
    ok, _ = ob.verify_certificate(tampered(parity="even"))
    assert not ok

    data = json.loads(json.dumps(base))
    data["witness"]["d"] = "5"
    ok, _ = ob.verify_certificate(data)
    assert not ok

    data = json.loads(json.dumps(base))
    data["theorem_tags"] = []
    ok, _ = ob.verify_certificate(data)
    assert not ok


def test_verify_detects_sr_tampering():
    cert = ob.decide(71)
    assert cert.verdict == "ObstructedSelfReciprocal"
    data = json.loads(json.dumps(ob.certificate_to_json(cert)))
    data["evidence"]["w"] = str(int(data["evidence"]["w"]) + 1)
    ok, problems = ob.verify_certificate(data)
    assert not ok and problems


def test_verify_detects_wrong_inconclusive_claim():
    # a=3 is obstructed; claiming Inconclusive must fail on recompute
    data = json.loads(json.dumps(ob.certificate_to_json(ob.decide(1081))))
    data["a"] = "3"
    ok, _ = ob.verify_certificate(data)
    assert not ok


def test_verify_rejects_malformed_input():
    for bad in ({}, {"a": "4"}, {"a": "3", "verdict": "Nope"},
                {"a": "3", "verdict": "ObstructedParity"}):
        ok, problems = ob.verify_certificate(bad)
        assert not ok and problems


def test_legacy_oracle_fields_match_the_search():
    # the closed forms a 0.1.0 certificate's oracle_sr_* keys are checked
    # against (proof in legacy_oracle_fields), on every witness pair of
    # odd a <= 401 with d <= 400, whether or not the pair fails parity
    checked = 0
    for a in range(3, 402, 2):
        for w in ob.witness_pairs(a):
            if w.d > 400:
                continue
            q = w.query()
            count = count_irreducible_factors(q)
            sr = has_self_reciprocal_factor(q)
            fields = ob.legacy_oracle_fields({
                "d": w.d, "count": count.count, "order": count.degree_each,
                "sr_exists": sr.exists, "w": sr.w,
            })
            got = self_reciprocal_factor_oracle(q, exhibit_cap=0)
            assert fields == {
                "oracle_count": count.count,
                "oracle_sr_exists": got.exists,
                "oracle_sr_power": got.power,
                "oracle_sr_divisor": got.divisor,
                "oracle_sr_gcd_degree": got.gcd_degree,
            }, (a, w)
            checked += 1
    assert checked == 1979


def test_mod_p_certificate_is_an_unknown_verdict():
    # ObstructedModP was never emitted and Lemma (b) makes it unreachable,
    # so a synthesized one fails as an unknown verdict
    ev = {
        "kind": "fox_milnor", "p": 2, "admits": False, "route": "direct",
        "squarefree": True, "factor": [1, 1, 1], "multiplicity": 1,
        "note": "obstruction found only by the full factorization test",
    }
    cert = ob.Certificate(3, "ObstructedModP", None, ev, ob.theorem_tags(3),
                          0, ob.__version__)
    data = json.loads(json.dumps(ob.certificate_to_json(cert)))
    ok, problems = ob.verify_certificate(data)
    assert not ok
    assert problems == ["unknown verdict 'ObstructedModP'"]


def test_decide_raises_when_the_backstop_contradicts_lemma_b(monkeypatch):
    def obstructed(a, p, max_a=0):
        return pretzel.FoxMilnorStatus(a, p, False, ())

    monkeypatch.setattr(pretzel, "fox_milnor_status", obstructed)
    with pytest.raises(ArithmeticError, match="Lemma \\(b\\)"):
        ob.decide(1081)
