"""Acceptance suite: the survivor-list reproduction and the property grids.

One test per criterion, in order; each prints a single PASS summary
line on success (visible with ``pytest -s`` or in the captured output),
and ``pytest -v`` gives the per-criterion pass/fail roll-up.
"""

import hashlib
import itertools
import json

import pretzelslice.cyclotomic as cyc
from pretzelslice import cli, numth, obstruction as ob, pretzel
from pretzelslice.cyclotomic import CyclotomicQuery
from pretzelslice.factor import CounterRng, factor, is_irreducible, is_irreducible_cyclic
from pretzelslice.poly import IntPoly, ModPoly, reduce_mod

EXPECTED_SURVIVORS = frozenset(
    {1081, 3577, 11257, 12457, 12841, 14617, 17521, 17881}
)


def _ok(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


def _grid():
    ds = [d for d in range(3, 501, 2) if numth.is_prime(d)]
    ps = [p for p in range(2, 101) if numth.is_prime(p)]
    return [(d, p) for d in ds for p in ps if p != d]


def test_criterion_1_survivor_list(tmp_path, capsys):
    prefix = tmp_path / "scan"
    code = cli.main(
        ["scan", "3", "17999", "--mod", "120", "--residues", "1,97",
         "--out", str(prefix)]
    )
    assert code == 0
    rows = [json.loads(line)
            for line in (tmp_path / "scan.jsonl").read_text().splitlines()]
    assert len(rows) == sum(1 for a in range(3, 18000, 2) if a % 120 in (1, 97))
    survivors = {int(r["a"]) for r in rows if r["verdict"] == "Inconclusive"}
    assert survivors == EXPECTED_SURVIVORS
    capsys.readouterr()
    _ok(1, f"inconclusive set in [3, 17999] is exactly {sorted(EXPECTED_SURVIVORS)}")


def test_criterion_2_parity_classes_all_obstructed():
    members = [a for a in range(3, 5001, 2)
               if a % 8 in (3, 5) or a % 12 == 5]
    for a in members:
        assert ob.decide(a).verdict.startswith("Obstructed"), a
        pw, ev = ob.parity_witness(a)
        assert numth.legendre(pw.p, pw.d) == -1, a
        assert ev["count"] % 2 == 1, a
    _ok(2, f"{len(members)} class members obstructed, each with an "
           f"odd-factor-count witness at Legendre -1")


def test_criterion_3_palindromic_classes_all_obstructed():
    members = range(3, 5001, 4)
    confirmed = set()
    for a in members:
        assert ob.decide(a).verdict.startswith("Obstructed"), a
        sw, _ = ob.self_reciprocal_witness(a)
        key = (sw.d, sw.p)
        if key in confirmed:
            continue
        q = CyclotomicQuery(sw.d, sw.p)
        got = cyc.self_reciprocal_factor_oracle(q, exhibit_cap=10 ** 9)
        assert got.exists and got.factor is not None, key
        g = got.factor
        assert g.is_self_reciprocal(), key
        assert cyc.reduced(q).divrem(g)[1].is_zero(), key
        assert is_irreducible_cyclic(g.monic(), sw.d), key
        if g.degree <= 64:
            assert is_irreducible(g), key
        confirmed.add(key)
    _ok(3, f"{len(list(members))} class members obstructed; palindromic "
           f"irreducible factors exhibited for {len(confirmed)} witness pairs")


def test_criterion_4_factor_count_parity_matches_legendre():
    grid = _grid()
    for d, p in grid:
        q = CyclotomicQuery(d, p)
        n = len(cyc.factor_cyclotomic_oracle(q).factors)
        assert (n % 2 == 0) == (numth.legendre(p, d) == 1), (d, p)
        assert n == cyc.count_irreducible_factors(q).count, (d, p)
    _ok(4, f"count parity == Legendre rule on all {len(grid)} (d, p) pairs")


def test_criterion_5_palindromic_existence_three_way():
    grid = _grid()
    for d, p in grid:
        q = CyclotomicQuery(d, p)
        by_oracle = any(g.is_self_reciprocal()
                        for g, _ in cyc.factor_cyclotomic_oracle(q))
        report = cyc.has_self_reciprocal_factor(q)
        assert by_oracle == report.exists == report.odd_part_route, (d, p)
        if report.exists:
            assert pow(p, report.w, d) == d - 1, (d, p)
    _ok(5, f"existence rules agree three ways on all {len(grid)} (d, p) pairs")


def test_grid_factor_lists_are_pinned():
    """Every factor list of the grid, through the oracle's memo at the
    default seed (so criteria 4 and 5 fill it), as frozen before the
    conjugate finish of small classes: any change to the split that
    changes a factor shows here."""
    h = hashlib.sha256()
    for d, p in _grid():
        ms = cyc.factor_cyclotomic_oracle(CyclotomicQuery(d, p))
        h.update(repr([(g.coeffs, m) for g, m in ms]).encode())
    assert h.hexdigest() == "b4282ec10bf008820c04db74a231a42acc41dd79e23c5bb8637e17af6d6e54d7"


def test_criterion_6_product_form_matches_direct_reduction():
    pairs = 0
    for a in range(3, 1001, 2):
        for p in pretzel.validate_member(a).reduction_primes():
            rebuilt = ModPoly(p, (1,))
            for n in (a, a + 2):
                for d in numth.divisors(numth.factorize(n)):
                    if d > 1:
                        part = reduce_mod(cyc.cyclotomic_poly(d), p)
                        rebuilt = rebuilt * part.substitute_neg()
            direct = reduce_mod(pretzel.alexander_poly(a), p)
            assert rebuilt.canonical() == direct.canonical(), (a, p)
            pairs += 1
    _ok(6, f"cyclotomic product == direct reduction for {pairs} (a, p) pairs")


def test_criterion_7_factorization_reconstruction():
    total = 0
    for p in (2, 3, 5, 7, 13):
        rng = CounterRng("acceptance-reconstruction", p)
        done = 0
        while done < 2000:
            deg = 1 + rng.randbelow(14)
            coeffs = list(rng.coeffs(deg, p)) + [1 + rng.randbelow(p - 1)
                                                 if p > 2 else 1]
            f = ModPoly(p, coeffs)
            if f.degree < 1:
                continue
            ms = factor(f)
            assert ms.product() == f, (p, coeffs)
            for g, _ in ms:
                assert is_irreducible(g), (p, coeffs)
            done += 1
        total += done

    agreements = 0
    for p in (2, 3):
        rng = CounterRng("acceptance-trial-division", p)
        for _ in range(150):
            deg = 2 + rng.randbelow(11)
            coeffs = list(rng.coeffs(deg, p)) + [1]
            f = ModPoly(p, coeffs)
            if f.degree < 2:
                continue
            _, naive = _naive_factor(f)
            fast = sorted(((g, m) for g, m in factor(f)),
                          key=lambda t: (t[0].degree, t[0].coeffs))
            assert [(g.coeffs, m) for g, m in fast] == \
                   [(g.coeffs, m) for g, m in naive], (p, coeffs)
            agreements += 1
    _ok(7, f"{total} reconstruction checks and {agreements} "
           f"trial-division agreements, zero failures")


def test_criterion_8_alexander_invariants_and_closed_forms():
    for a in range(3, 1001, 2):
        delta = pretzel.alexander_poly(a)
        assert delta.degree == 2 * a, a
        assert delta.is_self_reciprocal(), a
        assert abs(delta.evaluate(1)) == 1, a
        assert abs(delta.evaluate(-1)) == 1, a

        c = ((a + 1) // 2) ** 2
        correction = IntPoly([c, -2 * c, c]).shift(a - 1)
        num = IntPoly([1] + [0] * (a + 1) + [1]) * IntPoly([1] + [0] * (a - 1) + [1])
        direct = num.exact_div(IntPoly((1, 2, 1))) - correction
        product = IntPoly((1,))
        for n in (a, a + 2):
            for d in numth.divisors(numth.factorize(n)):
                if d > 1:
                    product = product * cyc.cyclotomic_poly(d).substitute_neg()
        assert direct == product - correction, a
        assert direct.canonical() == delta, a
    _ok(8, "invariants and coefficientwise closed-form agreement for "
           "all odd a <= 1000")


def test_criterion_9_certificate_round_trip(tmp_path, capsys):
    values = list(range(3, 200, 2)) + [1081, 3577]
    for a in values:
        path = tmp_path / f"{a}.json"
        code = cli.main(["check", str(a), "--out", str(path)])
        assert code in (0, 10), a
        assert cli.main(["verify", str(path)]) == 0, a
    capsys.readouterr()
    _ok(9, f"all {len(values)} emitted certificates re-verified from "
           f"evidence alone")


def _naive_factor(f):
    """Trial division over all monic polynomials by increasing degree."""
    p = f.p
    f = f.monic()
    out = []
    deg = 1
    while f.degree >= 2 * deg:
        found = False
        for tail in itertools.product(range(p), repeat=deg):
            g = ModPoly(p, list(tail) + [1])
            q, r = f.divrem(g)
            if r.is_zero():
                m, f = 1, q
                while True:
                    q, r = f.divrem(g)
                    if not r.is_zero():
                        break
                    f, m = q, m + 1
                out.append((g, m))
                found = True
                break
        if not found:
            deg += 1
    if f.degree > 0:
        out.append((f, 1))
    return None, sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))
