"""Alexander polynomials of the family and their mod-p behaviour."""

import pytest

from pretzelslice import cyclotomic, factor, numth, pretzel
from pretzelslice.cyclotomic import (CyclotomicQuery, cyclotomic_poly, fox_milnor_offenders,
                                     reduced)
from pretzelslice.poly import IntPoly, ModPoly
from pretzelslice.pretzel import (
    PretzelKnot,
    alexander_mod_p,
    alexander_poly,
    fox_milnor_status,
    validate_member,
)

from test_import_graph import _fresh

# every (a, p) with a one of the 8 survivors and p a prime of (a+1)/2
SURVIVOR_REDUCTIONS = [
    (1081, 541), (3577, 1789), (11257, 13), (11257, 433), (12457, 6229),
    (12841, 6421), (14617, 7309), (17521, 8761), (17881, 8941),
]


def test_knot_parameters():
    k = PretzelKnot(3)
    assert k.strands == (3, -5, -8)
    assert k.half_a_plus_one == 2
    assert k.reduction_primes() == (2,)
    assert PretzelKnot(49).reduction_primes() == (5,)
    assert PretzelKnot(1081).reduction_primes() == (541,)
    assert PretzelKnot(15).strands == (15, -17, -128)
    survivors = sorted({a for a, _ in SURVIVOR_REDUCTIONS})
    assert len(survivors) == 8
    assert [(a, p) for a in survivors
            for p in PretzelKnot(a).reduction_primes()] == SURVIVOR_REDUCTIONS


def test_invalid_parameters_rejected():
    for bad in (1, 2, 4, 0, -3):
        with pytest.raises(ValueError):
            PretzelKnot(bad)
    with pytest.raises(ValueError):
        validate_member(301, max_a=299)


def test_alexander_a3_frozen():
    assert alexander_poly(3) == IntPoly([1, -2, -1, 5, -1, -2, 1])


def test_alexander_a5_against_direct_formula():
    # (t^7+1)(t^5+1)/(t+1)^2 - 9 t^4 (t-1)^2, built from scratch here
    num = IntPoly([1, 0, 0, 0, 0, 0, 0, 1]) * IntPoly([1, 0, 0, 0, 0, 1])
    den = IntPoly([1, 1]) * IntPoly([1, 1])
    corr = IntPoly([9]) * IntPoly([0, 0, 0, 0, 1]) * (IntPoly([-1, 1]) * IntPoly([-1, 1]))
    want = (num.exact_div(den) - corr).canonical()
    assert alexander_poly(5) == want


def test_alexander_invariants_sample():
    for a in range(3, 140, 2):
        delta = alexander_poly(a)
        assert delta.degree == 2 * a
        assert delta.is_self_reciprocal()
        assert abs(delta.evaluate(1)) == 1
        assert abs(delta.evaluate(-1)) == 1


def test_alexander_matches_product_form():
    # independent rebuild of the cyclotomic-product closed form
    for a in (3, 9, 15, 45):
        prod = IntPoly([1])
        for n in (a, a + 2):
            for d in numth.divisors(numth.factorize(n))[1:]:
                prod = prod * cyclotomic_poly(d).substitute_neg()
        corr = (
            IntPoly([((a + 1) // 2) ** 2])
            * IntPoly([0] * (a - 1) + [1])
            * (IntPoly([-1, 1]) * IntPoly([-1, 1]))
        )
        assert (prod - corr).canonical() == alexander_poly(a)


def test_alexander_mod_p_a3_frozen():
    assert alexander_mod_p(3, 2) == ModPoly(2, [1, 0, 1, 1, 1, 0, 1])


def test_alexander_mod_p_is_the_reduction():
    for a, p in ((3, 2), (5, 3), (9, 5), (17, 3), (19, 2), (29, 3), (29, 5)):
        assert alexander_mod_p(a, p) == alexander_poly(a).reduce_mod(p).canonical()


def test_alexander_mod_p_validates_prime_choice():
    with pytest.raises(ValueError):
        alexander_mod_p(3, 3)  # 3 does not divide (a+1)/2 = 2
    with pytest.raises(ValueError):
        alexander_mod_p(9, 4)  # not prime; (a+1)/2 = 5
    with pytest.raises(ValueError):
        alexander_mod_p(4, 2)


def test_fox_milnor_flagship():
    st = fox_milnor_status(3, 2)
    assert not st.admits
    assert [h.coeffs for h in fox_milnor_offenders(st)] == [(1, 1, 1), (1, 1, 1, 1, 1)]


def test_fox_milnor_routes_agree():
    # the part-by-part closed form against a full factorization of the
    # reduction (the reference oracle)
    seen = {}  # p -> every offender exhibited so far at that p
    answers = set()
    for a in range(3, 90, 2):
        for p in PretzelKnot(a).reduction_primes():
            st = fox_milnor_status(a, p)
            offenders = fox_milnor_offenders(st)
            delta_bar = alexander_mod_p(a, p)
            # the reference: the self-reciprocal factors of odd multiplicity
            odd = [g for g, m in factor.factor(delta_bar) if g.is_self_reciprocal() and m % 2]
            assert st.admits == (not odd), (a, p)
            assert {h.coeffs for h in offenders} <= {g.coeffs for g in odd}, (a, p)
            # Lemma (b): the reduction is squarefree, as fox_milnor_status
            # assumes without running this gcd
            assert delta_bar.gcd(delta_bar.derivative()).degree == 0, (a, p)
            # the check mod h against division of the built reduction, on
            # this a's offenders (which divide) and earlier ones (some not)
            seen.setdefault(p, set()).update(offenders)
            for h in seen[p]:
                divides = delta_bar.divrem(h)[1].is_zero()
                assert cyclotomic._divides_reduction(a, h) == divides, (a, p, h)
                answers.add(divides)
    assert answers == {True, False}


def test_fox_milnor_offender_check_can_fail(monkeypatch):
    # a = 11, p = 2: C_11 mod 2 has a self-reciprocal factor (2^5 = -1 mod
    # 11), but t^2 + t + 1, of order 3, divides neither t^13 + 1 nor t^11 + 1
    wrong = factor.SelfReciprocalSearch(True, 1, 3, 2, ModPoly(2, (1, 1, 1)))
    monkeypatch.setattr(factor, "self_reciprocal_search", lambda *args: wrong)
    assert not cyclotomic._divides_reduction(11, wrong.factor)
    st = fox_milnor_status(11, 2)
    # a memoized (11, 2) search would hide the patched one, and the
    # patched one must not outlive this test
    cyclotomic._self_reciprocal.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="does not divide"):
            fox_milnor_offenders(st)
    finally:
        cyclotomic._self_reciprocal.cache_clear()


def test_alexander_at_large_a_against_the_quotient_mod_a_prime():
    # Delta(x) mod q by Horner, against the defining quotient built from
    # pow alone, at the top of the default range
    a, q = 199999, (1 << 61) - 1
    coeffs = alexander_poly(a).coeffs
    c = ((a + 1) // 2) ** 2
    for x in (2, 3):
        acc = 0
        for coef in reversed(coeffs):
            acc = (acc * x + coef) % q
        quotient = (pow(x, a + 2, q) + 1) * (pow(x, a, q) + 1) * pow(x + 1, -2, q)
        assert acc == (quotient - c * pow(x, a - 1, q) * (x - 1) ** 2) % q, x


@pytest.mark.parametrize("a,p", SURVIVOR_REDUCTIONS)
def test_fox_milnor_survivor_admits(a, p):
    st = fox_milnor_status(a, p)
    assert st.admits
    assert fox_milnor_offenders(st) == ()
    assert st.parts and not any(c.exists for c in st.parts)
    # the polynomial search on each part agrees with the closed form
    for c in st.parts:
        search = factor.self_reciprocal_search(reduced(CyclotomicQuery(c.d, p)), c.d,
                                               exhibit_cap=0)
        assert search.exists == c.exists, c.d


def test_structured_route_never_builds_the_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was built or searched")

    monkeypatch.setattr(pretzel, "alexander_mod_p", refuse)
    monkeypatch.setattr(pretzel, "alexander_poly", refuse)
    monkeypatch.setattr(factor, "self_reciprocal_search", refuse)
    for a, p in SURVIVOR_REDUCTIONS:
        assert fox_milnor_status(a, p).admits


def test_fox_milnor_status_loads_no_polynomial_code():
    # the arithmetic core decides every reduction without the oracle layer
    # (among them (3, 2), (11, 2), ... whose offenders exist); fresh
    # interpreter, since this one has imported everything
    got = _fresh(
        "import sys\n"
        "from pretzelslice.pretzel import PretzelKnot, fox_milnor_status\n"
        "admits = [fox_milnor_status(a, p).admits for a in range(3, 200, 2)\n"
        "          for p in PretzelKnot(a).reduction_primes()]\n"
        "RESULT = {'calls': len(admits), 'obstructed': admits.count(False),\n"
        "          'modules': sorted(sys.modules)}\n"
    )
    assert got["calls"] > 100 and got["obstructed"] > 0
    oracle = ("numpy", "pretzelslice.poly", "pretzelslice._kernels", "pretzelslice.factor",
              "pretzelslice.cyclotomic")
    assert [m for m in oracle if m in got["modules"]] == []


def test_structured_route_checks_the_lemma_hypothesis(monkeypatch):
    # p = 3 divides the part index d = 3; input validation rejects this
    # p, so the lemma's own check is reached only with validation off
    monkeypatch.setattr(pretzel, "_validate_reduction", lambda a, p, max_a: None)
    with pytest.raises(ArithmeticError):
        fox_milnor_status(3, 3)
