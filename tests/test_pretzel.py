"""Alexander polynomials of the family and their mod-p behaviour."""

import pytest

from pretzelslice import numth, pretzel
from pretzelslice.cyclotomic import cyclotomic_poly
from pretzelslice.poly import IntPoly, ModPoly
from pretzelslice.pretzel import (
    PretzelKnot,
    alexander_mod_p,
    alexander_poly,
    fox_milnor_status,
    validate_member,
)

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
    assert st.route == "direct"
    assert [g.coeffs for g, _ in st.offenders] == [(1, 1, 1), (1, 1, 1, 1, 1)]


def test_fox_milnor_rejects_unknown_route():
    with pytest.raises(ValueError):
        fox_milnor_status(3, 2, route="fancy")


def test_fox_milnor_routes_agree():
    for a in range(3, 90, 2):
        for p in PretzelKnot(a).reduction_primes():
            direct = fox_milnor_status(a, p, route="direct")
            structured = fox_milnor_status(a, p, route="structured")
            assert direct.admits == structured.admits, (a, p)
            if not direct.admits and structured.offenders:
                got = {g.coeffs for g, _ in structured.offenders}
                want = {g.coeffs for g, _ in direct.offenders}
                assert got <= want
            # Lemma (b): the reduction is squarefree, as the structured
            # route assumes without running this gcd
            delta_bar = alexander_mod_p(a, p)
            assert delta_bar.gcd(delta_bar.derivative()).degree == 0, (a, p)
            assert direct.squarefree


@pytest.mark.parametrize("a,p", SURVIVOR_REDUCTIONS)
def test_fox_milnor_survivor_admits(a, p):
    st = fox_milnor_status(a, p)
    assert st.admits
    assert st.route == "structured"
    assert st.squarefree
    assert st.offenders == ()
    assert st.parts and not any(c.exists for c in st.parts)


def test_structured_route_never_builds_the_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the reduction was built")

    monkeypatch.setattr(pretzel, "alexander_mod_p", refuse)
    monkeypatch.setattr(pretzel, "_alexander_cached", refuse)
    st = fox_milnor_status(1081, 541)
    assert st.admits and st.route == "structured"


def test_structured_route_checks_the_lemma_hypothesis():
    # p = 3 divides the part index d = 3; the public entry point rejects
    # this p, so the route's own check is reached only directly
    with pytest.raises(ArithmeticError):
        pretzel._structured_status(3, 3, 0, pretzel.DEFAULT_MAX_A)
