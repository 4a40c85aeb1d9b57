"""The arithmetic core's records: named tuples with the old contract.

The records of `numth`, `pretzel`, `obstruction` and `cli` are named
tuples, so a cold command loads none of the modules a dataclass needs.
These tests pin what callers rely on: the fields cannot be assigned,
the reprs are unchanged, the validating records still validate (also
when unpickled), `Factorization` iterates its pairs, and no record is
written to JSON as a list.
"""

import math
import pickle
from pathlib import Path

import pytest

from pretzelslice import cli, numth, obstruction as ob, pretzel
from pretzelslice.numth import CyclotomicQuery, Factorization
from pretzelslice.pretzel import PretzelKnot

from test_import_graph import FIXTURES, _fresh

SRC = Path(__file__).resolve().parents[1] / "src" / "pretzelslice"
INTROSPECTION_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def _records():
    cert = ob.decide(3)
    return [
        numth.factorize(63),
        numth.valuation(36, 2),
        CyclotomicQuery(7, 2),
        numth.count_irreducible_factors(CyclotomicQuery(7, 2)),
        numth.has_self_reciprocal_factor(CyclotomicQuery(9, 2)),
        PretzelKnot(3),
        pretzel.PartCheck(3, "a", True),
        pretzel.FoxMilnorStatus(15, 2, True, ()),
        cert.witness,
        ob.check_pair(3, cert.witness),
        cert,
        next(ob.scan(3, 5)),
        cli.Config(),
    ]


def test_fields_cannot_be_assigned():
    for rec in _records():
        field = "pairs" if isinstance(rec, Factorization) else rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, field, 0)
    for rec in (numth.factorize(63), CyclotomicQuery(7, 2), PretzelKnot(3)):
        with pytest.raises(AttributeError):
            rec.extra = 0


def test_reprs_are_unchanged():
    assert repr(numth.factorize(63)) == "Factorization(pairs=((3, 2), (7, 1)))"
    assert repr(numth.valuation(36, 2)) == "Valuation(v=2, u=9)"
    assert repr(CyclotomicQuery(7, 2)) == "CyclotomicQuery(d=7, p=2)"
    assert repr(numth.count_irreducible_factors(CyclotomicQuery(7, 2))) == (
        "FactorCountReport(d=7, p=2, count=2, degree_each=3, parity='even', "
        "legendre_check=1)")
    assert repr(PretzelKnot(3)) == "PretzelKnot(a=3)"
    assert repr(ob.parity_witness(13)[0]) == (
        "WitnessPair(p=7, d=13, d_is_prime=True, source='a')")
    assert repr(next(ob.scan(3, 3))) == (
        "ScanRow(a=3, verdict='ObstructedParity', p=2, d=3, "
        "reason='factor count 1 is odd for (p=2, d=3)')")
    assert repr(cli.Config()) == "Config(max_a=200000, seed=0, jobs=1, out=None)"


def test_validating_records_still_raise():
    for d, p in ((4, 2), (7, 4), (1, 3)):
        with pytest.raises(ValueError):
            CyclotomicQuery(d, p)
    for a in (4, 1, 7.0, "7"):
        with pytest.raises(ValueError):
            PretzelKnot(a)
    assert CyclotomicQuery(9, 2).d_is_prime is False
    assert PretzelKnot(7).strands == (7, -9, -32)


def test_pickle_round_trips_and_revalidates():
    for rec in (next(ob.scan(3, 3)), ob.decide(1081), ob.decide(3),
                CyclotomicQuery(7, 2), PretzelKnot(3)):
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec)
    # unpickling calls __new__, so a forged record is refused on load
    for forged in (tuple.__new__(CyclotomicQuery, (4, 2)),
                   tuple.__new__(PretzelKnot, (4,))):
        blob = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(blob)


def test_records_are_tuples_of_their_fields():
    f = numth.factorize(63)
    assert list(f) == [(3, 2), (7, 1)] and f == ((3, 2), (7, 1))
    assert [q for q, _ in f] == [3, 7] and f.primes == (3, 7) and f.n == 63
    assert type(f.pairs) is tuple and f.pairs == ((3, 2), (7, 1))
    assert numth.factorize(1).pairs == ()
    assert type(pickle.loads(pickle.dumps(f))) is Factorization
    assert numth.valuation(36, 2) == (2, 9)
    assert tuple(ob.parity_witness(13)[0]) == (7, 13, True, "a")


def test_no_record_skips_its_validation():
    # `_make` and `_replace` build a record without calling `__new__`;
    # only the unvalidated cli.Config may use them
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "._make(" not in text, path.name
        if path.name != "cli.py":
            assert "._replace(" not in text, path.name


def test_sieve_is_every_prime_below_the_trial_bound():
    naive = [n for n in range(2, 1 << 16) if all(n % q for q in range(2, math.isqrt(n) + 1))]
    got = numth._sieve()
    assert got == naive
    assert len(got) == 6542 and got[-1] == 65521


def test_stringify_refuses_records():
    assert ob._stringify([1, (2, None)]) == ["1", ["2", None]]
    for rec in (ob.parity_witness(13)[0], numth.factorize(63)):
        with pytest.raises(TypeError):
            ob._stringify(rec)


def test_core_commands_never_load_introspection_modules(tmp_path):
    got = _fresh(
        "import contextlib, io, sys\n"
        "from pretzelslice import cli\n"
        "out, fixture = sys.argv[1], sys.argv[2]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check', '3']), cli.main(['scan', '3', '301', '--out', out]),\n"
        "             cli.main(['verify', fixture])]\n"
        "RESULT = {'codes': codes, 'modules': sorted(sys.modules)}\n",
        tmp_path / "scan", FIXTURES[0],
    )
    assert got["codes"] == [0, 0, 0]
    assert [m for m in INTROSPECTION_MODULES if m in got["modules"]] == []
