"""Non-sliceness obstruction certificates for P(a, -a-2, -(a+1)^2/2).

The package computes Alexander polynomials for this pretzel family,
reduces them modulo the primes dividing (a+1)/2, tests the resulting
cyclotomic products for Fox-Milnor style factorizations, and packages
the outcome into certificates that re-verify from their own evidence.

>>> from pretzelslice import decide
>>> decide(3).verdict
'ObstructedParity'

Importing the package loads only its version.  Each public name is
imported from its submodule on first access (PEP 562), so `check`,
`scan` and `verify` never load the polynomial stack and numpy.
"""

from ._version import __version__

# public name -> the submodule that defines it.  The submodule `factor`'s
# `factor` function is reachable as pretzelslice.factor.factor; exporting
# it here would shadow the submodule itself.
_EXPORTS = {
    "Certificate": "obstruction",
    "CyclotomicQuery": "numth",
    "IntPoly": "poly",
    "ModPoly": "poly",
    "PretzelKnot": "pretzel",
    "ScanRow": "obstruction",
    "WitnessPair": "obstruction",
    "alexander_mod_p": "pretzel",
    "alexander_poly": "pretzel",
    "certificate_to_json": "obstruction",
    "check_pair": "obstruction",
    "count_irreducible_factors": "numth",
    "cyclotomic_poly": "cyclotomic",
    "decide": "obstruction",
    "factor_cyclic": "factor",
    "factor_cyclotomic_oracle": "cyclotomic",
    "factorize": "numth",
    "fox_milnor_offenders": "cyclotomic",
    "fox_milnor_status": "pretzel",
    "has_self_reciprocal_factor": "numth",
    "is_irreducible": "factor",
    "is_prime": "numth",
    "legendre": "numth",
    "mult_order": "numth",
    "parity_witness": "obstruction",
    "scan": "obstruction",
    "self_reciprocal_witness": "obstruction",
    "totient": "numth",
    "verify_certificate": "obstruction",
    "witness_pairs": "obstruction",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
