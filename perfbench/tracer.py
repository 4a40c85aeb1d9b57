"""Per-layer call tracer for the pretzelslice benchmark.

Wraps public functions of the package from outside: nothing in `src/`
knows about it.  A module that did `from .cyclotomic import
factor_count_oracle` holds its own reference to the function, so
wrapping `cyclotomic.factor_count_oracle` alone would miss its calls.
`patch_everywhere` therefore replaces the function at every binding
site, that is every attribute of every loaded `pretzelslice` module
that is the original object, and `restore` puts each one back.

Spans nest on one stack.  A function's self time is its duration
minus the time covered by the traced calls it made; its total time
counts only its outermost activation, so recursion is not counted
twice.  Only aggregates are kept (calls, self and total seconds), not
one record per call, because the kernels are called millions of times.

The kernels in `_kernels` are reported as `kernels.<function>.<bucket>`,
split by the length n of the longer operand into `small` (n < 64),
`mid` (64 <= n < 2048) and `large` (n >= 2048); each bucket also sums
a coefficient-operation count computed from the operand lengths (the
schoolbook cost of the call).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

PACKAGE = "pretzelslice"

# (module, function) pairs traced with calls / self_s / total_s
FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("numth", "factorize"),
    ("numth", "mult_order"),
    ("numth", "is_prime"),
    ("cyclotomic", "count_irreducible_factors"),
    ("cyclotomic", "has_self_reciprocal_factor"),
    ("cyclotomic", "factor_count_oracle"),
    ("cyclotomic", "self_reciprocal_factor_oracle"),
    ("cyclotomic", "factor_cyclotomic_oracle"),
    ("factor", "distinct_degree_cyclic"),
    ("factor", "factor_cyclic"),
    ("factor", "is_irreducible_cyclic"),
    ("factor", "self_reciprocal_search"),
    ("pretzel", "alexander_poly"),
    ("pretzel", "alexander_mod_p"),
    ("pretzel", "fox_milnor_status"),
    ("obstruction", "witness_pairs"),
    ("obstruction", "check_pair"),
    ("obstruction", "decide"),
    ("obstruction", "verify_certificate"),
    ("cli", "main"),
    ("cli", "write_scan_files"),
)

KERNELS = ("mul_mod", "mul_int", "divrem_mod", "gcd_mod")
BUCKETS = ("small", "mid", "large")

# composite-oracle confirmations made inside check_pair
_ORACLES = ("cyclotomic.factor_count_oracle", "cyclotomic.self_reciprocal_factor_oracle")


def bucket(n: int) -> str:
    if n < 64:
        return "small"
    return "mid" if n < 2048 else "large"


def coef_ops(kernel: str, la: int, lb: int) -> int:
    if kernel == "divrem_mod":
        return max(0, la - lb + 1) * lb
    return la * lb


def package_modules() -> List[object]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


Site = Tuple[object, str, object]


def patch_everywhere(orig: Callable, replacement: Callable) -> List[Site]:
    """Bind `replacement` wherever a package module binds `orig`."""
    sites = []
    for mod in package_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, replacement)
                sites.append((mod, attr, orig))
    return sites


def restore(sites: List[Site]) -> bool:
    """Undo `patch_everywhere` (latest first); True if every site holds its original."""
    for mod, attr, orig in reversed(sites):
        setattr(mod, attr, orig)
    return all(getattr(mod, attr) is orig for mod, attr, orig in sites)


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "coef_ops", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.coef_ops = 0
        self.active = 0


class Tracer:
    """Aggregate spans per layer function, plus the waste-ratio counts."""

    def __init__(self):
        self.stats: Dict[str, _Stat] = {}
        self.sites: List[Site] = []
        self._stack: List[list] = []  # [child_seconds, oracle_calls, is_check_pair]
        self.oracle_calls = 0  # composite-oracle calls inside check_pair
        self.oracle_decisive = 0  # ... whose check_pair returned a failure
        self.backstop_obstructed = 0  # fox_milnor_status with admits=False

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for modname, fn in FUNCTIONS:
            self._wrap(mods[modname], fn, f"{modname}.{fn}")
        for fn in KERNELS:
            self._wrap(mods["_kernels"], fn, None)

    def uninstall(self) -> bool:
        ok = restore(self.sites)
        self.sites = []
        return ok

    def _stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def _wrap(self, mod, fn: str, name):
        orig = getattr(mod, fn)
        stack = self._stack
        stat = self._stat
        clock = time.perf_counter
        tracer = self
        kernel = fn if name is None else None
        is_oracle = name in _ORACLES
        is_check_pair = name == "obstruction.check_pair"
        is_backstop = name == "pretzel.fox_milnor_status"

        def traced(*args, **kwargs):
            if kernel is not None:
                la, lb = len(args[0]), len(args[1])
                st = stat(f"kernels.{kernel}.{bucket(max(la, lb))}")
                st.coef_ops += coef_ops(kernel, la, lb)
            else:
                st = stat(name)
            if is_oracle:
                for frame in reversed(stack):
                    if frame[2]:
                        frame[1] += 1
                        break
            frame = [0.0, 0, is_check_pair]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.active -= 1
                if stack:
                    stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt - frame[0]
                if not st.active:
                    st.total_s += dt
            if is_check_pair:
                tracer.oracle_calls += frame[1]
                if result.status != "pass":
                    tracer.oracle_decisive += frame[1]
            elif is_backstop and not result.admits:
                tracer.backstop_obstructed += 1
            return result

        traced.__wrapped__ = orig
        self.sites.extend(patch_everywhere(orig, traced))

    def report(self) -> Dict[str, float]:
        """Flat metric dict; every traced name appears, zero when never called."""
        out: Dict[str, float] = {}
        for modname, fn in FUNCTIONS:
            st = self.stats.get(f"{modname}.{fn}", _Stat())
            out[f"{modname}.{fn}.calls"] = st.calls
            out[f"{modname}.{fn}.self_s"] = st.self_s
            out[f"{modname}.{fn}.total_s"] = st.total_s
        for fn in KERNELS:
            for b in BUCKETS:
                st = self.stats.get(f"kernels.{fn}.{b}", _Stat())
                out[f"kernels.{fn}.{b}.calls"] = st.calls
                out[f"kernels.{fn}.{b}.self_s"] = st.self_s
                out[f"kernels.{fn}.{b}.coef_ops"] = st.coef_ops
        out["cyclotomic.oracle_calls"] = self.oracle_calls
        out["cyclotomic.oracle_decisive_calls"] = self.oracle_decisive
        out["pretzel.backstop_obstructed_calls"] = self.backstop_obstructed
        return out
