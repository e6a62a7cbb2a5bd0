"""Exact arithmetic for the modified k-Fibonacci-like sequence, its four
binomial-family transforms, their closed forms and generating functions, and
an executable audit of the published claims about them."""

import importlib

from .ring import (
    ExactDivisionError,
    K,
    KPoly,
    ModeMismatchError,
    RingElem,
    exact_div_int,
)
from .sequences import (
    Order2Rec,
    f_from_m,
    iter_terms,
    k_fib,
    m_from_f,
    modified_k_fib,
    term_fast,
    term_iterative,
    terms,
)
from .transforms import (
    KIND_ORDER,
    TransformKind,
    binomial_diff_identity,
    falling_diff_identity,
    rising_even_index,
    transform_direct,
    transform_recurrence,
    w_scaling,
)
from .closedform import (
    binet_closed,
    binet_float,
    published_binet,
)
from .genfunc import (
    RationalGF,
    XPoly,
    derived_gf,
    gf_equal,
    gf_expand,
    gf_from_rec,
    gf_str,
    published_gf,
    xpoly,
)

# The audit's names load it on first use (PEP 562), so computing terms, or a
# one-shot CLI command other than ``audit``, never compiles it.
_AUDIT_NAMES = frozenset({
    "AuditConfig", "AuditReport", "ClaimResult", "Counterexample", "TABLE_FIXTURES",
    "TableFixture", "Verdict", "claim_registry", "run_audit",
})

__all__ = [
    # ring
    "ExactDivisionError", "K", "KPoly", "ModeMismatchError", "RingElem",
    "exact_div_int",
    # sequences
    "Order2Rec", "f_from_m", "iter_terms", "k_fib", "m_from_f", "modified_k_fib",
    "term_fast", "term_iterative", "terms",
    # transforms
    "KIND_ORDER", "TransformKind", "binomial_diff_identity", "falling_diff_identity",
    "rising_even_index", "transform_direct", "transform_recurrence", "w_scaling",
    # closedform
    "binet_closed", "binet_float", "published_binet",
    # genfunc
    "RationalGF", "XPoly", "derived_gf", "gf_equal", "gf_expand", "gf_from_rec",
    "gf_str", "published_gf", "xpoly",
    # audit
    *sorted(_AUDIT_NAMES),
]

__version__ = "0.1.0"


def __getattr__(name):
    """Load the audit for one of its names, or for ``kfiblike.audit`` itself."""
    if name != "audit" and name not in _AUDIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    audit = importlib.import_module(".audit", __name__)
    if name == "audit":
        return audit
    value = globals()[name] = getattr(audit, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
