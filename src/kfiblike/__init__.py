"""Exact arithmetic for the modified k-Fibonacci-like sequence, its four
binomial-family transforms, their closed forms and generating functions, and
an executable audit of the published claims about them."""

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
from .audit import (
    AuditConfig,
    AuditReport,
    ClaimResult,
    Counterexample,
    TABLE_FIXTURES,
    TableFixture,
    Verdict,
    claim_registry,
    run_audit,
)

__version__ = "0.1.0"
