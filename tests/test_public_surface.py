"""The names ``kfiblike`` exports, and the names its known users import."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import kfiblike

REPO_ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
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
    "AuditConfig", "AuditReport", "ClaimResult", "Counterexample", "TABLE_FIXTURES",
    "TableFixture", "Verdict", "claim_registry", "run_audit",
}


def test_root_exports_exactly_the_public_names():
    exported = {name for name, value in vars(kfiblike).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_claim_is_defined_in_audit_but_not_exported():
    assert not hasattr(kfiblike, "Claim")
    from kfiblike.audit import Claim  # perfbench's worker replaces its checker

    assert all(isinstance(c, Claim) for c in kfiblike.claim_registry())


def _kfiblike_imports(source):
    """(module, name) for every ``from kfiblike... import name`` and
    (module, None) for every ``import kfiblike...`` in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kfiblike"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("kfiblike"):
                    yield alias.name, None


def _user_sources():
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        yield path.name, path.read_text()
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks, "README has no python quick start"
    for i, block in enumerate(blocks):
        yield f"README.md block {i}", block


def test_every_name_a_user_imports_resolves():
    imports = [(where, module, name) for where, source in _user_sources()
               for module, name in _kfiblike_imports(source)]
    assert {"worker.py", "workloads.py", "README.md block 0"} <= {w for w, _, _ in imports}
    unresolved = []
    for where, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name) \
                and importlib.util.find_spec(f"{module}.{name}") is None:
            unresolved.append(f"{where}: from {module} import {name}")
    assert not unresolved
