"""The names ``kfiblike`` exports, and the names its known users import."""

import ast
import copy
import importlib
import importlib.util
import os
import pickle
import re
import types
from pathlib import Path

import pytest
from interpreter import run_python

import kfiblike
from kfiblike import (K, KPoly, ModeMismatchError, Order2Rec, RationalGF, XPoly, gf_from_rec,
                      modified_k_fib, xpoly)

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
    # the audit's names are resolved on first use, so read dir(), not vars()
    listed = {name for name in dir(kfiblike) if not name.startswith("_")
              and not isinstance(getattr(kfiblike, name), types.ModuleType)}
    assert len(kfiblike.__all__) == len(PUBLIC_NAMES)
    assert set(kfiblike.__all__) == listed == PUBLIC_NAMES
    assert all(getattr(kfiblike, name) is not None for name in PUBLIC_NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from kfiblike import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_audit_names_are_the_audit_modules_own():
    import kfiblike.audit

    assert kfiblike.run_audit is kfiblike.audit.run_audit
    assert kfiblike.AuditConfig is kfiblike.audit.AuditConfig
    assert kfiblike.claim_registry is kfiblike.audit.claim_registry


def test_claim_is_defined_in_audit_but_not_exported():
    assert not hasattr(kfiblike, "Claim")
    from kfiblike.audit import Claim  # perfbench's worker replaces its checker

    assert all(isinstance(c, Claim) for c in kfiblike.claim_registry())


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        kfiblike.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from kfiblike import Claim", {})


# Runs in a fresh interpreter: the modules each step adds to sys.modules.
FOOTPRINT_PROBE = r"""
import sys
start = set(sys.modules)
import kfiblike
imported = set(sys.modules)
import argparse
argparse.ArgumentParser().parse_args([])
with_argparse = set(sys.modules)
from kfiblike import cli
assert cli.main(["gen", "modified", "--k", "2", "--count", "5"]) == 0
print(kfiblike.__file__, sorted(imported - start), sorted(with_argparse - imported),
      sorted(set(sys.modules) - with_argparse), sep="\n")
assert kfiblike.audit.run_audit is kfiblike.run_audit  # the submodule loads on use too
"""

UNUSED_BY_ONE_SHOT_COMMANDS = {"kfiblike.audit", "dataclasses", "inspect", "json"}


def test_import_and_a_gen_command_load_only_what_they_use():
    proc = run_python("-c", FOOTPRINT_PROBE, text=True, check=True)
    out, package, by_import, by_argparse, by_gen = proc.stdout.splitlines()
    assert out == "2,2,6,14,34"
    # the child ran this session's package: src, or site-packages against an installed copy
    assert os.path.realpath(package) == os.path.realpath(kfiblike.__file__)
    by_import = set(ast.literal_eval(by_import))
    assert {"kfiblike", "kfiblike.ring", "kfiblike.genfunc"} <= by_import
    assert not by_import & (UNUSED_BY_ONE_SHOT_COMMANDS | {"kfiblike.cli", "argparse"})
    # a gen command adds the CLI module and what argparse itself loads, nothing else
    assert not set(ast.literal_eval(by_argparse)) & UNUSED_BY_ONE_SHOT_COMMANDS
    assert ast.literal_eval(by_gen) == ["kfiblike.cli"]


def _sample_values():
    """One value of each class that is a frozen record, numeric and symbolic,
    with its fields' tuple."""
    rec = Order2Rec(a=3, b=1, x0=2, x1=2)
    num, den = xpoly([2, -4]), xpoly([1, -3, -1])
    one, two = KPoly((1,)), KPoly((2,))
    rec_k = Order2Rec(a=K, b=one, x0=two, x1=two)
    num_k, den_k = xpoly([two, KPoly((2, -2))]), xpoly([one, -K, -one])
    return [
        (rec, (3, 1, 2, 2), "Order2Rec(a=3, b=1, x0=2, x1=2)",
         lambda: Order2Rec(a=3, b=1, x0=2, x1=2)),
        (num, ((2, -4),), "XPoly(coeffs=(2, -4))", lambda: XPoly((2, -4))),
        (RationalGF(num=num, den=den), (num, den),
         "RationalGF(num=XPoly(coeffs=(2, -4)), den=XPoly(coeffs=(1, -3, -1)))",
         lambda: RationalGF(num=xpoly([2, -4]), den=xpoly([1, -3, -1]))),
        (rec_k, (K, one, two, two),
         "Order2Rec(a=KPoly((0, 1)), b=KPoly((1,)), x0=KPoly((2,)), x1=KPoly((2,)))",
         lambda: modified_k_fib(K)),
        (num_k, ((two, KPoly((2, -2))),), "XPoly(coeffs=(KPoly((2,)), KPoly((2, -2))))",
         lambda: gf_from_rec(modified_k_fib(K)).num),
        (RationalGF(num=num_k, den=den_k), (num_k, den_k),
         "RationalGF(num=XPoly(coeffs=(KPoly((2,)), KPoly((2, -2)))), "
         "den=XPoly(coeffs=(KPoly((1,)), KPoly((0, -1)), KPoly((-1,)))))",
         lambda: gf_from_rec(modified_k_fib(K))),
    ]


@pytest.mark.parametrize("value, fields, text, rebuild", _sample_values(),
                         ids=["Order2Rec", "XPoly", "RationalGF",
                              "Order2Rec-K", "XPoly-K", "RationalGF-K"])
def test_frozen_records_keep_their_dataclass_semantics(value, fields, text, rebuild):
    assert repr(value) == text
    twin = rebuild()
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert value != fields and fields != value
    others = [v for v, *_ in _sample_values() if type(v) is not type(value)]
    assert all(value != other for other in others)
    subclass = type("Subclass", (type(value),), {"__slots__": ()})
    assert value != subclass(*fields)  # as a dataclass: equal only to its own class
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for dup in _copies(value):
        assert dup == value and hash(dup) == hash(value)
        with pytest.raises(AttributeError):
            setattr(dup, name, getattr(dup, name))
    assert {value: 1}[twin] == 1


def _copies(value):
    """``value`` through ``copy.copy``, ``copy.deepcopy`` and a pickle round trip."""
    return [copy.copy(value), copy.deepcopy(value),
            *(pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]


@pytest.mark.parametrize("value", [K, KPoly(()), KPoly((3, -(2**200), 0, 5))],
                         ids=["K", "zero", "wide"])
def test_kpoly_copies_and_pickles_as_an_equal_immutable_value(value):
    coeffs = value.coeffs
    with pytest.raises(AttributeError):
        del value.coeffs
    assert value.coeffs is coeffs
    for dup in _copies(value):
        assert type(dup) is KPoly and type(dup.coeffs) is tuple
        assert dup.coeffs == value.coeffs and dup == value and hash(dup) == hash(value)
        with pytest.raises(AttributeError):
            dup.coeffs = ()
        with pytest.raises(AttributeError):
            del dup.coeffs
        assert dup.coeffs == coeffs
    # the indeterminate every symbolic computation starts from still computes
    assert (K * K + K).coeffs == (0, 1, 1)
    assert str(modified_k_fib(K).a * K) == "k^2"


def test_frozen_records_keep_their_validation():
    with pytest.raises(ModeMismatchError):
        Order2Rec(a=K, b=1, x0=2, x1=2)
    with pytest.raises(ModeMismatchError):
        XPoly((1, K))
    with pytest.raises(ValueError, match="canonical"):
        XPoly((1, 0))
    with pytest.raises(ValueError, match="constant term must be 1"):
        RationalGF(num=xpoly([1]), den=xpoly([2, 1]))
    with pytest.raises(ValueError, match="nonzero"):
        RationalGF(num=xpoly([1]), den=xpoly([]))
    with pytest.raises(ModeMismatchError):
        RationalGF(num=xpoly([K]), den=xpoly([1, 1]))


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
