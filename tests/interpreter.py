"""The interpreter the tests run in: child interpreters like it, and its
``str(int)`` guard.

A child runs the ``kfiblike`` package this session imported: the directory
that holds it goes first on the child's ``PYTHONPATH``.  That is ``src`` when
the tests run from the checkout, and site-packages when they run against an
installed copy.  The child's stdout is block-buffered and its ``str(int)``
guard is CPython's default, whatever the session's environment sets.
"""

import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import kfiblike

PACKAGE_PARENT = str(Path(kfiblike.__file__).resolve().parents[1])


def python_command(*args):
    """The argv and environment of ``python *args`` in a child interpreter."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("PYTHONUNBUFFERED", "PYTHONINTMAXSTRDIGITS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return [sys.executable, *args], env


def run_python(*args, **kwargs):
    """``python *args`` run to its end in a child interpreter, its output captured."""
    argv, env = python_command(*args)
    return subprocess.run(argv, env=env, capture_output=True, timeout=120, **kwargs)


@contextmanager
def str_guard(limit):
    """Run the block with CPython's ``str(int)`` digit limit at ``limit``; 0 lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no guard before CPython 3.11
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


needs_str_guard = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                     reason="no str(int) guard before CPython 3.11")
