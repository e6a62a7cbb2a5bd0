"""Tier-1 against the installed package, ``src`` off ``sys.path``: from outside the
checkout, ``python [-X dev -W error] <checkout>/tests/run_installed.py [pytest options]``."""

import os
import sys
import sysconfig

import pytest

import kfiblike


class SysPath:  # pytest drops its pythonpath entries when it ends, so look while it runs
    def pytest_sessionfinish(self):
        self.seen = [os.path.realpath(p) for p in sys.path]


if __name__ == "__main__":
    checkout = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
    site_packages = os.path.realpath(sysconfig.get_paths()["purelib"])
    if not os.path.realpath(kfiblike.__file__).startswith(site_packages + os.sep):
        sys.exit(f"kfiblike is not from site-packages: {kfiblike.__file__}")
    spy = SysPath()
    # pyproject.toml sets pythonpath = ["src"]: override it
    code = pytest.main(["-p", "no:cacheprovider", "-o", "pythonpath=", *sys.argv[1:],
                        os.path.join(checkout, "tests")], plugins=[spy])
    if os.path.join(checkout, "src") in spy.seen or sys.modules["kfiblike"] is not kfiblike:
        sys.exit(f"the tests saw another kfiblike, or src on sys.path: {spy.seen}")
    sys.exit(code)
