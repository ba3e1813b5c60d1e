"""Let the suite run from a checkout that is not installed, and share fixtures.

pyproject.toml puts ``src`` on this process's path; the tests that start
``python -m gouldhopper.cli`` read the package through PYTHONPATH.  A test
that patches a kernel or ghcore function asks for ``fresh_caches``.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)


def _clear_package_caches():
    from gouldhopper import ghcore
    from gouldhopper.identity import checks

    for module in (ghcore, checks):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_caches():
    """Clear every cache and store of ghcore and the checkers before and after.

    A test that patches a kernel or ghcore function would otherwise leave
    members, sides or tables built under the patch for a later test to read.
    """
    _clear_package_caches()
    yield
    _clear_package_caches()
