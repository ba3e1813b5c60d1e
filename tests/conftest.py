"""Let the suite run from a checkout that is not installed.

pyproject.toml puts ``src`` on this process's path; the tests that start
``python -m gouldhopper.cli`` read the package through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)
