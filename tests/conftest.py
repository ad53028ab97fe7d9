"""The interpreters that the CLI tests start import the package from this
checkout's src directory, as the test process itself does through the
``pythonpath`` setting in pyproject.toml."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
