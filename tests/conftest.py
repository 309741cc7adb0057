"""Make the checkout's sources importable by the Python processes tests start.

pytest puts ``src`` on its own ``sys.path`` (see ``pyproject.toml``); CLI and
demo subprocesses inherit ``PYTHONPATH`` instead.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
