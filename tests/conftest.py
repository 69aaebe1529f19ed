"""Child interpreters started by the tests import the package from src/.

pyproject's `pythonpath` puts src/ on sys.path for this process only, so
it is added to PYTHONPATH as well, which `python -m isingcusp` children
inherit.
"""
import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
