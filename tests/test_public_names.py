"""The names the package exports and the README names all exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import qpc

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(qpc.__path__)}


def test_every_name_in_all_is_an_attribute():
    # so that from qpc import * imports them all
    missing = [name for name in qpc.__all__ if not hasattr(qpc, name)]
    assert missing == []


def test_every_module_qualified_readme_name_resolves():
    # `invariants.Triples`, `qpc.verification.run_all`, `files.dump_doc(doc)`
    pattern = r"`(?:qpc\.)?(%s)\.(\w+)(?:\([^`]*\))?`" % "|".join(sorted(MODULES))
    names = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"qpc.{module}"), name)]
    assert missing == []
