"""Every name a docstring or comment of the package points at exists.

A double-backticked reference in ``src/stratdual`` that is dotted
(``module.name``, ``Class.method``) or a bare private or capitalized name
(``_helper``, ``Echelon``) must resolve: its first part as a stratdual
module, a name in one, a builtin or a standard library module, and each
further part as an attribute of the one before.  Call syntax
(``echelon(r)``) is read as the name before it.  Bare lower-case names are
left alone, as most of them are arguments, fields or strategies rather
than module-level names.
"""

import builtins
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import stratdual

SOURCE = Path(stratdual.__file__).parent

MODULES = {info.name: importlib.import_module(f"stratdual.{info.name}")
           for info in pkgutil.iter_modules([str(SOURCE)])}

REFERENCE = re.compile(r"``([^`]+)``")
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")

# References that are not package names: error codes, which the reports
# spell, and fields read through a function's own argument.
ALLOWED = {"PARSE", "BAD_PERVERSITY", "source.maps"}


def references():
    for path in sorted(SOURCE.glob("*.py")):
        for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for ref in REFERENCE.findall(text):
                match = NAME.fullmatch(ref)
                if not match or match[1] in ALLOWED:
                    continue
                name = match[1]
                if "." in name or name[0] == "_" or name[0].isupper():
                    yield f"{path.name}:{line}", name


def resolves(name: str) -> bool:
    first, *rest = name.split(".")
    if first in MODULES:
        candidates = [MODULES[first]]
    elif first in sys.stdlib_module_names:
        candidates = [importlib.import_module(first)]
    else:
        candidates = [getattr(module, first) for module in MODULES.values()
                      if hasattr(module, first)]
        if hasattr(builtins, first):
            candidates.append(getattr(builtins, first))
    for obj in candidates:
        for part in rest:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_the_package_has_references_to_check():
    assert len(list(references())) > 40


def test_every_reference_resolves():
    broken = [f"{where} ``{name}``" for where, name in references() if not resolves(name)]
    assert not broken, "\n".join(broken)
