"""README.md cites only names that exist: every `module.name` resolves on `lumaflux.<module>`."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lumaflux

MODULES = {info.name for info in pkgutil.iter_modules(lumaflux.__path__)}


def cited_names():
    """The dotted name that starts each README code span, outside fenced blocks, whose first
    part is `lumaflux` or one of its modules, as `tonemap.sdr_bands(linear, op, crfs)`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = set()
    for span in re.findall(r"`([^`]+)`", text):
        dotted = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if dotted and dotted.group().split(".")[0] in MODULES | {"lumaflux"}:
            names.add(dotted.group())
    return sorted(names)


CITED = cited_names()


def test_readme_cites_the_library_api():
    # the pattern still finds the names the Library API section cites
    assert {"tonemap.sdr_bands", "colorimetry.decode", "lumaflux.rqs"} <= set(CITED)


@pytest.mark.parametrize("name", CITED)
def test_cited_name_resolves(name):
    parts = name.split(".")
    if parts[0] == "lumaflux":
        parts = parts[1:]
    assert parts[0] in MODULES, f"README.md cites {name}: lumaflux has no module {parts[0]!r}"
    obj = importlib.import_module(f"lumaflux.{parts[0]}")
    for attr in parts[1:]:
        assert hasattr(obj, attr), f"README.md cites {name}: {attr!r} does not exist"
        obj = getattr(obj, attr)
