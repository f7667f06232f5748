"""README.md stays true to the code: its example runs and the names it cites exist."""

import importlib
import math
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(path.stem for path in (ROOT / "src" / "fsim").glob("*.py")
                 if path.stem != "__init__")


def section(title: str) -> str:
    """The text under the ``## title`` heading, up to the next ``## `` heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def cited_names() -> list[str]:
    """Every backticked name qualified by ``fsim.`` or by one of its modules,
    cut at its first character that cannot be part of a dotted name; a file
    name such as ``model.py`` is no such name."""
    qualifier = "|".join(["fsim", *MODULES])
    spans = re.findall(r"`([^`\n]+)`", README)
    return sorted({match.group(0) for span in spans
                   if (match := re.match(rf"(?:{qualifier})(?:\.\w+)+", span))
                   and not match.group(0).endswith(".py")})


def resolve(name: str):
    parts = name.split(".")
    if parts[0] != "fsim":
        parts.insert(0, "fsim")
    target = importlib.import_module("fsim")
    for k in range(1, len(parts)):
        try:
            target = getattr(target, parts[k])
        except AttributeError:
            target = importlib.import_module(".".join(parts[:k + 1]))
    return target


def test_quick_start_runs_as_written(capsys):
    block = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S)
    exec(compile(block.group(1), "README quick start", "exec"), {})
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert sorted(printed) == ["RASE", "RASE2", "RSE"]
    assert all(math.isfinite(float(value)) for value in printed.values())


def test_layout_has_a_row_per_module():
    rows = re.findall(r"^\| (.+?) \|", section("Layout"), re.M)
    listed = set(re.findall(r"`fsim\.(\w+)`", " ".join(rows)))
    assert listed == set(MODULES)


def test_cited_names_resolve():
    names = cited_names()
    assert len(names) > 20  # the search finds the names it checks
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            pytest.fail(f"README cites {name}, which does not exist")
