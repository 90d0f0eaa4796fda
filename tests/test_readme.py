"""README.md names only code that exists.

Every backticked dotted name outside fenced code whose head is a module of
``dpcfocus`` or one of its classes resolves by ``getattr``; a dataclass field
counts, as one without a default is no class attribute.
"""

import dataclasses
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {name: importlib.import_module(f"dpcfocus.{name}")
           for name in ("geometry", "channel", "beamforming", "experiments", "cli")}
HEADS = dict(MODULES, **{name: next(getattr(m, name) for m in MODULES.values() if hasattr(m, name))
                         for name in ("ArrayLayout", "SweepConfig", "RunPlan", "AntennaRows",
                                      "LinkBudget", "ChannelGeometry", "DistributionStats")})


def dotted_names(markdown: str) -> set[str]:
    "The dotted names in the inline code of ``markdown`` that start with a head."
    prose = re.sub(r"^```.*?^```", "", markdown, flags=re.S | re.M)
    spans = " ".join(re.findall(r"`([^`]+)`", prose))
    names = re.findall(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", spans)
    return {name for name in names if name.split(".")[0] in HEADS}


def resolves(name: str) -> bool:
    "Whether ``name`` is an attribute chain from its head, ending at most at a dataclass field."
    head, *parts = name.split(".")
    obj = HEADS[head]
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return i == len(parts) - 1
        else:
            return False
    return True


def test_the_check_reads_inline_code_and_finds_a_missing_name():
    text = "`ArrayLayout.rows`, `f(cli.x)`, `manifest.json`\n```\ncli.y\n```\n`RunPlan.layout`"
    assert dotted_names(text) == {"ArrayLayout.rows", "cli.x", "RunPlan.layout"}
    assert resolves("ArrayLayout.rows") and resolves("RunPlan.layout")
    assert not resolves("cli.x") and not resolves("ArrayLayout.rows.x")


def test_readme_names_only_code_that_exists():
    names = dotted_names(README.read_text(encoding="utf-8"))
    assert names and sorted(name for name in names if not resolves(name)) == []
