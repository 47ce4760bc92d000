"""The public API and the README's example of it agree with the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import softgrand

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "__main__"})


def test_every_exported_name_resolves():
    modules = [softgrand] + [importlib.import_module(f"softgrand.{info.name}")
                             for info in pkgutil.iter_modules(softgrand.__path__)]
    assert len(modules) > 1
    for module in modules:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
