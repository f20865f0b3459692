import importlib
import pkgutil
import re
from pathlib import Path

import resomem

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = {info.name for info in pkgutil.iter_modules(resomem.__path__)}
FILE_SUFFIXES = {"csv", "json", "md", "py", "toml", "yml"}  # `breeding.csv` is a file, not a name


def test_readme_names_of_resomem_modules_resolve():
    # every backticked `module.name` (or `resomem.module.name`) whose module is a resomem submodule
    spans = re.findall(r"`(?:resomem\.)?([A-Za-z_]\w*)\.([A-Za-z_]\w*)", README.read_text(encoding="utf-8"))
    named = sorted({(module, name) for module, name in spans if module in SUBMODULES and name not in FILE_SUFFIXES})
    assert len(named) >= 10  # the pattern still finds the README's names
    missing = [f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"resomem.{module}"), name)]
    assert not missing, f"README.md names what its module does not define: {missing}"
