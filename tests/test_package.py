"""Package surface: one export list, and the README quick start runs."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import magres
from magres import magnetic, measure_audit, network, oneforms, selfsimilar, spectral

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_the_module_export_lists():
    modules = (network, selfsimilar, oneforms, magnetic, measure_audit, spectral)
    assert len(set(magres.__all__)) == len(magres.__all__)
    assert magres.__all__ == [name for module in modules for name in module.__all__]
    for name in magres.__all__:
        assert hasattr(magres, name), name


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = str(Path(magres.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
    )
    assert proc.returncode == 0, proc.stderr
