"""Package surface: one export list, the names the benchmark binds, and the README quick start runs."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from unittest.mock import MagicMock

import magres
import magres.cli
from magres import magnetic, measure_audit, network, oneforms, selfsimilar, spectral

ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_the_module_export_lists():
    modules = (network, selfsimilar, oneforms, magnetic, measure_audit, spectral)
    assert len(set(magres.__all__)) == len(magres.__all__)
    assert magres.__all__ == [name for module in modules for name in module.__all__]
    for name in magres.__all__:
        assert hasattr(magres, name), name


def load_tracing():
    """``perfbench/tracing.py``, loaded by path (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_exist():
    # the benchmark's tracer looks up every listed name, so a missing one fails every traced run
    tracing = load_tracing()
    traced = set()
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"magres.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"magres.{layer}.{name}"
            traced.add(f"{layer}.{name}")
    assert set(tracing.COUNTED) <= traced
    for full, shape in tracing.SHAPES.items():
        assert full in traced, full
        layer, name = full.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"magres.{layer}"), name)).parameters
        args = defaultdict(MagicMock)  # records every argument name the shape reads
        shape(args)
        assert args and set(args) <= set(params), (full, set(args) - set(params))
    # perfbench/test_perfbench.py patches the eigensolver through the CLI module
    assert magres.cli.hermitian_eigs is spectral.hermitian_eigs


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
