"""The library imports with the one dependency ``pyproject.toml`` declares."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")


#: Installed first in the child: a finder that refuses every top-level
#: package outside the standard library, numpy and repro (scipy among them)
#: before the import starts.
_REFUSE_UNDECLARED = textwrap.dedent(
    """
    import sys

    class RefuseUndeclared:
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "repro"):
                raise ImportError(f"undeclared dependency: {name}")

    sys.meta_path.insert(0, RefuseUndeclared())
    """
)


def _run_with_only_numpy(body: str) -> None:
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _REFUSE_UNDECLARED + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_import_needs_only_numpy():
    """``import repro`` and its harness load nothing outside the standard
    library and numpy."""
    _run_with_only_numpy("import repro, repro.harness\n")


def test_every_module_imports_with_only_numpy():
    """So does every module of the package, the ones the harness and the
    server load on demand included (``__main__`` would run the CLI)."""
    _run_with_only_numpy(
        """
        import importlib, pkgutil
        import repro

        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if not info.name.endswith(".__main__")
        ]
        assert len(names) > 40, names
        for name in names:
            importlib.import_module(name)
        """
    )
