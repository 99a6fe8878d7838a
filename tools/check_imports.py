#!/usr/bin/env python
"""Import-cycle check: every ``repro`` module must import from a cold start.

For each module under ``src/repro`` this script purges every ``repro*``
entry from ``sys.modules`` and imports the module fresh, so the module is
the *first* thing the package loads.  A genuine import cycle (e.g. the
simulator importing policies at module level while policies import the
simulator) only bites when the "wrong" side is imported first — a plain
test run that happens to import packages in a benign order never notices.
This check exercises every entry point.

It also checks that a cold ``import repro.cli`` loads none of
``LAZY_PACKAGES``: heavy third-party packages that only some policies use
(SciPy, for Aquatope's Bayesian optimizer) are imported where they are
called, so every other run skips their import cost.

Run from the repository root::

    PYTHONPATH=src python tools/check_imports.py

Exit status is non-zero if any module fails to import.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Top-level packages a cold ``import repro.cli`` must not load.
LAZY_PACKAGES = ("scipy",)


def discover_modules() -> list[str]:
    """All repro.* module names, sorted for a stable report."""
    modules = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(".".join(parts))
    return modules


def purge_repro() -> None:
    """Drop all repro modules so the next import starts cold.

    Third-party modules (numpy et al.) stay cached — only the package
    under test is re-imported, which keeps the sweep fast.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def eager_lazy_packages() -> list[str]:
    """The ``LAZY_PACKAGES`` a cold ``import repro.cli`` loads.

    Runs in a fresh interpreter: this process keeps third-party modules
    cached across the cold-import sweep.
    """
    code = (
        "import sys, repro.cli; "
        "print(' '.join({m.partition('.')[0] for m in sys.modules}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stdout.split())
    return [name for name in LAZY_PACKAGES if name in loaded]


def main() -> int:
    sys.path.insert(0, str(SRC))
    eager = eager_lazy_packages()
    if eager:
        print(f"a cold `import repro.cli` loads {', '.join(eager)}; import "
              "it inside the functions that use it")
        return 1
    failures: list[tuple[str, Exception]] = []
    modules = discover_modules()
    for name in modules:
        purge_repro()
        try:
            importlib.import_module(name)
        except Exception as exc:  # noqa: BLE001 - report every failure mode
            failures.append((name, exc))
    if failures:
        print(f"{len(failures)}/{len(modules)} modules failed cold import:")
        for name, exc in failures:
            print(f"  {name}: {type(exc).__name__}: {exc}")
        return 1
    print(f"ok: {len(modules)} modules import cleanly from a cold start")
    return 0


if __name__ == "__main__":
    sys.exit(main())
