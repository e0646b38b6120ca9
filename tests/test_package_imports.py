"""Every ``repro`` package imports on its own, in a fresh interpreter.

Inside one pytest process an earlier import (say, ``repro.cluster``)
can hide a circular import between packages: the cycle only bites when
the package is the first thing a program imports.  So each package is
imported in a subprocess of its own.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def test_the_package_list_is_not_empty():
    assert {"repro.core", "repro.coord", "repro.kv", "repro.txn"} <= set(
        PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_a_fresh_interpreter(package):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
