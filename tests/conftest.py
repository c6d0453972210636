"""Shared test setup: isolated result cache, calmer hypothesis profile, and
the compiled kernel built from this checkout."""

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import pytest

# isolate before any sumsetchains import so cached reports never leak
# between runs or into the user's real cache
os.environ["SUMSETCHAINS_CACHE"] = tempfile.mkdtemp(prefix="sumsetchains-tests-")

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """sumsetchains._kernel built with ``setup.py build_ext`` into a temporary
    directory and imported from there; skips when no C compiler is present,
    fails when the build fails or the compiler warns about _kernel.c.

    The suite imports the package from ``src``, where no extension is built,
    so this is how the compiled paths get tested against the pure ones.
    """
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) to build the kernel")
    out = tmp_path_factory.mktemp("kernel-build")
    proc = subprocess.run(
        [
            sys.executable, "setup.py", "build_ext",
            "--build-lib", str(out / "lib"), "--build-temp", str(out / "temp"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    log = proc.stdout + proc.stderr
    if proc.returncode != 0:
        pytest.fail(f"building the kernel failed:\n{log}")
    warnings = [line for line in log.splitlines() if "_kernel.c" in line and "warning:" in line]
    if warnings:
        pytest.fail("the kernel builds with compiler warnings:\n" + "\n".join(warnings))
    path = out / "lib" / "sumsetchains" / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location("sumsetchains._kernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
