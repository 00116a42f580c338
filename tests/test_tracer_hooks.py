"""perfbench/tracer.py's hooks: every name it wraps exists in the package, and
uninstalling leaves no wrapper behind.  Deleting or renaming a function the
tracer patches (the ``# noqa`` re-exports included) fails here, not only in a
benchmark run."""

import importlib.util
from pathlib import Path

import medext
import medext.cli  # noqa: F401  (the tracer wraps cli.main and cli's imports)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_install_then_uninstall_leaves_no_wrapper():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    installed = tracer.install(medext)
    try:
        assert tracer.leaked_wrappers(medext), "install wrapped nothing"
    finally:
        installed.uninstall()
    assert tracer.leaked_wrappers(medext) == []
