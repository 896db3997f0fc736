"""``repro.workloads`` and ``repro.perf`` re-export lazily (``repro._lazy``):
same names, same ``from repro.workloads import X`` spelling, but importing
one submodule no longer imports its siblings — or a signature backend.
The other packages import their subtree as before; every package's
``__all__`` is checked the same way."""

import importlib
import json
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro.chain",
    "repro.core",
    "repro.netsim",
    "repro.perf",
    "repro.sandbox",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_still_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) <= set(dir(module))
    for name in module.__all__:
        getattr(module, name)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


def test_aliases_and_submodules_resolve():
    from repro.perf import vmbench  # a submodule, not an export
    from repro.workloads import build_loadgen, loadgen, run_loadgen

    assert build_loadgen is loadgen.build and run_loadgen is loadgen.run
    assert "run_loadgen" in importlib.import_module("repro.workloads").__all__
    assert vmbench.__name__ == "repro.perf.vmbench"


_NARROW = """
import json, sys
import repro.perf.vmbench
from repro.workloads import MarketplaceTestbed
from repro.chain.crypto import backend_name
assert backend_name() in ("openssl", "pure-python")  # asking loads neither
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("cryptography", "multiprocessing")
    or name in ("repro.workloads.wanbench", "repro.workloads.loadgen",
                "repro.chain.ed25519_ref")
)))
"""


def test_importing_one_workload_does_not_import_the_rest():
    done = subprocess.run(
        [sys.executable, "-c", _NARROW],
        capture_output=True, text=True, timeout=60, check=True,
        env=os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
    )
    assert json.loads(done.stdout) == []
