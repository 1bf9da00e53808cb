"""Pinned outputs do not move on numpy's and OpenBLAS's other CPU paths.

numpy picks its SIMD loops by CPU at import time and OpenBLAS picks its
kernels by CPU, and the GEMM distances may also depend on OpenBLAS's thread
count, so intermediate draws and distances may differ in their last bits
from one path to another.  The summaries and match outputs must not.
Each child process below reruns the pinned outputs of test_cli.py on one
other path, and every output is compared byte for byte with its pin.
Tests whose values are not pins but rest on rounding, such as the criterion
reductions' and the kernel's equality with its spec and with
``sqdist_entries`` (both rest on the core's dot), are rerun as whole files
under OpenBLAS's Haswell kernels.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from permatch import ESTIMATOR_NAMES

_TESTS = pathlib.Path(__file__).resolve().parent
_DATA = _TESTS / "data"
_CONFIGS = _TESTS.parent / "configs"

_CHILD = """
import json, sys
from permatch.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit("permatch " + " ".join(args) + " failed")
"""


_HASWELL = bool(__cpu_features__.get("X86_V3"))  # Haswell's kernels need AVX2 and FMA


def _other_paths():
    """{label: environment} for every numpy dispatch level below this CPU's, and one OpenBLAS core."""
    targets = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]  # lowest first
    paths = {
        f"numpy {'baseline' if k == 0 else targets[k - 1]} loops": {"NPY_DISABLE_CPU_FEATURES": " ".join(targets[k:])}
        for k in range(len(targets))
    }
    if _HASWELL:
        paths["OpenBLAS Haswell kernels"] = {"OPENBLAS_CORETYPE": "Haswell"}
    # the GEMM distances' bits, unlike the kernel's, may depend on the BLAS thread count
    paths["one OpenBLAS thread"] = {"OPENBLAS_NUM_THREADS": "1"}
    return paths


def _pins():
    """(CLI arguments without --out, pinned file) for the desk, one full-scale and every match pin."""
    pins = [
        (["experiment", str(_CONFIGS / f"{name}-desk.cfg"), "--trials", "8", "--seed", "11"],
         _DATA / f"{name}-desk-trials8-seed11.csv")
        for name in ("homoscedastic", "heteroscedastic")
    ]
    pins.append((["experiment", str(_CONFIGS / "homoscedastic-full.cfg"), "--trials", "2"],
                 _DATA / "homoscedastic-full-trials2-seed1202.csv"))
    for name in ("match-60x60-sigma", "match-70into90"):
        for estimator in ESTIMATOR_NAMES:
            pin = _DATA / f"{name}-{estimator}.csv"
            if pin.exists():  # estimators that need levels fail on match-70into90 and have no pin
                pins.append((["match", str(_DATA / f"{name}-first.csv"), str(_DATA / f"{name}-second.csv"),
                              "--estimator", estimator], pin))
    return pins


def _first_difference(got: bytes, pin: bytes) -> str:
    got_lines, pin_lines = got.decode().splitlines(), pin.decode().splitlines()
    for k, (a, b) in enumerate(zip(got_lines, pin_lines), start=1):
        if a != b:
            return f"row {k}: {a!r}, pinned {b!r}"
    return f"{len(got_lines)} rows, pinned {len(pin_lines)}"


def test_pinned_outputs_are_byte_identical_on_other_cpu_paths(tmp_path):
    pins = _pins()
    src = str(_TESTS.parent / "src")
    children = {}
    for label, extra in _other_paths().items():
        out = tmp_path / str(len(children))
        out.mkdir()
        runs = [args + ["--out", str(out / pin.name)] for args, pin in pins]
        env = dict(os.environ, PYTHONPATH=src, **extra)
        children[label] = (out, subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(runs)], env=env,
                                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    moved = []
    for label, (out, child) in children.items():
        _, err = child.communicate()
        assert child.returncode == 0, f"{label}: {err}"
        for _, pin in pins:
            got, want = (out / pin.name).read_bytes(), pin.read_bytes()
            if got != want:
                moved.append(f"{label}: {pin.name} {_first_difference(got, want)}")
    assert not moved, "\n".join(moved)


@pytest.mark.skipif(not _HASWELL, reason="OpenBLAS's Haswell kernels need AVX2 and FMA")
def test_estimator_tests_pass_on_openblas_haswell_kernels():
    env = dict(os.environ, PYTHONPATH=str(_TESTS.parent / "src"), OPENBLAS_CORETYPE="Haswell")
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(_TESTS / "test_estimators.py"),
            str(_TESTS / "test_model.py")]
    child = subprocess.run(args, env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
