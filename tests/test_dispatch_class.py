"""Byte pins in both of numpy's SIMD dispatch classes on x86_64.

numpy's X86_V4 (AVX-512) kernels round float64 power, exp and log
differently from the classes below it, so the pins on their output are
recorded once for each class (``conftest.NO_X86_V4_PINS`` and
``data/dimension_traces_no_x86_v4.json``). The default run checks the
class that the host dispatches; this test reruns those pins, and the CSV
float formatter's equivalence test, in a process with X86_V4 dispatch off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NO_X86_V4, X86_V4

#: The tests whose pins depend on the class, and the float-cell formatter's
#: equivalence test: its kernel reads numpy's log10, whose bits change with
#: the class too, only as a guess that it then checks.
CLASS_PINS = [
    "tests/test_cli.py::TestWriteCsv::test_float_cells_are_python_formatting",
    "tests/test_cli.py::TestCsvBytes::test_digest[cdf-47f8256c98fc4f16]",
    "tests/test_cli.py::TestCsvBytes::test_digest[sample-3356c5e0cbf7c9ac]",
    "tests/test_cli.py::TestCsvBytes::test_digest[cdf-aed3422aa1751cb6]",
    "tests/test_distributions.py::TestSampling::test_sample_bytes",
    "tests/test_distributions.py::TestSampling::test_sample_pins[walk-memoryless-d9e5afcd9b1788d1]",
    "tests/test_staircase.py::TestLadderCache::test_traces_are_pinned[koch7-<lambda>]",
    "tests/test_staircase.py::TestLadderCache::test_traces_are_pinned[rotated_koch6-_rotated_koch6]",
]


@pytest.mark.skipif(not X86_V4, reason="numpy does not dispatch X86_V4 on this host, "
                                       "so the default run covered the class below it")
def test_pins_hold_with_x86_v4_dispatch_off():
    # plain asserts: rewriting the three modules' asserts would take longer
    # than running their pins
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
         "--assert=plain", *CLASS_PINS],
        cwd=Path(__file__).parent.parent, capture_output=True, text=True,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_X86_V4})
    assert "numpy dispatch: below X86_V4" in run.stdout, run.stdout[-2000:]
    assert run.returncode == 0, run.stdout[-2000:]
    assert f"{len(CLASS_PINS)} passed" in run.stdout
