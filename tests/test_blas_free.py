"""No value in the package goes through a BLAS product, so the bytes it
prints do not depend on the BLAS library's thread count, nor on the
number of CPUs its Monte Carlo kernels may split their work across."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import fractalcalc

PACKAGE = pathlib.Path(fractalcalc.__file__).parent
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}

#: "<module>.py: <expression>" -> the reason that product may stay. Empty:
#: every sum in the package is an ordered numpy reduction.
ALLOWED = {}


def blas_products(source):
    """Matrix-product operators and calls to BLAS-backed functions in a module."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                yield node


def test_detector_sees_every_form():
    source = ("a @ b\nc @= d\nnp.dot(a, b)\nx.dot(y)\nvdot(a, b)\nnp.inner(a, b)\n"
              "np.matmul(a, b)\nnp.tensordot(a, b)\nnp.einsum('i,i', a, b)\n"
              "a * b\n(a * b).sum()\n")
    assert len(list(blas_products(source))) == 9


def test_no_blas_product_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in blas_products(path.read_text()):
            key = f"{path.name}: {ast.unparse(node)}"
            if key not in ALLOWED:
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    assert all(reason.strip() for reason in ALLOWED.values())


# Every CLI command, then values that went through BLAS products in the past:
# the 100-point correlation grid, moments and an integral over thousands of
# Gauss nodes, and the realization sums of a process without an analytic R.
# The correlation, sde and ms_integral sizes are above the size at which the
# Monte Carlo kernels split their work across threads. With the argument
# "pin", the driver first restricts itself to one CPU, so those kernels run
# in one thread.
DRIVER = """
import os
import sys
if sys.argv[1:] == ["pin"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from fractalcalc import (DistributionOnCurve, FractalProcess, build_koch, build_line,
                         build_staircase, cosine_phase, falpha_integral, ms_integral)
from fractalcalc.cli import main
from walks import lognormal_walk

for args in ["dimension --level 4", "staircase --level 3 --grid 16",
             "cdf --level 3 --grid 16", "sample --level 3 --count 50 --seed 9",
             "correlation --curve line --points 100 --n 3000 --fixture brownian-like --seed 3",
             "msdiag --curve line --n 2000", "sde --curve line --a2 4 --grid 32 --n 10000"]:
    assert main(args.split()) == 0
k6, k8 = build_staircase(build_koch(6)), build_staircase(build_koch(8))
walk = build_staircase(lognormal_walk(0, 4096, 3))
print(repr([DistributionOnCurve.memoryless(t, 2.0).moment_of_j(2) for t in (k6, k8, walk)]))
print(repr(falpha_integral(lambda p: p[:, 0] * p[:, 1], k8, 0.1, 0.9)))
estimated = FractalProcess("cosine-estimated", cosine_phase().draw_paths)
res = ms_integral(estimated, lambda j, u: np.cos(j - u), build_staircase(build_line(0, 2)),
                  0.0, 2.0, 0.3, n=4000, seed=1)
print(repr((res.y, res.stderr, res.precheck.sums)))
"""


def run_driver(threads, *args):
    path = [str(PACKAGE.parent), str(pathlib.Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", DRIVER, *args], env=env,
                          capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture(scope="module")
def one_blas_thread():
    return run_driver(1)


def test_bytes_do_not_depend_on_blas_threads(one_blas_thread):
    assert one_blas_thread.count(b"\n") > 100
    assert one_blas_thread == run_driver(2)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the process may run on one CPU only")
def test_bytes_do_not_depend_on_the_cpus_allowed(one_blas_thread):
    assert one_blas_thread == run_driver(1, "pin")
