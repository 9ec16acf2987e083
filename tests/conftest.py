import tracemalloc

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

ACCEPTANCE_LINES = []

#: Whether numpy dispatches its X86_V4 (AVX-512) kernels in this process;
#: numpy before 2.4 calls that class AVX512_SKX. Their float64 power, exp,
#: log, expm1 and log1p round differently from the classes below, so a byte
#: pin on their output holds for one class.
X86_V4 = __cpu_features__.get("X86_V4", __cpu_features__.get("AVX512_SKX", False))

#: ``NPY_DISABLE_CPU_FEATURES`` value that turns X86_V4 dispatch off.
NO_X86_V4 = "X86_V4 AVX512_ICL AVX512_SPR"

#: The pins recorded with X86_V4 dispatch off (x86_64, numpy 2.4.6), keyed
#: by the pin recorded with it on.
NO_X86_V4_PINS = {
    "47f8256c98fc4f16": "34c50b4d32a53acb",  # cdf --level 3 --grid 16 --lam 1.3
    "3356c5e0cbf7c9ac": "5a7f5346f7876454",  # sample --level 3 --count 200 --seed 9
    "aed3422aa1751cb6": "7c571bfcda8f3688",  # cdf --level 0 --grid 8
    "46fa2a9534315615": "626faec2eeb7e597",  # TestSampling::test_sample_bytes
    "d9e5afcd9b1788d1": "7d79ffdf4d79ade5",  # test_sample_pins[walk-memoryless]
}


def simd_pin(pin):
    """``pin``, or the pin recorded with it for the classes below X86_V4
    when numpy does not dispatch X86_V4 in this process. A pin that holds
    in both classes is its own."""
    return pin if X86_V4 else NO_X86_V4_PINS.get(pin, pin)


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"numpy dispatch: {'X86_V4' if X86_V4 else 'below X86_V4'}")
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def traced_peak(fn):
    """Peak bytes that Python and numpy allocate while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
