"""A process whose every path is one constant, for the integral tests."""

import numpy as np

from fractalcalc.processes import FractalProcess


def constant_process(value: float = 1.0) -> FractalProcess:
    def draw(gen, j, n):
        return np.full((n, len(j)), value)

    def corr(j1, j2):
        return value * value * np.ones_like(np.asarray(j1, dtype=float) * np.asarray(j2, dtype=float))

    return FractalProcess("constant", draw, corr)
