"""Shared test helpers."""

import numpy as np
import pytest


def _dense_reference(sol, x, gap=False):
    """R0 (or, with ``gap``, Q = 1 - R0) straight from scipy's dense output.

    Applies ContinuumSolution's branch and tail rules with the two
    ``OdeSolution`` objects of ``solve_ivp``: the reference against which the
    packed segment tables are checked bitwise.
    """
    x = np.asarray(x, dtype=float)
    L = sol.L
    left = x <= 0.0 if gap else x < 0.0
    Q = np.zeros_like(x)  # the gap, on the left points
    R = np.zeros_like(x)  # the profile, on the right points
    inside, tail = left & (x >= -L), left & (x < -L)
    if inside.any():
        Q[inside] = sol._gap.sol(x[inside])[0]
    Q[tail] = sol._gap.sol(-L)[0] * np.exp(sol.m_minus * (x[tail] + L))
    inside, tail = ~left & (x <= L), ~left & ~(x <= L)
    if inside.any():
        R[inside] = sol._right.sol(x[inside])[0]
    R[tail] = sol._right.sol(L)[0] * np.exp(-sol.m_plus * (x[tail] - L))
    return np.where(left, Q, 1.0 - R) if gap else np.where(left, 1.0 - Q, R)


@pytest.fixture(scope="session")
def dense_reference():
    return _dense_reference
