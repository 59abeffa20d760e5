"""Shared test helpers."""

import numpy as np
import pytest
from scipy.integrate._ivp.common import OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput


def _ode_solution(table):
    """scipy's ``OdeSolution`` over the segments of a packed dense table.

    One ``Dop853DenseOutput`` per segment, from the table's t_old, y_old and
    Horner rows (F[6] .. F[0]), each ending at its other knot so that scipy
    recomputes the table's step h exactly; segments in integration order.
    """
    ascending = table.side == "left"
    ends = table.knots[1:] if ascending else table.knots[:-1]
    segments = [
        Dop853DenseOutput(t_old, t, np.array([y_old]), rows[::-1, None])
        for t_old, t, y_old, rows in zip(table.t_old, ends, table.y_old, table.horner.T)
    ]
    if ascending:
        return OdeSolution(table.knots, segments)
    return OdeSolution(table.knots[::-1], segments[::-1])


def _dense_reference(sol, x, gap=False):
    """R0 (or, with ``gap``, Q = 1 - R0) straight from scipy's dense output.

    Applies ContinuumSolution's branch and tail rules with scipy
    ``OdeSolution`` objects built from the two packed tables: the reference
    against which the packed evaluator is checked bitwise.
    """
    x = np.asarray(x, dtype=float)
    L = sol.L
    sol_gap, sol_right = _ode_solution(sol._gap_table), _ode_solution(sol._right_table)
    left = x <= 0.0 if gap else x < 0.0
    Q = np.zeros_like(x)  # the gap, on the left points
    R = np.zeros_like(x)  # the profile, on the right points
    inside, tail = left & (x >= -L), left & (x < -L)
    if inside.any():
        Q[inside] = sol_gap(x[inside])[0]
    Q[tail] = sol_gap(-L)[0] * np.exp(sol.m_minus * (x[tail] + L))
    inside, tail = ~left & (x <= L), ~left & ~(x <= L)
    if inside.any():
        R[inside] = sol_right(x[inside])[0]
    R[tail] = sol_right(L)[0] * np.exp(-sol.m_plus * (x[tail] - L))
    return np.where(left, Q, 1.0 - R) if gap else np.where(left, 1.0 - Q, R)


@pytest.fixture(scope="session")
def ode_solution():
    return _ode_solution


@pytest.fixture(scope="session")
def dense_reference():
    return _dense_reference
