import math

import numpy as np
import pytest

from satiss import Grid, LinearOperator, StateVector, build_kdv_operator, \
    linear_loop_operator, measure_decay_constant, simulate

L = 2.0 * math.pi


@pytest.fixture(scope="session")
def grid127():
    return Grid(L, 127)


@pytest.fixture(scope="session")
def kdv127(grid127):
    return build_kdv_operator(grid127)


@pytest.fixture(scope="session")
def decay_C(kdv127):
    return measure_decay_constant(linear_loop_operator(kdv127))


@pytest.fixture(scope="session")
def z0_cosine(grid127):
    x = grid127.interior_nodes()
    return StateVector(grid127, 1.0 - np.cos(x))


def random_states(grid, n, seed, amplitude=2.0):
    rng = np.random.default_rng(seed)
    return [StateVector(grid, rng.uniform(-amplitude, amplitude, grid.n_interior))
            for _ in range(n)]


def dense_operator(grid, matrix):
    """The operator of a dense test matrix, from all 2n - 1 of its diagonals."""
    n = grid.n_interior
    return LinearOperator(grid, [np.diagonal(matrix, k) for k in range(1 - n, n)])


def simulate_states(sys, z0, T, dt):
    """What ``simulate(sys, z0, T, dt)`` returns, and the state rows it hands
    to ``on_rows``, collected: (steps + 1, n) for one system, (m, steps + 1,
    n) for a list of them."""
    blocks = []
    result = simulate(sys, z0, T, dt,
                      on_rows=lambda times, rows: blocks.append(rows.copy()))
    return result, np.concatenate(blocks, axis=-2)
