"""Shared test plumbing: acceptance-criteria summary lines and a random
family member.

test_acceptance appends one line per criterion; they are echoed in the
terminal summary so a plain `pytest -v` run shows the pass/fail status
of every criterion even when all tests pass.  test_mechanics and
test_hamilton_jacobi draw their family members with random_spec, and
test_fracops and test_verification stack the kernel's rows into one
block with stacked_derivative.
"""

acceptance_lines: list[str] = []


def random_spec(rng):
    """A family member drawn from rng: seven uniform draws, in field order."""
    # imported on call: pytest loads this file before perfbench's tests
    # put src/ on sys.path, when both are collected without PYTHONPATH
    from fracwkb.fracops import FractionalOrder
    from fracwkb.mechanics import LagrangianSpec

    return LagrangianSpec(
        c_alpha=rng.uniform(0.2, 5.0),
        c_beta=rng.uniform(0.2, 5.0),
        l_alpha=rng.uniform(-2.0, 2.0),
        l_beta=rng.uniform(-2.0, 2.0),
        v=rng.uniform(-1.0, 2.0),
        alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
        beta=FractionalOrder(rng.uniform(1.0, 2.0)),
    )


def stacked_derivative(grid, samples, orders, side="left"):
    """The rows of rl_derivative_rows as one (orders, rows, count + 1) block.

    The samples are checked, and any overflow raised, as the stream does;
    each row is written into the block as it is handed out.
    """
    import numpy as np
    from fracwkb.fracops import rl_derivative_rows

    rows = rl_derivative_rows(grid, samples, orders, side)
    block = np.empty((len(orders), len(samples), grid.count + 1))
    for i, r, row in rows:
        block[i, r] = row
    return block


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
