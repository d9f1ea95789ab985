"""verify's shared work against the per-case loops it replaced.

The random suites are drawn as column blocks and held to the scalar
draw loop; the kernel oracle's block calls are held to one kernel call
per (power, order, grid) case.
"""

import random
from itertools import product

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwkb import verification
from fracwkb.cli import main
from fracwkb.fracops import (
    FractionalOrder,
    SampledFunction,
    TimeGrid,
    interior_mask,
    left_rl_derivative,
    rl_power_rule,
)
from fracwkb.hamilton_jacobi import EnergyPartition, TransformedPoint
from fracwkb.mechanics import LagrangianSpec
from fracwkb.wkb import evaluate_model


def _hj_reference(seed, n):
    # verify's scalar HJ draw: one rng.uniform per field, and a member
    # whose W1 radicand is negative drawn again; also returns the count
    # of members drawn again
    rng = random.Random(seed)
    members, tries = [], 0
    while len(members) < n:
        tries += 1
        spec = LagrangianSpec(
            c_alpha=rng.uniform(0.2, 5.0),
            c_beta=rng.uniform(0.2, 5.0),
            l_alpha=rng.uniform(-2.0, 2.0),
            l_beta=rng.uniform(-2.0, 2.0),
            v=rng.uniform(-1.0, 2.0),
            alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
            beta=FractionalOrder(rng.uniform(1.0, 2.0)),
        )
        energies = EnergyPartition(rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0))
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        )
        if spec.v * point.q * point.q + 2.0 * energies.e1 >= 0.0:
            members.append((spec, energies, point))
    return members, tries - n


def _probability_reference(seed, n):
    # verify's scalar probability-law draw, which keeps every member
    rng = random.Random(seed)
    members = []
    for _ in range(n):
        spec = LagrangianSpec(
            c_alpha=rng.uniform(0.2, 5.0),
            c_beta=rng.uniform(0.2, 5.0),
            l_alpha=rng.uniform(0.1, 2.0),
            l_beta=rng.uniform(0.1, 2.0),
            v=rng.uniform(0.0, 2.0),
            alpha=FractionalOrder(rng.uniform(1.0, 2.0)),
            beta=FractionalOrder(rng.uniform(1.0, 2.0)),
        )
        energies = EnergyPartition(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
        point = TransformedPoint(
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(-2.0, 2.0),
            rng.uniform(-2.0, 2.0),
        )
        members.append((spec, energies, point))
    return members, 0


_SUITES = {
    "hj": (_hj_reference, verification._HJ_RANGES, verification._w1_real),
    "probability": (_probability_reference, verification._PROB_RANGES, None),
}


def _bits(members):
    rows = np.array([verification._member_row(*member) for member in members])
    return rows.view(np.int64)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 300),
    suite=st.sampled_from(sorted(_SUITES)),
)
@example(seed=verification._HJ_SEED, n=300, suite="hj")
@example(seed=verification._PROB_SEED, n=verification._PROB_DRAWS, suite="probability")
def test_block_draw_equals_scalar_draw(seed, n, suite):
    reference, ranges, accept = _SUITES[suite]
    members, _ = reference(seed, n)
    drawn = verification._draw_columns(seed, ranges, n, accept)
    np.testing.assert_array_equal(drawn.view(np.int64), _bits(members))


def test_hj_draw_skips_the_members_the_scalar_loop_drew_again():
    # verify's own HJ draw, in which the scalar loop drew members again
    members, redrawn = _hj_reference(verification._HJ_SEED, verification._HJ_DRAWS)
    assert redrawn > 0
    drawn = verification._draw_columns(
        verification._HJ_SEED, verification._HJ_RANGES, verification._HJ_DRAWS,
        verification._w1_real,
    )
    np.testing.assert_array_equal(drawn.view(np.int64), _bits(members))


def test_rejected_draw_stops_verify_with_the_scalar_error(monkeypatch, capsys):
    # With a step of 0.015 the scalar path raises on some drawn members,
    # the first of which is not the first drawn: the phase guard trips
    # only at the larger momenta.  verify must stop with the message of
    # that member, which names its momentum.
    step = 0.015
    members, _ = _hj_reference(verification._HJ_SEED, verification._HJ_DRAWS)
    errors = {}
    for i, member in enumerate(members):
        try:
            evaluate_model(*member, step)
        except ValueError as exc:
            errors[i] = str(exc)
    first = min(errors)
    assert first > 0 and len(errors) > 1

    monkeypatch.setattr(verification, "FD_STEP", step)
    # a raising call caches nothing, so the memo is clean afterwards too
    verification._hj_max_residual.cache_clear()
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == f"error: {errors[first]}\n"


def _kernel_errors_reference():
    # the kernel oracle's per-case loop: one derivative, one power rule
    # and one interior error per (power, order, grid)
    a, b = verification._DOMAIN
    counts = sorted({verification._KERNEL_COUNT, *verification._ORDER_COUNTS})
    errors = {}
    for k, alpha in product(verification._EXPONENTS, verification._ORDERS):
        order = FractionalOrder(alpha)
        errors[k, alpha] = {}
        for count in counts:
            grid = TimeGrid(a, b, count)
            offsets = grid.nodes() - grid.a
            numeric = left_rl_derivative(SampledFunction(grid, offsets**k), order).values
            oracle = rl_power_rule(k, order, offsets)
            mask = interior_mask(grid)
            errors[k, alpha][count] = np.max(np.abs(numeric[mask] - oracle[mask]))
    return errors


def test_integer_reduction_errors_equal_the_per_case_loop():
    # the integer reduction's per-case loop: one order-1 derivative and
    # one interior error per polynomial
    grid = TimeGrid(*verification._DOMAIN, verification._KERNEL_COUNT)
    nodes, mask = grid.nodes(), interior_mask(grid)
    cases = {
        "x": (nodes, np.ones_like(nodes)),
        "x^2": (nodes**2, 2.0 * nodes),
        "x^3": (nodes**3, 3.0 * nodes**2),
        "x^3-2x^2+x": (nodes**3 - 2.0 * nodes**2 + nodes, 3.0 * nodes**2 - 4.0 * nodes + 1.0),
    }
    errors = verification._integer_reduction_errors()
    assert list(errors) == list(cases)
    for name, (values, oracle) in cases.items():
        numeric = left_rl_derivative(SampledFunction(grid, values), FractionalOrder(1.0)).values
        error = np.max(np.abs(numeric[mask] - oracle[mask]))
        assert type(errors[name]) is np.float64
        assert np.float64(errors[name]).view(np.int64) == error.view(np.int64)


def test_kernel_errors_equal_the_per_case_loop():
    errors = verification._kernel_errors()
    reference = _kernel_errors_reference()
    assert list(errors) == list(reference)
    for case, per_count in reference.items():
        assert list(errors[case]) == list(per_count)
        for count, error in per_count.items():
            assert type(errors[case][count]) is np.float64
            assert np.float64(errors[case][count]).view(np.int64) == error.view(np.int64)
