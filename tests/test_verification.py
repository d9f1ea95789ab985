"""verify's shared work against the per-case loops it replaced.

The random suites are drawn as column blocks and held to the scalar
draw loop; the kernel oracle's block calls are held to one kernel call
per (power, order, grid) case, and the kernel check's traced memory to
one row of transforms in flight.
"""

import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracwkb import fracops, verification, wkb
from fracwkb.cli import main
from fracwkb.fracops import (
    FractionalOrder,
    TimeGrid,
    interior,
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
    # each member's 13 fields in draw order, as bit patterns
    rows = [(*spec[:5], spec.alpha.value, spec.beta.value, *e, *p) for spec, e, p in members]
    return np.array(rows).view(np.int64)


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
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == f"error: {errors[first]}\n"


def test_rejected_probability_draw_stops_verify_with_its_scalar_error(monkeypatch, capsys):
    # Negative e1 shares in the probability draws, the last suite, with
    # the HJ and eigen rows valid: verify must stop with the scalar error
    # of the first bad probability member in draw order, which names its
    # energies.
    ranges = list(verification._PROB_RANGES)
    ranges[7] = (-1.0, 4.0)
    rows = verification._draw_columns(verification._PROB_SEED, ranges, verification._PROB_DRAWS)
    errors = {}
    for i, row in enumerate(rows.tolist()):
        try:
            spec = LagrangianSpec(*row[:5], FractionalOrder(row[5]), FractionalOrder(row[6]))
            energies, point = EnergyPartition(*row[7:9]), TransformedPoint(*row[9:13])
            evaluate_model(spec, energies, point, verification.FD_STEP)
        except ValueError as exc:
            errors[i] = str(exc)
    first = min(errors)
    assert first > 0 and len(errors) > 1

    monkeypatch.setattr(verification, "_PROB_RANGES", tuple(ranges))
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == f"error: {errors[first]}\n"


def test_verify_evaluates_its_models_in_one_batch(monkeypatch, capsys):
    # one evaluate_models call for the HJ draws, the eigen grid and the
    # probability draws, on every verify run: nothing is kept between runs
    data = verification._model_measurements()
    # a row per estimate
    eigen = len(data["momentum"]) + len(data["energy"])
    expected = verification._HJ_DRAWS + eigen + verification._PROB_DRAWS
    rows = []
    evaluate = verification.evaluate_models

    def counted(family, *columns):
        rows.append(np.size(family.c_alpha))
        return evaluate(family, *columns)

    monkeypatch.setattr(verification, "evaluate_models", counted)
    assert main(["verify"]) == 0
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert rows == [expected] * 2 == [1276] * 2


@pytest.mark.parametrize(
    "scaled, scale, failing",
    [
        ("alpha", 1.0 + 1e-9, "momentum_discrete[n=48]"),
        ("beta", 1.0 + 1e-9, "momentum_discrete[n=48]"),
        ("energy", 1.0 + 1e-8, "energy_discrete[n=128]"),
    ],
)
def test_verify_fails_a_stencil_defect_below_the_truncation(
    monkeypatch, capsys, scaled, scale, failing
):
    # one stencil estimate scaled by 1 + 1e-9 (a momentum) or 1 + 1e-8
    # (the energy) stays well inside the 1e-6 of its continuous records;
    # only the discrete record, which holds the estimate to rounding, and
    # its classical copy fail
    stencil = wkb._stencil

    def defective(wf, point, h, axes):
        estimates = stencil(wf, point, h, axes)
        names = [*axes, "energy"]
        return [x * scale if name == scaled else x for name, x in zip(names, estimates)]

    monkeypatch.setattr(wkb, "_stencil", defective)
    assert main(["verify", "--format", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()[2:]
    assert {line.split(",")[0] for line in lines if line.endswith(",false")} == {
        failing, f"classical.{failing}"
    }


def test_every_kernel_call_goes_through_rl_derivative(monkeypatch, capsys):
    # verify's kernel oracle makes one block call per grid and the integer
    # reduction one more; deriv one on its grid and one on the 4x refinement
    counts = []
    derivative = verification.rl_derivative

    def counted(grid, *args):
        counts.append(grid.count)
        return derivative(grid, *args)

    monkeypatch.setattr(verification, "rl_derivative", counted)
    assert main(["verify"]) == 0
    assert counts == [1024, 4096, 8192, verification._KERNEL_COUNT]
    counts.clear()
    # exit 1: the default x at order 1.5 fails its error record at N 64
    assert main(["deriv", "--grid", "0,1,64"]) == 1
    capsys.readouterr()
    assert counts == [64, 256]


def _kernel_errors_reference():
    # the kernel oracle's per-case loop: one derivative, one power rule
    # and one interior error per (power, order, grid)
    a, b = verification._DOMAIN
    counts = sorted({verification._KERNEL_COUNT, *verification._ORDER_COUNTS})
    errors = {}
    for count in counts:
        grid = TimeGrid(a, b, count)
        offsets, inner = grid.nodes() - grid.a, interior(grid)
        for (j, k), (i, alpha) in product(
            enumerate(verification._EXPONENTS), enumerate(verification._ORDERS)
        ):
            order = FractionalOrder(alpha)
            numeric = left_rl_derivative(grid, offsets**k, order)
            oracle = rl_power_rule(k, order, offsets)
            errors[count, i, j] = np.max(np.abs(numeric[inner] - oracle[inner]))
    return errors


def test_integer_reduction_errors_equal_the_per_case_loop():
    # the integer reduction's per-case loop: one order-1 derivative and
    # one interior error per polynomial
    grid = TimeGrid(*verification._DOMAIN, verification._KERNEL_COUNT)
    nodes, inner = grid.nodes(), interior(grid)
    cases = {
        "x": (nodes, np.ones_like(nodes)),
        "x^2": (nodes**2, 2.0 * nodes),
        "x^3": (nodes**3, 3.0 * nodes**2),
        "x^3-2x^2+x": (nodes**3 - 2.0 * nodes**2 + nodes, 3.0 * nodes**2 - 4.0 * nodes + 1.0),
    }
    errors = verification._integer_reduction_errors()
    assert list(errors) == list(cases)
    for name, (values, oracle) in cases.items():
        numeric = left_rl_derivative(grid, values, FractionalOrder(1.0))
        error = np.max(np.abs(numeric[inner] - oracle[inner]))
        assert type(errors[name]) is np.float64
        assert np.float64(errors[name]).view(np.int64) == error.view(np.int64)


def test_kernel_errors_equal_the_per_case_loop():
    errors = verification._kernel_errors()
    reference = _kernel_errors_reference()
    shape = (len(verification._ORDERS), len(verification._EXPONENTS))
    assert list(errors) == sorted({count for count, _, _ in reference})
    assert all(per_grid.shape == shape for per_grid in errors.values())
    for (count, i, j), error in reference.items():
        assert type(errors[count][i, j]) is np.float64
        assert errors[count][i, j].view(np.int64) == error.view(np.int64)


def test_interior_error_is_finite_on_a_few_ulps_wide_grid():
    # the nodes of a 2-interval grid a few ulps wide round onto the
    # endpoints; the interior is the middle node alone, so the error
    # never reads the endpoint where the order-1.5 derivative diverges
    grid = TimeGrid(1.0, 1.0000000000000004, 2)
    error = verification.power_kernel_check(grid, [1], [FractionalOrder(1.5)])[2]
    assert np.isfinite(error).all()


@pytest.mark.parametrize(
    "count, alphas, powers",
    [
        # verify's largest block: 4 orders by 3 powers on 8,192 intervals
        (8192, (0.25, 0.5, 0.75, 1.5), (1, 2, 3)),
        # deriv's lone row on the 4x refinement of a 16,384-interval grid
        (65536, (0.5,), (2,)),
    ],
    ids=["verify_block", "deriv_lone_row"],
)
def test_kernel_check_keeps_one_row_of_transforms_in_flight(count, alphas, powers):
    grid = TimeGrid(0.0, 1.0, count)
    orders = [FractionalOrder(alpha) for alpha in alphas]
    # a warm-up call, so numpy's FFT plans are built before measuring
    verification.power_kernel_check(grid, powers, orders)
    tracemalloc.start()
    try:
        numeric, oracle, error = verification.power_kernel_check(grid, powers, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, nodes, size = len(powers), grid.count + 1, fracops._fft_length(2 * grid.count + 1)
    row_spectrum = (size // 2 + 1) * 16
    # the derivative and oracle blocks, the block's spectrum, and one
    # row's product and inverse transform
    held = 2 * len(orders) * rows * nodes * 8 + (rows + 1) * row_spectrum + size * 8
    # slack: the samples, the block rl_derivative stacks from them, the
    # offsets and one order's weights.  A whole block's product and
    # transform, a whole block's interior difference, or a lone row's
    # product beside its weights' spectrum crosses this bound
    assert peak <= held + (2 * rows + 2) * nodes * 8
    whole = verification._max_interior_error(numeric, oracle, grid)
    assert error.shape == whole.shape == (len(orders), rows)
    assert np.array_equal(error.view(np.int64), whole.view(np.int64))
