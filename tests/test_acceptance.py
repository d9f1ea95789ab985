"""End-to-end acceptance gate.

One test per acceptance criterion.  Each prints a single pass/fail
line (also echoed in the terminal summary via conftest) and then
asserts, so a red run still reports the status of every criterion it
reached.  Criteria 1-8 reuse the verification-suite checks, which is
exactly what the `verify` subcommand runs; criterion 9 exercises the
CLI surface itself.
"""

from fracwkb.cli import main
from fracwkb.reporting import RecordBatch, format_table
from fracwkb.verification import (
    DEFAULT_TOLERANCES,
    check_classical_limit,
    check_energy_eigenvalues,
    check_hj_identity,
    check_imaginary_parts,
    check_integer_reduction,
    check_kernel_oracle,
    check_momentum_eigenvalues,
    check_probability_law,
    resolve_tolerances,
)

from conftest import acceptance_lines

_TOLERANCES = resolve_tolerances()


def _gate(number: int, label: str, records) -> None:
    failing = RecordBatch.from_records(records).failures()
    status = "PASS" if not len(failing) else "FAIL"
    line = f"criterion {number} ({label}): {status} [{len(records)} records]"
    if len(failing):
        line += " failing: " + ", ".join(failing.quantities[:5])
    acceptance_lines.append(line)
    print(line)
    assert not len(failing), "\n" + format_table(failing)


def test_criterion_1_fractional_kernel_oracle():
    # max interior error < 1e-3 at count 4096 for k in {1,2,3},
    # alpha in {0.25, 0.5, 0.75, 1.5}; observed order >= 0.8
    _gate(1, "fractional-kernel oracle", check_kernel_oracle(_TOLERANCES))


def test_criterion_2_integer_reduction():
    # order-1 kernel matches ordinary polynomial derivatives < 1e-3
    _gate(2, "integer-order reduction", check_integer_reduction(_TOLERANCES))


def test_criterion_3_hj_residual():
    # 1000 randomized family draws, |H(q, dS) - E| <= 1e-12
    _gate(3, "Hamilton-Jacobi residual", check_hj_identity(_TOLERANCES))


def test_criterion_4_momentum_eigenvalues():
    # model 1: sqrt(2 E) for E in {0.5, 1, 2, 8}; model 2 includes
    # sqrt(q**2 + 2 E1) + 1 for q in {0, 1, 2}; all within 1e-6, plus
    # the stencil's discrete eigenvalue to rounding
    _gate(4, "momentum eigenvalues", check_momentum_eigenvalues(_TOLERANCES))


def test_criterion_5_energy_eigenvalues():
    # Hpsi/psi = E1 + E2 within 1e-6 over the same grid, q != 0
    # exercised, plus the stencil's discrete eigenvalue to rounding
    _gate(5, "energy eigenvalues", check_energy_eigenvalues(_TOLERANCES))


def test_criterion_6_probability_law():
    # |psi|**2 p_alpha p_beta = 1 within 1e-14 at 100 random points
    _gate(6, "probability law", check_probability_law(_TOLERANCES))


def test_criterion_7_classical_limit():
    # at alpha = beta = 1 the structural reduction holds and the
    # eigenvalue grid of criteria 4-5 passes unchanged
    _gate(7, "classical limit", check_classical_limit(_TOLERANCES))


def test_criterion_8_imaginary_parts():
    # every eigenvalue estimate has |imag| < 1e-8
    _gate(8, "imaginary-part suppression", check_imaginary_parts(_TOLERANCES))


def test_criterion_9_cli_contract(capsys, tmp_path):
    failures = []

    # in-process: test_verify_subprocess_is_deterministic runs `-m fracwkb`
    out = tmp_path / "verify.csv"
    ret = main(["verify", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    if ret != 0:
        failures.append(f"pristine verify exited {ret}")
    if not out.read_text(encoding="utf-8").startswith("# schema_version=1"):
        failures.append("verify report missing schema header")

    for name in DEFAULT_TOLERANCES:
        ret = main(["verify", "--tol", f"{name}=0"])
        err = capsys.readouterr().err
        if ret != 1:
            failures.append(f"corrupting {name} exited {ret}, wanted 1")
        if "failing records:" not in err:
            failures.append(f"corrupting {name} printed no failing records")

    status = "PASS" if not failures else "FAIL"
    line = (
        f"criterion 9 (CLI contract): {status} "
        f"[verify + {len(DEFAULT_TOLERANCES)} corruptions]"
    )
    if failures:
        line += " " + "; ".join(failures[:3])
    acceptance_lines.append(line)
    print(line)
    assert not failures, failures
