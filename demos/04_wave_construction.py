"""Semiclassical wave functions and finite-difference eigen-checks.

Assembles psi = exp(iS/hbar)/sqrt(p_alpha p_beta), applies the
difference-operator momenta and Hamiltonian, and shows the three
headline properties: psi is a momentum eigenfunction, an energy
eigenfunction, and carries probability inversely proportional to the
momentum product.  Ends with the classical-limit reduction at orders
alpha = beta = 1.

Run:  python3 demos/04_wave_construction.py
"""

from fracwkb import (
    EnergyPartition,
    PrincipalFunction,
    RecordBatch,
    TransformedPoint,
    WaveField,
    apply_hamiltonian,
    apply_momentum,
    classical_limit_check,
    example1,
    example2,
    momenta_from_S,
    probability_density,
)
from fracwkb.verification import DEFAULT_TOLERANCES

# small phase keeps the 1/h**2 stencil roundoff floor far below the
# stencil truncation error
point = TransformedPoint(0.02, -0.015, 0.005, q=1.0)
h = 1e-4

print("== momentum eigenvalues ==")
for name, spec in (("example1", example1()), ("example2", example2())):
    pf = PrincipalFunction(spec, EnergyPartition(2.0, 0.5))
    wf = WaveField(pf)
    p = momenta_from_S(pf, point)
    for which, target in (("alpha", p.p_alpha), ("beta", p.p_beta)):
        est = apply_momentum(wf, which, point, h)
        print(
            f"{name} P_{which}: estimate {est.real:.9f}  target {target:.9f}  "
            f"|imag| {abs(est.imag):.1e}"
        )
print()

print("== energy eigenvalues ==")
for name, spec in (("example1", example1()), ("example2", example2())):
    pf = PrincipalFunction(spec, EnergyPartition(2.0, 0.5))
    wf = WaveField(pf)
    est = apply_hamiltonian(wf, point, h)
    target = pf.energies.total
    print(
        f"{name} H: estimate {est.real:.9f}  "
        f"target {target}  residual {abs(est - target):.1e}"
    )
print()

print("== stencil error shrinks as h**2 ==")
pf = PrincipalFunction(example1(), EnergyPartition(2.0, 2.0))
wf = WaveField(pf)
wide = TransformedPoint(0.4, 0.3, 0.1)
for step in (2e-2, 1e-2, 5e-3):
    r = abs(apply_hamiltonian(wf, wide, step) - pf.energies.total)
    print(f"h = {step:6.0e}: energy residual = {r:.3e}")
print()

print("== probability law ==")
for e1, e2 in ((0.5, 0.5), (2.0, 2.0), (2.0, 0.5)):
    pf = PrincipalFunction(example1(), EnergyPartition(e1, e2))
    wf = WaveField(pf)
    rho = probability_density(wf, point)
    p = momenta_from_S(pf, point)
    print(
        f"E=({e1}, {e2}): |psi|^2 = {rho:.6f}, "
        f"1/(p_alpha p_beta) = {1.0 / (p.p_alpha * p.p_beta):.6f}, "
        f"product = {rho * p.p_alpha * p.p_beta:.15f}"
    )
print()

print("== classical limit (alpha = beta = 1) ==")
for name, spec in (("example1", example1(1.0, 1.0)), ("example2", example2(1.0, 1.0))):
    records = classical_limit_check(spec, EnergyPartition(0.5, 0.5), DEFAULT_TOLERANCES)
    batch = RecordBatch.from_records(records)
    status = "all pass" if batch.passed.all() else "FAILED"
    print(f"{name}: {len(batch)} structural records, {status}")
    for quantity, residual in zip(batch.quantities, batch.residual.tolist()):
        print(f"  {quantity:<24} residual {residual:.2e}")
