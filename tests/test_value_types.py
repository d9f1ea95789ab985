"""The contract of fracwkb's value types, whatever builds their classes.

Each of the eleven immutable value types is checked on one valid
instance: a field cannot be assigned, the repr is `Name(field=value,
...)`, and equal fields give equal instances with equal hashes.  The
drift guard keeps the import free of the `dataclasses` module, whose
classes generate and exec their methods at import.
"""

import subprocess
import sys

import pytest

from fracwkb import cli, wkb
from fracwkb.fracops import FractionalOrder, TimeGrid
from fracwkb.hamilton_jacobi import (
    EnergyPartition,
    PointColumns,
    PrincipalFunction,
    TransformedPoint,
)
from fracwkb.mechanics import KinematicState, LagrangianSpec, Momenta, example2

_SPEC_REPR = (
    "LagrangianSpec(c_alpha=1.0, c_beta=1.0, l_alpha=1.0, l_beta=1.0, v=1.0,"
    " alpha=FractionalOrder(value=1.5), beta=FractionalOrder(value=1.5))"
)
_PF_REPR = f"PrincipalFunction(spec={_SPEC_REPR}, energies=EnergyPartition(e1=2.0, e2=0.5))"
_CONFIG_REPR = (
    "RunConfig(model='example1', alpha=1.5, beta=1.5, e1=1.0, e2=1.0, q=0.0, hbar=1.0,"
    " fd_step=0.0001, grid=TimeGrid(a=0.0, b=1.0, count=1024), output_format='table',"
    " output_path=None, tolerances={'closed_form': 1e-09}, c_alpha=1.0, c_beta=1.0,"
    " l_alpha=0.0, l_beta=0.0, v=0.0)"
)


def _pf():
    return PrincipalFunction(spec=example2(), energies=EnergyPartition(e1=2.0, e2=0.5))


# (build one instance, a field to assign, its repr); each call builds
# a new instance from equal fields
_CASES = {
    "FractionalOrder": (lambda: FractionalOrder(1.5), "value", "FractionalOrder(value=1.5)"),
    "TimeGrid": (
        lambda: TimeGrid(a=0.0, b=1.0, count=4.0), "count", "TimeGrid(a=0.0, b=1.0, count=4)"
    ),
    "EnergyPartition": (
        lambda: EnergyPartition(2.0, 0.5), "e1", "EnergyPartition(e1=2.0, e2=0.5)"
    ),
    "TransformedPoint": (
        lambda: TransformedPoint(u1=0.02, u2=-0.015, t=0.005), "q",
        "TransformedPoint(u1=0.02, u2=-0.015, t=0.005, q=0.0)",
    ),
    "PrincipalFunction": (_pf, "energies", _PF_REPR),
    "LagrangianSpec": (example2, "v", _SPEC_REPR),
    "KinematicState": (
        lambda: KinematicState(q=1.0, d_alpha_q=2.0, d_beta_q=0.5), "q",
        "KinematicState(q=1.0, d_alpha_q=2.0, d_beta_q=0.5)",
    ),
    "Momenta": (lambda: Momenta(2.0, 0.5), "p_beta", "Momenta(p_alpha=2.0, p_beta=0.5)"),
    "WaveField": (
        lambda: wkb.WaveField(_pf(), hbar=2.0), "hbar", f"WaveField(pf={_PF_REPR}, hbar=2.0)"
    ),
    "PointColumns": (
        lambda: PointColumns(0.02, -0.015, 0.005, 1.0), "t",
        "PointColumns(u1=0.02, u2=-0.015, t=0.005, q=1.0)",
    ),
    "RunConfig": (
        lambda: cli.RunConfig(tolerances={"closed_form": 1e-9}), "alpha", _CONFIG_REPR
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_value_type_is_immutable_with_field_repr_and_equality(name):
    build, field, text = _CASES[name]
    instance = build()
    assert type(instance).__name__ == name
    with pytest.raises(AttributeError):
        setattr(instance, field, getattr(instance, field))
    assert repr(instance) == text
    twin = build()
    assert twin is not instance and twin == instance and not twin != instance
    if name == "RunConfig":
        # it holds its tolerance mapping, which does not hash
        with pytest.raises(TypeError):
            hash(instance)
    else:
        assert hash(twin) == hash(instance)


def test_defaults_are_unchanged():
    assert TransformedPoint(1.0, 2.0, 3.0).q == 0.0
    assert wkb.WaveField(_pf()).hbar == 1.0
    config = cli.RunConfig()
    expected = {
        "model": "example1", "alpha": 1.5, "beta": 1.5, "e1": 1.0, "e2": 1.0, "q": 0.0,
        "hbar": 1.0, "fd_step": wkb.FD_STEP, "grid": TimeGrid(0.0, 1.0, 1024),
        "output_format": "table", "output_path": None, "c_alpha": 1.0, "c_beta": 1.0,
        "l_alpha": 0.0, "l_beta": 0.0, "v": 0.0,
    }
    assert {name: getattr(config, name) for name in expected} == expected
    assert dict(config.tolerances) == {}


def test_import_builds_no_dataclass():
    # numpy, argparse and json do not import dataclasses, so only fracwkb
    # could bring it back
    code = "import sys, fracwkb.cli; print('dataclasses' in sys.modules)"
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.strip() == "False", (
        "importing fracwkb.cli imports dataclasses: each frozen dataclass execs"
        " 5-6 generated functions at import, about 1 ms a class"
    )
