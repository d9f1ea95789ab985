"""The package's surface is its layers' `__all__` lists, stated once.

fracwkb re-exports the `__all__` of errors, fracops, hamilton_jacobi,
mechanics, reporting and wkb, in that order, plus `__version__`; a name
a layer makes public is importable from the package as that layer's
own object.
"""

import fracwkb
from fracwkb import errors, fracops, hamilton_jacobi, mechanics, reporting, wkb

_LAYERS = (errors, fracops, hamilton_jacobi, mechanics, reporting, wkb)


def test_all_is_the_layer_lists_in_order():
    expected = [name for layer in _LAYERS for name in layer.__all__] + ["__version__"]
    assert fracwkb.__all__ == expected
    assert len(set(expected)) == len(expected)
    names = {"rl_derivative_rows", "roundoff_floor", "render", "FD_STEP", "SAMPLE_POINT"}
    assert names <= set(expected)


def test_every_name_is_the_layers_own_object():
    for layer in _LAYERS:
        for name in layer.__all__:
            assert getattr(fracwkb, name) is getattr(layer, name), (layer.__name__, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fracwkb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fracwkb.__all__)


def test_build_wavefunction_and_separate_are_the_classes():
    # one way to build each object: the older names are the classes themselves
    assert wkb.build_wavefunction is wkb.WaveField
    assert hamilton_jacobi.separate is hamilton_jacobi.PrincipalFunction
    assert not hasattr(wkb.WaveField, "prefactor")
