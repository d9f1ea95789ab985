"""Every name that perfbench/tracer.py rebinds still exists.

The tracer wraps fracwkb's functions by name from outside the program,
and the tier-1 suite does not collect perfbench's own tests, so a rename
in a layer would otherwise only show under a traced benchmark run.  The
tracer is loaded by path and only read: install() is not called, and its
span wrappers are bound to verification.CHECKS by monkeypatch.
"""

import importlib.util
from pathlib import Path

from fracwkb import verification, wkb

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_exist():
    tracer = _load_tracer()
    for table in (tracer.SPANNED, tracer.COUNTED):
        for module, names in table.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # the span names its metrics read are spanned functions
    spanned = {f"{tracer._layer(m)}.{name}" for m, names in tracer.SPANNED.items() for name in names}
    assert set(tracer.DERIV + tracer.OPERATORS) <= spanned
    assert callable(getattr(wkb.WaveField, "value", None))
    assert verification.CHECKS
    for check, fn in verification.CHECKS:
        assert isinstance(check, str) and callable(fn)


def test_run_checks_goes_through_span_wrapped_checks(monkeypatch):
    # install() rebinds verification.CHECKS to Tracer.span wrappers, which
    # forward *args: run_checks must call each once and give the records
    # of an unwrapped run
    tracer = _load_tracer()
    plain = verification.run_checks()
    recorder = tracer.Tracer()
    wrapped = tuple(
        (check, recorder.span(fn, f"verification.{check}")) for check, fn in verification.CHECKS
    )
    monkeypatch.setattr(verification, "CHECKS", wrapped)
    assert verification.run_checks() == plain
    assert len(tracer.CHECK_NAMES) == 8
    assert recorder.names == [f"verification.{check}" for check in tracer.CHECK_NAMES]
