"""The benchmark's tracer wraps package functions by name
(`perfbench/spans.py`). Installing and removing its wrappers here means a
rename or deletion of any name it wraps fails this suite, not only the
benchmark's own smoke test."""
import importlib.util
import inspect
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_bindings() -> dict:
    """Every attribute of every loaded package module, and of every class
    the package defines, by (owner, name)."""
    out = {}
    for key, module in list(sys.modules.items()):
        if not key.startswith("protostudent") or module is None:
            continue
        for name, value in vars(module).items():
            out[(key, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("protostudent"):
                for attr, member in vars(value).items():
                    out[(f"{value.__module__}.{value.__qualname__}", attr)] = member
    return out


def test_tracer_wraps_and_restores_every_package_function():
    spans = _load_spans()
    before = _package_bindings()
    with spans.Tracer().active():
        during = _package_bindings()
    after = _package_bindings()
    wrapped = {key for key, value in during.items() if value is not before.get(key)}
    assert ("protostudent.tensor", "conv2d") in wrapped
    assert ("protostudent.tensor.Tensor", "backward") in wrapped
    for name in ("lrp_conv_alphabeta", "encoder_lrp", "export_pair"):
        assert ("protostudent.lrp", name) in wrapped
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
