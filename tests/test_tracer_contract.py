"""The benchmark's tracer binds ddkit functions by name: every name it
lists must exist, and uninstalling must put every original back."""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _ddkit_bindings():
    return {(name, attr): val
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ddkit" or name.startswith("ddkit."))
            for attr, val in vars(mod).items() if callable(val)}


def test_tracer_installs_every_traced_name_and_restores_it():
    spec = importlib.util.spec_from_file_location("ddkit_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import ddkit.cli  # noqa: F401  (the modules install() traces)

    before = _ddkit_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for modname, names in tracing.TRACED:
            mod = sys.modules["ddkit." + modname]
            for fname in names:
                assert getattr(mod, fname) is not before[("ddkit." + modname, fname)]
    finally:
        tracer.uninstall()
    after = _ddkit_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
