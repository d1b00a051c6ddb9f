"""The benchmark tracer's spans must still find the bindings they wrap.

`perfbench/tracer.py` wraps module attributes by name, and a span whose
every binding is gone reports its per-layer metrics as null.  The tracer is
read from its file and executed in a fresh namespace, so no bytecode is
written next to it.
"""

import importlib
import types
from pathlib import Path

import starkdtc.floquet as floquet_module

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def resolves(module_name: str, attribute: str) -> bool:
    """Whether the tracer's install step would find module.attribute."""
    try:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def unbound_spans(targets) -> set:
    """Span names none of whose (module, attribute) bindings resolve."""
    names = {name for name, _, _ in targets}
    bound = {name for name, module_name, attribute in targets if resolves(module_name, attribute)}
    return names - bound


def test_every_traced_span_has_a_binding():
    assert unbound_spans(load_tracer().TARGETS) == set()


def test_a_span_without_bindings_is_caught(monkeypatch):
    targets = load_tracer().TARGETS
    monkeypatch.delattr(floquet_module, "build_h1")
    assert "hamiltonian.build_h1" in unbound_spans(targets)
