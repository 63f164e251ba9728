"""The benchmark's traced run wraps package functions by (module, name).

A refactor that drops or renames one of them would fail only in a traced
benchmark run; this test fails in the ordinary suite instead. The layer
list is read from `perfbench/layers.py` by path, without importing the
benchmark package or writing anything next to it.
"""

from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_wrapped_name_resolves():
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), namespace)
    targets = namespace["targets"]()
    assert targets
    missing = [f"{module.__name__}.{name}" for module, name, _ in targets
               if not callable(getattr(module, name, None))]
    assert missing == []
