"""Every span the benchmark traces still names a public function.

``bench/spans.py`` wraps the functions it lists wherever a ``tensorard``
module binds them.  A refactor that deletes or renames one of them must fail
here rather than crash a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves_to_a_bound_function():
    spans = _load_spans()
    # The spans look for bindings in the tensorard modules already imported.
    for module, _, _ in spans.SPANS:
        importlib.import_module(f"tensorard.{module}")
    bindings = spans._bindings(spans.SPAN_NAMES)
    assert [name for name, _, _ in bindings] == list(spans.SPAN_NAMES)
    for name, original, holders in bindings:
        assert callable(original), name
        assert holders, f"{name} is bound in no tensorard module"
