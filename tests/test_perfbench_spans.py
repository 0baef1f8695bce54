"""The traced benchmark run wraps fcodt functions by (owner, attribute);
a function deleted or renamed in fcodt must fail here, not only in that
run. The module is loaded from its file and nothing in it is changed."""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.package_targets()
    assert targets
    missing = [f"{name} ({getattr(owner, '__name__', owner)}.{attribute})"
               for name, owner, attribute, _ in targets if not hasattr(owner, attribute)]
    assert not missing, f"traced functions missing from fcodt: {missing}"
