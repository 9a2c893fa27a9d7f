"""The benchmark's span recorder rebinds hcratio functions by name; each name
it lists must exist, or the benchmark breaks where tier-1 would not see it."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod, attr in spans.SPANNED + spans.COUNTED:
        obj = importlib.import_module(f"hcratio.{mod}")
        if "." in attr:  # "Class.method": rebound in the class's own dict
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(obj, cls_name, object))
        else:
            found = callable(getattr(obj, attr, None))
        if not found:
            missing.append(f"{mod}.{attr}")
    assert missing == []
