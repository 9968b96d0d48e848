"""Every function the benchmark tracer wraps still exists in the package.

``orthobench/tracer.py`` skips a name it cannot find without a word, so a
rename under ``src/`` would silently drop that layer's timings.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "orthobench" / "tracer.py"

# gone from the package; the benchmark still lists them
STALE = ["kernels.csr_backward_batch", "netcore.backward_conversion_batch"]


def test_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("orthobench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _, _ in tracer.WRAPPED:
        obj = importlib.import_module(f"orthomask.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert sorted(missing) == STALE
