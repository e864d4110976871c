"""Every function the benchmark wraps by name still exists where it is wrapped.

``perfbench/tracing.py`` replaces module attributes by name and skips a
name it cannot resolve, so a renamed or moved function would make its
per-layer span read zero without any error.  This test makes that loud.
"""

import importlib
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
_tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracing)
WRAPPED = _tracing.WRAPPED

# heights no longer calls scalar_mul, so this span is known to read zero;
# it returns with the in-package recorder of [TRACE].  cli no longer builds
# the Euler curve apart from its points: that work runs inside the
# families.specialize_euler span, and the euler_integral_model span fed
# only the families.self_s total.
KNOWN_DEAD = {
    ("biquad.heights", "scalar_mul"),
    ("biquad.cli", "euler_integral_model"),
}


def test_every_wrapped_name_resolves():
    missing = {
        (mod, attr)
        for mod, attr, _ in WRAPPED
        if not hasattr(importlib.import_module(mod), attr)
    }
    assert missing == KNOWN_DEAD
