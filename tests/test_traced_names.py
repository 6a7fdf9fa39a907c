"""Every function the traced benchmark run wraps still exists.

``perfbench/layers.json`` names functions as ``<module>.<attribute>`` or
``<module>.<Class>.<method>``. The traced run looks each one up the way this
test does, a module attribute or ``vars(cls)[method]``, so a rename or a
deletion that would break that run fails here first.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"
SPANS = [entry["span"] for entry in json.loads(LAYERS.read_text())["layers"]]


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves(span):
    module_name, _, attr = span.partition(".")
    owner = importlib.import_module(f"kummerkit.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, attr))
