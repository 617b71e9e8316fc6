"""The public surface: the package root's re-exports and the functions that
the traced benchmark run wraps."""

import importlib.util
import re
from pathlib import Path

import lambda_control

ROOT = Path(__file__).resolve().parents[1]


def _wrapped():
    """perfbench/spans.py's WRAPPED tuple, read without editing perfbench."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def test_every_wrapped_name_is_callable():
    # A traced run wraps each of these; a deleted or renamed one fails here.
    wrapped = _wrapped()
    assert wrapped
    for module, name in wrapped:
        assert callable(getattr(module, name, None)), \
            f"{module.__name__}.{name}"


def test_root_exports_resolve():
    for name in lambda_control.__all__:
        assert getattr(lambda_control, name, None) is not None, name


def test_root_exports_are_the_readme_example_imports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [names] = re.findall(r"^from lambda_control import \(([^)]*)\)", readme,
                         flags=re.MULTILINE)
    assert sorted(lambda_control.__all__) == sorted(
        name.strip() for name in names.split(",") if name.strip())
