"""Every refusal the package raises is typed: each `raise` in src/sketchparts
names a class defined in errors.py, or re-raises the exception being
handled. checks.py may also raise AssertionError, selfcheck's failure signal."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sketchparts"
MODULES = sorted(PACKAGE.glob("*.py"))
ERROR_CLASSES = {
    node.name
    for node in ast.parse((PACKAGE / "errors.py").read_text()).body
    if isinstance(node, ast.ClassDef)
}


def untyped_raises(source, allowed):
    """(line, raised expression) of each raise whose exception is neither a
    class named in `allowed` nor a call of one; a bare `raise` passes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed):
                found.append((node.lineno, ast.unparse(exc)))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_raise_is_a_package_error(path):
    allowed = ERROR_CLASSES | ({"AssertionError"} if path.name == "checks.py" else set())
    assert untyped_raises(path.read_text(), allowed) == []


def test_scan_flags_untyped_raises_and_passes_re_raises():
    source = (
        "try:\n"
        "    raise ConfigError('x')\n"
        "except ConfigError:\n"
        "    raise\n"
        "raise RuntimeError('y')\n"
        "raise ValueError\n"
        "raise errors.ConfigError('z')\n"
        "raise exc from None\n"
    )
    assert untyped_raises(source, {"ConfigError"}) == [
        (5, "RuntimeError"), (6, "ValueError"), (7, "errors.ConfigError"), (8, "exc"),
    ]
