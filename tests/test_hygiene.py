"""Source hygiene: public names are used, imports are read, README's example runs."""

import ast
import re
from pathlib import Path

import uvp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uvp"


def test_every_public_name_has_a_use_outside_the_tests():
    # a name in uvp.__all__ that only tests call belongs in tests/helpers.py:
    # each needs a whole-word use in src/uvp, scripts/ or perfbench/, not
    # counting src/uvp/__init__.py or its own def/class line
    files = [p for d in (PACKAGE, ROOT / "scripts", ROOT / "perfbench") for p in sorted(d.rglob("*.py"))]
    lines = [line for p in files if p != PACKAGE / "__init__.py" for line in p.read_text().splitlines()]
    unused = []
    for name in uvp.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(async\s+)?(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"only tests use these public names: {unused}"


def test_every_import_in_the_package_is_used():
    # no linter is installed: a name a module imports must be read as a
    # plain name somewhere in it, unless its import line says "# noqa: F401"
    # (a binding kept for perfbench/tracing.py). __init__.py re-exports.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused, f"unused imports: {unused}"


def test_readme_library_example_runs():
    # executes the single python block of README.md, so the documented API
    # cannot drift from the code
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
