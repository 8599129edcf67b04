"""Source hygiene: public names and test helpers are used, imports are read,
no removed name comes back, README's example and CLI block run, its error
list matches the package, and the scripts run."""

import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import uvp
from uvp.cli import entry
from uvp.instances import gen_smooth, save_tabular

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "uvp"

# Names the package once had, each with what took its place. None may come
# back, not even as an alias.
REMOVED = {
    # error classes, one per kind of fault now
    "InvalidBudget": "InvalidParams",
    "InsufficientCandidates": "InvalidParams",
    "EmptyCenters": "InvalidParams",
    "EmptyHistory": "InvalidParams",
    "OutOfDomain": "InvalidParams",
    "TooLarge": "InvalidParams",
    "MissingTrace": "InvalidParams",
    "DegenerateEmbedding": "SchemaError",
    "BudgetExhausted": "a False return from Run.extend_all",
    # references only the tests used
    "lipschitz_check": "tests/helpers.py",
    "ClusteringReport": "tests/helpers.py",
    "brute_force_k_center": "tests/helpers.py",
    "brute_force_opt": "tests/helpers.py",
    "BRUTE_FORCE_CAP": "tests/helpers.py",
    "gen_isolated_optimum": "tests/helpers.py",
    "CallableOracle": "tests/helpers.py",
    # records and second ways
    "EpsilonReport": "the tuples epsilon_pairwise and epsilon_percentiles return",
    "HardInstanceSpec": "gen_hard's own parameters",
    "extend_to": "Run.extend_all",
    "baselines": "the module uvp.solvers",
    "incumbent_at": "the index read inside mean_rank",
    "_keeps": "the test solvers._prune_test builds once per solve",
}


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


def test_private_names_stay_in_their_module():
    # no module of the package imports an underscore name from another, or
    # reads one through a module it imports, save core's shared checks
    shared = {f"core.{name}" for name in ("_is_int", "_check_int", "_check_seed", "_check_real")}
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = []  # (line, owner module, name)
        modules = set()  # package modules bound by "from . import m"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("uvp.")):
                if node.module is None:
                    modules.update(alias.asname or alias.name for alias in node.names)
                else:
                    owner = node.module.rpartition(".")[2]
                    reads += [(node.lineno, owner, alias.name) for alias in node.names]
        reads += [
            (node.lineno, node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
        crossings += [
            f"{path.name}:{line}: {owner}.{name}" for line, owner, name in reads
            if name.startswith("_") and f"{owner}.{name}" not in shared
        ]
    assert not crossings, f"private names read across modules: {crossings}"


def test_no_removed_name_is_back():
    # every module of the package is imported, so a module of a removed
    # name becomes an attribute of uvp
    modules = [importlib.import_module(f"uvp.{m.name}") for m in pkgutil.iter_modules(uvp.__path__)]
    back = [
        f"{owner.__name__}.{name}"
        for owner in (uvp, *modules, uvp.Run) for name in REMOVED if hasattr(owner, name)
    ]
    assert not back, f"removed names are back: {back}"


def test_readme_library_example_runs():
    # executes the single python block of README.md, so the documented API
    # cannot drift from the code
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_error_list_names_every_error_class():
    # the bullets under README's "Errors." name exactly the UvpError
    # subclasses that uvp exports, so the list cannot drift from the code
    section = re.search(r"^Errors\..*?\n\n", (ROOT / "README.md").read_text(), re.S | re.M).group(0)
    listed = re.findall(r"^- `(\w+)`", section, re.M)
    exported = [
        name for name in uvp.__all__
        if isinstance(getattr(uvp, name), type) and issubclass(getattr(uvp, name), uvp.UvpError)
    ]
    assert sorted(listed) == sorted(set(exported) - {"UvpError"})


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # every uvp command of the sh block under "## CLI", continuations joined,
    # on a curves.csv where --k 20 leaves a positive cover radius
    block = re.search(r"## CLI\n+```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    commands = [c for c in block.replace("\\\n", " ").splitlines() if c.startswith("uvp ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    configs, oracle = gen_smooth(200, 3, 10, 0.3, 0)
    save_tabular("curves.csv", configs, oracle.curves)
    for command in commands:
        assert entry(shlex.split(command)[1:]) == 0, command


def test_scripts_run(tmp_path):
    # nothing else runs the experiment scripts; below 10 units mean_rank
    # leaves out the fractions before any spend, and the table is still written
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    compare = ["compare_on_landscapes.py", "--n", "300", "--seeds", "1"]
    for script, *args in (["hardness_ceiling.py", "--trials", "50"], [*compare, "--out", "lr"],
                          [*compare, "--budget", "9", "--out", "lr9"]):
        command = [sys.executable, str(ROOT / "scripts" / script), *args]
        out = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert out.returncode == 0, (script, args, out.stderr)
    assert (tmp_path / "lr9" / "mean_rank.csv").is_file()


def test_every_helper_has_a_use():
    # a public top-level name of tests/helpers.py needs a whole-word use in
    # another test file, or in helpers.py outside the line that defines it
    helpers = ROOT / "tests" / "helpers.py"
    body = ast.parse(helpers.read_text()).body
    names = [n.name for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    names += [t.id for n in body if isinstance(n, ast.Assign) for t in n.targets]
    lines = [ln for p in sorted(helpers.parent.glob("*.py")) for ln in p.read_text().splitlines()]
    unused = []
    for name in (name for name in names if not name.startswith("_")):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*((class|def)\s+{re.escape(name)}\b|{re.escape(name)}\s*=[^=])")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"no test uses these helpers: {unused}"
