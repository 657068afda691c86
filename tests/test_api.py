"""The public surface: every exported name resolves, and modules use only each other's public names."""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import npivband

PACKAGE = Path(npivband.__file__).parent


def test_all_names_resolve():
    missing = [name for name in npivband.__all__ if not hasattr(npivband, name)]
    assert not missing


def test_star_import():
    namespace: dict = {}
    exec("from npivband import *", namespace)
    assert set(npivband.__all__) - {"__version__"} <= set(namespace)


def _private_cross_module_uses(path: Path, modules: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module == "npivband"):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.asname and a.name.startswith("npivband.")}
    return [
        f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ]


def test_no_private_cross_module_access():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = [use for path in sorted(PACKAGE.glob("*.py")) for use in _private_cross_module_uses(path, modules)]
    assert not found, found


def test_imports_only_scipy_special():
    """A process that imports the package and its CLI loads no scipy subpackage but special."""
    probe = (
        "import sys, npivband, npivband.cli; "
        "print(' '.join(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    loaded = {name for name in out.stdout.split() if not name.startswith("_") and name != "version"}
    assert loaded == {"special"}


def test_readme_lists_the_sieve_fit_fields():
    """README's field list of ``SieveFit`` names its constructor fields, in order."""
    text = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"a\s+`SieveFit`\s+\(([^)]*)\)", text)
    assert listed is not None
    assert re.findall(r"`(\w+)`", listed.group(1)) == [
        f.name for f in dataclasses.fields(npivband.SieveFit) if f.init
    ]
