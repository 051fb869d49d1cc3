"""No module imports a name it never uses, no private name goes unused, and
the README names no API or CLI flag that is gone.

Deleting a feature tends to leave its imports and its private helpers and
constants behind; this keeps the library modules (the package ``__init__``
re-exports by design) and the test modules free of them.
"""

import ast
import re
from pathlib import Path

import pytest

import annulus_cert
from annulus_cert.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "annulus_cert").glob("*.py"))
MODULES = sorted(
    p for p in [*(ROOT / "src" / "annulus_cert").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as "BlockSpec"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = "from dataclasses import dataclass\nimport numpy as np\nx = np.zeros(1)\n"
    assert unused_imports(src) == ["line 1: dataclass"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` names that nothing in ``sources`` reads."""
    defined = []
    referenced = set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets if t.startswith("_") and not t.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [f"{name}: {t}" for name, t in defined if t not in referenced]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unreferenced_privates(sources) == []


def test_detects_unreferenced_private_name():
    sources = {
        "a.py": "_TOL = 1e-15\n_USED = 2\ndef _helper():\n    return _USED\n",
        "b.py": "from a import _helper\nx = _helper()\n",
    }
    assert unreferenced_privates(sources) == ["a.py: _TOL"]


def key_api_names(readme: str) -> list[str]:
    """Backticked names of the README "Key API:" paragraph; ``f1/2`` names f1 and f2."""
    paragraph = readme.split("Key API:", 1)[1].split("\n\n", 1)[0]
    names = []
    for name in re.findall(r"`([^`]+)`", paragraph):
        stem, slash, alt = name.partition("/")
        names += [stem, stem[: -len(alt)] + alt] if slash else [name]
    return names


def test_readme_key_api_names_resolve():
    names = key_api_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "certify_ar" in names
    assert [name for name in names if not hasattr(annulus_cert, name)] == []


def test_key_api_names_expand_slash():
    readme = "intro\n\nKey API: `a_b1/2` (m); `c`\nand `d`.\n\n`e` is not listed.\n"
    assert key_api_names(readme) == ["a_b1", "a_b2", "c", "d"]


def readme_cli_flags(readme: str) -> dict[str, set[str]]:
    """``--flags`` per subcommand in the README CLI block, one ``annulus-cert CMD`` line
    each with indented continuation lines."""
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    flags: dict[str, set[str]] = {}
    cmd = None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["annulus-cert"]:
            cmd = words[1]
            flags[cmd] = set()
        if cmd is not None:
            flags[cmd] |= set(re.findall(r"--[a-z][a-z0-9-]*", line))
    return flags


def parser_flags() -> dict[str, set[str]]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {cmd: {opt for action in p._actions for opt in action.option_strings
                  if opt.startswith("--") and opt != "--help"}
            for cmd, p in sub.choices.items()}


def test_readme_cli_synopsis_matches_parser():
    assert readme_cli_flags((ROOT / "README.md").read_text(encoding="utf-8")) == parser_flags()


def test_readme_cli_flags_parse_continuations():
    readme = "## CLI\n\n```\nannulus-cert a --x 1 [--y-z 2]\n               [--w]\nannulus-cert b\n```\n"
    assert readme_cli_flags(readme) == {"a": {"--x", "--y-z", "--w"}, "b": set()}
