"""Dead-code check: ``src/repro`` holds only what a run or an export needs.

Three rules over the package, each built on the standard library's
``ast`` alone (the project runs no linter):

(a) **Unused import.**  A module imports a name it never uses.  Uses
    are ``ast.Name`` nodes, including names inside string annotations.
    A name listed in the module's own ``__all__`` is exempt.  Package
    ``__init__`` files are left to rule (c).
(b) **Def without a caller.**  A function, class or method whose name,
    as a word, appears nowhere outside its own definitions.  The word
    scan covers ``src/``, ``perfbench/``, ``benchmarks/``, ``examples/``
    and the CI workflows, skipping import statements and ``__all__``
    lists, so a re-export cannot keep a def alive.  String literals
    count (perfbench names its layer entry points in strings); tests
    do not count as callers.
(c) **Unread re-export.**  A package ``__init__`` imports a name only
    to re-export it, and nothing imports the name through the package.
    Here tests count as importers, and so do CI heredocs.

``ALLOWED`` names the exceptions, one reason each.  An entry the check
no longer reports fails it, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Set, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]

#: ``module:qualname`` → why the def stays although only tests call it.
ALLOWED: Dict[str, str] = {
    "repro.faults.retry:CircuitBreaker.state_of":
        "test seam: the only read of one edge's breaker state",
    "repro.sim.events:EventLog.counts_by_kind":
        "test seam: tallies the event log by kind for the orchestration tests",
    "repro.web.html:HtmlDocument.size_bytes":
        "test seam: page-size bounds in the content tests",
    "repro.web.sitemap:Sitemap.size_bytes":
        "test seam: sitemap-size bounds in the content tests",
}

#: Trees whose words count as callers for rule (b).
CALLER_TREES = ("src", "perfbench", "benchmarks", "examples")
#: Trees whose imports count as importers for rule (c).
IMPORTER_TREES = CALLER_TREES + ("tests",)
WORKFLOWS = ".github/workflows"

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_YML_IMPORT = re.compile(r"^\s*(?:from\s+[\w.]+\s+)?import\s")
_YML_FROM_IMPORT = re.compile(r"^\s*from\s+([\w.]+)\s+import\s+([\w\s,]+)$")


# -- shared parsing -----------------------------------------------------------


class _Module(NamedTuple):
    """What the rules read of one Python file, from one walk of its AST."""

    text: str
    #: Every ``ast.Name`` id, names inside string annotations included.
    names: FrozenSet[str]
    #: The string entries of ``__all__``.
    exported: FrozenSet[str]
    #: ``(bound name, from-module, level, imported name)`` per import
    #: alias; ``from-module`` is None for a plain ``import``.
    imports: Tuple[Tuple[str, Optional[str], int, str], ...]
    #: Lines of import statements and ``__all__`` lists.
    skipped: FrozenSet[int]
    #: ``(qualname, name, first line, last line)`` per function, class
    #: and method; the span includes decorators.
    defs: Tuple[Tuple[str, str, int, int], ...]


def _is_all(node: ast.AST) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


@lru_cache(maxsize=None)
def _module(path: Path) -> _Module:
    text = path.read_text(encoding="utf-8")
    names: Set[str] = set()
    exported: Set[str] = set()
    imports: List[Tuple[str, Optional[str], int, str]] = []
    skipped: Set[int] = set()
    defs: List[Tuple[str, str, int, int]] = []
    annotations: List[ast.expr] = []
    stack: List[Tuple[ast.AST, str]] = [(ast.parse(text, filename=str(path)), "")]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
            for alias in node.names:
                if isinstance(node, ast.Import):
                    bound = alias.asname or alias.name.split(".")[0]
                    imports.append((bound, None, 0, alias.name))
                elif node.module != "__future__" and alias.name != "*":
                    imports.append((alias.asname or alias.name, node.module, node.level, alias.name))
            continue
        if _is_all(node):
            skipped.update(range(node.lineno, node.end_lineno + 1))
            exported.update(
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            defs.append((prefix + node.name, node.name, first, node.end_lineno))
            if not isinstance(node, ast.ClassDef):
                annotations.append(node.returns)
            prefix = f"{prefix}{node.name}."
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        stack.extend((child, prefix) for child in ast.iter_child_nodes(node))
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return _Module(
        text, frozenset(names), frozenset(exported), tuple(imports),
        frozenset(skipped), tuple(defs),
    )


def _package_files(root: Path) -> Iterator[Tuple[str, Path]]:
    """``(dotted module name, path)`` for every module of ``src/repro``."""
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts), path


def _python_files(root: Path, trees: Tuple[str, ...]) -> Iterator[Path]:
    for tree in trees:
        yield from sorted((root / tree).rglob("*.py"))


def _workflow_lines(root: Path) -> Iterator[Tuple[Path, List[str]]]:
    for path in sorted((root / WORKFLOWS).glob("*.yml")):
        yield path, path.read_text(encoding="utf-8").splitlines()


# -- rule (a): unused imports -------------------------------------------------


def unused_imports(root: Path) -> Set[str]:
    """``module:name`` for each name a non-package module imports unused."""
    found: Set[str] = set()
    for module, path in _package_files(root):
        if path.name == "__init__.py":
            continue
        facts = _module(path)
        found.update(
            f"{module}:{bound}" for bound, _, _, _ in facts.imports
            if bound not in facts.names and bound not in facts.exported
        )
    return found


# -- rule (b): defs without a caller ------------------------------------------


def _word_lines(root: Path, names: Set[str]) -> Dict[str, List[Tuple[Path, int]]]:
    """Where each of ``names`` appears as a word in the caller trees."""
    where: Dict[str, List[Tuple[Path, int]]] = {name: [] for name in names}

    def scan(path: Path, lines: List[str], skipped: Set[int]) -> None:
        for number, line in enumerate(lines, start=1):
            if number in skipped:
                continue
            for word in _WORD.findall(line):
                if word in where:
                    where[word].append((path, number))

    for path in _python_files(root, CALLER_TREES):
        facts = _module(path)
        scan(path, facts.text.splitlines(), facts.skipped)
    for path, lines in _workflow_lines(root):
        scan(path, lines, {n for n, line in enumerate(lines, 1) if _YML_IMPORT.match(line)})
    return where


def uncalled_defs(root: Path) -> Set[str]:
    """``module:qualname`` for each def named nowhere outside its own defs."""
    defs: List[Tuple[str, str, str]] = []
    own: Dict[str, Set[Tuple[Path, int]]] = {}
    for module, path in _package_files(root):
        for qualname, name, first, last in _module(path).defs:
            if name.startswith("__") and name.endswith("__"):
                continue
            defs.append((module, qualname, name))
            own.setdefault(name, set()).update((path, n) for n in range(first, last + 1))
    where = _word_lines(root, set(own))
    return {
        f"{module}:{qualname}"
        for module, qualname, name in defs
        if all(place in own[name] for place in where[name])
    }


# -- rule (c): unread re-exports ----------------------------------------------


def _imported_through(root: Path) -> Set[str]:
    """``module:name`` for every ``from module import name`` in the repo."""
    packages = {path: module for module, path in _package_files(root)}
    seen: Set[str] = set()
    for path in _python_files(root, IMPORTER_TREES):
        # A relative import resolves against the importing package.
        package = packages.get(path, "")
        if path.name != "__init__.py":
            package = package.rpartition(".")[0]
        for _, source, level, name in _module(path).imports:
            if level:
                base = package.split(".")[: len(package.split(".")) - level + 1]
                source = ".".join(base + ([source] if source else []))
            seen.add(f"{source}:{name}")
    for _, lines in _workflow_lines(root):
        for line in lines:
            match = _YML_FROM_IMPORT.match(line)
            if match:
                seen.update(
                    f"{match.group(1)}:{name.strip()}"
                    for name in match.group(2).split(",") if name.strip()
                )
    return seen


def unread_reexports(root: Path) -> Set[str]:
    """``package:name`` for each re-export nothing imports through its package."""
    through = _imported_through(root)
    found: Set[str] = set()
    for module, path in _package_files(root):
        if path.name != "__init__.py":
            continue
        facts = _module(path)
        found.update(
            f"{module}:{bound}" for bound, _, _, _ in facts.imports
            if bound not in facts.names and f"{module}:{bound}" not in through
        )
    return found


# -- the check ----------------------------------------------------------------


def dead_code(root: Path, allowed: Dict[str, str]) -> List[str]:
    """Every problem the three rules and the allow-list find under ``root``."""
    reported = {
        "unused import": unused_imports(root),
        "def without a caller": uncalled_defs(root),
        "unread re-export": unread_reexports(root),
    }
    problems = [
        f"{rule}: {name}"
        for rule, names in reported.items()
        for name in sorted(names) if name not in allowed
    ]
    every = set().union(*reported.values())
    problems += [f"stale allow-list entry: {name}" for name in sorted(allowed) if name not in every]
    return problems


def test_src_repro_has_no_dead_code():
    assert len(ALLOWED) <= 8
    assert all(reason.strip() for reason in ALLOWED.values())
    problems = dead_code(REPO, ALLOWED)
    assert not problems, "\n".join(problems)


# -- the rules on planted trees -----------------------------------------------


def _plant(root: Path, files: Dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


@pytest.fixture()
def planted(tmp_path: Path) -> Path:
    """A tiny repo with exactly one finding per rule."""
    return _plant(tmp_path, {
        "src/repro/__init__.py": '"""Root."""\n',
        "src/repro/pkg/__init__.py": (
            '"""Package."""\n'
            "from repro.pkg.mod import Kept, dead, read\n"
            "__all__ = ['Kept', 'dead', 'read']\n"
        ),
        "src/repro/pkg/mod.py": (
            "import json\n"
            "import os\n"
            "from typing import List, Optional\n"
            "__all__ = ['List']\n"
            "\n"
            "def dead(x: 'Optional[int]') -> None:\n"
            "    return dead(x)\n"
            "\n"
            "def read():\n"
            "    return json.dumps({})\n"
            "\n"
            "def only_in_a_string():\n"
            "    return None\n"
            "\n"
            "class Kept:\n"
            "    def method(self):\n"
            "        return read()\n"
        ),
        "perfbench/layers.py": (
            "TARGETS = [Target('repro.pkg.mod', None, 'only_in_a_string', 'x'),\n"
            "           Target('repro.pkg.mod', 'Kept', 'method', 'y')]\n"
        ),
        "examples/use.py": "from repro.pkg.mod import Kept\nKept()\n",
        "tests/test_use.py": "from repro.pkg import Kept, read\nread()\n",
        ".github/workflows/ci.yml": "run: python -c 'print(1)'\n",
    })


def test_unused_import_rule_reports_exactly_its_plant(planted):
    # ``List`` is unused but listed in ``__all__``; ``Optional`` is
    # used only inside a string annotation.
    assert unused_imports(planted) == {"repro.pkg.mod:os"}


def test_uncalled_def_rule_reports_exactly_its_plant(planted):
    # ``dead`` calls itself and is re-exported by its package; neither
    # keeps it alive.  ``only_in_a_string`` is named only in a
    # perfbench-style ``Target("...")`` string, which does.
    assert uncalled_defs(planted) == {"repro.pkg.mod:dead"}


def test_unread_reexport_rule_reports_exactly_its_plant(planted):
    # Tests count as importers here: ``Kept`` and ``read`` are imported
    # through the package, ``dead`` is not.
    assert unread_reexports(planted) == {"repro.pkg:dead"}


def test_stale_allow_list_entry_fails(planted):
    allowed = {
        "repro.pkg.mod:os": "planted",
        "repro.pkg.mod:dead": "planted",
        "repro.pkg:dead": "planted",
    }
    assert dead_code(planted, allowed) == []
    stale = dict(allowed, **{"repro.pkg.mod:read": "no longer reported"})
    assert dead_code(planted, stale) == ["stale allow-list entry: repro.pkg.mod:read"]
