"""Structure guard: the full-``analyze()`` oracle stays out of production.

``repro.steady_state.reference`` holds the reference evaluators the
delta engine is checked against.  Production code evaluates through
:class:`~repro.steady_state.delta.DeltaAnalyzer` alone, so no other
module under ``src/repro`` may import the oracle or carry the names of
the retired engine forks or of the eager-scan strategy oracles.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
REFERENCE = SRC / "steady_state" / "reference.py"
ORACLE = "repro.steady_state.reference"
RETIRED_NAMES = ("use_delta", "_ReferenceState", "numpy_available")
#: The eager-scan strategy oracles the two-phase selection is checked
#: against.
EAGER_ORACLES = ("_local_search_eager", "_tabu_search_eager")


def production_modules():
    return sorted(p for p in SRC.rglob("*.py") if p != REFERENCE)


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def package_of(path: Path) -> str:
    name = module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def imported_modules(source: str, package: str):
    """Absolute names of every module ``source`` (a module of
    ``package``) imports, including the ``package.name`` form of
    ``from package import name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                module = ".".join(base)
            else:
                module = node.module or ""
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_reference_module_exists():
    assert REFERENCE.is_file()
    text = REFERENCE.read_text(encoding="utf-8")
    assert "class _ReferenceState" in text
    assert "def _local_search_full" in text
    for name in EAGER_ORACLES:
        assert f"def {name}(" in text


@pytest.mark.parametrize("path", production_modules(), ids=module_name)
def test_production_module_does_not_use_the_oracle(path):
    text = path.read_text(encoding="utf-8")
    for name in RETIRED_NAMES + EAGER_ORACLES:
        assert name not in text, f"{module_name(path)} mentions {name!r}"
    for module in imported_modules(text, package_of(path)):
        assert module != ORACLE, f"{module_name(path)} imports {ORACLE}"


@pytest.mark.parametrize(
    "package, line",
    [
        ("repro.steady_state", "from .reference import _ReferenceState"),
        ("repro.steady_state", "from . import reference"),
        ("repro.runtime", "from ..steady_state.reference import x"),
        ("repro.runtime", "from ..steady_state import reference"),
        ("repro.runtime", "import repro.steady_state.reference"),
        ("repro.runtime", "from repro.steady_state import reference"),
        (
            "repro.heuristics",
            "from ..steady_state.reference import _local_search_eager",
        ),
    ],
)
def test_import_scan_sees_every_spelling(package, line):
    """The guard itself: every spelling of the import is detected."""
    assert ORACLE in set(imported_modules(line, package))
    assert ORACLE not in set(imported_modules("from . import delta", package))
