import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_parses_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python the package runs on; a
    # newer interpreter running the suite would accept syntax that floor
    # rejects (``except*``, generic ``class C[T]``), so every module is
    # parsed with the floor's grammar
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    modules = sorted((ROOT / "src" / "rangepta").glob("*.py"))
    assert len(modules) >= 8, modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
