"""Every pytest marker the project declares runs in CI.

Tier-1 (``addopts``) deselects each marked suite, and the workflow's
``marked-tests`` job must select it again; a marker missing from either
expression would silently drop its tests out of CI.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def declared_markers() -> list[str]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^markers = \[(.*?)^\]", pyproject,
                      re.MULTILINE | re.DOTALL).group(1)
    return re.findall(r'^\s*"(\w+):', block, re.MULTILINE)


def addopts_expression() -> str:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    addopts = re.search(r"^addopts = \"(.*)\"$", pyproject,
                        re.MULTILINE).group(1)
    return re.search(r"-m '([^']*)'", addopts).group(1)


def marked_tests_expression() -> str:
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    job = re.search(r"^  marked-tests:\n(.*?)(?=^  \S|\Z)", workflow,
                    re.MULTILINE | re.DOTALL).group(1)
    return re.search(r'-m "([^"]*)"', job).group(1)


def selects(expression: str, markers: set[str], declared: list[str]) -> bool:
    """Evaluate a ``-m`` expression for a test carrying ``markers``.

    ``and``/``or``/``not`` mean the same in Python; a name that is not
    a declared marker raises ``NameError``.
    """
    return eval(expression, {"__builtins__": {}},  # noqa: S307
                {name: name in markers for name in declared})


class TestMarkersRunInCi:
    def test_markers_are_declared(self):
        assert len(declared_markers()) >= 6

    def test_tier1_deselects_every_marker(self):
        declared = declared_markers()
        expression = addopts_expression()
        assert selects(expression, set(), declared)
        for marker in declared:
            assert not selects(expression, {marker}, declared), marker

    def test_marked_tests_job_selects_every_marker(self):
        declared = declared_markers()
        expression = marked_tests_expression()
        assert not selects(expression, set(), declared)
        for marker in declared:
            assert selects(expression, {marker}, declared), marker
