"""README's "Library layout" table names only attributes its modules have,
every name the package exports has a user, and CI runs ROADMAP's tier-1
command."""

import importlib
import re
import types

import pytest

from helpers import REPO


def layout_rows():
    """(module, [backticked names]) per row of the "Library layout" table."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        rows.append((cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])))
    return rows


ROWS = layout_rows()


def test_layout_table_found():
    modules = [module for module, _ in ROWS]
    assert "ablate" in modules and "cli" in modules
    assert all(names for _, names in ROWS)


@pytest.mark.parametrize(
    "module, names", [pytest.param(*row, id=row[0]) for row in ROWS if row[0] != "cli"]
)
def test_layout_names_are_module_attributes(module, names):
    mod = importlib.import_module(f"mmsaliency.{module}")
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"README lists {missing} under {module}, which lacks them"


def test_every_exported_name_has_a_user():
    """Each public name `mmsaliency` exports appears outside its own def or
    class line in the package's other modules, demos/, perfbench/ or README."""
    import mmsaliency

    files = [*(REPO / "src" / "mmsaliency").glob("*.py"), *(REPO / "demos").glob("*.py"),
             *(REPO / "perfbench").glob("*.py"), *(REPO / "perfbench").glob("*.md"),
             REPO / "README.md"]
    lines = [line for path in files if path.name != "__init__.py"
             for line in path.read_text(encoding="utf-8").splitlines()]
    names = [name for name, value in vars(mmsaliency).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(names) > 50

    def used(name):
        word, own = re.compile(rf"\b{name}\b"), re.compile(rf"\s*(def|class) {name}\b")
        return any(word.search(line) and not own.match(line) for line in lines if name in line)

    assert [name for name in names if not used(name)] == []


def test_ci_runs_the_tier1_command():
    yaml = pytest.importorskip("yaml", exc_type=ImportError)
    roadmap = (REPO / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    with open(REPO / ".github" / "workflows" / "tests.yml", encoding="utf-8") as fp:
        workflow = yaml.safe_load(fp)
    [job] = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert tier1 in [step.get("run") for step in job["steps"]]


def test_ci_installs_the_dependencies_pyproject_lists():
    yaml = pytest.importorskip("yaml", exc_type=ImportError)
    with open(REPO / ".github" / "workflows" / "tests.yml", encoding="utf-8") as fp:
        workflow = yaml.safe_load(fp)
    [job] = workflow["jobs"].values()
    installs = [step["run"] for step in job["steps"] if "pip install" in step.get("run", "")]
    assert installs == ["python -m pip install -e '.[test]'"]
