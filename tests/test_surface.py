"""The public surface: kleinian2.__all__ is the README's API list, and
covers every top-level name the benchmark, the demos and the README read;
the README's Quick start block runs as written."""

import re
from pathlib import Path

import kleinian2 as k2

ROOT = Path(__file__).resolve().parents[1]


def _readme_api_names():
    """Names of the `- `name...` lines of README's "## API" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([A-Za-z_]\w*)", section, flags=re.M)


def test_all_is_the_readme_api_list():
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(k2.__all__)
    assert all(hasattr(k2, name) for name in k2.__all__)


def test_callers_read_only_public_names():
    files = (sorted((ROOT / "bench").glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"])
    used = {}
    for path in files:
        for name in re.findall(r"\bk2\.([A-Za-z_]\w*)",
                               path.read_text(encoding="utf-8")):
            used.setdefault(name, path.name)
    assert used
    missing = {name: where for name, where in used.items()
               if name not in k2.__all__}
    assert not missing, missing


def test_readme_quick_start_runs():
    """The python block under "## Quick start" runs as written, its own
    assert included."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    scope = {}
    exec(compile(block, "README.md (Quick start)", "exec"), scope)
    assert isinstance(scope["D"], k2.Divisor)
    assert scope["report"].passed
