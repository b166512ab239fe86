"""What an installed slavpipe finds through its package data alone.

The package is copied with its ``.py`` files and only the data files that
``[tool.setuptools.package-data]`` in ``pyproject.toml`` matches, as
``pip install`` would place it. Each check runs the ``[project.scripts]``
target in a child interpreter whose ``PYTHONPATH`` holds only the copy and
whose working directory lies outside the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[1]
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
SCRIPT = PROJECT["project"]["scripts"]["slavpipe"]


@pytest.fixture(scope="module")
def installed(tmp_path_factory):
    """(site, work): the directory holding the copied package, and an empty
    working directory beside it."""
    source = ROOT / "src" / "slavpipe"
    site = tmp_path_factory.mktemp("site")
    globs = PROJECT["tool"]["setuptools"]["package-data"]["slavpipe"]
    files = set(source.rglob("*.py"))
    files.update(p for pattern in globs for p in source.glob(pattern))
    for path in files:
        target = site / "slavpipe" / path.relative_to(source)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    work = tmp_path_factory.mktemp("work")
    return site, work


def _python(installed, code: str, *args: str, stdin: str = ""):
    site, work = installed
    env = dict(os.environ, PYTHONPATH=str(site))
    return subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, capture_output=True,
        encoding="utf-8", cwd=work, env=env, timeout=120,
    )


def _slavpipe(installed, *args: str, stdin: str = ""):
    """The console script: what ``pip install`` writes for ``SCRIPT``."""
    module, _, attr = SCRIPT.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    done = _python(installed, code, *args, stdin=stdin)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_script_target_is_a_callable_of_the_copy(installed):
    module, _, attr = SCRIPT.partition(":")
    code = (f"import importlib, slavpipe; "
            f"print(callable(getattr(importlib.import_module({module!r}), {attr!r})), "
            "slavpipe.__file__)")
    done = _python(installed, code)
    assert done.returncode == 0, done.stderr
    is_callable, location = done.stdout.split(" ", 1)
    assert is_callable == "True"
    assert Path(location.strip()).parent == installed[0] / "slavpipe"


def test_tokenize_reads_the_bundled_rules(installed):
    out = _slavpipe(installed, "tokenize", "--lang", "sl", stdin="Danes dežuje. Jutri ne bo.\n")
    assert "dežuje" in [line.split("\t")[1] for line in out.splitlines() if "\t" in line]


def test_tokenize_marks_closed_class_punctuation(installed):
    out = _slavpipe(installed, "tokenize", "--lang", "sl", stdin="(Danes) dežuje.\n")
    assert "1\t(\t(\tPUNCT\tZ\t_\t_\t_\t_\tSpaceAfter=No|ClosedClass=Yes" in out.splitlines()


def test_prep_reads_the_bundled_diacritics(installed):
    _, work = installed
    (work / "c.conllu").write_text(
        "# sent_id = c.1\n# text = šum\n1\tšum\t_\t_\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8"
    )
    (work / "mix.recipe").write_text("component id=c reps=2 dedia=1\n", encoding="utf-8")
    _slavpipe(installed, "prep", "mix.recipe", "--lang", "sl", "--corpus", "c=c.conllu",
              "--out", "combined.conllu")
    lines = (work / "combined.conllu").read_text(encoding="utf-8").splitlines()
    assert "sum" in [line.split("\t")[1] for line in lines if "\t" in line]
    assert "# sent_id = c.1-r2" in lines
    assert "# text = sum" in lines
