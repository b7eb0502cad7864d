"""The repository's own tooling and docs: the pytest configuration reports
a failing property test, the README config table (with the size bound)
and its list of each key's owning type match the config spec, and every
per-layer benchmark metric names code that exists."""

import importlib
import json
import pathlib
import re
import subprocess
import sys

from poirec.cli import _CONFIG_SPEC, config_echo, parse_config_text
from poirec.features import MAX_SIZE

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_property_test_shows_its_example(tmp_path):
    """Under the repo's warning filters a failing @given test is a plain
    failure (exit 1) with its falsifying example, not an internal error."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


def readme_config_table(column: int = 1) -> dict[str, str]:
    """Key -> cell of the README config table in `column`, 1 the default
    and 2 the allowed values; a row naming several keys gives each of them
    the row's cell."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Key | Default | Allowed |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = line.split("|")[1:]
        for key in re.findall(r"`([^`]+)`", cells[0]):
            table[key] = cells[column].strip().strip("`")
    return table


def test_readme_config_table_matches_the_spec():
    table = readme_config_table()
    assert table.keys() == _CONFIG_SPEC.keys() - {"date_min", "date_max"}
    echo = dict(line.split(" = ", 1) for line in config_echo(parse_config_text("")).splitlines())
    assert table == {key: echo[key] for key in table}


def test_readme_gives_the_size_bound():
    allowed = readme_config_table(column=2)
    for key in ("embed_dim", "text_hash_buckets", "mnb_buckets"):
        assert str(MAX_SIZE) in allowed[key], key


def readme_config_owners() -> dict[str, tuple[str, str]]:
    """Key -> (type, field) from the README sentence that lists the keys
    each type owns: `Type` (`key`, `key` as its field `field`, ...)."""
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = text[text.index("from the keys it owns:"):text.index("A library caller")]
    owners = {}
    for owner, items in re.findall(r"`(?:\w+\.)?(\w+)` \(([^)]*)\)", sentence):
        for item in items.split(", "):
            key, *field = re.findall(r"`(\w+)`", item)
            owners[key] = (owner, *(field or [key]))
    return owners


def test_readme_config_owners_match_the_spec():
    assert readme_config_owners() == {
        key: (owner.__name__, field)
        for key, (_, owner, field) in _CONFIG_SPEC.items() if owner is not None
    }


def test_every_traced_benchmark_name_resolves():
    """The benchmark traces poirec functions by name, so a renamed or deleted
    one would read 0 for good: each `<layer>[.<name>].self_s` and
    `<layer>.<name>.calls` metric must name a poirec module, or a function
    or class method in it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = [m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
              if m["name"].endswith((".self_s", ".calls"))]
    assert traced
    for name in traced:
        layer, *path = name.split(".")
        target = importlib.import_module(f"poirec.{layer}")
        for part in path:
            target = getattr(target, part, None)
            assert callable(target), name
