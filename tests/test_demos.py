import filecmp
import os
import re
import runpy
import shutil

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_two_moons_demo_output_is_current(tmp_path):
    # the demo's output is tracked in the repository; a fresh run from a
    # copy of the script must write the same bytes
    script = tmp_path / "two_moons_spc.py"
    shutil.copy(os.path.join(DEMOS, "two_moons_spc.py"), script)
    runpy.run_path(str(script), run_name="__main__")
    for name in ("labels.txt", "clusters.svg"):
        fresh = tmp_path / "out" / "two_moons_spc" / name
        tracked = os.path.join(DEMOS, "out", "two_moons_spc", name)
        assert filecmp.cmp(fresh, tracked, shallow=False), name


def _accuracies(text):
    # the decimal numbers on the lines that state an accuracy
    lines = [line for line in text.splitlines() if "acc" in line.lower()]
    return [float(x) for x in re.findall(r"\d+\.\d+", "\n".join(lines))]


@pytest.mark.parametrize("demo", sorted(name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_accuracies_match_the_readme(demo, tmp_path, capsys):
    # each demo's row in the README's demo table states the accuracies it prints
    with open(os.path.join(os.path.dirname(DEMOS), "README.md")) as fh:
        (row,) = [line for line in fh if line.startswith(f"| `{demo}` |")]
    script = tmp_path / demo
    shutil.copy(os.path.join(DEMOS, demo), script)
    runpy.run_path(str(script), run_name="__main__")
    stated = _accuracies(row.rsplit("|", 2)[1])
    assert stated and _accuracies(capsys.readouterr().out) == stated
