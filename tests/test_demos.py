import filecmp
import os
import runpy
import shutil

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
