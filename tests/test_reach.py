"""The reach report (``tools/reach.py``) on a two-function fixture: the
function a recorded run calls is reported as reached, the other as not."""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import reach  # noqa: E402

FIXTURE = '''\
def called():
    return 1


def idle():
    return 2
'''


def test_called_function_reached_other_not(tmp_path):
    src = tmp_path / "src"
    (src / "pkg").mkdir(parents=True)
    (src / "pkg" / "mod.py").write_text(FIXTURE)
    dumps = tmp_path / "dumps"
    env = dict(os.environ, REACH_DIR=str(dumps), PYTHONPATH=f"{TOOLS}{os.pathsep}{src}")
    subprocess.run(
        [sys.executable, "-c", "import pkg.mod; pkg.mod.called()"],
        env=env, cwd=tmp_path, check=True,
    )
    assert len(list(dumps.glob("*.txt"))) == 1

    lines = reach.report(src, [dumps], [], {"src/pkg/mod.py idle": "kept on purpose"})
    assert lines[0].startswith("# 2 functions under src/, 1 reached")
    assert lines[1:] == ["src/pkg/mod.py:5 idle (1 lines) -- kept on purpose"]
