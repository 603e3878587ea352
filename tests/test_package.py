import os
import re
import subprocess
import sys
from pathlib import Path

import hyperbin

README = Path(__file__).resolve().parents[1] / "README.md"


def test_sampling_modules_load_no_scipy():
    # a fresh interpreter: this test process has loaded scipy through
    # hyperbin.verify already
    code = (
        "import sys\n"
        "import hyperbin.cli, hyperbin.metrics, hyperbin.quantizer, hyperbin.sampler, hyperbin.scores\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(hyperbin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["result"].x.shape == (10_000, 1)
