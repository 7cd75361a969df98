"""The CI workflow's no-extras step, run here as CI runs it.

The step checks what no other test does at the process level: that the
package runs without its test extra, the exit codes of refusals, that the
console path writes the demo bytes, that `-S` loads no `re`, and config
comments.  Its `run:` block is taken from the workflow by indentation (no
YAML parser) and run with `bash -e` in a git-initialised copy of the tree,
with the package on PYTHONPATH in place of `pip install .`.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
NO_EXTRAS = "without the test extra"


def run_block(text: str, step: str) -> str:
    """The dedented `run: |` block of the first step whose name contains `step`:
    the lines after `run: |` that are blank or indented deeper than `run:`."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.lstrip().startswith("- name:") and step in line)
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_the_no_extras_step_runs_on_a_copy_of_the_tree(tmp_path):
    block = run_block(WORKFLOW.read_text(encoding="utf-8"), NO_EXTRAS)
    assert "python -m astrolabe" in block and "${{" not in block
    workspace, runner_temp, bin_dir = tmp_path / "workspace", tmp_path / "runner", tmp_path / "bin"
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "demos"):
        shutil.copytree(ROOT / part, workspace / part, ignore=ignore)
    git = ["git", "-C", str(workspace)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)  # the step diffs demos/out against it
    runner_temp.mkdir()
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)  # the step's `python` is this one
    env = dict(os.environ, GITHUB_WORKSPACE=str(workspace), RUNNER_TEMP=str(runner_temp),
               PYTHONPATH=str(workspace / "src"), PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    proc = subprocess.run(["bash", "-e", "-c", block], cwd=runner_temp, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
