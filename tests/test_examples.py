"""The README's library example and the scripts run as documented, the benchmark tracer finds what it wraps, and the
benchmark's own output check passes."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# A trailing `# 0.1` comment states the value the statement evaluates to.
STATED = re.compile(r"#\s*(-?\d+(?:\.\d+)?)\s*$")


def readme_python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example(capsys):
    source = readme_python_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        stated = STATED.search(lines[stmt.end_lineno - 1])
        if stated and isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert value == pytest.approx(float(stated.group(1)), abs=1e-4), ast.unparse(stmt)
            checked.append(stated.group(1))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["0.2667", "0.1", "0.05"]
    assert "## Sweep MEM" in capsys.readouterr().out


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


def test_noise_response_study_script(tmp_path):
    out = tmp_path / "n.csv"
    proc = run_script("noise_response_study.py", "--ks", "2", "--eps", "0.1", "--step", "0.1",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "k,eps,metric,mean_ab_score,mepe_ab,sweep_mem"
    assert len(rows) == 1 + 5


# perfbench/tracer.py wraps bindings such as bench.estimate and cli.load_predictions by name; a renamed or
# deleted one breaks only `perfbench/run.py --trace 1`, unless this check catches it.
def test_perfbench_tracer_installs():
    code = "import fairdisc.cli\nfrom tracer import Tracer, install\ninstall(Tracer())\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# perfbench/run.py requires set2-expect's output to match its golden byte for byte; running the benchmark's own check
# here catches a change that moves one printed digit, and follows that check wherever its rule changes.
def test_perfbench_set2_expect_output_is_correct():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "set2-expect", "--seed", "0",
                           "--seconds", "0", "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout
