"""The CI workflow runs the tier-1 command that ROADMAP.md names, the test
modules that import no test extra on numpy and pytest alone, and the
benchmark's self-test and every workload."""

import ast
import json
import re
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent


def test_tier1_workflow_runs_the_roadmap_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    steps = workflow["jobs"]["tier1"]["steps"]
    runs = [step["run"] for step in steps if "run" in step]
    assert runs == ['python -m pip install -e ".[test]"', command]
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["3.11"]


# The test modules that run on numpy and pytest alone.
SCIPY_FREE = ["tests/test_cli.py", "tests/test_data.py", "tests/test_layers.py",
              "tests/test_metrics.py", "tests/test_models.py"]


def test_numpy_only_job_runs_the_scipy_free_modules_without_the_test_extras():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["numpy-only"]["steps"]
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["3.11"]
    assert [step["run"] for step in steps if "run" in step] == [
        "python -m pip install -e . pytest",
        'python -c "import importlib.util, sys; sys.exit(any(importlib.util.find_spec(m) '
        "for m in ('scipy', 'hypothesis', 'yaml')))\"",
        "python -m pytest -q " + " ".join(SCIPY_FREE)]


@pytest.mark.parametrize("module", SCIPY_FREE)
def test_a_scipy_free_module_imports_no_test_extra(module):
    imported = set()
    for node in ast.walk(ast.parse((ROOT / module).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not {name.partition(".")[0] for name in imported} & {"scipy", "hypothesis", "yaml"}


def test_bench_smoke_job_runs_every_benchmark_workload_with_its_checks():
    # bench/run.py exits nonzero when an output check fails, so each step
    # fails the job on a wrong result as well as on a crash.  The self-test
    # runs the harness's own tests first.  Every workload runs again with
    # --trace 0, the mode the end-to-end metrics are measured in.
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["bench-smoke"]["steps"]
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["3.11"]
    install, selftest, *runs = [step["run"] for step in steps if "run" in step]
    assert install == 'python -m pip install -e ".[test]"'
    assert selftest == "python3 -m pytest -q bench/selftest.py"
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert runs == [f"python3 bench/run.py --workload {w} --seed 1 --seconds 2 --trace {trace}"
                    for trace in (1, 0) for w in workloads]
