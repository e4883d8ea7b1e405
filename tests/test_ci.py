"""The CI workflow runs the tier-1 command that ROADMAP.md names, and the
benchmark's self-test and every workload."""

import argparse
import json
import re
from pathlib import Path

import yaml

from mixcast import cli

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


def heredoc(run: str) -> str:
    """The Python script of a ``python - <<'EOF'`` step."""
    first, *script, last = run.strip().split("\n")
    assert (first, last) == ("python - <<'EOF'", "EOF")
    return "\n".join(script)


def test_numpy_only_job_installs_no_extras_and_trains_a_negative_binomial_epoch():
    """The no-extras install trains one negative-binomial epoch, then runs
    every subcommand: synth, train, evaluate --hierarchy (a total and a
    per-series level), forecast, and verify-theory with and without
    --corrupt, and evaluate on a CSV too short for a window and on the
    training CSV with its columns swapped, each of which must exit 1 with
    one ``error:`` line on stderr, and ``evaluate --hierarchy`` on a CSV
    with a constant column, whose one ``error:`` line must name it; then a
    ``tsmixer_ext`` train, evaluate and forecast under a schema, on a CSV
    that interleaves target, historical and static columns; then a
    ``tsmixer_ext`` train and evaluate on a CSV with a future column, where
    forecast must exit 1 with one ``error:`` line; both steps run here."""
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = workflow["jobs"]["numpy-only"]["steps"]
    python = [step["with"]["python-version"] for step in steps
              if step.get("uses", "").startswith("actions/setup-python")]
    assert python == ["3.11"]
    install, no_scipy, epoch, commands = [step["run"] for step in steps if "run" in step]
    assert install == "python -m pip install -e ."
    assert no_scipy == ('python -c "import importlib.util, sys; '
                        "sys.exit(importlib.util.find_spec('scipy') is not None)\"")
    script = heredoc(epoch)
    assert 'objective="nb_nll"' in script and "max_epochs=1" in script
    exec(compile(script, "numpy-only epoch", "exec"), {})  # the step itself runs here
    script = heredoc(commands)
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert all(f'["{name}", ' in script for name in subcommands)
    assert '"--hierarchy"' in script and "cli.main(argv) != 0" in script
    assert '"--corrupt"]) != 1' in script
    assert ('code != 1 or len(lines) != 1 or not lines[0].startswith("error: ")' in script
            and '"--steps", "10"' in script and "redirect_stderr(err)" in script)
    assert "for bad in (short, swapped):" in script and 'f"{b},{a}\\n"' in script
    assert '{"name": "series", "groups": {"y0": ["y0"], "y1": ["y1"]}' in script
    assert ('f"{a},1.5\\n"' in script and '"--csv", flat,' in script
            and "\"'y1'\" not in lines[0]" in script)
    assert ('"y0,h,s,y1' in script and "h = historical" in script and "s = static" in script
            and "family = tsmixer_ext" in script and "schema = {schema}" in script)
    assert script.count('"--schema", schema') == 2
    assert ('"y0,z,y1' in script and "z = future" in script and "schema = {fut_schema}" in script
            and script.count('"--schema", fut_schema') == 2)
    assert script.count('code != 1 or len(lines) != 1 or not lines[0].startswith("error: ")') == 3
    exec(compile(script, "numpy-only CLI", "exec"), {})


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
