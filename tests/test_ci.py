"""The CI workflow runs the tier-1 command that ROADMAP.md names."""

import re
from pathlib import Path

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
