"""The CLI contract (cli_contract.py) as tests; CI runs it only from here."""

import os

import pytest

import cli_contract

WORKFLOW = os.path.join(cli_contract.ROOT, ".github", "workflows", "tests.yml")
# the tier-1 command of ROADMAP.md
TIER1 = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
         "python -m pytest -q --continue-on-collection-errors")


@pytest.mark.parametrize("check", cli_contract.CHECKS, ids=lambda c: c.__name__)
def test_cli_contract(check):
    check()


def test_ci_runs_the_contract_only_through_tier1():
    # plain text: CI installs no YAML parser
    with open(WORKFLOW, encoding="utf-8") as f:
        text = f.read()
    assert f"run: {TIER1}\n" in text
    for name in ("latticetwist.cli", "perfbench"):
        assert name not in text, f"tests.yml runs {name} beside tier-1"
