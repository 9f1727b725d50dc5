"""The CLI steps of the CI workflow, as tests (see cli_contract.py)."""

import pytest

import cli_contract


@pytest.mark.parametrize("check", cli_contract.CHECKS, ids=lambda c: c.__name__)
def test_cli_contract(check):
    check()
