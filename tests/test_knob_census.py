"""Every CLI flag has a runner: some test passes it, or a CI step or a
document shows it on a ``repro`` command line (``tests/knob_census.py``)."""

from tests.knob_census import cli_flags, runs


def test_every_cli_flag_is_run_somewhere():
    ran = runs()
    unrun = [(command, flag) for command, flag in cli_flags()
             if command != "*obs*" and (command, flag) not in ran]
    assert unrun == []
