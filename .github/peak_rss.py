"""Peak resident memory of shearwater CLI commands, for the CI memory steps.

Each memory step imports this module, runs a command chain in a fresh
directory with :func:`run_chain` and bounds one command's peak against
another's::

    for command, peak in run_chain(run, config, ["synth", "extract"]):
        print(f"{command}: peak {peak:.2f} MB")

A peak is the ``ru_maxrss`` that ``os.wait4`` reports for the command's
own process, so no other process of the step counts towards it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CLI = ("-m", "shearwater.cli")


def run_chain(run, config, commands, failed="failed", program=CLI):
    """Write ``config`` to ``run``/cfg.json, creating ``run``, then run each
    of ``commands`` (a command line without ``--config``) in ``run`` as
    ``python <program> <command> --config cfg.json``, one after another;
    yield each command and its peak RSS in MB as it exits. A command that
    exits non-zero ends the step with "<command> <failed>"."""
    Path(run).mkdir(exist_ok=True)
    Path(run, "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    for command in commands:
        proc = subprocess.Popen([sys.executable, *program, *command.split(),
                                 "--config", "cfg.json"], cwd=run)
        _, status, usage = os.wait4(proc.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            sys.exit(f"{command} {failed}")
        yield command, usage.ru_maxrss / 1024
