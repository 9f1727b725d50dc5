"""Set-up probe: a fresh interpreter imports the package and its CLI, then
runs the warm-up ops read as JSON from stdin (one of each job kind).

run.py times this whole process, start to exit, as one set-up sample.
Prints "ok" when every warm-up op ran; oracles are not run here.
"""

import json
import sys

import latticetwist  # noqa: F401  (the import is what is timed)
import latticetwist.cli  # noqa: F401

import workloads

for op in json.loads(sys.stdin.read()):
    workloads.prepare(op)()
print("ok")
