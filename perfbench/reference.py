"""Fixed work that no change to heightzeta can move: the benchmark's
measure of the host's speed (run.py, host_scale).

Like a CLI job it starts an interpreter, imports what the CLI imports from
the standard library, builds big integers in dicts and writes JSON.  It
takes about 0.15 s of CPU on a 2 GHz Xeon.  It prints nothing.
"""
import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import fractions  # noqa: F401
import json
import re  # noqa: F401

acc, x = {}, 3 ** 60
for i in range(150_000):
    k = i % 1009
    acc[k] = acc.get(k, 0) + x * (i | 1)
json.dumps({str(k): str(v) for k, v in acc.items()})
