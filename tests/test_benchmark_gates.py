"""One cycle of the construct-verify benchmark workload, with its gates.

`perfbench/workloads.py` (on the path through conftest) builds the prefixes
of every fix family, checks each prefix for H-freeness, each ledger pair at
budget 0 and one pair per family at budget 2, samples oracle windows and
replays the construction witnesses, counting every check that fails.  Running
one cycle here catches a change that fails one of those gates, or that drops
a library helper the workload calls, before a benchmark run does.
"""

from itertools import islice

import indsat
import workloads


def test_one_construct_verify_cycle_passes_every_gate():
    w = workloads.WORKLOADS["construct-verify"]
    meter = workloads.Meter()
    # The cycles never end, and run_cycles with seconds=0 stops only when they do.
    workloads.run_cycles(islice(w.cycles(indsat, w.setup(indsat), 1), 1), meter)
    assert meter.problems == []
    assert (meter.attempted, meter.failed) == (2178, 0)
