"""Set-up of one workload in a fresh interpreter: import auslab and make the
workload's inputs, then print "ready".  run.py times this from process start
to the ready line.  The host's speed is sampled during the set-up, as during
a pass, and printed after "ready" as the seconds spent sampling and the
slowdown.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import calibrate

with calibrate.Sampler(calibrate.PROBE_INTERVAL_S) as sampler:
    import workloads

    workloads.import_cli()
    workloads.make_ops(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
print(sum(sampler.samples), sampler.slowdown(), flush=True)
