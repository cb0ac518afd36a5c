"""One set-up, timed from outside: start a fresh interpreter, do the
program set-up of a workload (import, plus any model building), exit.

Usage: python setup_probe.py WORKLOAD
"""

import sys

from common import NullTracer, use_checkout_sources

if __name__ == "__main__":
    use_checkout_sources()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]](0, None).prepare(NullTracer())
