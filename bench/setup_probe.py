"""Set-up a CLI user pays on every run: import luderskit, build the inputs.

run.py starts this script in a fresh interpreter and times the whole
process from outside:

    python3 bench/setup_probe.py WORKLOAD SEED
"""

import os
import sys

import workloads


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import luderskit.cli  # noqa: F401  (numpy and scipy come with it)
    workloads.build(sys.argv[1], int(sys.argv[2]))


if __name__ == "__main__":
    main()
