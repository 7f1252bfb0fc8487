"""Fresh-process set-up probe: import dsmcf, load a config, build its state.

Usage: python3 setup_probe.py <src dir> <config.json>

Prints the wall-clock time (time.time()) at which the state was built;
the caller subtracts the time at which it started this process, so the
interpreter start-up is included.
"""

import sys
import time


def main() -> int:
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from dsmcf import cli

    config = cli.load_config(config_path)
    config.initial_state()
    print(repr(time.time()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
