"""Set-up time of one recipe call, measured in the fresh interpreter running this file.

    python3 bench/setup_probe.py ENTRY COMMAND CONFIG OUT

Times `import mfdl` plus everything `mfdl COMMAND --config CONFIG` does
before it first calls mfdl.cli.ENTRY (config resolution, make_rule,
default_q0), then stops the recipe there and prints the seconds.
"""

import sys
import time
from pathlib import Path


class _Reached(Exception):
    pass


def main() -> int:
    entry, command, config, out = sys.argv[1:5]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import mfdl.cli as cli

    def stop(*args, **kwargs):
        raise _Reached

    setattr(cli, entry, stop)
    try:
        cli.main([command, "--config", config, "--out", out, "--no-header-timestamp"])
    except _Reached:
        print(repr(time.perf_counter() - t0))
        return 0
    print(f"setup_probe: mfdl.cli.{entry} was never called", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
