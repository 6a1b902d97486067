"""One benchmark set-up in a fresh interpreter, timed by ``run.py``.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Imports ``flatforms.cli`` from the checkout and builds the workload,
which derives the expected outcomes and writes its instance files.
"""

import sys
from pathlib import Path

from run import import_cli, make_workload

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1:]
    import_cli()
    make_workload(name, int(seed), Path(workdir))
