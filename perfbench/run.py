"""The oopp benchmark: small calls, bulk pages and a distributed FFT on
a 2-machine mp cluster, measured end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload small_calls --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` the per-layer metrics of a traced run (see ``harness.py``).
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is a report with the run's provenance and each workload's op under its
own name.  The program is imported from ``src/`` of the checkout, and
every file the run writes lives in ``.perfbench_work/`` there, removed
at exit.  The benchmark's own tests::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small_calls", "bulk_pages", "fft3d")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # Page device files and any temporary file stay inside the checkout.
    os.environ["OOPP_STORAGE_DIR"] = str(work / "store")
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        import harness

        report, result = harness.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except Exception:  # noqa: BLE001 - reported, no result printed
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
