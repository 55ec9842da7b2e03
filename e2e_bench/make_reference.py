"""Regenerate ``reference/io_sweep.json``, the io-sweep output reference.

Run from the repository root::

    python3 e2e_bench/make_reference.py

Only regenerate it when a change to the package is meant to change the
io-sweep records; the benchmark fails any run whose records differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.runtime import SweepSpec  # noqa: E402
from workloads import IoSweep, fresh_engine, to_wire_ok  # noqa: E402


def main() -> None:
    records = fresh_engine().run(SweepSpec(**IoSweep.SPEC))
    IoSweep.REFERENCE.write_text(json.dumps(to_wire_ok(records), indent=1) + "\n")
    print(f"wrote {len(records)} records to {IoSweep.REFERENCE}")


if __name__ == "__main__":
    main()
