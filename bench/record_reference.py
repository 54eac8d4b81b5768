"""Record reference.json: every workload's cells at the default seeds.

Run from the repository root on the commit whose outputs are the
reference:

    python3 bench/record_reference.py

Exact-mode workloads store their own cells. The Monte Carlo workload
stores exact-mode evaluations of its instances, because its seeded sample
stream may change while the exact expectation may not.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

DEFAULT_SEEDS = range(20)


def main() -> int:
    run.import_program()
    import workloads

    work = run.workdir()
    recorded: dict[str, dict[str, dict]] = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in DEFAULT_SEEDS:
                inputs = workload.setup(seed, work)
                if workload.exact_reference:
                    cells, failed = workload.cells(inputs, workload.call(inputs))
                    if failed:
                        sys.exit(f"{name} seed {seed}: {failed} cells failed")
                    cells = {cell.key: cell for cell in cells}
                else:
                    cells = workloads.exact_cells(inputs)
                recorded.setdefault(name, {})[str(seed)] = {
                    key: workloads.reference_fields(cell) for key, cell in cells.items()
                }
                print(f"{name} seed {seed}: {len(cells)} cells", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # One line per workload and seed keeps the file small and diffs readable.
    lines = []
    for name, seeds in sorted(recorded.items()):
        rows = [f"  {json.dumps(seed)}: {json.dumps(cells, sort_keys=True)}"
                for seed, cells in sorted(seeds.items(), key=lambda kv: int(kv[0]))]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    run.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
