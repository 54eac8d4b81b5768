"""Check one `bench/run.py` report read from standard input.

Usage: python3 bench/run.py --workload W --seconds 1 --trace T \
           | python3 .github/check_bench_output.py T

The last line must be a JSON object with `correct: true` and `failed: 0`
whose metric names equal BENCHMARK.json's `end_to_end` names (T=0) or
`per_layer` names (T=1), and no metric may have been dropped.
"""

import json
import sys
from pathlib import Path

trace = sys.argv[1]
lines = sys.stdin.read().splitlines()
sys.stdout.write("\n".join(lines) + "\n")
declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
expected = {m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]}
report = json.loads(lines[-1])
problems = []
if report.get("correct") is not True or report.get("failed") != 0:
    problems.append(f"correct={report.get('correct')} failed={report.get('failed')}")
if set(report.get("metrics", {})) != expected:
    problems.append(f"metric names differ: missing {sorted(expected - set(report['metrics']))}, "
                    f"extra {sorted(set(report['metrics']) - expected)}")
problems += [line for line in lines if line.startswith("dropped (targets gone)")]
if problems:
    sys.exit("bench output contract broken: " + "; ".join(problems))
