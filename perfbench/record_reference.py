#!/usr/bin/env python3
"""Records the reference outputs the correctness gates compare against.

    python3 perfbench/record_reference.py --seeds 0-99,9001

For each seed it stores the SHA-256 of the `measure-cold` CSV and the
twelve `evaluate-warm` Table 5 cells in `perfbench/reference.json`,
keeping seeds already recorded. Run it from the root of a checkout of
the commit whose outputs are the reference; outputs are simulated, so
they do not depend on the host.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from repeat import parse_seeds  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args()
    bhive, _ = run.build()
    work = run.fresh_dir(Path(".perfbench_work") / "reference")
    reference = run.load_reference()
    measure = reference.setdefault("measure-cold", {})
    evaluate = reference.setdefault("evaluate-warm", {})
    threads = str(run.threads())
    try:
        for seed in parse_seeds(args.seeds):
            out = work / "measure.csv"
            result = run.run_child(
                [bhive, "measure", "--scale", str(run.MEASURE_SCALE), "--seed", str(seed),
                 "--threads", threads, "--no-cache"], out, work / "measure.err")
            if result.code != 0:
                raise SystemExit(f"bhive measure failed for seed {seed}")
            measure[str(seed)] = run.sha256(out)
            out = work / "table5.json"
            result = run.run_child(
                [bhive, "table5", "--scale", str(run.EVALUATE_SCALE), "--seed", str(seed),
                 "--threads", threads, "--no-cache", "--json"], out, work / "table5.err")
            if result.code != 0:
                raise SystemExit(f"bhive table5 failed for seed {seed}")
            evaluate[str(seed)] = run.table5_cells(out)
            print(f"seed {seed}: recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # One line per seed, so a re-recorded seed shows as a one-line diff.
    tables = []
    for name, table in sorted(reference.items()):
        rows = [f"  {json.dumps(seed)}: {json.dumps(value)}"
                for seed, value in sorted(table.items(), key=lambda item: int(item[0]))]
        tables.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    run.REFERENCE_FILE.write_text("{\n" + ",\n".join(tables) + "\n}\n")


if __name__ == "__main__":
    main()
