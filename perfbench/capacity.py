#!/usr/bin/env python3
"""Measures the miss capacity that sets serve-mixed's request rate.

    python3 perfbench/capacity.py [--rounds 5] [--blocks 800]

The daemon answers each connection's lines in order, and serve-mixed
sends every miss on its cold client's one connection, so at most one
miss is in flight: the configuration's miss capacity is one over the
service time of a miss. This starts `bhive serve` as serve-mixed does,
sends first-seen corpus blocks one at a time on one connection (closed
loop), and prints misses answered per second for each round and their
median as one JSON line. Run it from the root of a checkout.
"""

import argparse
import json
import os
import socket
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--blocks", type=int, default=800)
    args = parser.parse_args()
    bhive, _ = run.build()
    work = run.fresh_dir(Path(".perfbench_work") / f"capacity-{os.getpid()}")
    try:
        hexes = list(dict.fromkeys(run.corpus_hexes(bhive, args.rounds * args.blocks // 8, 1, work)))
        if len(hexes) < args.rounds * args.blocks:
            raise run.BenchError("corpus too small for the rounds")
        sock = Path(os.path.relpath(work / "s.sock"))
        proc, started = run.start_server(bhive, sock, run.fresh_dir(work / "cache"), run.threads(),
                                         work / "serve.err")
        rates = []
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.connect(str(sock))
                lines = conn.makefile("rwb")
                for r in range(args.rounds):
                    blocks = hexes[r * args.blocks:(r + 1) * args.blocks]
                    began = time.perf_counter()
                    for block in blocks:
                        request = {"op": "predict", "client": "cold", "hex": block,
                                   "deadline_ms": run.DEADLINE_MS}
                        lines.write(json.dumps(request).encode() + b"\n")
                        lines.flush()
                        answer = json.loads(lines.readline())
                        if not run.is_ok(answer) or answer.get("source") == "cache":
                            raise run.BenchError(f"a first-seen block was not profiled: {answer}")
                    rates.append(len(blocks) / (time.perf_counter() - began))
        finally:
            run.stop_server(proc, started, work / "serve.err")
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"miss_capacity_per_s": median(rates), "rounds": rates,
                      "blocks_per_round": args.blocks}))


if __name__ == "__main__":
    main()
