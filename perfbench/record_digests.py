"""Record the report digest of one round per workload and seed.

    python3 perfbench/record_digests.py --seeds 0-20,1729

Writes ``perfbench/digests.json``, which ``run.py`` reads: a later run with a
recorded seed whose report differs by a single byte is counted as wrong.
Record only on a commit whose reports are known to be right.  A workload
whose digest is the same for every recorded seed is stored under ``"*"``,
which then stands for every seed.
"""

from __future__ import annotations

import argparse
import json
import os

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args()

    os.chdir(run.ROOT)
    run.use_checkout_source()
    from workloads import WORKLOADS

    table = json.loads(run.DIGESTS.read_text())
    for name, workload in WORKLOADS.items():
        wl = workload()
        found = {}
        for seed in args.seeds:
            items, problems = wl.setup(seed, run.WORKDIR / name)
            tally = run.run_rounds(wl, items, 1)
            if problems or tally.wrong:
                raise SystemExit(f"{name} seed {seed}: not recording a wrong "
                                 f"report: {(problems + tally.wrong)[:3]}")
            found[str(seed)] = tally.digests[0]
            print(name, seed, found[str(seed)], flush=True)
        if len(args.seeds) > 1 and len(set(found.values())) == 1:
            found = {"*": found[str(args.seeds[0])]}
        table[name] = {**table.get(name, {}), **found}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
