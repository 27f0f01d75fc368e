"""One workload set-up in a fresh interpreter: the span that ``setup_s`` times.

Imports pufferot and builds the workload's first inputs through the
library's constructors and loaders, then prints a JSON digest of what it
built so the benchmark can check it. Usage:

    python3 bench/setup_probe.py figure4-sweep SEED
    python3 bench/setup_probe.py counting-certify SEED
    python3 bench/setup_probe.py census-release SEED TABLE MAPPING
"""

from __future__ import annotations

import json
import sys

import inputs


def main(argv: list[str]) -> dict:
    workload, seed = argv[0], int(argv[1])
    import pufferot as po

    rng = inputs.op_rng(workload, seed, 0)
    if workload == "figure4-sweep":
        pairs = [po.adult_education_pair()]
        for support, p, q in inputs.figure4_random_pairs(rng):
            pairs.append(po.DiscriminativePair(
                ("p", "q"), po.DiscreteDistribution(support, p), po.DiscreteDistribution(support, q)))
        return {"atoms": [len(pair.p) for pair in pairs]}
    if workload == "counting-certify":
        system = po.bernoulli_counting(inputs.counting_probabilities(rng))
        return {"users": system.user_count}
    if workload == "census-release":
        table, mapping = argv[2], argv[3]
        labels = po.AttributeMapping.from_json_file(mapping)
        counts = po.load_table(table, inputs.CENSUS_SECRET_COL, inputs.CENSUS_DATA_COL, labels)
        po.enumerate_pairs(po.empirical_conditionals(counts))
        return {"counts": {s: [int(c) for c in row] for s, row in counts.items()}}
    raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
