#!/usr/bin/env python3
"""Record the reference scalars that checks.py compares against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Seed-independent scalars come from the first seed and must agree, within
their tolerance, on every other seed; seed-dependent ones are stored per
seed, for every seed of checks.REFERENCE_SEEDS.
"""

import json
import sys

import run as bench  # pins the BLAS threads on import, before numpy loads
from cases import WORKLOADS, workload_cases
from checks import REFERENCE, REFERENCE_SEEDS, RTOL, SEED_DEPENDENT, observe

sys.path.insert(0, str(bench.SRC))


def record(seeds) -> tuple[dict, dict]:
    """Seed-independent values and per-seed values over `seeds`."""
    work = bench.WORK / "reference"
    (work / "configs").mkdir(parents=True, exist_ok=True)
    values, by_seed = {}, {}
    for seed in seeds:
        by_seed[str(seed)] = {}
        for workload in WORKLOADS:
            cases = workload_cases(workload)
            configs = {}
            for case in cases:
                configs[case.name] = work / "configs" / f"{case.name}.json"
                configs[case.name].write_text(json.dumps(case.config(seed)))
            res = bench.run_pass(cases, configs, work / "out")
            for case in cases:
                if res.codes[case.name] != 0:
                    raise SystemExit(f"{case.name} failed on seed {seed}: "
                                     f"{res.failures.get(case.name, res.codes[case.name])}")
                for key, value in observe(case, work / "out" / case.name).items():
                    if key in SEED_DEPENDENT:
                        by_seed[str(seed)][key] = value
                    elif key not in values:
                        values[key] = value
                    elif abs(value - values[key]) > RTOL[key] * abs(values[key]):
                        raise SystemExit(f"{key} changes with the seed: "
                                         f"{value!r} vs {values[key]!r}")
        print(f"seed {seed} recorded", flush=True)
    return values, by_seed


def main() -> int:
    values, by_seed = record(REFERENCE_SEEDS)
    REFERENCE.write_text(json.dumps(
        {"values": values, "by_seed": by_seed}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
