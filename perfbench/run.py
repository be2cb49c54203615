#!/usr/bin/env python3
"""cnsmax benchmark: closed-loop CLI workloads, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload hum --seed 1 --seconds 20 --trace 0

One process drives `cnsmax.cli.run` in-process as a single closed-loop
caller: each command starts after the previous one returns.  A pass runs
every case of the workload once; passes repeat until `--seconds` have
elapsed (at least two with tracing off), and timings are medians over
passes.  Every command's outputs are checked after its pass (see
checks.py).  With `--trace 0` the last stdout line carries the end-to-end
metrics; with `--trace 1` untraced and traced passes alternate and it
carries the per-layer metrics.  Details, spans and provenance go to
perfbench/_work/<workload>/.
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 11
MIN_PASSES = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "case1_s": "s",
                    "case2_s": "s", "case3_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class PassResult:
    wall: float
    times: dict      # case -> seconds
    codes: dict      # case -> exit code (None after an exception)
    warnings: dict   # case -> number of warnings captured
    failures: dict   # case -> why it failed


def run_pass(cases, configs, out_root, tracer=None, tag=""):
    """Run every case once, back to back; return timings and exit codes."""
    import cnsmax.cli as cli  # looked up per call so a tracer's patch applies

    for case in cases:
        shutil.rmtree(out_root / case.name, ignore_errors=True)
    times, codes, caught_n, errors = {}, {}, {}, {}
    t_pass = perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = tag + case.name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                codes[case.name] = cli.run(case.command, str(configs[case.name]),
                                           str(out_root / case.name))
            except Exception:  # a traceback is a failed case, not a crash
                codes[case.name] = None
                errors[case.name] = traceback.format_exc()
            times[case.name] = perf_counter() - t0
        caught_n[case.name] = len(caught)
    return PassResult(perf_counter() - t_pass, times, codes, caught_n, errors)


def check_pass(res, cases, out_root, seed, reference):
    from checks import check_case

    for case in cases:
        if case.name in res.failures:
            continue
        if res.codes[case.name] != 0:
            res.failures[case.name] = f"exit code {res.codes[case.name]}"
            continue
        problems = check_case(case, out_root / case.name, seed, reference)
        if problems:
            res.failures[case.name] = "; ".join(problems)


def measure_setup(modules):
    """Median import time of the workload's modules in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *modules],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(samples), samples


def provenance(seed):
    import mpmath
    import numpy
    import scipy

    import cnsmax

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "kernel_backend": cnsmax.kernel_backend,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def slot_times(res, cases):
    out = {}
    for case in cases:
        out[case.slot] = out.get(case.slot, 0.0) + res.times[case.name]
    return out


def median_metrics(dicts):
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def parse_args(argv):
    from cases import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cnsmax" / "cli.py").is_file():
        print(f"error: no cnsmax sources at {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from cases import SETUP_MODULES, SLOT_NAMES, workload_cases
    from checks import REFERENCE_SEEDS, load_reference, seed_scalars_compared

    cases = workload_cases(args.workload)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs = {}
    for case in cases:
        configs[case.name] = work / "configs" / f"{case.name}.json"
        configs[case.name].write_text(json.dumps(case.config(args.seed), indent=1))
    reference = load_reference()

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(SETUP_MODULES[args.workload])
    for name in SETUP_MODULES[args.workload]:
        importlib.import_module(name)
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed),
              "seed_scalars_compared": seed_scalars_compared(args.seed),
              "passes": []}

    def checked(res, traced):
        check_pass(res, cases, work / "out", args.seed, reference)
        record["passes"].append({
            "traced": traced, "wall_s": res.wall, "case_s": res.times,
            "exit_codes": res.codes, "warnings": res.warnings,
            "failures": res.failures,
        })
        return res

    untraced, traced, layer, coverage, tracers = [], [], [], [], []
    t_start = perf_counter()
    if not args.trace:
        while len(untraced) < MIN_PASSES or perf_counter() - t_start < args.seconds:
            untraced.append(checked(run_pass(cases, configs, work / "out"), False))
    else:
        from tracer import Tracer, layer_metrics, leftover_patches, unit_of

        while not traced or perf_counter() - t_start < args.seconds:
            untraced.append(checked(run_pass(cases, configs, work / "out"), False))
            tr = Tracer()
            with tr:
                res = run_pass(cases, configs, work / "out", tr, f"{len(traced)}:")
            left = leftover_patches()
            if left:
                raise RuntimeError(f"tracer left patched attributes: {left}")
            traced.append(checked(res, True))
            metrics, attributed = layer_metrics(tr.spans, tr.leaf)
            layer.append(metrics)
            coverage.append(attributed / res.wall)
            tracers.append(tr)

    passes = untraced + traced
    attempted = len(cases) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    for i, p in enumerate(passes):
        for name, why in p.failures.items():
            print(f"FAIL pass {i} {name}: {why.strip().splitlines()[-1]}")

    names = SLOT_NAMES[args.workload]
    slots = median_metrics([slot_times(p, cases) for p in untraced])
    wall = statistics.median(p.wall for p in untraced)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced passes of {len(cases)} cases")
    print(f"  provenance: {json.dumps(record['provenance'])}")
    if not record["seed_scalars_compared"]:
        print(f"  note: seed {args.seed} is outside the recorded reference seeds "
              f"{REFERENCE_SEEDS.start}..{REFERENCE_SEEDS.stop - 1}; its "
              "seed-dependent scalars were checked by the acceptance bounds "
              "only, not against reference values")
    for slot in ("case1_s", "case2_s", "case3_s"):
        print(f"  {names[slot]:24s} = {slots[slot]:.4f} s  ({slot})")
    print(f"  {'wall_s':24s} = {wall:.4f} s")
    print(f"  {'fail_ratio':24s} = {failed / attempted:.4f}  ({failed}/{attempted})")
    if args.trace:
        metrics = median_metrics(layer)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - wall)
        metrics["trace.coverage"] = statistics.median(coverage)
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        for i, tr in enumerate(tracers):
            tr.write_jsonl(work / f"spans-{i}.jsonl")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s, "wall_s": wall, **slots,
                   "peak_rss_mb": rss_mb}
        record["setup_samples_s"] = setup_samples
        print(f"  {'setup_s':24s} = {setup_s:.4f} s")
        print(f"  {'peak_rss_mb':24s} = {rss_mb:.1f} MiB")
        out = {k: {"value": metrics[k], "unit": u}
               for k, u in END_TO_END_UNITS.items()}
    record["metrics"] = out
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
