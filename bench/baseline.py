#!/usr/bin/env python3
"""Reproduce the ROADMAP baseline cases and print them next to its figures.

    python3 bench/baseline.py [--repeats 5] [--out bench/results/BENCH_<label>.json]

Cases: cold `python -m realdp table1 --format json`; `check_conditions` per
call over the Table 1 divisors and seeded box classes on all 19 models; and
`hyperbolicity_check` with 500 trials (seed 0, centre [1:0:0:0]) on the
sphere quadric and on the product of the nested spheres of radius 1 and 2.
Each figure is the median of `--repeats` measurements, in wall time like
the ROADMAP's (not scaled to the reference speed of run.py); the spread is
the distance between the quartiles over the median.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

import reference as ref
import run
import workloads

# ROADMAP baseline (re-anchor 1, Python 3.11.7), printed next to our figures.
ROADMAP = {"cold_table1_s": 1.38, "check_conditions_us": 247.0,
           "hyp500_quadric_s": 0.44, "hyp500_quartic_s": 1.17}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="also write the results as JSON to this file")
    args = parser.parse_args(argv)

    run.import_realdp()
    R = workloads.Realdp()
    samples = {name: [] for name in ROADMAP}

    wl = workloads.Classify(R, 0)
    wl.setup()
    rng = random.Random("baseline")
    classes = [(m, m.real_lattice.vector(d[0])) for m in wl.models.values()
               for d in ref.SURFACES[m.name][5]]
    for model in wl.models.values():
        for _ in range(100):
            coeffs = [rng.randint(-3, 3) for _ in range(model.real_lattice.rank)]
            classes.append((model, model.real_lattice.vector(coeffs)))
    quadric = R.topology.HypersurfaceSpec(2, workloads.nested_spheres_terms((1,)))
    quartic = R.topology.HypersurfaceSpec(4, workloads.nested_spheres_terms((1, 2)))
    center = (1, 0, 0, 0)
    argv_table1 = workloads.Classify.cli_case(None)

    for _ in range(args.repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "realdp", *argv_table1], cwd=run.ROOT, env=run.child_env(),
                              capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        problems = run.check_cli_output(wl, proc.returncode, proc.stdout)
        if problems:
            raise SystemExit(f"table1 output is wrong: {problems}")
        samples["cold_table1_s"].append(wall)
        start = time.perf_counter()
        for model, d in classes:
            R.search.check_conditions(model, d)
        samples["check_conditions_us"].append(1e6 * (time.perf_counter() - start) / len(classes))
        for name, spec in (("hyp500_quadric_s", quadric), ("hyp500_quartic_s", quartic)):
            start = time.perf_counter()
            verdict = R.topology.hyperbolicity_check(spec, center, 500, 0)
            samples[name].append(time.perf_counter() - start)
            if verdict.refuted:
                raise SystemExit(f"{name}: refuted, expected support")

    results = {
        name: {"median": statistics.median(values), "spread": spread(values),
               "repeats": len(values), "roadmap": ROADMAP[name]}
        for name, values in samples.items()
    }
    record = {"environment": run.environment(None), "check_conditions_calls_per_repeat": len(classes),
              "results": results}
    for name, r in results.items():
        print(f"{name:22s} {r['median']:10.4f}  (spread {r['spread']:.3f}, {r['repeats']} repeats)"
              f"  ROADMAP {r['roadmap']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
