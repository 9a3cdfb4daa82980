#!/usr/bin/env python3
"""Record the reference `vnorm` of every orbit of every pooled continuation
case into perfbench/reference.json.

Run it once on the commit that defines the reference, from the repository
root:

    python3 perfbench/make_reference.py

The benchmark then requires every later run to reproduce these values to
VNORM_ATOL + VNORM_RTOL * |reference| (see workloads.py).
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def record(cls) -> dict:
    bench = cls(0, HERE.parent / ".perfbench_work" / "reference")
    bench.write_inputs()
    cases = {}
    for k in range(cls.pool):
        outdir = bench.workdir / f"case{k}"
        outcome = bench.run_case(k, outdir)
        if outcome.problems:
            print("\n".join(outcome.problems), file=sys.stderr)
        docs = [json.loads(p.read_text()) for p in outdir.glob("orbit_r*.json")]
        cases[str(k)] = {f"{d['r']:.6g}": d["diagnostics"]["vnorm"] for d in docs}
        print(f"{cls.name} case {k}: {len(cases[str(k)])}/{cls.r_points} "
              f"orbits, {outcome.seconds:.2f} s", flush=True)
    shutil.rmtree(bench.workdir)
    return cases


def main() -> int:
    ref = {name: record(wl.WORKLOADS[name])
           for name in ("continue_pair", "continue_triangle_newton")}
    wl.REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
