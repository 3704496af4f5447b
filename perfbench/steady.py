"""Steadiness mode: repeated runs, their quartiles, and a comparison of two sets.

``collect`` runs each workload once per seed (seeds first_seed,
first_seed + 1, ...), each run in a fresh process exactly as a single
benchmark run, and stores the results as a *set* file.  ``compare`` checks
two sets against the bounds of BENCHMARK.json: the quartile spread of every
end-to-end metric but ``setup_s`` must stay within its bound in both sets,
and no median of the second set may be worse than the first by more than
the bound.  Run-to-run digests are compared where both sets ran the same
workload and seed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"


def _spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def collect(set_file: str, workloads: list[str], runs: int, first_seed: int, trace: int) -> int:
    spec = _spec()
    out = {"trace": trace, "seconds": spec["run_seconds"], "workloads": {}}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
            if res.returncode != 0:
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
                status = 1
                continue
            last = json.loads(res.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(f"{workload} seed {seed}: correct=false, {last['failed']} failed")
                status = 1
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = Path.cwd() / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
            digests[str(seed)] = json.loads(record.read_text())["digests"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()), flush=True)
        out["workloads"][workload] = {"values": values, "digests": digests}
        for name, vs in values.items():
            if len(vs) >= 2:
                s = summary(vs)
                print(f"  {workload:18s} {name:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                      f"  q3 {s['q3']:.5g}  spread {100 * s['spread']:.2f}%")
    Path(set_file).write_text(json.dumps(out) + "\n")
    return status


def compare(base_file: str, new_file: str) -> int:
    bounds = {m["name"]: m for m in _spec()["end_to_end"]}
    base, new = (json.loads(Path(f).read_text()) for f in (base_file, new_file))
    ok = True
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            print(f"{workload}: missing from {new_file}")
            ok = False
            continue
        for name, metric in bounds.items():
            if name not in b["values"] or name not in n["values"]:
                continue
            sb, sn = summary(b["values"][name]), summary(n["values"][name])
            bound = metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (sn["median"] - sb["median"]) / sb["median"]
            verdicts = []
            if name != "setup_s" and max(sb["spread"], sn["spread"]) > bound:
                verdicts.append("spread over bound")
            if worse > bound:
                verdicts.append("median worse than bound")
            ok &= not verdicts
            print(f"{workload:18s} {name:12s} base {sb['median']:.5g} (spread "
                  f"{100 * sb['spread']:.1f}%)  new {sn['median']:.5g} (spread "
                  f"{100 * sn['spread']:.1f}%)  worse by {100 * worse:+.1f}% / bound "
                  f"{100 * bound:.0f}%  {'; '.join(verdicts) or 'ok'}")
        for seed, digests in b.get("digests", {}).items():
            other = n.get("digests", {}).get(seed)
            if other is None:
                continue
            differ = [rid for rid, d in digests.items() if rid in other and other[rid] != d]
            if differ:
                print(f"{workload} seed {seed}: {len(differ)} request digests differ, "
                      f"first request {differ[0]}")
                ok = False
    print("compare:", "ok" if ok else "FAIL")
    return 0 if ok else 1
