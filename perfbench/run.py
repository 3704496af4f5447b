"""lmoscale benchmark: closed-loop workloads with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the checkout.  Requests are sent
one at a time from this process, each after the previous one returned:
CLI requests through ``lmoscale.cli.main(argv)`` with stdout and stderr
captured, library requests as calls of ``lmoscale.<name>``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
repeats the same requests with every public function of the program
wrapped in a span and reports the per-layer metrics.  The last line of
stdout is the JSON result; the full record (provenance, per-request
digests, failures) goes to ``.perfbench_out/``.

Other modes (see perfbench/README.md): ``--selftest``, ``--write-golden``,
``--steady`` and ``--compare``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN_DIR = HERE / "golden"
GOLDEN_SEED = 0
# Fresh-interpreter imports per set-up measurement, taken before and after
# the timed phase: import time follows the host's speed, which drifts over
# seconds, so samples from both ends of the run give a steadier median.
IMPORT_RUNS = (4, 5)

EXIT_SETUP = 2  # the program cannot be imported, or the arguments are wrong


def _fail_setup(message: str) -> NoReturn:
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(EXIT_SETUP)


def import_program():
    """Import lmoscale from ./src, refusing any other copy."""
    if not (SRC / "lmoscale" / "__init__.py").is_file():
        _fail_setup(f"no program source at {SRC}/lmoscale; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    try:
        import lmoscale
        import lmoscale.cli
    except ImportError as exc:
        _fail_setup(f"cannot import lmoscale from {SRC}: {exc}")
    if not Path(lmoscale.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail_setup(f"lmoscale was imported from {lmoscale.__file__}, not from {SRC}")
    return lmoscale


from check import (  # noqa: E402  (this directory is on sys.path: run.py is the script)
    ATOL, RTOL, Outcome, canonical_text, contract_problems, golden_entry, golden_problems,
    inputs_sha256,
)
from workloads import WARMUP_BLOCKS, WORKLOADS, generate  # noqa: E402


# --------------------------------------------------------------------------
# executing requests


def run_block(lm, block, tracer=None):
    """Run the requests one after another; returns (wall seconds, latencies, outcomes)."""
    clock = time.perf_counter
    latencies, outcomes = [], []
    t_block = clock()
    for req in block:
        if tracer is not None:
            tracer.current_request = req.rid
        if req.kind == "lib":
            fn = getattr(lm, req.func)
            t0 = clock()
            try:
                value = fn(*req.args)
                t1 = clock()
                outcome = (0, value, None)
            except Exception as exc:  # a failed request, reported with its traceback
                t1 = clock()
                outcome = (1, None, exc)
        else:
            main = lm.cli.main
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(req.argv)
                t1 = clock()
                outcome = (rc, out, err)
            except (Exception, SystemExit) as exc:  # a failed request, see above
                t1 = clock()
                outcome = (1, out, exc)
        latencies.append(t1 - t0)
        outcomes.append(outcome)
    wall = clock() - t_block
    return wall, latencies, [_outcome(req, raw) for req, raw in zip(block, outcomes)]


def _outcome(req, raw) -> Outcome:
    code, payload, extra = raw
    if isinstance(extra, BaseException):
        text = payload.getvalue() if isinstance(payload, io.StringIO) else ""
        err = "".join(traceback.format_exception_only(type(extra), extra)).strip()
        return Outcome(exit=1, text=text, err=err, raised=True)
    if req.kind == "lib":
        return Outcome(exit=0, text=canonical_text(payload), err="")
    return Outcome(exit=code, text=payload.getvalue(), err=extra.getvalue())


# --------------------------------------------------------------------------
# checking outputs


class Checker:
    """Checks each outcome against the contract, its golden and its earlier runs."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.digests: dict[int, str] = {}
        self.twins: dict[tuple, str] = {}
        self.checked = 0
        self.failed = 0
        self.golden_checked = 0
        self.bytes_equal = 0
        self.failures: list[dict] = []

    def check(self, req, o: Outcome) -> None:
        problems = contract_problems(req.kind, req.expect, o)
        if self.golden is not None:
            entry = self.golden["requests"][req.rid]
            equal, mismatch = golden_problems(entry, o)
            problems += mismatch
            self.golden_checked += 1
            self.bytes_equal += equal
        first = self.digests.setdefault(req.rid, o.digest)
        if first != o.digest:
            problems.append("output differs from an earlier run of the same request"
                            " (warm-up, untraced or traced)")
        twin = req.info.get("twin")
        if twin is not None:
            first = self.twins.setdefault(twin, o.text_sha256)
            if first != o.text_sha256:
                problems.append("--threads 1 and --threads 2 outputs differ")
        self.checked += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append({"request": req.rid, "input": req.describe(),
                                      "problems": problems})


def load_golden(workload: str, scale: str, seed: int, blocks) -> tuple[dict | None, str | None]:
    """(golden, problem): the stored golden for this pass, if any."""
    path = GOLDEN_DIR / f"{workload}.{scale}.json.gz"
    if seed != GOLDEN_SEED or not path.is_file():
        return None, None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        golden = json.load(fh)
    requests = [req for block in blocks for req in block]
    if golden["inputs_sha256"] != inputs_sha256(requests):
        return None, f"{path.name}: stored for other inputs; the generator changed"
    return golden, None


def tiny_check(lm, workload: str) -> tuple[Checker, list[str]]:
    """Run the tiny pass of a workload once and check it against its golden."""
    blocks = generate(workload, GOLDEN_SEED, "tiny")
    golden, problem = load_golden(workload, "tiny", GOLDEN_SEED, blocks)
    problems = [problem] if problem else []
    if golden is None and not problem:
        problems.append(f"no tiny golden for {workload}")
    checker = Checker(golden)
    for block in blocks:
        _, _, outcomes = run_block(lm, block)
        for req, o in zip(block, outcomes):
            checker.check(req, o)
    return checker, problems


# --------------------------------------------------------------------------
# provenance and set-up


def _blas_info(np) -> dict:
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    info["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lmoscale").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(lm) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "lmoscale_version": getattr(lm, "__version__", None),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "platform": platform.platform(),
    }


def import_seconds(runs: int) -> list[float]:
    """Wall time of `import lmoscale.cli` in fresh interpreters, one at a time."""
    code = ("import sys,time;sys.path.insert(0,sys.argv[1]);t=time.perf_counter();"
            "import lmoscale.cli;print(time.perf_counter()-t);print(lmoscale.cli.__file__)")
    times = []
    for _ in range(runs):
        res = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=False)
        lines = res.stdout.split()
        if (res.returncode != 0 or len(lines) != 2
                or not Path(lines[1]).resolve().is_relative_to(SRC.resolve())):
            _fail_setup(f"fresh-interpreter import failed: {res.stderr.strip()[-500:]}")
        times.append(float(lines[0]))
    return times


# --------------------------------------------------------------------------
# one run


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles, inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timed_phase(lm, blocks, seconds: float, checker: Checker):
    """Closed loop over whole blocks, cycling through the pass, for `seconds` of timed wall time.

    Output checks run between blocks and are not timed.  Returns (timed wall
    seconds, latencies, the block indices run).
    """
    wall, latencies, order = 0.0, [], []
    while wall < seconds:
        index = len(order) % len(blocks)
        w, lats, outcomes = run_block(lm, blocks[index])
        wall += w
        latencies += lats
        order.append(index)
        for req, o in zip(blocks[index], outcomes):
            checker.check(req, o)
    return wall, latencies, order


def traced_phase(lm, blocks, seconds: float, checker: Checker, tracer):
    """Each block untraced and traced, back to back, for `seconds` of untraced wall time.

    The order of the two alternates from block to block, so drift in the
    host's speed, which is slow next to one block, cancels out of the
    overhead ratio.  Returns (untraced wall, traced wall, block indices run,
    traced outcomes per block).
    """
    walls, order, kept = [0.0, 0.0], [], []
    while walls[0] < seconds:
        index = len(order) % len(blocks)
        for traced in ((False, True) if len(order) % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                w, _, outcomes = run_block(lm, blocks[index], tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            walls[traced] += w
            for req, o in zip(blocks[index], outcomes):
                checker.check(req, o)
            if traced:
                kept.append(outcomes)
        order.append(index)
    return walls[0], walls[1], order, kept


def _latency_by_label(requests, latencies) -> dict:
    """Per request type: sample count and median latency in ms."""
    groups: dict[str, list[float]] = {}
    for req, lat in zip(requests, latencies):
        groups.setdefault(req.label, []).append(lat)
    return {label: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
            for label, v in sorted(groups.items())}


def run_once(args) -> int:
    lm = import_program()
    reported = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
                ["end_to_end" if args.trace == 0 else "per_layer"]]
    workload, seed = args.workload, args.seed
    t0 = time.perf_counter()
    blocks = generate(workload, seed)
    gen_s = time.perf_counter() - t0
    imports = import_seconds(IMPORT_RUNS[0]) if args.trace == 0 else []
    golden, golden_problem = load_golden(workload, "full", seed, blocks)
    problems = [golden_problem] if golden_problem else []
    # one checker for the warm-up, untraced and traced phases, so every
    # repeat of a request (traced ones included) must match its first digest
    checker = Checker(golden)
    warm = blocks[:WARMUP_BLOCKS[workload]]
    for block in warm:
        _, _, outcomes = run_block(lm, block)
        for req, o in zip(block, outcomes):
            checker.check(req, o)

    failed_before = checker.failed
    if args.trace == 0:
        wall, latencies, order = timed_phase(lm, blocks, args.seconds, checker)
        n = len(latencies)
        timed_failed = checker.failed - failed_before
        imports += import_seconds(IMPORT_RUNS[1])
        metrics = {
            "setup_s": (statistics.median(imports) + gen_s, "s"),
            "req_per_s": (n / wall, "1/s"),
            "req_p50_ms": (_quantile(latencies, 0.5) * 1e3, "ms"),
            "req_p90_ms": (_quantile(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_ratio": ((n - timed_failed) / n, "ratio"),
        }
        executed = [req for i in order for req in blocks[i]]
        extra = {"error_ratio": (timed_failed / n, "ratio"),
                 "latency_samples": (n, "count"),
                 "timed_wall_s": (wall, "s"),
                 "generate_s": (gen_s, "s"),
                 "import_s_each": (imports, "s"),
                 "latency_ms_by_type": (_latency_by_label(executed, latencies), "ms")}
    else:
        from layers import per_layer_metrics
        from tracing import Tracer

        tracer = Tracer()
        t_start = time.perf_counter()
        wall, traced_wall, order, kept = traced_phase(lm, blocks, args.seconds / 2, checker,
                                                      tracer)
        n = sum(len(blocks[i]) for i in order)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload}.spans.jsonl"  # tens of MB: one per workload
        tracer.write_jsonl(spans_path, t_start)
        metrics = per_layer_metrics(tracer, [blocks[i] for i in order], kept, traced_wall,
                                    wall)
        extra = {"trace.spans_file": (str(spans_path.relative_to(ROOT)), "path"),
                 "trace.offthread_calls": (tracer.offthread_calls, "count")}

    tiny, tiny_problems = tiny_check(lm, workload)
    problems += tiny_problems
    golden_checked = checker.golden_checked + tiny.golden_checked
    bytes_equal = checker.bytes_equal + tiny.bytes_equal
    if args.trace == 1:
        metrics["golden.bytes_equal_ratio"] = (bytes_equal / max(golden_checked, 1), "ratio")
        metrics["golden.checked"] = (golden_checked, "count")
    missing = [name for name in reported if name not in metrics]
    if missing:
        _fail_setup(f"BENCHMARK.json lists metrics this run does not produce: {missing}")

    attempted = checker.checked + tiny.checked
    failed = checker.failed + tiny.failed
    correct = failed == 0 and not problems
    result = {
        "workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "requests_per_pass": sum(len(b) for b in blocks), "blocks_per_pass": len(blocks),
        "warmup_requests": sum(len(b) for b in warm), "timed_requests": n,
        "passes": len(order) / len(blocks),
        "attempted": attempted, "failed": failed, "correct": correct, "problems": problems,
        "failures": checker.failures + tiny.failures,
        "golden": {"full_seed": GOLDEN_SEED if golden else None, "checked": golden_checked,
                   "bytes_equal": bytes_equal, "rtol": RTOL, "atol": ATOL},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "provenance": provenance(lm),
        "digests": {str(rid): d for rid, d in sorted(checker.digests.items())},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"perfbench {workload} seed={seed} trace={args.trace}: {n} requests timed "
          f"({result['passes']:.2f} passes of {result['requests_per_pass']}), "
          f"{result['warmup_requests']} warm-up; closed loop, 1 client")
    for name, (value, unit) in {**metrics, **extra}.items():
        if isinstance(value, float):
            print(f"  {name:48s} {value:14.6g} {unit}")
        elif not isinstance(value, (list, dict)):
            print(f"  {name:48s} {value!s:>14} {unit}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    for failure in result["failures"][:5]:
        print(f"  FAILED request {failure['request']}: {failure['problems'][0]}")
    print(f"  provenance: {json.dumps(result['provenance'])}")
    print(f"  full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in reported}}))
    return 0


# --------------------------------------------------------------------------
# golden files and self-test


def write_golden(workloads) -> int:
    lm = import_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in workloads:
        for scale in ("full", "tiny"):
            blocks = generate(workload, GOLDEN_SEED, scale)
            requests = [req for block in blocks for req in block]
            entries = []
            for block in blocks:
                _, _, outcomes = run_block(lm, block)
                for req, o in zip(block, outcomes):
                    for problem in contract_problems(req.kind, req.expect, o):
                        print(f"{workload}/{scale} request {req.rid}: {problem}")
                    entries.append(golden_entry(o))
            doc = {"workload": workload, "scale": scale, "seed": GOLDEN_SEED,
                   "inputs_sha256": inputs_sha256(requests), "requests": entries}
            path = GOLDEN_DIR / f"{workload}.{scale}.json.gz"
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write((json.dumps(doc, separators=(",", ":")) + "\n").encode())
            print(f"wrote {path.relative_to(ROOT)}: {len(entries)} requests")
    return 0


def selftest(workloads) -> int:
    lm = import_program()
    ok = True
    for workload in workloads:
        a = inputs_sha256(r for b in generate(workload, 5) for r in b)
        b = inputs_sha256(r for b in generate(workload, 5) for r in b)
        checker, problems = tiny_check(lm, workload)
        if a != b:
            problems.append("generator is not deterministic")
        good = checker.failed == 0 and not problems
        ok &= good
        print(f"selftest {workload}: {checker.checked} requests, {checker.failed} failed, "
              f"{checker.bytes_equal}/{checker.golden_checked} byte-identical to golden"
              f" -> {'ok' if good else 'FAIL'}")
        for problem in problems:
            print(f"  PROBLEM: {problem}")
        for failure in checker.failures[:5]:
            print(f"  FAILED request {failure['request']}: {failure['problems']}")
    return 0 if ok else 1


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tiny pass of every workload against its golden")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"rewrite the goldens (seed {GOLDEN_SEED}) from the current program")
    parser.add_argument("--steady", metavar="SET_FILE",
                        help="run --runs seeds of each --workload and store the set")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_SET", "NEW_SET"),
                        help="compare two sets against the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)
    selected = [args.workload] if args.workload else sorted(WORKLOADS)
    if args.selftest:
        return selftest(selected)
    if args.write_golden:
        return write_golden(selected)
    if args.steady or args.compare:
        import steady

        if args.compare:
            return steady.compare(*args.compare)
        return steady.collect(args.steady, selected, args.runs, args.first_seed, args.trace)
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
