"""Seeded request generators for the four benchmark workloads.

A workload is a *pass* of blocks.  Every block holds the same fixed mix of
request templates (constraints, norms, shape classes or call types), so
whole blocks have exactly the workload's stated mix.  The parameters that
set a request's cost come from a fixed set of size tuples per template,
one per block; the seed rotates which block gets which tuple and draws the
remaining parameters.  Every seed thus gives the same spread of request
sizes.  Generation uses only the Python standard library, so the same seed
gives the same inputs whatever numpy version is installed.

A request is one of:

* ``Request(kind="cli", argv=[...], expect=<exit code>)``: run in-process
  through ``lmoscale.cli.main(argv)``;
* ``Request(kind="lib", func=<name>, args=(...), expect=0)``: a call of the
  public function ``lmoscale.<name>(*args)``.

``info`` carries the request parameters the work counters need.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

__all__ = ["Request", "WORKLOADS", "WARMUP_BLOCKS", "generate"]


@dataclass
class Request:
    rid: int
    kind: str  # "cli" | "lib"
    expect: int  # expected exit code (lib calls: 0 = returns a value)
    argv: list[str] | None = None
    func: str | None = None
    args: tuple = ()
    info: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        """Request type, for latency breakdowns: function, or command and variant."""
        if self.kind == "lib":
            return self.func
        if self.expect != 0:
            return f"{self.argv[0]}.reject"
        if self.argv[0] == "verify":
            pair = ".pair" if "twin" in self.info else ""
            return f"verify.{self.info['constraint']}{pair}.threads{self.info['threads']}"
        if self.argv[0] == "simulate":
            flag = {f: v for f, v in zip(self.argv, self.argv[1:]) if f.startswith("--")}
            return f"simulate.{flag['--norm']}.{flag.get('--update', 'lmo')}"
        return self.argv[0]

    def describe(self) -> str:
        if self.kind == "cli":
            return "lmoscale " + " ".join(self.argv)
        return f"lmoscale.{self.func}{self.args!r}"


def _radical_inverse(n: int) -> float:
    inv, f = 0.0, 0.5
    while n:
        n, bit = divmod(n, 2)
        inv += bit * f
        f /= 2
    return inv


def _strata_order(n: int) -> list[int]:
    """Stratum of each of n blocks: ranks of the base-2 radical inverse.

    Every prefix of blocks then covers the strata about evenly (exactly, for
    powers of two), so a run that stops part-way through a pass still has
    about the pass's mix of sizes.
    """
    ranked = sorted(range(n), key=_radical_inverse)
    order = [0] * n
    for stratum, j in enumerate(ranked):
        order[j] = stratum
    return order


class _Draws:
    """Seeded draws: a fixed set of request sizes per pass, plain RNG for the rest."""

    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"lmoscale-perfbench:{name}:{seed}")
        self._rotation: dict[int, int] = {}

    def levels(self, j: int, n: int, slot: int, count: int) -> list[float]:
        """Positions in [0, 1] of the ``count`` size parameters of block j's ``slot`` request.

        Stratum k of n fixes every size parameter: parameter p sits at
        ((a_p k + p) mod n) / (n - 1) with a_p coprime to n, so over a pass
        each parameter takes each of n evenly spaced positions once and the
        pass holds the same n size tuples for every seed.  The seed only
        rotates which block gets which stratum, per request template
        (``slot``).  Latencies therefore spread the same way on every seed.
        """
        if n == 1:
            return [0.5] * count
        if slot not in self._rotation:
            self._rotation[slot] = self.rng.randrange(n)
        k = (_strata_order(n)[j] + self._rotation[slot]) % n
        coprime = [a for a in range(1, n) if math.gcd(a, n) == 1]
        return [((coprime[p % len(coprime)] * k + p) % n) / (n - 1) for p in range(count)]

    def log_uniform(self, lo: float, hi: float) -> float:
        return 10.0 ** self.rng.uniform(math.log10(lo), math.log10(hi))


def _cli(argv: list[str], expect: int, info: dict | None = None) -> Request:
    return Request(-1, "cli", expect, argv=argv, info=info or {})


def _pick(lo: int, hi: int, u: float) -> int:
    """Integer in [lo, hi] at position u in [0, 1]."""
    return lo + round((hi - lo) * u)


def _g(x: float) -> str:
    """Short argv spelling of a float; the program parses it back exactly."""
    return f"{x:.6g}"


def _csv(xs) -> str:
    return ",".join(_g(x) for x in xs)


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [float(_g(lo * (hi / lo) ** (i / (n - 1)))) for i in range(n)]


# --------------------------------------------------------------------------
# verify-grid


# log10 range of --value per pinned or capped constraint, and extra flags.
# The free argmin reaches the grid edges at small budgets on some constants,
# and a binding cap puts the top budgets on the b-hi edge; the fits drop
# edge records, so wider fit windows keep >= 5 in-window records.
_CONSTRAINTS = {
    "free": (None, ["--fit-decades", "4"]),
    "fixed-alpha": ((-4.0, 0.0), []),
    "fixed-b": ((0.0, 6.0), []),
    "fixed-eta": ((-10.0, -3.5), []),
    "capped-b": ((8.0, 13.0), ["--fit-decades", "6"]),
}

# One block: (constraint, objective offset, --points range, thread counts).
# Sorted by latency, the six pinned sweeps fill the bottom 60 % (p50 sits
# among them), the free pair the next 20 % and the large free and capped
# sweeps the top 20 % (p90 sits among them).  Only the free pair runs the
# pool: it runs at --threads 1 and 2 on the same input, alternating which
# goes first.  Two-threaded sweeps are bimodal on a 2-core host, fast or
# slow by run depending on whether the second core is free, so they are
# kept out of the latency ranks the p50 and p90 fall on.
_VERIFY_BLOCK = (
    ("free", 0, (85, 100), (1,)),
    ("free", 1, (60, 70), (1, 2)),
    ("capped-b", 1, (80, 100), (1,)),
    ("fixed-alpha", 0, (60, 100), (1,)),
    ("fixed-alpha", 1, (60, 100), (1,)),
    ("fixed-b", 0, (60, 100), (1,)),
    ("fixed-b", 1, (60, 100), (1,)),
    ("fixed-eta", 0, (60, 100), (1,)),
    ("fixed-eta", 1, (60, 100), (1,)),
)


def _verify_constants(d: _Draws, objective: str) -> list[str]:
    if objective == "risk_tokens":
        return ["--c1", _g(d.log_uniform(0.1, 10)), "--c2", _g(d.log_uniform(0.1, 10)),
                "--c3", _g(d.log_uniform(0.1, 10))]
    return ["--delta0", _g(d.log_uniform(0.1, 10)), "--smoothness", _g(d.log_uniform(0.1, 10)),
            "--noise-scale", _g(d.log_uniform(0.1, 10)),
            "--norm-equiv", _g(d.rng.uniform(1.0, 4.0))]


def _verify_grid(d: _Draws, scale: str) -> list[list[Request]]:
    n_blocks = 12 if scale == "full" else 1
    blocks = []
    for j in range(n_blocks):
        block = []
        for slot, (constraint, offset, points_range, threads) in enumerate(_VERIFY_BLOCK):
            value_range, extra = _CONSTRAINTS[constraint]
            u = d.levels(j, n_blocks, slot, 2)
            points = _pick(*points_range, u[0]) if scale == "full" else 58
            objective = ("risk_tokens", "bound_tokens")[(offset + j) % 2]
            argv = ["verify", "--constraint", constraint]
            value = None
            if value_range is not None:
                lo, hi = value_range
                value = float(_g(10.0 ** (lo + (hi - lo) * u[1])))
                argv += ["--value", _g(value)]
            argv += ["--objective", objective, "--points", str(points),
                     "--format", ("json", "csv")[(slot + j) % 2]]
            argv += _verify_constants(d, objective) + extra
            info = {"constraint": constraint, "value": value, "points": points}
            if len(threads) > 1:
                info["twin"] = (j, slot)
                threads = threads if j % 2 == 0 else threads[::-1]
            for t in threads:
                block.append(_cli(argv + ["--threads", str(t)], 0, dict(info, threads=t)))
        blocks.append(block)
    return blocks


# --------------------------------------------------------------------------
# simulate-diagonal


_DIAGONAL_KINDS = (("max", "lmo"), ("max", "sgd"), ("euclidean", "lmo"), ("euclidean", "sgd"))

# per-step cost model (seconds) used to pick the budget: a fixed Python
# overhead plus a term in the number of simulated coordinates
_STEP_FIXED_S = 40e-6
_STEP_PER_COORD_S = 12e-9


def _simulate_diagonal(d: _Draws, scale: str) -> list[list[Request]]:
    if scale == "full":
        n_blocks, target_s, dim_range, rep_range = (10, 0.05, (20, 80), (8, 32))
    else:
        n_blocks, target_s, dim_range, rep_range = (1, 0.004, (4, 8), (2, 3))
    blocks = []
    for j in range(n_blocks):
        block = []
        kinds = list(_DIAGONAL_KINDS)
        d.rng.shuffle(kinds)
        for i, (norm, update) in enumerate(kinds):
            u = d.levels(j, n_blocks, _DIAGONAL_KINDS.index((norm, update)), 6)
            dim = _pick(*dim_range, u[0])
            reps = _pick(*rep_range, u[1])
            n_eta, n_alpha, n_b = _pick(3, 6, u[2]), _pick(1, 3, u[3]), _pick(1, 3, u[4])
            eta_lo, eta_hi = (1e-4, 1e-1) if update == "lmo" else (1e-3, 1.0)
            lo = d.log_uniform(eta_lo, eta_hi / 10)
            etas = _log_grid(lo, lo * 10, n_eta)
            alphas = sorted(d.rng.sample((0.03, 0.1, 0.3, 1.0), n_alpha))
            batches = sorted(d.rng.sample((8, 16, 32, 64, 128), n_b))
            two_budgets = u[5] >= 0.5
            # budget set so the request costs about target_s under the model
            per_step = _STEP_FIXED_S + _STEP_PER_COORD_S * n_eta * reps * dim
            steps_per_t = n_alpha * sum(1.0 / b for b in batches) * (5.0 if two_budgets else 1.0)
            t = float(_g(max(4.0 * batches[-1], target_s / per_step / steps_per_t)))
            budgets = [t, 4 * t] if two_budgets else [t]
            argv = ["simulate", "--norm", norm, "--update", update, "--dim", str(dim),
                    "--eta", _csv(etas), "--alpha", _csv(alphas), "--b", _csv(batches),
                    "--t", _csv(budgets), "--replicates", str(reps),
                    "--seed", str(d.rng.randrange(1000)),
                    "--data-seed", str(d.rng.randrange(1000)),
                    "--format", ("json", "csv")[(i + j) % 2]]
            block.append(_cli(argv, 0, {"etas": etas, "alphas": alphas, "batches": batches,
                                        "budgets": budgets, "replicates": reps}))
        blocks.append(block)
    return blocks


# --------------------------------------------------------------------------
# simulate-spectral


_SHAPES = ("wide", "tall", "square")  # wide matrices take the transpose branch


def _simulate_spectral(d: _Draws, scale: str) -> list[list[Request]]:
    if scale == "full":
        n_blocks, size_range, rep_range, step_range = (24, (4, 16), (2, 4), (8, 24))
    else:
        n_blocks, size_range, rep_range, step_range = (1, (3, 5), (1, 2), (2, 4))
    blocks = []
    for j in range(n_blocks):
        block = []
        shapes = list(_SHAPES)
        d.rng.shuffle(shapes)
        for i, shape in enumerate(shapes):
            u = d.levels(j, n_blocks, _SHAPES.index(shape), 5)
            a, b = _pick(*size_range, u[0]), _pick(*size_range, u[1])
            if shape != "square" and a == b:
                b = a + 1 if a < size_range[1] else a - 1
            rows, cols = {"wide": (min(a, b), max(a, b)), "tall": (max(a, b), min(a, b)),
                          "square": (a, a)}[shape]
            reps, steps, n_eta = _pick(*rep_range, u[2]), _pick(*step_range, u[3]), _pick(2, 3, u[4])
            batch = d.rng.choice((4, 8, 16, 32))
            lo = d.log_uniform(1e-3, 1e-2)
            etas = _log_grid(lo, lo * 10, n_eta)
            alpha = d.rng.choice((0.1, 0.3, 1.0))
            argv = ["simulate", "--kind", "matrix-least-squares", "--norm", "spectral",
                    "--rows", str(rows), "--cols", str(cols), "--eta", _csv(etas),
                    "--alpha", _g(alpha), "--b", str(batch), "--t", str(batch * steps),
                    "--replicates", str(reps), "--seed", str(d.rng.randrange(1000)),
                    "--data-seed", str(d.rng.randrange(1000)),
                    "--format", ("json", "csv")[(i + j) % 2]]
            block.append(_cli(argv, 0, {"etas": etas, "alphas": [alpha], "batches": [batch],
                                        "budgets": [float(batch * steps)], "replicates": reps}))
        blocks.append(block)
    return blocks


# --------------------------------------------------------------------------
# point-queries

# Per block: 32 library calls and 8 short CLI commands (a fifth).  Sorted by
# latency the library calls fill the bottom 80 % and the CLI commands the top
# 20 %, so p50 sits at the 62nd percentile of the library calls and p90 near
# the middle of the CLI commands, away from the gap between the two modes.
_LIB_MIX = (
    ("bound_tokens", 3), ("risk_tokens", 3), ("risk_steps", 3), ("optimal_joint", 4),
    ("optimal_fixed_batch", 3), ("optimal_fixed_momentum_tokens", 3), ("extrapolate", 3),
    ("sgd_tuned", 3), ("tuned_bound", 4), ("rate_exponents", 3),
)
_CLI_MIX = ("plan", "plan", "transfer", "analyze", "compare-sgd", "contour", "reject", "reject")


def _constants(d: _Draws):
    from lmoscale import BoundConstants

    return BoundConstants(d.log_uniform(0.1, 10), d.log_uniform(0.1, 10),
                          d.log_uniform(0.1, 10), d.rng.uniform(1.0, 4.0))


def _lib_call(d: _Draws, func: str) -> tuple:
    import lmoscale as lm

    c = _constants(d)
    if func in ("bound_tokens", "risk_tokens", "risk_steps"):
        h = lm.HyperParams(d.log_uniform(1e-6, 1e-1), d.log_uniform(1e-4, 1.0),
                           d.log_uniform(1.0, 1e4))
        return (c, h, h.batch * d.log_uniform(1.0, 1e10))
    if func == "optimal_joint":
        return (c, d.log_uniform(1e4, 1e18))
    if func == "optimal_fixed_batch":
        b = d.log_uniform(1.0, 1e5)
        return (c, b, lm.Budget.tokens(b * d.log_uniform(1e2, 1e12)))
    if func == "optimal_fixed_momentum_tokens":
        b = d.log_uniform(1.0, 1e5) if d.rng.random() < 0.5 else None
        return (c, d.log_uniform(1e-3, 1.0), (b or 1.0) * d.log_uniform(1e2, 1e12), b)
    if func == "extrapolate":
        t0 = d.log_uniform(1e6, 1e12)
        cfg = lm.TunedConfig(t0=t0, b0=d.log_uniform(1.0, 1e3), eta0=d.log_uniform(1e-4, 1e-1),
                             alpha0=d.log_uniform(1e-2, 1.0))
        b_max = d.log_uniform(1e2, 1e5) if d.rng.random() < 0.3 else None
        return (cfg, t0 * d.log_uniform(1.0, 1e4),
                d.rng.choice(list(lm.TransferRegime)), b_max)
    if func == "sgd_tuned":
        b = d.log_uniform(1.0, 1e5)
        return (c.delta0, c.smoothness, c.noise_scale, b,
                lm.Budget.tokens(b * d.log_uniform(1.0, 1e10)), d.rng.random() < 0.5)
    if func == "tuned_bound":
        cc = lm.ContourConstants(c, d.log_uniform(1e-4, 1.0))
        floor = d.log_uniform(1e-8, 1e-3) if d.rng.random() < 0.5 else None
        return (cc, d.log_uniform(1.0, 1e6), d.log_uniform(1.0, 1e9), floor)
    if func == "rate_exponents":
        return (lm.PowerLawSchedule(d.rng.uniform(0.0, 1.0), d.rng.uniform(-0.5, 1.0),
                                    d.rng.uniform(-0.5, 1.5)),)
    raise ValueError(func)


def _constant_flags(d: _Draws) -> list[str]:
    return ["--c1", _g(d.log_uniform(0.1, 10)), "--c2", _g(d.log_uniform(0.1, 10)),
            "--c3", _g(d.log_uniform(0.1, 10))]


def _cli_command(d: _Draws, kind: str, n: int) -> tuple[list[str], int]:
    """argv and expected exit code; ``n`` rotates the sub-mode."""
    t = _g(d.log_uniform(1e4, 1e16))
    if kind == "plan":
        regime = ("fixed-momentum", "fixed-batch", "joint")[n % 3]
        argv = ["plan", "--regime", regime, "--t", t] + _constant_flags(d)
        if regime == "fixed-momentum":
            argv += ["--alpha", _g(d.log_uniform(1e-3, 1.0))]
        elif regime == "fixed-batch":
            argv += ["--b", _g(d.log_uniform(1.0, 1e3))]
        return argv, 0
    if kind == "transfer":
        t0 = d.log_uniform(1e6, 1e12)
        argv = ["transfer", "--t0", _g(t0), "--eta0", _g(d.log_uniform(1e-4, 1e-1)),
                "--t1", _g(t0 * d.log_uniform(1.0, 1e4)),
                "--alpha0", _g(d.log_uniform(1e-2, 1.0))]
        if n % 2 == 0:
            argv += ["--regime", d.rng.choice(("A", "B", "C", "D", "sgd"))]
        else:
            argv += ["--b0", _g(d.log_uniform(1.0, 1e3)), "--b1", _g(d.log_uniform(1.0, 1e4)),
                     "--setting", d.rng.choice(("lmo-fixed-momentum", "lmo-tuned-momentum",
                                                "sgd"))]
        return argv, 0
    if kind == "analyze":
        mode = ("rate", "ceiling", "noise", "path")[n % 4]
        argv = ["analyze", "--mode", mode]
        if mode == "rate":
            argv += ["--b-exp", _g(d.rng.uniform(0, 1)), "--alpha-exp", _g(d.rng.uniform(0, 0.5)),
                     "--eta-exp", _g(d.rng.uniform(0, 1))]
        elif mode == "ceiling":
            argv += ["--phi", _g(d.rng.uniform(0.5, 1.0))]
        elif mode == "noise":
            argv += ["--q", _g(d.rng.uniform(0.05, 0.5)), "--b", _g(d.log_uniform(1, 1e3)),
                     "--t", t]
        else:
            argv += ["--kappa", _g(d.rng.uniform(0, 1)), "--lam", _g(d.rng.uniform(0.5, 1)),
                     "--p", _g(d.rng.uniform(0, 1))]
        return argv, 0
    if kind == "compare-sgd":
        return ["compare-sgd", "--t", t, "--delta0", _g(d.log_uniform(0.1, 10)),
                "--smoothness", _g(d.log_uniform(0.1, 10)),
                "--noise-scale", _g(d.log_uniform(0.1, 10))], 0
    if kind == "contour":
        # With b = 1 the level set spans step counts from (c_det / target)^2
        # to about (c_det / (target - c_floor))^2, so a target just above the
        # noise floor c_floor = c2 sqrt(alpha) keeps it reachable across
        # several decades of the k grid.
        alpha, c2 = d.log_uniform(0.01, 1.0), d.log_uniform(0.1, 10)
        target = c2 * math.sqrt(alpha) * (1.0 + d.log_uniform(0.003, 0.05))
        return ["contour", "--alpha", _g(alpha), "--target", _g(target),
                "--k-points", str(d.rng.randint(8, 16)), "--c1", _g(d.log_uniform(0.1, 10)),
                "--c2", _g(c2), "--c3", _g(d.log_uniform(0.1, 10))], 0
    # requests the exit-code contract must reject (2 invalid, 3 infeasible)
    which = n % 6
    if which == 0:
        return ["plan", "--regime", "fixed-batch", "--t", t], 2
    if which == 1:
        b = d.log_uniform(1e3, 1e6)
        return ["plan", "--regime", "fixed-batch", "--b", _g(b), "--t", _g(b / 10)], 3
    if which == 2:
        t0 = d.log_uniform(1e6, 1e12)
        return ["transfer", "--t0", _g(t0), "--eta0", "0.001", "--t1", _g(t0 / 10),
                "--regime", "A"], 2
    if which == 3:
        return ["analyze", "--mode", "ceiling"], 2
    if which == 4:
        cap = d.log_uniform(10.0, 1e3)
        return ["verify", "--constraint", "capped-b", "--value", _g(cap),
                "--b-lo", _g(cap * 10), "--b-hi", _g(cap * 1e3), "--points", "8"], 3
    return ["plan", "--regime", "fixed-momentum", "--t", t, "--alpha", "0"], 2


def _point_queries(d: _Draws, scale: str) -> list[list[Request]]:
    n_blocks = 12 if scale == "full" else 1
    blocks = []
    for j in range(n_blocks):
        block = []
        for func, count in _LIB_MIX:
            for _ in range(count):
                block.append(Request(-1, "lib", 0, func=func, args=_lib_call(d, func)))
        for i, kind in enumerate(_CLI_MIX):
            argv, expect = _cli_command(d, kind, j * len(_CLI_MIX) + i)
            block.append(_cli(argv, expect))
        d.rng.shuffle(block)
        blocks.append(block)
    return blocks


# --------------------------------------------------------------------------


WORKLOADS = {
    "verify-grid": _verify_grid,
    "simulate-diagonal": _simulate_diagonal,
    "simulate-spectral": _simulate_spectral,
    "point-queries": _point_queries,
}

# warm-up blocks run untimed before the timed phase
WARMUP_BLOCKS = {"verify-grid": 1, "simulate-diagonal": 1, "simulate-spectral": 2,
                 "point-queries": 3}


def generate(workload: str, seed: int, scale: str = "full") -> list[list[Request]]:
    """The workload's blocks of requests for this seed; request ids count from 0."""
    blocks = WORKLOADS[workload](_Draws(workload, seed), scale)
    for rid, req in enumerate(req for block in blocks for req in block):
        req.rid = rid
    return blocks
