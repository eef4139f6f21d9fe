"""One fresh benchmark process: set up, warm up, then time operations.

Started by ``run.py``, which sets the BLAS thread count in the environment
before this process loads numpy.  Prints one JSON object on stdout.

Operations run in a closed loop with one caller.  While they run, the
reference kernel runs next to them in slices (see ``ReferenceProbe``), and
each operation's normalized time is its own wall time divided by the
reference kernel's time measured during it, times ``REF_MS``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import LAYERS, Tracer, install
from workloads import CHECKS, CheckFailed, make_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Normalized times read as "ms at the speed where the reference kernel takes
# REF_MS"; on the host described in README.md that is close to raw wall time.
REF_MS = 40.0
REF_SLICES = 20  # the kernel: 20 complex 192x192 matmuls and 200k loop steps
REF_MATRIX_DIM = 192
REF_LOOP_STEPS_PER_SLICE = 10_000
PROBE_PERIOD_S = 0.05
MIN_SLICES = 8


class ReferenceProbe:
    """The reference kernel, run in slices on a timer next to the operations.

    A slice is one complex 192x192 matmul plus a 10,000-step Python loop;
    20 slices make the kernel.  A POSIX interval timer runs one slice every
    ``PROBE_PERIOD_S`` of wall time, between two bytecodes of whatever the
    process is doing, so the slices sample the machine's speed during an
    operation and not only around it.  Each slice first repeats its matmul
    untimed, so that its timed part runs from a warm cache whatever the
    operation left behind.  The handler's whole duration is recorded so it
    can be taken out of the operation's wall time.
    """

    def __init__(self, on_handler=None):
        import numpy as np

        rng = np.random.default_rng(12345)
        shape = (REF_MATRIX_DIM, REF_MATRIX_DIM)
        self._unitary, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        self._on_handler = on_handler
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.handler_s = 0.0

    def _slice(self) -> float:
        u = self._unitary
        u @ u
        start = time.perf_counter()
        product = u @ u
        acc = 0
        for i in range(REF_LOOP_STEPS_PER_SLICE):
            acc += i & 7
        elapsed = time.perf_counter() - start
        if acc != 7 * REF_LOOP_STEPS_PER_SLICE // 2 or product.shape != u.shape:
            raise ArithmeticError("reference slice computed a wrong result")
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        entered = time.perf_counter()
        self.durations.append(self._slice())
        self.starts.append(entered)
        spent = time.perf_counter() - entered
        self.handler_s += spent
        if self._on_handler is not None:
            self._on_handler(spent)

    def __enter__(self) -> "ReferenceProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, start: float, end: float) -> float:
        """The kernel's time during [start, end): 20 x the median slice.

        Uses the slices run inside the interval, or the ``MIN_SLICES``
        nearest to its midpoint when fewer ran inside it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        if hi - lo >= MIN_SLICES:
            picked = self.durations[lo:hi]
        else:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.starts)), key=lambda j: abs(self.starts[j] - mid))
            picked = [self.durations[j] for j in nearest[:MIN_SLICES]]
        return REF_SLICES * statistics.median(picked)


def call_cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _layer_figures(tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation; the ``_ms`` ones in seconds."""
    out = {f"{layer}_self_ms": tracer.self_s[layer] for layer in LAYERS}
    out["kron_ms"] = tracer.self_s["kron"]
    out["complete_orthonormal_ms"] = tracer.inclusive_s["hilbert.complete_orthonormal"]
    out["package_calls"] = sum(
        n for name, n in tracer.calls.items() if not name.startswith("numpy.")
    )
    out["embed_operator_calls"] = tracer.calls["hilbert.embed_operator"]
    out["kron_calls"] = tracer.calls["numpy.kron"]
    out["kron_max_mib"] = tracer.kron_max_bytes / 2**20
    out["density_operator_builds"] = tracer.calls["hilbert.DensityOperator.__post_init__"]
    out["eigvalsh_calls"] = tracer.calls["numpy.linalg.eigvalsh"]
    out["branch_yield"] = tracer.branches_kept / max(1, tracer.branches_attempted)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0, help="worker index within the run")
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    if not (SRC / "vnchain" / "__init__.py").is_file():
        print(f"error: no vnchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import vnchain
    import vnchain.cli as cli

    if Path(vnchain.__file__).resolve().parent != SRC / "vnchain":
        print(f"error: imported vnchain from {vnchain.__file__}", file=sys.stderr)
        return 2

    check = CHECKS[args.workload]
    cases = make_cases(args.workload, args.seed)
    tracer = Tracer()
    if args.trace:
        install(tracer)
    probe = ReferenceProbe(on_handler=tracer.exclude)

    errors: list[str] = []
    wrong = False
    failed = 0
    ops: list[tuple[float, float, float]] = []  # (start, end, own seconds)
    layer_rows: list[dict[str, float]] = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        argvs = []
        for k, case in enumerate(cases):
            path = Path(scratch) / f"input{k}.json"
            if case["doc"] is not None:
                path.write_text(json.dumps(case["doc"]))
            argvs.append([str(path) if a == "{scenario}" else a for a in case["argv"]])

        def run_one(argv: list[str]) -> tuple[float, float, str | None]:
            """One operation: returns (start, end, stdout).

            stdout is None when the operation failed: it raised or exited
            non-zero.
            """
            start = time.perf_counter()
            try:
                rc, stdout = call_cli(cli.main, argv)
            except Exception as exc:  # a crash is a failed operation, not a dead run
                errors.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
                return start, time.perf_counter(), None
            end = time.perf_counter()
            if rc != 0:
                errors.append(f"{' '.join(argv)}: exit code {rc}")
                return start, end, None
            return start, end, stdout

        # The first call of a process pays one-time costs (about 1.4x a warm
        # call); it is part of set-up.  Its output is not checked: a short
        # verify warms the same code paths as a full one.
        first = args.index % len(cases)
        run_one(cases[first].get("warmup_argv") or argvs[first])

        with probe:
            setup_s = time.monotonic() - args.spawned_at
            setup_end = time.perf_counter()
            deadline = setup_end + args.seconds
            i = args.index
            while True:
                k = i % len(cases)
                tracer.reset(record=(i == args.index))
                probe_before = probe.handler_s
                start, end, stdout = run_one(argvs[k])
                ops.append((start, end, end - start - (probe.handler_s - probe_before)))
                if stdout is None:
                    failed += 1
                else:
                    try:
                        check(0, stdout, cases[k]["expect"])
                    except CheckFailed as exc:
                        errors.append(f"input {k}: {exc}")
                        wrong = True
                if args.trace:
                    layer_rows.append(_layer_figures(tracer))
                    if tracer.spans is not None and args.spans_out:
                        with open(args.spans_out, "w") as fh:
                            for span in tracer.spans:
                                fh.write(json.dumps([args.index, i, *span]) + "\n")
                i += 1
                # Stop when one more operation of the same length would overrun,
                # once there are enough slices to normalize by.
                overrun = time.perf_counter() + (end - start) > deadline
                if overrun and len(probe.durations) >= MIN_SLICES:
                    break

    # ms at reference speed per second of wall time, for each operation
    factors = [REF_MS / probe.kernel_s(start, end) for start, end, _ in ops]
    layers = {}
    if layer_rows:
        for name in layer_rows[0]:
            layers[name] = statistics.fmean(
                row[name] * (f if name.endswith("_ms") else 1.0)
                for f, row in zip(factors, layer_rows)
            )
    result = {
        "correct": not wrong,
        "errors": errors[:5],
        "attempted": len(ops),
        "failed": failed,
        "raw_ms": [own * 1000.0 for _, _, own in ops],
        "norm_ms": [own * f for (_, _, own), f in zip(ops, factors)],
        # Set-up is normalized by the slices run right after it.
        "setup_s": setup_s * REF_MS / 1000.0 / probe.kernel_s(setup_end, setup_end),
        "raw_setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
