"""quinsing benchmark: classify seeded curves for a fixed time, then check them.

    python3 bench/run.py --workload sign_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  One curve is one operation.  After set-up and a short
warm-up on curves of a separate input stream, whole rounds of the workload's
curves are classified until `--seconds` have passed; then every result is
checked by the oracles in `oracles.py`, outside the timed region.

Curve times are calibrated against the machine's momentary speed (`speed.py`).
With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` the calls into the program's modules
are recorded as spans, written to `.bench_out/trace-<workload>.json`, and the
JSON object holds the per-layer metrics.  `run.py --setup-only` makes one
cold set-up and prints its time; a run calls it for its set-up samples.  See
README.md in this directory.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction as F  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WARMUP_CURVES = 6
MIN_SAMPLES = 100  # so that at least ten timing samples lie beyond the 90th percentile
COUNT_CURVES = 100  # per-layer counts are taken over this many first curves
SETUP_SAMPLES = 6  # cold set-ups per run: this process's own, then fresh interpreters'
SWEEP_CAP = F(9)


def _seconds_since_process_start() -> float:
    """Wall time since the kernel started this process, interpreter start-up
    included; falls back to the time since this script began."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def _load_program():
    """Import quinsing from this checkout's src/ and load the catalog."""
    package = ROOT / "src" / "quinsing"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import quinsing

    if Path(quinsing.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: quinsing imported from {quinsing.__file__}, not {package}")
    quinsing.all_classes()
    return quinsing


def _setup_seconds(own_s: float) -> tuple:
    """Calibrated set-up time: the median over SETUP_SAMPLES cold set-ups.

    The first is this process's own; the others are made one after another by
    fresh interpreters running this script with `--setup-only`.  The machine
    switches speed within seconds, so each set-up is scaled by the speed of
    the kernel timed right around it (after it only, for this process's own;
    see `speed.setup_factor`).  Returns the calibrated median and the raw
    wall times."""
    import speed

    before = speed.bracket_kernel()
    raw = [own_s]
    samples = [own_s * speed.setup_factor(before, before)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = speed.bracket_kernel()
        raw.append(float(done.stdout.split()[-1]))
        samples.append(raw[-1] * speed.setup_factor(before, after))
        before = after
    return statistics.median(samples), raw


def _classifier(workload: str, quinsing):
    """The public-API call that classifies one curve of the workload.

    Attributes are looked up at call time, so a traced run sees the wrapped
    functions."""
    if workload == "sign_sweep":
        origin = (F(0), F(0))
        return lambda f: [quinsing.classify_point(f, origin, cap=SWEEP_CAP)]
    return lambda f: quinsing.classify_all(f)


def _sample_times(keys, times):
    """Sorted mean time per curve of each timing sample (consecutive curves
    sharing a key)."""
    sums = {}
    for key, t in zip(keys, times):
        entry = sums.setdefault(key, [0.0, 0])
        entry[0] += t
        entry[1] += 1
    return sorted(total / count for total, count in sums.values())


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolated q-quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def main(argv=None) -> int:
    if (sys.argv[1:] if argv is None else argv) == ["--setup-only"]:
        _load_program()  # one cold set-up, timed from this interpreter's start
        print(_seconds_since_process_start())
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    quinsing = _load_program()
    setup_wall_s = _seconds_since_process_start()

    import inputs
    import oracles
    import spans
    import speed

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {inputs.WORKLOADS}", file=sys.stderr)
        return 2
    classify = _classifier(args.workload, quinsing)
    setup_s, setup_raw = _setup_seconds(setup_wall_s)

    # warm-up: a few curves of a separate stream, untimed
    seen = set()  # texts of every curve classified in this process
    warm = inputs.round_maker(args.workload, args.seed, ROOT, seen, stream="warmup")
    warm_cases = []
    while len(warm_cases) < WARMUP_CURVES:
        warm_cases.extend(warm())
    for case in warm_cases[:WARMUP_CURVES]:
        try:
            classify(quinsing.parse_poly(case.text))
        except Exception as exc:  # warm-up results are not checked; report and go on
            print(f"warm-up curve failed: {type(exc).__name__}: {exc}", file=sys.stderr)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    next_round = inputs.round_maker(args.workload, args.seed, ROOT, seen)
    cases, results, errors = [], [], []
    times, kernel_times, sample_keys = [], [], []
    n_samples, rounds = 0, 0
    started = time.perf_counter()
    try:
        while True:
            # whole rounds only; stop at the round end nearest to --seconds
            elapsed = time.perf_counter() - started
            half_round = 0.5 * elapsed / rounds if rounds else 0.0
            if n_samples >= MIN_SAMPLES and elapsed + half_round >= args.seconds:
                break
            rounds += 1
            for case in next_round():
                kernel_times.append(speed.time_kernel())
                if tracer:
                    tracer.curve = len(cases)
                t0 = time.perf_counter()
                try:
                    reports = classify(quinsing.parse_poly(case.text))
                except Exception as exc:  # a failed operation: counted, and the run goes on
                    reports, error = None, exc
                times.append(time.perf_counter() - t0)
                key = (rounds, case.group)
                n_samples += not sample_keys or sample_keys[-1] != key
                sample_keys.append(key)
                cases.append(case)
                if reports is None:
                    results.append(None)
                    errors.append(f"{case.label}: {type(error).__name__}: {error}")
                else:
                    results.append([oracles.summarize(r, quinsing.contact_exponent) for r in reports])
    finally:
        if tracer:
            tracer.uninstall()
    kernel_times.append(speed.time_kernel())
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # oracles, outside the timed region
    oracle_started = time.perf_counter()
    shear_rng = random.Random(f"shear:{args.seed}")
    problems, failed, points = [], len(errors), 0
    lookup_misses = []
    for case, res in zip(cases, results):
        if res is None:
            continue
        points += len(res)
        planted_problems, lookup_failed = oracles.check_planted(case, res)
        problems.extend(oracles.check_points(case, res, shear_rng) + planted_problems)
        if lookup_failed:
            failed += 1
            lookup_misses.append(case.label)
    oracle_s = time.perf_counter() - oracle_started

    factors = speed.local_factors(kernel_times)
    calibrated = [t * k for t, k in zip(times, factors)]
    per_curve = _sample_times(sample_keys, calibrated)
    wall_per_curve = _sample_times(sample_keys, times)
    digest = hashlib.sha256("\n".join(c.text for c in cases).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(cases)} curves in {rounds} rounds, "
          f"{n_samples} timing samples, {points} points; inputs sha256 {digest[:16]}")
    print(f"wall clock: {len(cases) / sum(times):.3f} curves/s, "
          f"p50 {1000 * _percentile(wall_per_curve, 0.5):.1f} ms, "
          f"p90 {1000 * _percentile(wall_per_curve, 0.9):.1f} ms, "
          f"set-up median {statistics.median(setup_raw):.3f} s of {' '.join(f'{t:.3f}' for t in setup_raw)}; "
          f"{sum(times):.2f} s classifying in {wall_s:.2f} s, oracles {oracle_s:.2f} s; "
          f"median speed factor {statistics.median(factors):.3f}")
    for line in errors:
        print(f"failed: {line}", file=sys.stderr)
    if lookup_misses:
        print(f"failed: no catalog row at the planted point of {sorted(set(lookup_misses))} "
              f"({len(lookup_misses)} curves)", file=sys.stderr)
    for line in problems:
        print(f"WRONG: {line}", file=sys.stderr)

    curves_per_s = len(cases) / sum(calibrated)
    if tracer:
        layer = tracer.metrics(factors, COUNT_CURVES)
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, value in layer.items()}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}.json", "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "curves": len(cases),
                "curves_per_s": curves_per_s, "wall_curves_per_s": len(cases) / sum(times),
                "per_layer": layer,
                "totals": tracer.totals(factors),
                "layer_shares": tracer.layer_shares(factors, sum(calibrated)),
                "stage_shares": tracer.stage_shares(factors, sum(calibrated)),
                "speed_factors": factors,
                "span_fields": ["name", "start", "end", "parent", "curve", "self_s"],
                "spans": tracer.spans,
            }, fh)
        print(f"traced: {curves_per_s:.3f} curves/s, {len(tracer.spans)} spans written to {out_dir}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "curves_per_s": {"value": curves_per_s, "unit": "1/s"},
            "curve_p50_ms": {"value": 1000.0 * _percentile(per_curve, 0.5), "unit": "ms"},
            "curve_p90_ms": {"value": 1000.0 * _percentile(per_curve, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cases),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
