#!/usr/bin/env python3
"""calclab benchmark: one seeded workload, one closed-loop client, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload numerics --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md): cli-oneshot, numerics, sampling-enum.
The run sets up (fresh-interpreter import, seeded inputs, reproducibility
checks, warm-up) five times and reports the median as setup_s.  It then
runs a fixed number of whole rounds of the workload's mix, one case after
another, checking each result: as many rounds as take --seconds on the
reference host (Workload.round_s), and at least 100 cases.  The amount of
work, and so `attempted` and `failed`, therefore depends only on the seed
and --seconds, not on how fast the host is.  Times in the end-to-end
metrics are scaled to the reference speed (see speed.py).

It prints a readable report and, as its last line, one JSON object with
correct/attempted/failed and the metrics named in BENCHMARK.json: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1.  Spans
and a full result record are written under .bench_work/.
"""

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import io
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_CASES = 100  # so that at least 10 cases lie above latency_p90_ms
MAX_TIMED_S = 120.0  # stop early on a very slow host: the whole run must end within 180 s
STARTUP_PROBES = 5


def cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class CaseTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CaseTimeout()


def child_env() -> dict:
    """Environment of child interpreters: calclab from SRC, csv output, and a
    bytecode cache under WORK (filled during set-up) as an installed package has."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CALCLAB_FORMAT", None)
    return env


def fresh_python_s(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((SRC / "calclab").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "clients": 1,
        "loadavg_start": list(os.getloadavg()),
    }


def setup(wl, seed: int, rounds: int, cases, env: dict, speed):
    """Set up SETUP_REPEATS times; return the median seconds (raw and at the
    reference speed), the deck, its digest and the problems found."""
    raw, scaled, digests, problems = [], [], [], []
    deck = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_python_s("import " + ", ".join(f"calclab.{m}" for m in wl.modules), env)
        deck = wl.build(seed, rounds)
        digests.append(cases.digest(deck))
        cases.write_inputs(deck, WORK / "inputs" / f"{wl.name}-seed{seed}")
        if wl.sampled:
            problems += [f"{name} differs between two calls with one RandomSource" for name in cases.check_sampled_reproducible(seed)]
        cases.warm_up(wl.name)
        end = time.perf_counter()
        speed.sample()
        raw.append(end - start)
        scaled.append((end - start) * speed.factor(start, end))
    if len(set(digests)) != 1:
        problems.append("the same seed gave different inputs")
    return statistics.median(raw), statistics.median(scaled), deck, digests[0], sorted(set(problems))


def run_case(kind, params, ctx, cases, in_process: bool):
    """Run one case; return None, or (label or None, detail, missed deadline) when it failed."""
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, kind.deadline)
        try:
            kind.run(params, ctx)
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except cases.KnownDefect as exc:
        return exc.label, str(exc), False
    except (CaseTimeout, subprocess.TimeoutExpired):
        return kind.deadline_defect, f"missed the {kind.deadline:g} s deadline", True
    except cases.CheckFailed as exc:
        return None, str(exc), False
    except Exception as exc:  # any other exception is a failed case; the run goes on
        return None, f"{type(exc).__name__}: {exc}", False
    return None


def timed_phase(wl, deck, ctx, cases, speed):
    """Run every case of the deck once, in order.

    Returns per case (start, end, CPU seconds, missed its deadline), the
    failures, the wall and CPU seconds of the whole phase, and the peak
    resident set.
    """
    in_process = wl.name != "cli-oneshot"
    spans, failures = [], []
    before, t0 = os.times(), time.perf_counter()
    for i, (name, params) in enumerate(deck):
        if time.perf_counter() - t0 >= MAX_TIMED_S:
            break
        kind = wl.kinds[name]
        ctx.tr.case = i
        ctx.deadline = kind.deadline
        cpu0 = cpu_s()
        start = time.perf_counter()
        with ctx.tr.span("case." + name):
            outcome = run_case(kind, params, ctx, cases, in_process)
        spans.append((start, time.perf_counter(), cpu_s() - cpu0, outcome is not None and outcome[2]))
        if outcome is not None:
            failures.append({"case": i, "kind": name, "module": kind.module, "defect": outcome[0], "detail": outcome[1][:300]})
        speed.maybe_sample()
    speed.sample()
    wall = time.perf_counter() - t0
    after = os.times()
    cpu = sum(after[:4]) - sum(before[:4])
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return spans, failures, wall, cpu, peak_rss_mb


def startup_probes(env: dict) -> dict:
    """Medians of fresh interpreters: bare, importing numpy, importing calclab.cli."""
    codes = {"python": "pass", "numpy": "import numpy", "cli": "import calclab.cli"}
    samples = {k: [] for k in codes}
    for _ in range(STARTUP_PROBES):
        for k, code in codes.items():
            samples[k].append(fresh_python_s(code, env))
    med = {k: statistics.median(v) * 1000.0 for k, v in samples.items()}
    return {
        "startup.python_ms": med["python"],
        "startup.numpy_ms": med["numpy"] - med["python"],
        "cli.import_ms": med["cli"] - med["numpy"],
    }


def cli_replays(argvs: list) -> tuple[list, list, int, int]:
    """Run each process case's argv in-process: cli.run and cli.emit seconds, rows, bytes."""
    from calclab import cli

    run_s, emit_s, rows, size = [], [], 0, 0
    for argv in argvs:
        start = time.perf_counter()
        try:
            table = cli.run(argv)
        except Exception:  # the process case already recorded this failure
            run_s.append(time.perf_counter() - start)
            emit_s.append(0.0)
            continue
        mid = time.perf_counter()
        sink = io.StringIO()
        cli.emit(table, "csv", sink)
        run_s.append(mid - start)
        emit_s.append(time.perf_counter() - mid)
        rows += len(table.rows)
        size += len(sink.getvalue())
    return run_s, emit_s, rows, size


def per_layer(wl, tracer, ctx, wall, latencies, failures, env, tracing) -> dict:
    failed_by_module = Counter(f["module"] for f in failures)
    out = tracer.module_table(wall, failed_by_module)
    out.update(startup_probes(env))
    c = ctx.counters
    emits = tracer.durations("cli.emit")
    if wl.name == "cli-oneshot":
        process_s = tracer.durations("cli.process")
        run_s, emit_s, rows, size = cli_replays(ctx.processes)
        n = max(1, len(run_s))
        out["cli.startup_share"] = 1.0 - (sum(run_s) + sum(emit_s)) / sum(process_s)
        out["cli.run_ms"] = 1000.0 * sum(run_s) / n
        out["cli.emit_ms"] = 1000.0 * sum(emit_s) / n
        out["cli.emit_rows"] = rows / n
        out["cli.emit_bytes"] = size / n
    else:
        n = max(1, len(emits))
        out["cli.startup_share"] = 0.0
        out["cli.run_ms"] = 1000.0 * sum(tracer.durations("cli.run")) / n
        out["cli.emit_ms"] = 1000.0 * sum(emits) / n
        out["cli.emit_rows"] = c.get("cli.emit_rows", 0) / n
        out["cli.emit_bytes"] = c.get("cli.emit_bytes", 0) / n
    last = c.get("dynamics.lattice_steps_last", 0)
    out["dynamics.lattice_step_ratio"] = c.get("dynamics.lattice_steps_total", 0) / last if last else 0.0
    out["linalg.symmetric_eigen.n48_ms"] = tracer.median_ms("linalg.symmetric_eigen", "n48")
    out["linalg.symmetric_eigen.resid_max"] = c.get("linalg.symmetric_eigen.resid_max", 0.0)
    out["linalg.all_roots.p50_ms"] = tracer.median_ms("linalg.all_roots")
    out["prob.moments.p50_ms"] = tracer.median_ms("prob.moments")
    out["prob.moments.density_evals"] = c.get("prob.moments.density_evals", 0)
    for name in ("divergence_check", "green_check", "stokes_check"):
        out[f"dynamics.{name}.p50_ms"] = tracer.median_ms(f"dynamics.{name}")
    out["dynamics.kepler_integrate.steps"] = c.get("dynamics.kepler_integrate.steps", 0)
    out["hydrogen.radial_wavefunction.p50_ms"] = tracer.median_ms("hydrogen.radial_wavefunction")
    law_s = sum(tracer.durations("prob.sn_fixed_point_law"))
    out["prob.sn_fixed_point_law.p50_ms"] = tracer.median_ms("prob.sn_fixed_point_law")
    out["prob.sn_fixed_point_law.samples_per_s"] = c.get("prob.sn_fixed_point_law.samples", 0) / law_s if law_s else 0.0
    out["quad.sphere_moment_mc.p50_ms"] = tracer.median_ms("quad.sphere_moment_mc")
    out["prob.complex_gaussian_moment.p7_ms"] = tracer.median_ms("prob.complex_gaussian_moment", "p7")
    enumerated = c.get("combinat.pairings_enumerated", 0)
    out["combinat.matching_yield"] = c.get("combinat.pairings_useful", 0) / enumerated if enumerated else 0.0
    cost = tracing.span_cost_s()
    out["trace.cases_per_s"] = len(latencies) / sum(latencies)
    out["trace.span_cost_us"] = cost * 1e6
    out["trace.overhead_share"] = len(tracer.spans) * cost / wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["cli-oneshot", "numerics", "sampling-enum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "calclab" / "__init__.py").is_file():
        print(f"bench: no calclab sources under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True  # keep bench/ free of build output
    sys.path.insert(0, str(SRC))
    import calclab

    if Path(calclab.__file__).resolve().parent != SRC / "calclab":
        print(f"bench: imported calclab from {calclab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import cases
    import tracing
    import speed as spd

    env = child_env()
    record = {"environment": environment(args)}
    signal.signal(signal.SIGALRM, _alarm)
    wl = cases.WORKLOADS[args.workload]
    rounds = max(math.ceil(MIN_CASES / wl.round_size), round(args.seconds / wl.round_s))
    setup_raw_s, setup_s, deck, deck_digest, problems = setup(
        wl, args.seed, rounds, cases, env, spd.Speed(spd.process_probe(env, ROOT), spd.PROCESS_REFERENCE_S)
    )
    if wl.name == "cli-oneshot":  # about one probe every eight cases
        speed = spd.Speed(spd.process_probe(env, ROOT), spd.PROCESS_REFERENCE_S, every_s=2.0)
    else:
        speed = spd.Speed(spd.compute_probe_s, spd.COMPUTE_REFERENCE_S)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    ctx = cases.Ctx(tr=tracer, root=ROOT, env=env)
    spans, failures, wall, cpu, peak_rss_mb = timed_phase(wl, deck, ctx, cases, speed)
    attempted = len(spans)
    # A case cut off at its deadline took the deadline whatever the host's
    # speed, so its time is not scaled.
    factors = [1.0 if late else speed.factor(start, end) for start, end, _, late in spans]
    latencies = [(end - start) * f for (start, end, _, _), f in zip(spans, factors)]
    cpus = [c * f for (_, _, c, _), f in zip(spans, factors)]
    raw_latencies = [end - start for start, end, _, _ in spans]

    end_to_end = {
        "setup_s": setup_s,
        "cases_per_s": attempted / sum(latencies),
        "latency_p50_ms": 1000.0 * float(np.percentile(latencies, 50)),
        "latency_p90_ms": 1000.0 * float(np.percentile(latencies, 90)),
        "cpu_ms_per_case": 1000.0 * sum(cpus) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "setup_s": setup_raw_s,
        "cases_per_s": attempted / wall,
        "latency_p50_ms": 1000.0 * float(np.percentile(raw_latencies, 50)),
        "latency_p90_ms": 1000.0 * float(np.percentile(raw_latencies, 90)),
        "cpu_ms_per_case": 1000.0 * cpu / attempted,
        "speed_factor_median": speed.reference_s / statistics.median(speed.times),
        "probe_ms_median": 1000.0 * statistics.median(speed.times),
        "reference_probe_ms": 1000.0 * speed.reference_s,
    }
    known = Counter(f["defect"] for f in failures if f["defect"])
    unexpected = [f for f in failures if not f["defect"]]
    layer = {}
    if args.trace:
        layer = per_layer(wl, tracer, ctx, wall, latencies, failures, env, tracing)
        layer["run.fail_ratio"] = len(failures) / attempted
        layer["run.known_defect_failed"] = sum(known.values())
        layer["run.unexpected_failed"] = len(unexpected)
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
    record["environment"]["loadavg_end"] = list(os.getloadavg())

    section = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    correct = not unexpected and not problems and attempted >= 1
    record.update(
        correct=correct,
        attempted=attempted,
        failed=len(failures),
        deck_sha256=deck_digest,
        timed_wall_s=wall,
        end_to_end=end_to_end,
        raw_times=raw,
        rounds=rounds,
        scaled_case_times=[[name, t, c] for (name, _), t, c in zip(deck, latencies, cpus)],
        raw_case_spans=[[start - speed.ends[0], end - speed.ends[0], c, late] for start, end, c, late in spans],
        probes=[[e - speed.ends[0], t] for e, t in zip(speed.ends, speed.times)],
        per_layer=layer,
        known_defects={k: {"failed": v, "what": cases.KNOWN_DEFECTS[k]} for k, v in known.items()},
        failures=failures,
        setup_problems=problems,
    )
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    env_rec = record["environment"]
    print(f"# calclab bench  workload={args.workload} seed={args.seed} trace={args.trace}")
    print("# env " + json.dumps(env_rec))
    print(f"# deck sha256 {deck_digest}  rounds {rounds}  timed wall {wall:.2f} s")
    print("# unscaled " + json.dumps({k: round(v, 6) for k, v in raw.items()}))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_ratio':42s} {len(failures) / attempted:14.6g} 1  ({len(failures)} of {attempted} cases failed)")
    for label, count in sorted(known.items()):
        print(f"#   known defect {label}: {count} cases -- {cases.KNOWN_DEFECTS[label]}")
    for f in unexpected[:10]:
        print(f"#   UNEXPECTED case {f['case']} {f['kind']}: {f['detail']}")
    for p in problems:
        print(f"#   SETUP PROBLEM: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
