"""Seeded end-to-end and per-layer benchmark of the exhom CLI.

    python3 perfbench/run.py --workload ss-zigzag --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports `exhom` from `src/`).
Workloads (inputs and known answers come from perfbench/gen.py):

  ss-zigzag  `ss --axis col --pages`, `ss --axis row --pages` and
             `oppose --n k` on staircase-zigzag double complexes; the
             `spectral` page engine and `qlinalg` subspace algebra.
  snf-dense  `snf` on uniform and planted integer matrices;
             `zlinalg.smith_normal_form`.
  chain-uct  `uct --mod p` on integer chain complexes, 3 of 4 with a small
             prime and 1 of 4 with a prime just above 1e11;
             `complexes.homology_int` and `zlinalg.is_prime`.

A request calls `exhom.cli.main(argv)` in this process with stdout captured,
on a document written before timing by a separate generator process, and is
checked against the answer known from the construction.  Closed loop, one
client.  Importing exhom.cli and building its parser is measured on its own
as `setup_s`, inside fresh interpreters with bytecode warm.

The host's speed drifts by tens of percent within seconds, so request and
set-up times are scaled by a benchmark-owned gauge kernel read next to them
(perfbench/gauge.py), and each request timing metric is the median over the
run's blocks, which hold one document of every size class each.  The report
prints the plain wall-clock values beside them.

--trace 0 runs requests for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed, seed-determined request list, alternating blocks
with every public function of the measured modules wrapped
(perfbench/spans.py) and blocks without, and reports per-layer self times,
shares, exact counts and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it are a readable report.  perfbench/selfcheck.py
checks the known answers against exhom on small inputs and the counts for
determinism; perfbench/spread.py measures the spread across seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402  (perfbench/gen.py)
from gauge import REF_SECONDS, gauge  # noqa: E402

WORK_DIR = ".perfbench"
REQUEST_CAP_S = 20.0      # a request running longer counts as failed
SETUP_REPEATS = 21
# A set-up time is scaled by (REF_SECONDS / gauge) ** SETUP_GAUGE_EXPONENT,
# the gauge read in the same interpreter: start-up slows less than the gauge
# when the host slows (log-log slope 0.72 over 574 starts on a 2-core x86
# sandbox), and across 24 rounds of 21 starts the median scaled time spread
# (IQR/median) 0.04 with exponent 0.8 against 0.08 with 1.0 and 0.24 unscaled.
SETUP_GAUGE_EXPONENT = 0.8
# Request times are reported as wall times scaled by REF_SECONDS over the
# median gauge() reading of the GAUGE_WINDOW requests around them, so drift
# of the host's speed cancels.
GAUGE_WINDOW = 9

# Groups (one document and its requests) per second on a 2-core x86 sandbox.
# Untraced runs generate GENERATE_MARGIN times what that pace needs, so a
# faster machine or program does not run out of fresh inputs (the margin is
# widest where generation is cheapest); traced runs take a fixed TRACE_SHARE
# of that pace so their counts depend only on seed and seconds.
GROUPS_PER_SECOND = {"ss-zigzag": 2.0, "snf-dense": 8.0, "chain-uct": 8.0}
GENERATE_MARGIN = {"ss-zigzag": 8.0, "snf-dense": 3.0, "chain-uct": 2.0}
TRACE_SHARE = 0.7
TRACE_DEADLINE = 4          # a traced run stops issuing requests after this
                            # many times --seconds, to end in bounded time
# Traced metrics printed in the report but left out of the JSON line: shares
# of the request time sum to 1, so no single share is better or worse, and
# these counts are fixed by the seed and the generator, not by the program.
REPORT_ONLY_SUFFIXES = (".share", ".incl_share")
REPORT_ONLY = ("trace.requests", "documents.input_bytes")


class RequestTimeout(BaseException):
    """Raised by the interval timer when a request exceeds REQUEST_CAP_S."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def generate(workload: str, seed: int, groups: int, out: str) -> dict:
    """Write inputs and the manifest in a child process, so the measuring
    process does no input generation."""
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--groups", str(groups), "--out", out], check=True)
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Run in a fresh interpreter: time the import of exhom.cli and the building
# of its parser, then read the gauge three times in the same process; prints
# "<seconds> <median gauge seconds>".  argv[1] is the perfbench directory.
SETUP_CHILD = """
import time
t0 = time.perf_counter()
import exhom.cli
exhom.cli.build_parser()
t = time.perf_counter() - t0
import statistics, sys
sys.path.append(sys.argv[1])
from gauge import gauge
print(t, statistics.median(gauge() for _ in range(3)))
"""


def measure_setup(repeats: int = SETUP_REPEATS) -> dict:
    """Set-up time over `repeats` fresh interpreters, after one start that
    warms the bytecode cache: `scaled`, the median of each interpreter's
    import-and-parser time scaled by its own gauge reading (set-up time
    tracks the gauge read in the same process, not one read in this process
    between starts); `wall`, the median unscaled time; `gauge`, the median
    reading.  Interpreter start itself is left out: it is not exhom's."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # -S skips the site-packages scan: exhom needs only the standard
    # library, and the scan's cost depends on what else is installed.
    cmd = [sys.executable, "-S", "-c", SETUP_CHILD, HERE]
    scaled, walls, gauges = [], [], []
    for i in range(repeats + 1):
        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True).stdout
        if i:
            wall, g = map(float, out.split())
            scaled.append(wall * (REF_SECONDS / g) ** SETUP_GAUGE_EXPONENT)
            walls.append(wall)
            gauges.append(g)
    return {k: statistics.median(v) for k, v in
            (("scaled", scaled), ("wall", walls), ("gauge", gauges))}


def local_speed(gauges, window: int = GAUGE_WINDOW):
    """Median gauge reading in a centred window around each request."""
    half = window // 2
    return [statistics.median(gauges[max(0, i - half):i + half + 1])
            for i in range(len(gauges))]


class Runner:
    """Issues requests through exhom.cli.main and keeps what they returned."""

    def __init__(self, cli):
        self.cli = cli
        signal.signal(signal.SIGALRM, _on_alarm)

    def call(self, argv):
        """(exit code or error text, stdout, seconds) of one request."""
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except RequestTimeout:
            code = f"over the {REQUEST_CAP_S:g} s cap"
        except Exception as e:  # a crash is a failed request, not a stop
            code = f"{type(e).__name__}: {e}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, out.getvalue(), elapsed


def verdict(request: dict, code, stdout: str) -> str | None:
    """None if the request succeeded, else why it failed."""
    if code != 0:
        return f"exit {code}"
    if "stdout" in request:
        return None if stdout == request["stdout"] else "wrong stdout"
    return gen.check_snf_line(stdout.strip(), request["snf"])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q) - 1)] if s else 0.0


def run_untraced(runner, requests, seconds):
    """Closed loop over `requests` until `seconds` elapse, reading the gauge
    before each request; returns the records (request, code, stdout,
    seconds), the gauge readings and the phase length."""
    records, gauges = [], []
    t_start = time.perf_counter()
    for req in requests:
        gauges.append(gauge())
        records.append((req, *runner.call(req["argv"])))
        if time.perf_counter() - t_start >= seconds:
            break
    return records, gauges, time.perf_counter() - t_start


def block_stats(records, scales, block: int):
    """Per whole block of the run: (verified requests per second, median
    latency, p90 latency), each request's time multiplied by its scale.
    Every block holds one document of each size class, so blocks are
    replicas of one another; a run that ends inside a block drops that
    block unless no block is whole."""
    blocks: dict = {}
    for (req, code, out, dt), scale in zip(records, scales):
        blocks.setdefault(req["group"] // block, []).append(
            (req, code, out, dt * scale))
    last = records[-1][0]["group"] // block
    whole = [recs for b, recs in sorted(blocks.items())
             if b < last or len(blocks) == 1
             or (b == last and records[-1][0]["group"] % block == block - 1)]
    out = []
    for recs in whole:
        lat = [dt for *_, dt in recs]
        ok = sum(1 for r, code, out_, _ in recs if not verdict(r, code, out_))
        out.append((ok / sum(lat), statistics.median(lat),
                    percentile(lat, 0.9)))
    return out


def end_to_end(args, manifest, runner, setup):
    records, gauges, phase = run_untraced(runner, manifest["requests"],
                                          args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [(r, why) for r, code, out, _ in records
                if (why := verdict(r, code, out))]
    attempted = len(records)
    lat = [dt for *_, dt in records]
    # The host's speed drifts by tens of percent within seconds and between
    # runs, so each request's time is scaled to REF_SECONDS of gauge work
    # around it, each timing is taken per block, and the run reports the
    # median over blocks.
    scales = [REF_SECONDS / g for g in local_speed(gauges)]
    blocks = block_stats(records, scales, gen.block_size(args.workload))
    blocks_wall = block_stats(records, [1.0] * attempted,
                              gen.block_size(args.workload))
    metrics = {
        "throughput_rps": (statistics.median(b[0] for b in blocks), "1/s"),
        "latency_p50_s": (statistics.median(b[1] for b in blocks), "s"),
        "latency_p90_s": (statistics.median(b[2] for b in blocks), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup["scaled"], "s"),
    }
    wall = {"throughput_rps": statistics.median(b[0] for b in blocks_wall),
            "latency_p50_s": statistics.median(b[1] for b in blocks_wall),
            "latency_p90_s": statistics.median(b[2] for b in blocks_wall),
            "setup_s": setup["wall"]}
    whole_run = {"throughput_rps": (attempted - len(failures)) / phase,
                 "latency_p50_s": statistics.median(lat),
                 "latency_p90_s": percentile(lat, 0.9)}
    n_beyond = sum(1 for x in lat if x > whole_run["latency_p90_s"])
    lines = [f"workload {args.workload} seed {args.seed} trace 0 "
             f"inputs sha256 {manifest['input_sha256'][:16]}",
             f"timed phase {phase:.2f} s, {attempted} requests in "
             f"{len(blocks)} whole blocks ({len(manifest['requests'])} "
             "requests generated)",
             f"{'metric':16s} {'reported':>12s} {'wall clock':>12s} "
             f"{'whole run':>12s}  unit"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:16s} {value:12.6g} {wall.get(name, value):12.6g} "
                     f"{whole_run.get(name, wall.get(name, value)):12.6g}  "
                     f"{unit}")
    lines.append(f"{'fail_rate':16s} {len(failures) / attempted:12.6g} "
                 f"{'':25s}  failed/attempted ({len(failures)}/{attempted})")
    lines.append(f"samples: {attempted} latencies, {n_beyond} beyond the "
                 f"whole-run p90, {len(blocks)} blocks; setup_s is the median "
                 f"of {SETUP_REPEATS} fresh interpreters")
    by_kind = {}
    for r, code, out, dt in records:
        by_kind.setdefault(r["kind"], []).append(dt)
    for kind, xs in sorted(by_kind.items()):
        lines.append(f"  {kind:12s} n={len(xs):4d} p50 "
                     f"{statistics.median(xs):.4f} s  max {max(xs):.4f} s "
                     "wall clock")
    med = statistics.median(gauges)
    q1, _, q3 = (statistics.quantiles(gauges, n=4) if len(gauges) > 1
                 else (med, med, med))
    lines.append(f"drift: gauge median {med * 1e3:.3f} ms (IQR/median "
                 f"{(q3 - q1) / med:.3f}, min {min(gauges) * 1e3:.3f} ms, max "
                 f"{max(gauges) * 1e3:.3f} ms) during requests, "
                 f"{setup['gauge'] * 1e3:.3f} ms in set-up interpreters; "
                 f"reported times are scaled to a {REF_SECONDS * 1e3:g} ms gauge")
    if len(blocks_wall) >= 2:
        per = [1 / b[0] for b in blocks_wall]
        q1, med, q3 = statistics.quantiles(per, n=4)
        lines.append(f"drift: wall seconds per request over blocks of "
                     f"identical size mix, IQR/median {(q3 - q1) / med:.3f} "
                     f"(min {min(per):.4f} s, max {max(per):.4f} s)")
    if phase < args.seconds:
        warning = (f"WARNING: the {len(manifest['requests'])} generated "
                   f"requests ran out after {phase:.2f} s of the "
                   f"{args.seconds} s asked for; raise GENERATE_MARGIN "
                   f"for {args.workload} in perfbench/run.py")
        lines.append(warning)
        print(f"perfbench: {warning}", file=sys.stderr)
    for r, why in failures[:10]:
        lines.append(f"FAILED {' '.join(r['argv'])}: {why}")
    print("\n".join(lines))
    return attempted, len(failures), metrics


def traced(args, manifest, runner):
    from spans import COUNTS, COUNTED_LAYERS, TIMED_LAYERS, Tracer

    # Even blocks run traced and odd blocks untraced: both halves hold the
    # same sizes, so their time ratio is the tracing overhead, and the
    # traced requests (hence every count) depend only on seed and seconds.
    block = gen.block_size(args.workload)
    tracer = Tracer()
    results, plain = [], []
    deadline = time.perf_counter() + TRACE_DEADLINE * args.seconds
    for req in manifest["requests"]:
        if time.perf_counter() > deadline:
            print(f"trace cut after {TRACE_DEADLINE} x --seconds: the "
                  "counts of this run are not comparable")
            break
        if (req["group"] // block) % 2:
            plain.append((req, *runner.call(req["argv"])))
            continue
        tracer.begin(len(results))
        tracer.install()
        try:
            code, stdout, dt = runner.call(req["argv"])
        finally:
            tracer.uninstall()
        tracer.end()
        results.append((req, code, stdout, dt))
    requests = [r for r, *_ in results]

    failures = [(r, why) for r, code, out, _ in results
                if (why := verdict(r, code, out))]
    failures += [(r, why) for r, code, out, _ in plain
                 if (why := verdict(r, code, out))]
    summary = tracer.summary()
    selfs, total = summary["self"], summary["root"]
    calls = tracer.calls()
    traced_s = sum(dt for *_, dt in results)
    plain_s = sum(dt for *_, dt in plain)
    attempted = len(results) + len(plain)
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        metrics[f"{layer}.share"] = (selfs.get(layer, 0.0) / total, "ratio")
        metrics[f"{layer}.incl_share"] = (
            summary["incl"].get(layer, 0.0) / total, "ratio")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    pages = tracer.counts.get("spectral.page_cells", 0)
    metrics["spectral.nonzero_cell_ratio"] = (
        tracer.counts.get("spectral.nonzero_cells", 0) / pages if pages
        else 0.0, "ratio")
    metrics["trace.request_s"] = (total, "s")
    metrics["trace.requests"] = (len(requests), "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_ratio"] = (
        (traced_s / len(results)) / (plain_s / len(plain)) if plain else 0.0,
        "ratio")

    kinds = {rid: r["kind"] for rid, r in enumerate(requests)}
    out_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-trace")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans.jsonl"), kinds)
    with open(os.path.join(out_dir, "counts.json"), "w") as fh:
        json.dump({"input_sha256": manifest["input_sha256"],
                   "counts": {k: v for k, (v, u) in metrics.items()
                              if u == "count"}}, fh, indent=1, sort_keys=True)

    lines = [f"workload {args.workload} seed {args.seed} trace 1 "
             f"inputs sha256 {manifest['input_sha256'][:16]}",
             f"{len(results)} requests traced ({traced_s:.2f} s) and "
             f"{len(plain)} untraced ({plain_s:.2f} s); {len(tracer.spans)} spans "
             f"in {out_dir}/spans.jsonl",
             f"self times sum to {sum(selfs.values()):.6f} s of "
             f"{total:.6f} s request time"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34s} {value:12.6g} {unit}")
    for kind in sorted(set(kinds.values())):
        ids = {rid for rid, k in kinds.items() if k == kind}
        ks = tracer.summary(ids)
        lines.append(f"  {kind} (n={len(ids)}), self time by call path:")
        for path, v in sorted(ks["by_path"].items(), key=lambda kv: -kv[1])[:4]:
            lines.append(f"    {v / ks['root']:6.1%}  {' > '.join(path)}")
    for r, why in failures[:10]:
        lines.append(f"FAILED {' '.join(r['argv'])}: {why}")
    print("\n".join(lines))
    return attempted, len(failures), {
        k: v for k, v in metrics.items()
        if k not in REPORT_ONLY and not k.endswith(REPORT_ONLY_SUFFIXES)}


def trace_groups(workload: str, seconds: int) -> int:
    """Groups of a traced run: an even number of whole blocks, about
    TRACE_SHARE of what an untraced run of `seconds` gets through."""
    block = gen.block_size(workload)
    pairs = round(GROUPS_PER_SECOND[workload] * seconds * TRACE_SHARE
                  / (2 * block))
    return 2 * block * max(1, pairs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="exhom benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "exhom", "cli.py")):
        return fail("run from the root of an exhom checkout "
                    "(src/exhom/cli.py not found)")

    if args.trace:
        groups = trace_groups(args.workload, args.seconds)
    else:
        groups = int(GROUPS_PER_SECOND[args.workload] * args.seconds
                     * GENERATE_MARGIN[args.workload]) + 1
    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    manifest = generate(args.workload, args.seed, groups, work)

    sys.path.insert(0, os.path.abspath("src"))
    from exhom import cli
    runner = Runner(cli)
    for req in manifest["warmup"]:
        runner.call(req["argv"])

    if args.trace:
        attempted, failed, metrics = traced(args, manifest, runner)
    else:
        attempted, failed, metrics = end_to_end(args, manifest, runner,
                                                measure_setup())
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
