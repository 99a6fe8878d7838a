#!/usr/bin/env python3
"""The repository's benchmark: three pinned workloads, layered metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corun-mixed-smiless --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` repeats the workload in fresh processes while another
repeat fits in ``--seconds`` (at least three times) and reports the
median of every end-to-end metric.  Host times of the simulation loop
are rescaled to a reference host speed by the calibration units of
``speed.py``.  ``--trace 1`` runs one untraced reference plus traced
runs and reports the per-layer table.  Every run checks the program's
outputs; a repeat that fails a check counts as a failed run.  The last
line of standard output is the JSON result; the lines before it print
every metric by name and unit, the provenance and each check.

See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from speed import factor, rescale  # noqa: E402
from workloads import WORKLOADS, Workload, scenario_json  # noqa: E402

#: Distinct inputs per run, each from its own seed (``input_seed``).
INPUTS_PER_RUN = 3
#: One more than the inputs, so that one input always runs twice.
MIN_REPEATS = INPUTS_PER_RUN + 1
MAX_REPEATS = 12
#: A child process that runs longer than this is killed (failed run).
CHILD_TIMEOUT_S = 150.0
#: Serve: requests between two calibration units of the client.
SERVE_TICK_EVERY = 100

#: Metric names, units and directions: BENCHMARK.json is the one source.
SPEC_PATH = ROOT / "BENCHMARK.json"


def spec_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: End-to-end metrics of the modelled system: the same for every repeat
#: of one input, so their median is taken over the distinct inputs.
SIMULATED = (
    "completion_ratio", "goodput_ratio", "cost_usd_per_1k",
    "worst_app_p50_s", "worst_app_p99_s",
)

#: Latency percentiles taken over the samples of every repeat pooled,
#: which holds a run's tail better than a median of per-repeat tails.
POOLED = {"host_latency_p50_ms": 50, "host_latency_p99_ms": 99}

#: Work counts that must repeat exactly across runs of one seed.
WORK_COUNTS = (
    "events.fired",
    "events.scheduled",
    "events.cancelled",
    "gateway.handler_calls",
    "pools.calls",
    "pools.transitions",
    "cluster.alloc_attempts",
    "oracle.calls",
    "policy.on_window_calls",
    "policy.on_arrival_calls",
    "core.optimize_calls",
    "predictor.predict_calls",
    "predictor.forward_calls",
    "metrics.record_calls",
    "telemetry.emits",
)


class CheckFailed(Exception):
    """A correctness check failed; the repeat counts as a failed run."""


# ---------------------------------------------------------------- helpers
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def pin_one_cpu() -> dict:
    """Popen keywords that keep a process on the lowest usable CPU.

    Every measured process, and the serve workload's client, runs on one
    CPU, so the calibration units time the same CPU as the work (the
    CPUs of a shared host change speed independently) and the scheduler
    cannot move the work between them.
    """
    cpu = min(os.sched_getaffinity(0))
    return {"preexec_fn": lambda: os.sched_setaffinity(0, {cpu})}


def provenance() -> dict:
    """Commit (when the checkout is a git repository) and host facts."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


#: Every process this run started, so an interrupted run can stop them.
CHILDREN: list[subprocess.Popen] = []


def start(cmd: list[str], **popen) -> subprocess.Popen:
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), **popen)
    CHILDREN.append(proc)
    return proc


def stop_children() -> None:
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def spawn_child(args: list[str], out: Path, **popen) -> tuple[subprocess.Popen, float]:
    spawned_at = time.perf_counter()
    proc = start(
        [sys.executable, str(HERE / "child.py"), *args,
         "--spawned-at", repr(spawned_at), "--out", str(out)],
        **pin_one_cpu(), **popen,
    )
    return proc, spawned_at


def wait_ok(proc: subprocess.Popen, what: str) -> None:
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise CheckFailed(f"{what} exceeded {CHILD_TIMEOUT_S:.0f} s")
    if rc != 0:
        raise CheckFailed(f"{what} exited with code {rc}")


# ---------------------------------------------------------------- outcomes
def outcome(summaries: dict, counters: dict) -> dict:
    """Pooled simulated outcome over every app of one run."""
    total = {
        app: sum(c[k] for k in ("completed", "unfinished", "timed_out",
                                "shed", "rejected"))
        for app, c in counters.items()
    }
    n = sum(total.values())
    if n == 0:
        raise CheckFailed("no arrivals")
    violations = sum(summaries[a]["violation_ratio"] * total[a] for a in total)
    within = sum(summaries[a]["goodput"] * total[a] for a in total)
    cost = sum(summaries[a]["total_cost"] for a in total)
    completed = sum(c["completed"] for c in counters.values())
    worst50 = max(summaries.items(), key=lambda kv: kv[1]["p50_latency"])
    worst99 = max(summaries.items(), key=lambda kv: kv[1]["p99_latency"])
    return {
        "sla_violation_ratio": violations / n,
        "goodput_ratio": within / n,
        "cost_usd_per_1k": cost / n * 1000.0,
        "worst_app_p50_s": worst50[1]["p50_latency"],
        "worst_app_p99_s": worst99[1]["p99_latency"],
        "completion_ratio": completed / n,
        "worst_app_p50": worst50[0],
        "worst_app_p99": worst99[0],
        "samples_per_app": {a: counters[a]["completed"] for a in counters},
    }


def read_result(path: Path) -> dict:
    """A child's JSON result file."""
    return json.loads(path.read_text())


def check_conservation(arrivals: dict, counters: dict) -> None:
    """arrivals + injected == completed + unfinished + timed_out + shed + rejected."""
    for app, c in counters.items():
        left = arrivals[app] + c["injected_arrivals"]
        right = (c["completed"] + c["unfinished"] + c["timed_out"]
                 + c["shed"] + c["rejected"])
        if left != right:
            raise CheckFailed(
                f"conservation broken for {app}: arrivals {arrivals[app]} + "
                f"injected {c['injected_arrivals']} != accounted {right}"
            )


def check_stable(samples: list[int]) -> None:
    """Reject a backlog that grows across the last half of the horizon.

    A quarter sample is one snapshot of open invocations, which swings by
    tens with the load's drift and batching, so growth must be sustained
    (both last quarters up) and large: more than double the first half's
    level plus 50.
    """
    if len(samples) != 4:
        raise CheckFailed(f"expected 4 quarter samples, got {samples}")
    q1, q2, q3, q4 = samples
    if q2 < q3 < q4 and q4 > 2 * max(q1, q2) + 50:
        raise CheckFailed(
            f"open invocations grow across the last half {samples}: the "
            "workload is unstable"
        )


# ---------------------------------------------------------------- one repeat
def run_corun(work: Workload, seed: int, tmp: Path, tag: str, *,
              traced: bool = False, stepping: str = "second") -> dict:
    out = tmp / f"{tag}.json"
    args = ["corun", "--workload", work.to_json(), "--seed", str(seed),
            "--stepping", stepping]
    if traced:
        args.append("--traced")
    proc, spawned_at = spawn_child(args, out)
    wait_ok(proc, f"{tag} child")
    r = read_result(out)
    r["spawned_at"] = spawned_at
    check_conservation(r["arrivals"], r["counters"])
    if r["emits"] != 0:
        raise CheckFailed(f"{r['emits']} telemetry emits on an untraced workload")
    if stepping != "none":
        check_stable(r["open_samples"])
    o = outcome(r["summaries"], r["counters"])
    r["outcome"] = o
    # What must repeat exactly for one seed.
    r["fingerprint"] = json.dumps(
        [r["summaries"], r["counters"], r["events"]], sort_keys=True
    )
    if stepping == "none":
        return r  # a reference for the checks: run_cell times no steps
    completed = sum(c["completed"] for c in r["counters"].values())
    f_loop = factor(r["speed"]["units"])
    setup_s = r["loop_start"] - spawned_at
    loop_raw = r["loop_end"] - r["loop_start"] - r["speed"]["paused"]
    tail_raw = r["reported_at"] - r["loop_end"]
    steps = rescale(r["step_ms"], r["speed"])
    # Steps rescaled one by one; the drain and finalization tail, which
    # has no units of its own, by the whole loop's units.
    loop_ref = (sum(steps) / 1e3
                + (loop_raw - sum(r["step_ms"]) / 1e3 + tail_raw) * f_loop)
    r["raw"] = {"loop_s": loop_raw, "wall_s": setup_s + loop_raw + tail_raw,
                "loop_factor": f_loop}
    r["latency_ms"] = steps
    r["metrics"] = {
        "setup_s": setup_s,
        "wall_s": setup_s + loop_ref,
        "sim_events_per_s": r["events"] / loop_ref,
        "peak_rss_mb": r["peak_rss_mb"],
        **{k: o[k] for k in ("completion_ratio", "goodput_ratio",
                             "cost_usd_per_1k", "worst_app_p50_s",
                             "worst_app_p99_s")},
        "served_per_s": completed / loop_ref,
        "host_latency_p50_ms": percentile(steps, 50),
        "host_latency_p99_ms": percentile(steps, 99),
    }
    return r


def run_serve(work: Workload, seed: int, tmp: Path, tag: str, *,
              traced: bool = False) -> dict:
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(scenario_json(work, seed)))
    log = tmp / f"{tag}.log.jsonl"
    out = tmp / f"{tag}.json"
    args = ["serve", "--workload", work.to_json(), "--seed", str(seed),
            "--scenario", str(scenario), "--log", str(log)]
    if traced:
        args.append("--traced")
    proc, spawned_at = spawn_child(
        args, out, stdout=subprocess.PIPE, text=True
    )
    client = None
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        banner = proc.stdout.readline() if ready else ""
        accepting_at = time.perf_counter()
        if "http://" not in banner:
            raise CheckFailed(f"server did not start: {banner!r}")
        port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client_out = tmp / f"{tag}.client.json"
        client = start(
            [sys.executable, str(HERE / "client.py"), "--port", str(port),
             "--apps", *(pin.app for pin in work.apps),
             "--requests", str(work.requests), "--clients", str(work.clients),
             "--seed", str(seed), "--tick-every", str(SERVE_TICK_EVERY),
             "--out", str(client_out)],
            **pin_one_cpu(),
        )
        wait_ok(client, f"{tag} client")
        try:
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"{tag} server did not finish") from None
        if proc.returncode != 0:
            raise CheckFailed(f"{tag} server exited with code {proc.returncode}")
    finally:
        for p in (client, proc):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
        proc.stdout.close()
    r = read_result(out)
    r["spawned_at"] = spawned_at
    c = json.loads(client_out.read_text())
    if c["errors"]:
        raise CheckFailed(f"client transport errors: {c['errors'][:3]}")
    if r["emits"] != 0:
        raise CheckFailed(f"{r['emits']} telemetry emits on an untraced workload")
    records = [json.loads(line) for line in log.read_text().splitlines()]
    footer = records[-1]
    if footer.get("kind") != "summary":
        raise CheckFailed("request log has no summary footer")
    logged = {pin.app: 0 for pin in work.apps}
    for rec in records:
        if rec.get("kind") == "request":
            logged[rec["app"]] += 1
    check_conservation(logged, footer["counters"])
    if sum(logged.values()) != c["sent"]:
        raise CheckFailed(
            f"client sent {c['sent']} requests, log holds {sum(logged.values())}"
        )
    _, diffs = verify_replay(log)
    if diffs:
        raise CheckFailed(f"replay parity failed: {diffs[:3]}")
    ok = c["statuses"].get("200:completed", 0)
    o = outcome(footer["metrics"], footer["counters"])
    # The client's calibration units run while the server idles in its
    # loop, so they time the loop's CPU and leave the loop window.
    f_loop = factor(c["speed"]["units"])
    paused = c["speed"]["paused"]
    setup_s = accepting_at - spawned_at
    loop_raw = r["loop_end"] - r["loop_start"] - paused
    after_raw = r["reported_at"] - accepting_at - paused
    session_raw = c["last_reply"] - c["first_send"] - paused
    lat_raw = c["latencies_ms"]
    lat = rescale(lat_raw, c["speed"])
    # Requests rescaled one by one; the rest of a span (client gaps,
    # drain, finalization) by the whole session's units.

    def ref(span: float) -> float:
        return (span - sum(lat_raw) / 1e3) * f_loop + sum(lat) / 1e3

    r["raw"] = {"loop_s": loop_raw, "wall_s": setup_s + after_raw,
                "loop_factor": f_loop}
    r["latency_ms"] = lat
    r["metrics"] = {
        "setup_s": setup_s,
        "wall_s": setup_s + ref(after_raw),
        "sim_events_per_s": r["events"] / ref(loop_raw),
        "peak_rss_mb": r["peak_rss_mb"],
        "completion_ratio": ok / c["sent"],
        **{k: o[k] for k in ("goodput_ratio", "cost_usd_per_1k",
                             "worst_app_p50_s", "worst_app_p99_s")},
        "served_per_s": ok / ref(session_raw),
        "host_latency_p50_ms": percentile(lat, 50),
        "host_latency_p99_ms": percentile(lat, 99),
    }
    r["outcome"] = o
    r["client"] = {k: c[k] for k in ("sent", "statuses")}
    r["client_paused_s"] = paused
    # One closed-loop connection: the session repeats exactly for a seed.
    r["fingerprint"] = json.dumps(
        [footer["metrics"], footer["counters"], r["events"]], sort_keys=True
    )
    return r


def verify_replay(log: Path):
    """``repro.serving.verify_replay``, imported from the checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.serving import verify_replay as verify

    return verify(log)


def run_once(work: Workload, seed: int, tmp: Path, tag: str, **kw) -> dict:
    if work.kind == "serve":
        kw.pop("stepping", None)
        return run_serve(work, seed, tmp, tag, **kw)
    return run_corun(work, seed, tmp, tag, **kw)


# ---------------------------------------------------------------- modes
def input_seed(seed: int, k: int) -> int:
    """Seed of input ``k`` of a run with benchmark seed ``seed``."""
    return seed * INPUTS_PER_RUN + k


def measure(work: Workload, seed: int, seconds: float, tmp: Path,
            runner=run_once) -> dict:
    """Untraced repeats over the run's inputs; medians of every metric.

    Repeat ``i`` runs input ``i % INPUTS_PER_RUN``, so at least one input
    runs twice and must repeat exactly.  Simulated-outcome metrics are
    the median over the distinct inputs, host metrics over all repeats,
    and host latency percentiles are taken over all repeats' samples.
    """
    good: list[tuple[int, dict]] = []
    failures: list[str] = []
    attempted = 0
    begin = time.perf_counter()

    def another_fits() -> bool:
        elapsed = time.perf_counter() - begin
        return elapsed + elapsed / attempted <= seconds

    while attempted < MIN_REPEATS or (
        attempted < MAX_REPEATS and another_fits()
    ):
        k = attempted % INPUTS_PER_RUN
        attempted += 1
        try:
            rep = runner(work, input_seed(seed, k), tmp, f"rep{attempted}")
        except CheckFailed as exc:
            failures.append(f"repeat {attempted}: {exc}")
            continue
        first = next((r for j, r in good if j == k), None)
        if first is not None and rep["fingerprint"] != first["fingerprint"]:
            failures.append(
                f"repeat {attempted}: simulated outcome or work counts "
                f"differ from the first run of input {k}"
            )
            continue
        good.append((k, rep))
    distinct = {k: r for k, r in reversed(good)}

    def median(name: str) -> float:
        if name in POOLED:
            return percentile(
                [x for _, r in good for x in r["latency_ms"]], POOLED[name]
            )
        pool = distinct.values() if name in SIMULATED else (r for _, r in good)
        return statistics.median(r["metrics"][name] for r in pool)

    metrics = {
        name: {"value": median(name), "unit": unit}
        for name, unit in spec_metrics("end_to_end").items()
    } if good else {}
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "repeats": [
            {"input_seed": input_seed(seed, k), "metrics": r["metrics"],
             "raw": r["raw"], "outcome": r["outcome"],
             **({"client": r["client"]} if "client" in r else {})}
            for k, r in good
        ],
    }


def traced(work: Workload, seed: int, tmp: Path) -> dict:
    """Untraced reference plus traced runs; the per-layer table."""
    failures: list[str] = []
    cross: list[str] = []  # checks between runs: they fail every run
    runs: dict[str, dict] = {}
    plan = [("reference", {}), ("traced", {"traced": True})]
    if work.kind == "corun":
        # A second traced run, unstepped, through run_cell: its work
        # counts must equal the stepped run's exactly.
        plan.append(("traced_unstepped", {"traced": True, "stepping": "none"}))
    for tag, kw in plan:
        try:
            runs[tag] = run_once(work, seed, tmp, tag, **kw)
        except CheckFailed as exc:
            failures.append(f"{tag}: {exc}")
    table = {}
    if "traced" in runs:
        table = dict(runs["traced"]["table"])
        samples = runs["traced"].get("open_samples") or [0, 0, 0]
        for q in range(3):
            table[f"guard.open_q{q + 1}"] = samples[q]
        if work.kind == "serve":
            # The client's calibration units idle the server's loop.
            paused = runs["traced"]["client_paused_s"]
            table["loop.host_s"] -= paused
            table["serving.front_door_s"] -= paused
            table["loop.unattributed_ratio"] = (
                table["serving.front_door_s"] / table["loop.host_s"]
            )
        if "reference" in runs:
            table["trace.overhead_ratio"] = (
                runs["traced"]["raw"]["wall_s"]
                / runs["reference"]["raw"]["wall_s"]
            )
    if work.kind == "serve" and len(runs) == 2:
        if runs["reference"]["fingerprint"] != runs["traced"]["fingerprint"]:
            cross.append(
                "traced and untraced sessions disagree on the simulated "
                "outcome or event count"
            )
    if work.kind == "corun" and len(runs) == 3:
        ref, a, b = runs["reference"], runs["traced"], runs["traced_unstepped"]
        if not (ref["fingerprint"] == a["fingerprint"] == b["fingerprint"]):
            cross.append(
                "stepped, traced and unstepped runs disagree on the simulated "
                "outcome or event count"
            )
        for name in WORK_COUNTS:
            if a["table"][name] != b["table"][name]:
                cross.append(
                    f"work count {name} does not repeat: "
                    f"{a['table'][name]} vs {b['table'][name]}"
                )
    if table and table["telemetry.emits"] != 0:
        cross.append("telemetry emitted on an untraced workload")
    shares = {}
    if table:
        shares = {
            "engine_share": table.pop("loop.engine_share"),
            "decision_share": table.pop("loop.decision_share"),
        }
    return {
        "attempted": len(plan),
        "failed": len(plan) if cross else len(plan) - len(runs),
        "failures": failures + cross,
        "metrics": {
            name: {"value": table[name], "unit": unit}
            for name, unit in spec_metrics("per_layer").items()
        } if len(runs) == len(plan) else {},
        "shares": shares,
    }


# ---------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    tmp = ROOT / ".perfbench_run" / f"{work.name}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            result = traced(work, input_seed(args.seed, 0), tmp)
        else:
            result = measure(work, args.seed, args.seconds, tmp)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance(),
        **result,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True)
    )
    report(record)
    correct = result["failed"] == 0 and bool(result["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


def report(record: dict) -> None:
    """Human-readable lines: provenance, checks, every metric with its unit."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"runs attempted {record['attempted']}, failed {record['failed']}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")
    for name, m in record["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    for name, value in record.get("shares", {}).items():
        print(f"  loop self-time {name:<13} {value:>14.3f}")
    if record.get("repeats"):
        first = record["repeats"][0]
        o = first["outcome"]
        print(f"  input seed {first['input_seed']}: sla_violation_ratio {o['sla_violation_ratio']:.6g} ratio "
              f"(= 1 - goodput_ratio); worst p50 app {o['worst_app_p50']}, "
              f"worst p99 app {o['worst_app_p99']}, completed samples per "
              f"app {o['samples_per_app']}")


if __name__ == "__main__":
    raise SystemExit(main())
