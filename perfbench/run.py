#!/usr/bin/env python3
"""End-to-end benchmark of the Cypher server over TCP.

    python3 perfbench/run.py --workload shop-read --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  It builds the server and the
benchmark's loader (perfbench/pbtool.ml) with dune, generates the
workload's marketplace graph from the seed, bulk-loads it through the
storage layer into a fresh database, launches bin/cypher_server on it
and drives it from two connections, checking every answer.

--trace 0 reports the end-to-end metrics; --trace 1 instead replays the
same request stream in-process with a span around every layer call
(perfbench/pbtool.ml) and reports the per-layer metrics.  Human-readable
report lines come first; the last line of stdout is one JSON object.
Workload parameters live in perfbench/spec.json; scratch files go to
perfbench/_work/, which is removed at the end of the run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from itertools import islice  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workload as W  # noqa: E402

SERVER_EXE = os.path.join("_build", "default", "bin", "cypher_server.exe")
TOOL_EXE = os.path.join("_build", "default", "perfbench", "pbtool.exe")
DEADLINE_S = 170  # every run after the build ends within this
TAGGED_RELS = "MATCH ()-[o:ORDERED]->() WHERE o.tag IS NOT NULL RETURN o.tag AS t"
TAGGED_PRODUCTS = "MATCH (p:Product) WHERE p.tag IS NOT NULL RETURN p.key AS k, p.tag AS t"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def percentile(xs, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q / 100 * len(s) + 0.5)) - 1))]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def build(root):
    cmd = ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet",
           "./bin/cypher_server.exe", "./perfbench/pbtool.exe"]
    try:
        r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])


def tool(root, *args):
    """Runs pbtool; returns its report lines and its final JSON line."""
    r = subprocess.run([os.path.join(root, TOOL_EXE), *args], cwd=root,
                       capture_output=True, text=True, timeout=DEADLINE_S)
    if r.returncode != 0:
        raise BenchError(f"pbtool {args[0]} failed: {r.stderr.strip()}")
    lines = r.stdout.rstrip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class Server:
    """bin/cypher_server on a database directory, on an ephemeral port."""

    def __init__(self, root, db, errlog):
        self.proc = subprocess.Popen(
            [os.path.join(root, SERVER_EXE), "--db", db],
            cwd=root, stdout=subprocess.PIPE, stderr=errlog, text=True)
        self.port = None
        try:
            while self.port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("server exited at start")
                if line.startswith("listening on "):
                    self.port = int(line.rsplit(":", 1)[1])
            with Conn(self.port) as c:
                c.request(":ping")
        except BaseException:
            self.kill()
            raise

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Conn:
    """One protocol connection: a request line in, payload lines and an
    OK/ERR terminator out."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb", buffering=1 << 16)

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        payload = []
        while True:
            raw = self.rfile.readline()
            if not raw:
                raise ConnectionError("server closed the connection")
            text = raw.decode().rstrip("\n")
            if text.startswith("OK") or text.startswith("ERR"):
                return payload, text
            payload.append(text[1:] if text.startswith((" OK", " ERR")) else text)

    def close(self):
        self.rfile.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


class Ledger:
    """Acknowledged writes, for the durability check after restart.
    Commit versions restart at every server launch, so writes are
    ordered by (epoch, version), with [epoch] counting launches."""

    def __init__(self):
        self.lock = threading.Lock()
        self.epoch = 0
        self.rels_added, self.rels_deleted = set(), set()
        self.product_writes = []  # ((epoch, version), product key, tag)

    def record(self, op, version):
        at = (self.epoch, version)
        with self.lock:
            if op.kind in ("write_create", "merge_same", "merge_all"):
                self.rels_added.update(op.tags)
            elif op.kind == "delete":
                self.rels_deleted.update(op.tags)
            elif op.kind in ("write_set", "tx"):
                self.product_writes.append((at, op.key, op.tags[0]))
            elif op.kind == "set":
                self.product_writes.extend((at, k, op.tags[0]) for k in op.key)


def send(conn, op):
    """Sends [op]'s lines; returns the payloads of the lines answered
    OK, the last terminator, and when it arrived.  A transaction the
    server aborts at :commit is retried from :begin, up to 3 times; one
    that fails before :commit is rolled back."""
    for _ in range(3 if op.kind == "tx" else 1):
        payloads = []
        for line in op.lines:
            payload, term = conn.request(line)
            if not term.startswith("OK"):
                break
            payloads.append(payload)
        done = time.perf_counter()
        if term.startswith("OK") or op.kind != "tx":
            break
        if op.lines[len(payloads)] != ":commit":
            conn.request(":rollback")
            break
    return payloads, term, done


class Sample:
    __slots__ = ("cls", "kind", "due", "sent", "done", "ok", "late")

    def __init__(self, cls, kind, due, sent, done, ok, late):
        self.cls, self.kind, self.due, self.sent, self.done, self.ok, self.late = (
            cls, kind, due, sent, done, ok, late)


def drive(port, streams, spec, seed, model, exact, ledger, t_start, t_end):
    """Runs every connection's stream on its own thread, from a warm-up
    before [t_start] until [t_end].  Closed loop: the next request goes
    out when the previous answer is in.  Open loop: each connection's
    requests are due at a fixed number of uniformly random instants (a
    Poisson process conditioned on its count) and are timed from when
    they were due.  Answers are checked after the timestamp.  Returns
    every sample (callers keep those due from [t_start]) and the
    connection errors, then the first few failed requests."""
    samples, errors, wrong = [], [], []
    warm0 = t_start - spec["warmup_s"]
    if spec["loop"] == "open":
        n = round(spec["rate_ops_s"] / len(streams) * (t_end - warm0))
        arrivals = []
        for c in range(len(streams)):
            rng = random.Random(f"arrivals/{seed}/{c}")
            arrivals.append(sorted(rng.uniform(warm0, t_end) for _ in range(n)))
    else:
        arrivals = None

    def worker(c, stream):
        out, prev_done = [], warm0
        schedule = iter(arrivals[c]) if arrivals else None
        try:
            with Conn(port) as conn:
                while True:
                    if schedule:
                        due = next(schedule, None)
                        if due is None:
                            break
                        wait = due - time.perf_counter()
                        if wait > 0:
                            time.sleep(wait)
                    else:
                        due = time.perf_counter()
                        if due >= t_end:
                            break
                    op = next(stream)
                    sent = time.perf_counter()
                    try:
                        payloads, term, done = send(conn, op)
                    except OSError:
                        out.append(Sample(op.cls, op.kind, due, sent, time.perf_counter(),
                                          False, 0.0))
                        raise
                    ok = term.startswith("OK") and W.check(op, payloads, model, exact)
                    if not ok and len(wrong) < 5:
                        wrong.append(f"{op.lines} -> {payloads} {term}")
                    if ok and op.cls != "read":
                        ledger.record(op, int(term.rsplit("version=", 1)[1]))
                    late = sent - max(due, prev_done) if schedule else 0.0
                    out.append(Sample(op.cls, op.kind, due, sent, done, ok, late))
                    prev_done = done
        except Exception as e:  # noqa: BLE001 - reported as a failed run
            errors.append(f"connection {c}: {e!r}")
        samples.extend(out)

    # daemon threads: a run cut by the deadline must not wait for them
    threads = [threading.Thread(target=worker, args=(c, s), daemon=True)
               for c, s in enumerate(streams)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples, errors, wrong


# ---------------------------------------------------------------------------
# Durability
# ---------------------------------------------------------------------------


def durability_check(port, ledger):
    """Lost acknowledged writes: created relationships that are gone,
    deleted ones that are back, and products whose tag is not the one
    the last acknowledged write (highest commit version) set."""
    with Conn(port) as c:
        payload, term = c.request(TAGGED_RELS)
        if not term.startswith("OK"):
            raise BenchError(f"durability query failed: {term}")
        rels = [r[0] for r in W.parse_table(payload)[1]]
        payload, term = c.request(TAGGED_PRODUCTS)
        if not term.startswith("OK"):
            raise BenchError(f"durability query failed: {term}")
        products = {k: t for k, t in W.parse_table(payload)[1]}
    live = ledger.rels_added - ledger.rels_deleted
    present = set(rels)
    lost = len(live - present) + len(present & ledger.rels_deleted)
    last = {}
    for _, key, tag in sorted(ledger.product_writes):
        last[key] = tag
    lost += sum(1 for k, t in last.items() if products.get(k) != t)
    return lost, len(live) + len(ledger.rels_deleted) + len(last)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def prepare_inputs(work, spec, seed):
    model = W.Marketplace(spec["graph"], seed)
    nodes, rels = os.path.join(work, "nodes.csv"), os.path.join(work, "rels.csv")
    model.write_csv(nodes, rels)
    return model, nodes, rels


def open_streams(wl, spec, model, seed):
    return [W.STREAMS[wl](spec, model, seed, c) for c in range(spec["connections"])]


def setup(root, work, nodes, rels, errlog):
    """A fresh database, loaded and served: (seconds, server, loader
    report, database directory)."""
    db = os.path.join(work, "db")
    shutil.rmtree(db, ignore_errors=True)
    t0 = time.perf_counter()
    _, loaded = tool(root, "setup", db, nodes, rels)
    server = Server(root, db, errlog)
    return time.perf_counter() - t0, server, loaded, db


def latency_ms(samples, pred=lambda s: True):
    return [(s.done - s.due) * 1000 for s in samples if pred(s)]


def e2e_run(root, work, wl, spec, seed, seconds):
    """The measured window is split into [segments], each served by its
    own server process: the per-process speed of this kind of host
    varies by several per cent, and pooling processes averages it out.
    A segment ends with a SIGKILL and a timed relaunch.  With
    [fresh_segments] every segment starts from a fresh set-up and the
    start of the stream; otherwise the next segment continues the
    stream on the relaunched server."""
    model, nodes, rels = prepare_inputs(work, spec, seed)
    writes = any(not kind.startswith("read_") for kind in spec["mix"])
    # with no writes every answer is known exactly
    exact = not writes
    part = seconds / spec["segments"]
    setups, restarts, rss, window, errors, failures = [], [], [], [], [], []
    lost = checked = 0
    cpu = wall = 0.0
    errlog = open(os.path.join(work, "server.err"), "w")
    server = None
    try:
        for i in range(spec["segments"]):
            # a fresh segment replays its own stream (the first is the
            # one the traced run replays); a continued one carries on
            part_seed = seed if i == 0 else f"{seed}.{i}"
            if i == 0 or spec["fresh_segments"]:
                if server is not None:
                    server.kill()
                t, server, loaded, db = setup(root, work, nodes, rels, errlog)
                setups.append(t)
                streams, ledger = open_streams(wl, spec, model, part_seed), Ledger()
            cpu0, t0 = os.times(), time.perf_counter()
            t_start = t0 + spec["warmup_s"]
            samples, errs, bad = drive(server.port, streams, spec, part_seed, model, exact,
                                  ledger, t_start, t_start + part)
            cpu1, t1 = os.times(), time.perf_counter()
            cpu += (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
            wall += t1 - t0
            window += [(s, t_start + part) for s in samples if s.due >= t_start]
            errors += errs
            failures += bad
            rss.append(server.peak_rss_mb())
            server.kill()
            t0 = time.perf_counter()
            server = Server(root, db, errlog)
            restarts.append(time.perf_counter() - t0)
            ledger.epoch += 1
            if writes and (spec["fresh_segments"] or i == spec["segments"] - 1):
                n_lost, n_checked = durability_check(server.port, ledger)
                lost, checked = lost + n_lost, checked + n_checked
    finally:
        if server is not None:
            server.kill()
        errlog.close()

    completed = sum(1 for s, end in window if s.done <= end)
    backlog = sum(1 for s, end in window if s.sent > end)
    window = [s for s, _ in window]
    failed = sum(1 for s in window if not s.ok) + len(errors)
    attempted = max(1, len(window) + len(errors))
    report = {
        "samples": len(window),
        "error_rate": failed / attempted,
        "lost_writes": lost,
        "durability_checked": checked,
        "client_cpu_share": cpu / wall,
        "setup_s_all": setups,
        "restart_s_all": restarts,
        "graph": f"{loaded['nodes']:.0f} nodes, {loaded['rels']:.0f} relationships",
    }
    for cls in ("read", "write", "tx"):
        lat = latency_ms(window, lambda s: s.cls == cls)
        if lat:
            report[f"{cls}_n"] = len(lat)
            report[f"{cls}_p50_ms"] = statistics.median(lat)
            report[f"{cls}_p99_ms"] = percentile(lat, 99)
    for kind in sorted({s.kind for s in window}):
        report[f"{kind}_p50_ms"] = statistics.median(latency_ms(window, lambda s: s.kind == kind))
    invalid = []
    if spec["loop"] == "open":
        late = [s.late * 1000 for s in window]
        report.update(offered_ops_s=spec["rate_ops_s"],
                      generator_late_p99_ms=percentile(late, 99),
                      generator_late_max_ms=max(late),
                      backlog_at_end=backlog)
        if percentile(late, 99) > 5:
            invalid.append("the generator sent late (p99 lateness > 5 ms)")
    if cpu / wall > 0.9:
        invalid.append("the client used more than 90% of a core")
    for k, v in report.items():
        log(f"  {k:28} {round(v, 4) if isinstance(v, float) else v}")
    for e in errors:
        log(f"  error: {e}")
    for f in failures:
        log(f"  failed: {f}")
    for why in invalid:
        log(f"  INVALID: {why}")
    correct = not errors and lost == 0 and not invalid and (not exact or failed == 0)
    lat = latency_ms(window)
    metrics = {
        "throughput_ops_s": completed / seconds,
        "p50_ms": statistics.median(lat),
        "p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(setups),
        "restart_s": statistics.median(restarts),
        "server_rss_mb": max(rss),
    }
    return correct, attempted, failed, metrics


def trace_run(root, work, wl, spec, seed, seconds, spec_layers):
    model, nodes, rels = prepare_inputs(work, spec, seed)
    streams = open_streams(wl, spec, model, seed)
    db = os.path.join(work, "db")
    _, loaded = tool(root, "setup", db, nodes, rels)
    stream_path = os.path.join(work, "stream.tsv")
    cap = spec["trace_ops_per_conn"]
    with open(stream_path, "w") as f:
        for c, stream in enumerate(streams):
            ops = list(islice(stream, cap))
            distinct, hit = W.plan_cache_profile(ops)
            log(f"  connection {c}: {len(ops)} ops, {distinct} distinct texts, "
                f"simulated 128-entry plan-cache hit ratio {hit:.3f}")
            for op in ops:
                f.write(f"{c}\t{op.kind}\t" + "\t".join(op.lines) + "\n")
    lines, raw = tool(root, "trace", db, stream_path, str(seconds), str(spec["alloc_ops"]))
    for line in lines:
        log(line)
    raw["storage.bulk_load_s"] = loaded["bulk_load_s"]
    raw["storage.compact_s"] = loaded["compact_s"]
    raw["storage.snapshot_mb"] = loaded["snapshot_bytes"] / 1e6
    for name, doc in spec_layers.items():
        log(f"  {name:30} {raw[name]:12.4f}  {doc['times']}; moves {doc['moves']}")
    failed = int(raw.pop("trace.failed"))
    attempted = int(raw.pop("trace.attempted"))
    return failed == 0, attempted, failed, raw


def on_deadline(signum, frame):
    raise BenchError(f"the run took more than {DEADLINE_S} s after the build")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a client thread whose answer has arrived waits for the other to
    # release the interpreter; keep that wait far below a request's time
    sys.setswitchinterval(1e-4)
    root = os.getcwd()
    with open(os.path.join(HERE, "spec.json")) as f:
        spec_all = json.load(f)
    if args.workload not in spec_all["workloads"]:
        raise BenchError(f"unknown workload {args.workload}")
    spec = spec_all["workloads"][args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    build(root)
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        log(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            correct, attempted, failed, measured = trace_run(
                root, work, args.workload, spec, args.seed, args.seconds,
                spec_all["per_layer"])
        else:
            correct, attempted, failed, measured = e2e_run(
                root, work, args.workload, spec, args.seed, args.seconds)
    finally:
        signal.alarm(0)
        shutil.rmtree(os.path.join(HERE, "_work"), ignore_errors=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
